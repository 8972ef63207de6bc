//go:build go1.24

package experiments

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"memories/internal/addr"
	"memories/internal/core"
	"memories/internal/host"
	"memories/internal/workload"
)

// TestStreamRunTapLifetime: streamRun's board workers live only inside
// the run. When it returns no goroutine is left behind, and boards the
// caller drops are collected: nothing the run started pins them.
func TestStreamRunTapLifetime(t *testing.T) {
	hcfg := host.DefaultConfig()
	newGen := func() workload.Generator {
		return workload.NewZipfian(workload.ZipfConfig{
			NumCPUs: hcfg.NumCPUs, FootprintByte: 32 * addr.MB, WriteFraction: 0.25, Seed: 9,
		})
	}
	all := core.CPURange(hcfg.NumCPUs)
	cfgs := []core.Config{
		{Nodes: []core.NodeConfig{stdNode(Preset{}, "s0", all, addr.MB, 128, 4, 0)}},
		{Nodes: []core.NodeConfig{stdNode(Preset{}, "s1", all, 4*addr.MB, 128, 8, 0)}},
	}
	before := runtime.NumGoroutine()
	boards := func() []weak.Pointer[core.Board] {
		bs, err := streamRun(Preset{}, []string{"a", "b"}, hcfg, newGen, cfgs, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after streamRun, %d before", runtime.NumGoroutine(), before)
			}
			runtime.Gosched()
		}
		var ws []weak.Pointer[core.Board]
		for _, b := range bs {
			if b.Counters().Value("filter.accepted") == 0 {
				t.Fatal("a board accepted no transactions")
			}
			ws = append(ws, weak.Make(b))
		}
		return ws
	}()
	runtime.GC()
	for i, w := range boards {
		if w.Value() != nil {
			t.Fatalf("board %d is still reachable after streamRun returned and was dropped", i)
		}
	}
}
