package experiments

import (
	"maps"
	"reflect"
	"strings"
	"testing"

	"memories/internal/addr"
	"memories/internal/core"
	"memories/internal/host"
	"memories/internal/parallel"
	"memories/internal/workload"
	"memories/protocols"
)

// TestSharedStreamMatchesSeparateRuns: boards riding one bus in one
// streamRun end with exactly the counter banks — every counter, not only
// the node views — that each board reaches alone on a fresh host. This
// is what lets every sweep run its reference stream once. The boards
// are a cacheSweep board of four snoop groups, a two-node MOESI group
// whose interventions cross nodes, and a two-node MSI group.
func TestSharedStreamMatchesSeparateRuns(t *testing.T) {
	hcfg := host.DefaultConfig()
	newGen := func() workload.Generator {
		return workload.NewZipfian(workload.ZipfConfig{
			NumCPUs: hcfg.NumCPUs, FootprintByte: 32 * addr.MB, WriteFraction: 0.25, Seed: 9,
		})
	}
	refs := uint64(120_000)
	if raceDetectorEnabled {
		refs = 20_000
	}
	all := core.CPURange(hcfg.NumCPUs)
	moesi := Preset{Protocol: protocols.MustLoad("moesi")}
	msi := Preset{Protocol: protocols.MustLoad("msi")}
	labels := []string{"groups", "moesi", "msi"}
	cfgs := []core.Config{
		{Nodes: []core.NodeConfig{
			stdNode(Preset{}, "s0", all, addr.MB, 128, 4, 0),
			stdNode(Preset{}, "s1", all, 2*addr.MB, 128, 4, 1),
			stdNode(Preset{}, "s2", all, 4*addr.MB, 128, 4, 2),
			stdNode(Preset{}, "s3", all, 4*addr.MB, 128, 8, 3),
		}},
		{Nodes: splitNodes(moesi, 2, hcfg.NumCPUs/2, 2*addr.MB, 128, 8)},
		{Nodes: splitNodes(msi, 2, hcfg.NumCPUs/2, addr.MB, 128, 4)},
	}
	shared, err := streamRun(Preset{}, labels, hcfg, newGen, cfgs, refs)
	if err != nil {
		t.Fatal(err)
	}
	// The separate runs go concurrently, so under -race they also check
	// that streams running side by side share no mutable state.
	alone, err := parallel.Map(len(cfgs), len(cfgs), func(i int) ([]*core.Board, error) {
		return streamRun(Preset{}, labels[i:i+1], hcfg, newGen, cfgs[i:i+1], refs)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, label := range labels {
		got, want := shared[i].Counters().Snapshot(), alone[i][0].Counters().Snapshot()
		if want["filter.accepted"] == 0 {
			t.Fatalf("%s: board accepted no transactions", label)
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s: counter bank differs between the shared and the separate run:\nshared %v\nalone  %v", label, got, want)
		}
	}

	// A board that may post Retry would change the stream of every other
	// board on its bus, so streamRun refuses it and names its label.
	cfgs[1].RetryOnOverflow = true
	if _, err := streamRun(Preset{}, labels, hcfg, newGen, cfgs, refs); err == nil || !strings.Contains(err.Error(), `"moesi"`) {
		t.Fatalf("streamRun with a RetryOnOverflow board: err = %v, want one naming \"moesi\"", err)
	}
}

// deterministicCells strips the wall-clock columns of table3 (measured
// simulator time and the speedup derived from it), which vary run to run
// even serially; everything else must be byte-identical.
func deterministicCells(res *Result) [][]string {
	var out [][]string
	for _, tb := range res.Tables {
		for _, row := range tb.Rows {
			switch tb.Title {
			case table3Title:
				out = append(out, []string{row[0], row[2]})
			default:
				out = append(out, row)
			}
		}
	}
	return out
}

// compareCells fails t if a -parallel 1 and a -parallel N result of the
// same experiment differ in any deterministic cell.
func compareCells(t *testing.T, serial, par *Result) {
	t.Helper()
	if sc, pc := deterministicCells(serial), deterministicCells(par); !reflect.DeepEqual(sc, pc) {
		t.Errorf("cells differ between -parallel 1 and -parallel N:\nserial   %q\nparallel %q", sc, pc)
	}
}

// TestRunWithParallelEquivalence: Table 3's simulator sweep and Figure
// 8's board sweep report identical miss ratios and counters whether run
// with -parallel 1 or -parallel 8. fig8's two runs are the ones
// TestSnapshotDeterministic makes (obsRun is memoized).
func TestRunWithParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-experiment equivalence skipped in -short mode")
	}
	if raceDetectorEnabled {
		// Determinism, not synchronization, is under test here; the
		// race-enabled interleaving coverage for the rig comes from
		// TestSharedStreamMatchesSeparateRuns and internal/parallel's tests.
		t.Skip("full-experiment equivalence skipped under the race detector; `make experiments` runs it without")
	}
	t.Run("table3", func(t *testing.T) {
		serial, err := RunWith("table3", ScaleCI, Options{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := RunWith("table3", ScaleCI, Options{Parallel: 8})
		if err != nil {
			t.Fatal(err)
		}
		compareCells(t, serial, par)
	})
	t.Run("fig8", func(t *testing.T) {
		_, _, serial := obsRun(t, "fig8", 1)
		_, _, par := obsRun(t, "fig8", 8)
		compareCells(t, serial, par)
	})
}
