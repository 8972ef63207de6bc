package experiments

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"memories/internal/addr"
	"memories/internal/host"
	"memories/internal/obs"
	"memories/internal/workload"
)

// obsRunKey names one memoized obsRun: an experiment and its -parallel.
type obsRunKey struct {
	id       string
	parallel int
}

type obsRunOut struct {
	once sync.Once
	prom string
	snap *obs.Snapshot
	res  *Result
	err  error
}

// obsRuns memoizes obsRun across the tests of one binary, so
// TestSnapshotDeterministic and TestRunWithParallelEquivalence share one
// -parallel 1 and one -parallel 8 run of fig8.
var obsRuns sync.Map // obsRunKey → *obsRunOut

// obsRun executes one experiment with a live sampler attached to a
// fresh registry and returns the final rendered snapshot (Prometheus
// text), the snapshot itself and the experiment's result. It runs the
// experiment on first use only.
func obsRun(t *testing.T, id string, parallel int) (string, *obs.Snapshot, *Result) {
	t.Helper()
	v, _ := obsRuns.LoadOrStore(obsRunKey{id, parallel}, &obsRunOut{})
	o := v.(*obsRunOut)
	o.once.Do(func() {
		reg := obs.NewRegistry()
		sampler := &obs.Sampler{Reg: reg, Interval: 10 * time.Millisecond, JSONL: io.Discard}
		sampler.Start()
		o.res, o.err = RunWith(id, ScaleCI, Options{Parallel: parallel, Obs: reg})
		sampler.Stop()
		if o.err != nil {
			return
		}
		o.snap = reg.Snapshot()
		var buf bytes.Buffer
		o.err = obs.WriteProm(&buf, o.snap)
		o.prom = buf.String()
	})
	if o.err != nil {
		t.Fatal(o.err)
	}
	return o.prom, o.snap, o.res
}

// TestSnapshotDeterministic: a serial run and a -parallel run of the
// same experiment, each with a live sampler snapshotting mid-flight, end
// with bit-identical final registry snapshots and table cells — every
// board publishes exact values at its quiesce point, so concurrency and
// sampling cadence leave no residue.
func TestSnapshotDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-experiment determinism skipped in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("full-experiment determinism skipped under the race detector; `make experiments` runs it without")
	}
	// A board-driven experiment only: table1/table3 and friends compute
	// from models or the software simulator and publish no board scopes.
	for _, id := range []string{"fig8"} {
		t.Run(id, func(t *testing.T) {
			serialProm, serialSnap, serialRes := obsRun(t, id, 1)
			parProm, _, parRes := obsRun(t, id, 8)
			compareCells(t, serialRes, parRes)
			if serialProm != parProm {
				t.Errorf("final Prometheus snapshots differ between -parallel 1 and 8:\n--- serial ---\n%s--- parallel ---\n%s",
					serialProm, parProm)
			}
			if len(serialSnap.Counters) == 0 {
				t.Fatal("experiment published no counters")
			}
			// JSON-lines rendering of the same snapshot is deterministic too.
			var a, b bytes.Buffer
			if err := obs.WriteJSON(&a, serialSnap); err != nil {
				t.Fatal(err)
			}
			if err := obs.WriteJSON(&b, serialSnap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Error("JSON rendering not deterministic")
			}
		})
	}
}

// TestObsRerunSameScopeFails documents the one-scope-per-run rule: a
// second board attaching under an already-used scope on the same
// registry fails loudly instead of silently double-counting. This is
// what a caller hits when re-running the same experiment ID against the
// same Options.Obs registry.
func TestObsRerunSameScopeFails(t *testing.T) {
	hcfg := host.DefaultConfig()
	newGen := func() workload.Generator {
		return workload.NewZipfian(workload.ZipfConfig{
			NumCPUs: hcfg.NumCPUs, FootprintByte: 32 * addr.MB, WriteFraction: 0.25, Seed: 9,
		})
	}
	p := Preset{Obs: obs.NewRegistry(), ObsScope: "fig8"}
	sizes := []int64{2 * 1024 * 1024}
	if _, err := cacheSweep(p, "tpcc.long", hcfg, newGen, sizes, 128, 4, 10_000); err != nil {
		t.Fatal(err)
	}
	if _, err := cacheSweep(p, "tpcc.long", hcfg, newGen, sizes, 128, 4, 10_000); err == nil {
		t.Fatal("second sweep on the same registry scope did not fail")
	}
}
