package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"memories/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files from this run's output")

// table3Title is the rendered title whose timing columns (measured
// simulator wall clock and the speedup derived from it) are
// nondeterministic and must be masked before a golden comparison.
const table3Title = "TABLE 3. Execution Times of C Simulator vs. MemorIES"

// normalizeResult deep-copies a result with the wall-clock cells of
// table3 replaced by a fixed token, so the rendered text is bit-stable
// run to run. Everything else passes through untouched: any change to a
// miss ratio, a table shape, or a note is a golden diff.
func normalizeResult(res *Result) *Result {
	out := &Result{ID: res.ID, Title: res.Title, Notes: res.Notes}
	for _, tb := range res.Tables {
		cp := &stats.Table{Title: tb.Title, Headers: tb.Headers}
		for _, row := range tb.Rows {
			r := append([]string(nil), row...)
			if tb.Title == table3Title && len(r) >= 4 {
				r[1] = "<wall-clock>"
				r[3] = "<speedup>"
			}
			cp.Rows = append(cp.Rows, r)
		}
		out.Tables = append(out.Tables, cp)
	}
	return out
}

// goldenIDs are the experiments whose CI-scale output is locked in
// testdata/golden/<id>.txt.
var goldenIDs = []string{"faults", "fig8", "fig9", "fig11", "hostscale", "protocolcompare", "table3"}

// ciRuns memoizes RunWith(id, ciPreset(1)) across the
// tests of one binary, so the shape test and the golden test share one
// run of each experiment.
var ciRuns sync.Map // id → *ciRun

type ciRun struct {
	once sync.Once
	res  *Result
	err  error
}

// ciResult returns the experiment's CI-scale -parallel 1 result, running
// it on first use only. Concurrent callers for one id wait for the one
// run.
func ciResult(id string) (*Result, error) {
	v, _ := ciRuns.LoadOrStore(id, &ciRun{})
	r := v.(*ciRun)
	r.once.Do(func() { r.res, r.err = RunWith(id, ciPreset(1)) })
	return r.res, r.err
}

// TestExperimentsGolden locks the rendered output of the paper's key
// figures at CI scale against checked-in golden files. It reads the run
// TestAllExperimentsReproduceShapes already made (ciResult), so each
// experiment runs once. Run with -update to rewrite them after an
// intentional change:
//
//	go test ./internal/experiments/ -run TestExperimentsGolden -update
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regeneration skipped in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("golden regeneration skipped under the race detector; `make experiments` runs it without")
	}
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res, err := ciResult(id)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, res)
		})
	}
}

// checkGolden compares the rendered, normalized output of res with its
// golden file, and with -update rewrites the file instead.
func checkGolden(t *testing.T, res *Result) {
	t.Helper()
	got := normalizeResult(res).String()
	path := filepath.Join("testdata", "golden", res.ID+".txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output drifted from %s (re-run with -update if intentional)\n--- got ---\n%s--- want ---\n%s",
			res.ID, path, got, want)
	}
}
