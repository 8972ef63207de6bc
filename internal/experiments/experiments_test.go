package experiments

import (
	"strings"
	"testing"

	"memories/internal/addr"
)

func TestScaleParsing(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scale
	}{{"ci", ScaleCI}, {"default", ScaleDefault}, {"", ScaleDefault}, {"paper", ScalePaper}, {"PAPER", ScalePaper}} {
		got, err := ParseScale(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseScale(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("ParseScale accepted unknown scale")
	}
}

func TestIDsAndTitles(t *testing.T) {
	ids := IDs()
	want := []string{"faults", "fig1", "fig10", "fig11", "fig12", "fig8", "fig9", "hostscale", "protocolcompare", "table1", "table2", "table3", "table4", "table5", "table6"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
	for _, id := range ids {
		if Title(id) == "" {
			t.Errorf("no title for %s", id)
		}
	}
}

// ciPreset is the CI-scale preset with Parallel set, as cmd/experiments
// -scale ci -parallel n builds it.
func ciPreset(parallel int) Preset {
	p := PresetFor(ScaleCI)
	p.Parallel = parallel
	return p
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := RunWith("fig99", ciPreset(1)); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestStaticExhibits(t *testing.T) {
	for _, id := range []string{"table1", "fig1"} {
		res, err := RunWith(id, ciPreset(1))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) == 0 || len(res.Tables[0].Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		if !strings.Contains(res.String(), res.Title) {
			t.Fatalf("%s: String() missing title", id)
		}
	}
}

// TestAllExperimentsReproduceShapes is the repository's headline test: at
// CI scale, every table and figure regenerates and satisfies the paper's
// qualitative claims (RunWith returns the shape error). Its runs are
// memoized (ciResult), so TestExperimentsGolden compares the same runs
// and each experiment runs once. Skipped under -short (it simulates tens
// of millions of references).
func TestAllExperimentsReproduceShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment reproduction skipped in -short mode")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res, err := ciResult(id)
			if err != nil {
				t.Fatalf("shape violation or failure: %v", err)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables produced")
			}
			t.Logf("\n%s", res.String())
		})
	}
}

// TestTable2FullFillSmall runs the -bigmem full-fill path at a small
// size: every slot resident, inside the 9 B/slot budget, and reported.
func TestTable2FullFillSmall(t *testing.T) {
	note, err := runTable2FullFill(16 * addr.MB)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "131072 slots resident") || !strings.Contains(note, "B/slot") {
		t.Fatalf("unexpected bigmem note: %q", note)
	}
}
