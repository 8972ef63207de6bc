package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"memories/internal/bus"
	"memories/internal/simbase"
	"memories/protocols"
)

// The percentile rule: the highest percentile with at least ten samples
// beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); pct != 90 || math.Abs(v-89.1) > 1e-9 {
		t.Errorf("tail of 100 samples = %g at p%g, want 89.1 at p90", v, pct)
	}
	if _, pct := tail(make([]float64, 5000)); pct != 95 {
		t.Errorf("tail of 5000 samples reports p%g, want p95 (the name's percentile is the ceiling)", pct)
	}
}

// Self time subtracts the union of the direct children: nested spans
// count once through their parent, overlapping siblings not twice, and
// a child running past its parent only up to the parent's end.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "nested", Start: 15, End: 25}, // inside a: must not touch root
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},      // overlaps a by 10
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120},     // runs past root
		{ID: 6, Parent: 1, Name: "b", Start: 70, End: 80},
	}
	tot := totals(spans)
	for name, want := range map[string]spanTotals{
		"root":   {Count: 1, Total: 100, Self: 100 - (50 + 10 + 10)},
		"a":      {Count: 1, Total: 30, Self: 20},
		"nested": {Count: 1, Total: 10, Self: 10},
		"b":      {Count: 2, Total: 40, Self: 40},
		"c":      {Count: 1, Total: 30, Self: 30},
	} {
		if got := tot[name]; got != want {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}

	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner, 3)
	tr.end(outer, 7)
	if tr.spans[1].Parent != outer || tr.spans[0].Parent != 0 || tr.spans[0].Work != 7 {
		t.Errorf("tracer nesting wrong: %+v", tr.spans)
	}
	var off *tracer
	off.end(off.begin("x"), 1) // the untraced run: no-ops, no panic
}

func TestSliceRatesAndHistQuantile(t *testing.T) {
	var l lane
	for i := 1; i <= 4; i++ { // 10 tx per op; ops end at 1, 2, 4, 6 s
		end := time.Duration([]int{1, 2, 4, 6}[i-1]) * time.Second
		l.add(end, time.Second, 10, 480)
	}
	got := sliceRates([]lane{l, l}, 2, laneTx)
	if len(got) != 2 || got[0] != 20 || got[1] != 10 {
		t.Errorf("sliceRates = %v, want [20 10] (two lanes summed)", got)
	}
	bounds, counts := []uint64{10, 20, 40}, []uint64{0, 10, 10, 0}
	if q := histQuantile(bounds, counts, 0.5); q != 20 {
		t.Errorf("histogram p50 = %g, want 20", q)
	}
	if q := histQuantile(bounds, counts, 0.75); q != 30 {
		t.Errorf("histogram p75 = %g, want 30", q)
	}
}

// BENCHMARK.json and the tables in metrics.go and workloads.go are the
// same list.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, nominalSeconds %d", doc.RunSeconds, nominalSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, specs has %q", i, w.Name, specs[i].name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, metrics.go %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// The isolated replays are only worth anything if the driver's model of
// a node controller makes the calls core makes: on a four-node MOESI
// stream it must classify every reference as the reference simulator does.
func TestDirModelMatchesTraceSim(t *testing.T) {
	table, err := protocols.Load("moesi")
	if err != nil {
		t.Fatal(err)
	}
	cfg := replayCfg{footprint: 1 << 20, writeFrac: 0.6, nodes: 4, cpus: 8, cacheBytes: 64 << 10, assoc: 8}
	bcfg := cfg.boardConfig(table)
	d, err := newDirModel(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []simbase.TraceNodeConfig
	for _, nc := range bcfg.Nodes {
		nodes = append(nodes, simbase.TraceNodeConfig{CPUs: nc.CPUs, Geometry: nc.Geometry, Policy: nc.Policy, Protocol: nc.Protocol})
	}
	ref := simbase.MustNewTraceSim(nodes)
	next := zipfRecords(cfg, 3, 40_000, 1000, nil)
	for recs := next(); recs != nil; recs = next() {
		ref.ProcessBatch(recs)
		for _, r := range recs {
			d.step(&bus.Transaction{Cmd: r.Cmd, Addr: r.Addr, SrcID: int(r.SrcID)})
		}
	}
	for i, n := range d.nodes {
		s, want := n.a.Stats(), ref.NodeStats(i)
		if s.Probes != want.Refs() || s.Probes-s.Hits != want.Misses() || s.Evictions != want.Evictions {
			t.Errorf("node %d: model %d refs %d misses %d evictions; reference %d %d %d",
				i, s.Probes, s.Probes-s.Hits, s.Evictions, want.Refs(), want.Misses(), want.Evictions)
		}
		if n.b.Stats() != s {
			t.Errorf("node %d: mirror directory drifted from the deciding one", i)
		}
	}
}

func testEnv(t *testing.T, procs int) *env {
	t.Helper()
	dir := t.TempDir()
	return &env{seed: 7, seconds: nominalSeconds, quick: true, procs: procs, benchDir: ".", outDir: dir, tmpDir: dir}
}

// The -quick miniature of all six workloads, untraced then traced, at
// GOMAXPROCS 1 and 2: tier-1's guard against API drift that would break
// the benchmark, and against simulated statistics that depend on
// scheduling. Digests must match bench/expected/*-seed7-quick.json.
func TestQuickAllWorkloads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	digests := map[string]string{}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		e := testEnv(t, procs)
		for i := range specs {
			s := &specs[i]
			r := &result{Workload: s.name, Seed: e.seed, Ops: s.opsFor(e)}
			if err := untraced(e, s, r); err != nil {
				t.Fatalf("%s untraced at GOMAXPROCS %d: %v", s.name, procs, err)
			}
			if err := traced(e, s, r); err != nil {
				t.Fatalf("%s traced at GOMAXPROCS %d: %v", s.name, procs, err)
			}
			checkExpected(e, r)
			if !r.correct() {
				t.Errorf("%s at GOMAXPROCS %d: %v", s.name, procs, r.Problems)
			}
			if !strings.HasPrefix(r.Notes["expected"], "expected: digest matches") {
				t.Errorf("%s: %s", s.name, r.Notes["expected"])
			}
			if prev, ok := digests[s.name]; ok && prev != r.Sim.Digest {
				t.Errorf("%s: digest differs between GOMAXPROCS 1 and 2", s.name)
			}
			digests[s.name] = r.Sim.Digest
			for _, d := range endToEnd {
				if v := r.EndToEnd[d.Name]; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", s.name, d.Name, v)
				}
			}
			for name := range r.PerLayer {
				if !knownLayerMetric(name) {
					t.Errorf("%s reports %q, which metrics.go does not list", s.name, name)
				}
			}
			if (r.RefErr == nil) != (s.name == "host_tpcc_smp8" || s.name == "host_wheel_64") {
				t.Errorf("%s: validated = %v", s.name, r.RefErr != nil)
			}
			if len(r.Ledger) < 4 {
				t.Errorf("%s: ledger has %d lines", s.name, len(r.Ledger))
			}
		}
	}
}

func knownLayerMetric(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return true
		}
	}
	return false
}

// A corrupted expectation must fail the run, not pass quietly.
func TestDigestMismatchIsIncorrect(t *testing.T) {
	e := testEnv(t, 1)
	e.benchDir = t.TempDir()
	if err := os.Mkdir(e.benchDir+"/expected", 0o755); err != nil {
		t.Fatal(err)
	}
	s := findSpec("replay_l3_64m")
	r := &result{Workload: s.name, Seed: e.seed, Ops: s.opsFor(e)}
	if err := untraced(e, s, r); err != nil {
		t.Fatal(err)
	}
	if err := writeExpected(e, r); err != nil {
		t.Fatal(err)
	}
	checkExpected(e, r)
	if !r.correct() {
		t.Fatalf("fresh expectation rejected: %v", r.Problems)
	}
	r.Sim.Digest = "0" + r.Sim.Digest[1:]
	checkExpected(e, r)
	if r.correct() {
		t.Fatal("digest mismatch accepted")
	}
}

func TestRefusals(t *testing.T) {
	t.Setenv("GOMAXPROCS", "100000")
	if _, err := setProcs(); err == nil {
		t.Error("GOMAXPROCS above the CPU count accepted")
	}
	e := &env{benchDir: t.TempDir()}
	release, err := e.acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&env{benchDir: e.benchDir}).acquire(); err == nil {
		t.Error("second run took the lock the first still holds")
	}
	release()
	release2, err := (&env{benchDir: e.benchDir}).acquire()
	if err != nil {
		t.Fatalf("lock not released: %v", err)
	}
	release2()
	// A lock left by a run that died is stale.
	if err := os.WriteFile(e.benchDir+"/out/.lock", []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	release3, err := (&env{benchDir: e.benchDir}).acquire()
	if err != nil {
		t.Fatalf("stale lock not taken over: %v", err)
	}
	release3()
}
