package benchfmt

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: memories
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable3BoardSnoop    	    1000	       501.0 ns/op	         0.5600 missratio
BenchmarkTable3BoardSnoop    	    1000	       499.0 ns/op	         0.5600 missratio
BenchmarkTable3BoardSnoop    	    1000	       520.0 ns/op	         0.5600 missratio
BenchmarkFig8MultiConfigSweep	    1000	      2000 ns/op	         0.1200 missratio16MB
BenchmarkAblationBufferDepth/depth512 	 1000	 300.0 ns/op
BenchmarkBoardSustainedTxPerSec  	    1000	       410.0 ns/op	   2439024 tx/s
BenchmarkBoardSustainedTxPerSec-8	    1000	       400.0 ns/op	   2500000 tx/s
PASS
ok  	memories	1.234s
`

func parseSample(t *testing.T) []Summary {
	t.Helper()
	rs, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	return Summarize(rs)
}

func find(t *testing.T, ss []Summary, name string, procs int) Summary {
	t.Helper()
	for _, s := range ss {
		if s.Name == name && s.Procs == procs {
			return s
		}
	}
	t.Fatalf("no summary for %s-%d", name, procs)
	return Summary{}
}

func TestParseAndSummarize(t *testing.T) {
	ss := parseSample(t)
	snoop := find(t, ss, "BenchmarkTable3BoardSnoop", 1)
	if snoop.Runs != 3 || snoop.NsPerOp != 501.0 {
		t.Fatalf("median of 3 runs = %+v", snoop)
	}
	if snoop.Metrics["missratio"] != 0.56 {
		t.Fatalf("missratio = %v", snoop.Metrics)
	}
	// The -procs suffix is split off; sub-benchmark names survive. The
	// depth512 name must not have its trailing digits eaten as procs.
	if find(t, ss, "BenchmarkAblationBufferDepth/depth512", 1).NsPerOp != 300 {
		t.Fatal("sub-benchmark with numeric tail misparsed")
	}
	par := find(t, ss, "BenchmarkBoardSustainedTxPerSec", 8)
	if par.NsPerOp != 400 {
		t.Fatalf("procs variant = %+v", par)
	}
}

// TestCompareFlagsSyntheticSlowdown is the gate's own acceptance test: a
// synthetic 20% slowdown of a Table3/Fig8 kernel must trip the 10%
// threshold, while run-to-run noise within the threshold must not.
func TestCompareFlagsSyntheticSlowdown(t *testing.T) {
	base := parseSample(t)
	filter := regexp.MustCompile(`Table3|Fig8`)

	slow := parseSample(t)
	for i := range slow {
		if slow[i].Name == "BenchmarkTable3BoardSnoop" {
			slow[i].NsPerOp *= 1.20
		}
	}
	deltas := Compare(base, slow, 0.10, filter)
	var tripped int
	for _, d := range deltas {
		if d.Regressed {
			tripped++
			if d.Name != "BenchmarkTable3BoardSnoop" {
				t.Fatalf("wrong benchmark flagged: %+v", d)
			}
		}
	}
	if tripped != 1 {
		t.Fatalf("synthetic 20%% slowdown tripped %d gates, want 1 (deltas %+v)", tripped, deltas)
	}

	noisy := parseSample(t)
	for i := range noisy {
		noisy[i].NsPerOp *= 1.05
	}
	for _, d := range Compare(base, noisy, 0.10, filter) {
		if d.Regressed {
			t.Fatalf("5%% noise tripped the 10%% gate: %+v", d)
		}
	}

	// The filter keeps unrelated benchmarks out of the gate entirely.
	for _, d := range deltas {
		if !filter.MatchString(d.Name) {
			t.Fatalf("unfiltered benchmark compared: %+v", d)
		}
	}
}

// TestCompareMetricGatesAllocs covers the -benchmem gate: B/op within the
// threshold passes, growth beyond it fails, and a benchmark whose baseline
// allocs/op was 0 regresses the moment it allocates at all — no threshold
// can excuse a formerly allocation-free hot path that starts allocating.
func TestCompareMetricGatesAllocs(t *testing.T) {
	const memSample = `
Benchmark%s 	 1000	 500.0 ns/op	 %d B/op	 %d allocs/op
`
	parse := func(bops, allocs int) []Summary {
		t.Helper()
		rs, err := Parse(strings.NewReader(fmt.Sprintf(memSample, "Table3BoardSnoop", bops, allocs)))
		if err != nil {
			t.Fatal(err)
		}
		return Summarize(rs)
	}
	base := parse(100, 0)
	filter := regexp.MustCompile(`Table3`)

	for _, d := range CompareMetric(base, parse(105, 0), "B/op", 0.10, filter) {
		if d.Regressed {
			t.Fatalf("5%% B/op growth tripped the 10%% gate: %+v", d)
		}
	}
	mds := CompareMetric(base, parse(150, 0), "B/op", 0.10, filter)
	if len(mds) != 1 || !mds[0].Regressed {
		t.Fatalf("50%% B/op growth not flagged: %+v", mds)
	}
	// Zero-baseline rule: 0 -> 1 allocs/op regresses at any threshold,
	// 0 -> 0 passes.
	mds = CompareMetric(base, parse(100, 1), "allocs/op", 10.0, filter)
	if len(mds) != 1 || !mds[0].Regressed {
		t.Fatalf("allocation on a zero-alloc baseline not flagged: %+v", mds)
	}
	for _, d := range CompareMetric(base, parse(100, 0), "allocs/op", 0.0, filter) {
		if d.Regressed {
			t.Fatalf("0 -> 0 allocs/op flagged: %+v", d)
		}
	}
	// ns/op is addressable through the same gate, and a metric missing
	// from either side is skipped rather than failed.
	if mds := CompareMetric(base, parse(100, 0), "ns/op", 0.10, filter); len(mds) != 1 || mds[0].Regressed {
		t.Fatalf("ns/op via CompareMetric: %+v", mds)
	}
	if mds := CompareMetric(parseSample(t), parse(100, 0), "B/op", 0.10, filter); len(mds) != 0 {
		t.Fatalf("metric absent from baseline still compared: %+v", mds)
	}
}

func TestRatio(t *testing.T) {
	rs, err := Parse(strings.NewReader(`
BenchmarkTraceReadV1 	 20000	 11.5 ns/op	 11.5 ns/rec
BenchmarkTraceReadV2Pipeline 	 20000	 33.0 ns/op	 10.0 ns/rec	 1.000 workers
BenchmarkTraceReadV2Pipeline-4 	 20000	 12.0 ns/op	 4.6 ns/rec	 4.000 workers
`))
	if err != nil {
		t.Fatal(err)
	}
	ss := Summarize(rs)
	ratio, baseProcs, newProcs, err := Ratio(ss, "BenchmarkTraceReadV1", "BenchmarkTraceReadV2Pipeline", "ns/rec")
	if err != nil {
		t.Fatal(err)
	}
	if baseProcs != 1 || newProcs != 4 {
		t.Fatalf("procs = %d vs %d, want 1 vs 4", baseProcs, newProcs)
	}
	if ratio != 11.5/4.6 {
		t.Fatalf("ratio = %v, want %v", ratio, 11.5/4.6)
	}
	if _, _, _, err := Ratio(ss, "BenchmarkMissing", "BenchmarkTraceReadV2Pipeline", "ns/rec"); err == nil {
		t.Fatal("missing base accepted")
	}
	if _, _, _, err := Ratio(ss, "BenchmarkTraceReadV1", "BenchmarkTraceReadV2Pipeline", "nope"); err == nil {
		t.Fatal("missing metric accepted")
	}
}

func TestParseRejectsBadValue(t *testing.T) {
	_, err := Parse(strings.NewReader("BenchmarkX \t 100 \t nan7 ns/op\n"))
	if err == nil {
		t.Fatal("bad value accepted")
	}
}

func TestMedianEven(t *testing.T) {
	rs, err := Parse(strings.NewReader(fmt.Sprintf(
		"BenchmarkY \t 10 \t %d ns/op\nBenchmarkY \t 10 \t %d ns/op\n", 100, 200)))
	if err != nil {
		t.Fatal(err)
	}
	if got := Summarize(rs)[0].NsPerOp; got != 150 {
		t.Fatalf("even median = %v", got)
	}
}

// TestCompareMetricUpGatesThroughput: the higher-is-better gate fails
// only when a rate metric falls, never when it rises — the direction
// the tx/s throughput floor needs.
func TestCompareMetricUpGatesThroughput(t *testing.T) {
	const txSample = "BenchmarkBoardSustainedTxPerSec-8 \t 1000 \t 50.0 ns/op \t %g tx/s\n"
	parse := func(rate float64) []Summary {
		t.Helper()
		rs, err := Parse(strings.NewReader(fmt.Sprintf(txSample, rate)))
		if err != nil {
			t.Fatal(err)
		}
		return Summarize(rs)
	}
	base := parse(100e6)
	filter := regexp.MustCompile(`SustainedTxPerSec`)

	// A 3x improvement must pass (the lower-is-better gate would fail it).
	mds := CompareMetricUp(base, parse(300e6), "tx/s", 0.10, filter)
	if len(mds) != 1 || mds[0].Regressed {
		t.Fatalf("3x throughput improvement flagged as regression: %+v", mds)
	}
	if !mds[0].HigherBetter {
		t.Fatalf("delta not marked higher-is-better: %+v", mds[0])
	}
	if down := CompareMetric(base, parse(300e6), "tx/s", 0.10, filter); len(down) != 1 || !down[0].Regressed {
		t.Fatalf("sanity: lower-is-better gate should fail a 3x rate rise: %+v", down)
	}

	// A 5% dip passes a 10% threshold; a 50% dip fails.
	if mds := CompareMetricUp(base, parse(95e6), "tx/s", 0.10, filter); len(mds) != 1 || mds[0].Regressed {
		t.Fatalf("5%% dip tripped the 10%% gate: %+v", mds)
	}
	if mds := CompareMetricUp(base, parse(50e6), "tx/s", 0.10, filter); len(mds) != 1 || !mds[0].Regressed {
		t.Fatalf("50%% throughput collapse not flagged: %+v", mds)
	}

	// Zero current = collapsed rate, regresses at any threshold; zero
	// baseline passes (first measurement, nothing to ratchet).
	if mds := CompareMetricUp(base, parse(0), "tx/s", 10.0, filter); len(mds) != 1 || !mds[0].Regressed {
		t.Fatalf("zero current rate not flagged: %+v", mds)
	}
	if mds := CompareMetricUp(parse(0), parse(100e6), "tx/s", 0.10, filter); len(mds) != 1 || mds[0].Regressed {
		t.Fatalf("zero baseline flagged: %+v", mds)
	}
}
