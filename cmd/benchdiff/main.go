// Command benchdiff is the CI benchmark gate. It parses `go test -bench`
// output with nothing but the Go toolchain (no benchstat install),
// aggregates -count repetitions by median, and:
//
//   - compares -current against -baseline, failing on any benchmark
//     matching -filter whose median ns/op regressed more than -threshold;
//   - additionally gates the comma-separated -gate metrics (B/op,
//     allocs/op, ...) with the same threshold; a metric that was 0 in the
//     baseline and nonzero now always fails, so an allocation-free hot
//     path cannot quietly start allocating;
//   - gates the comma-separated -gate-up metrics (tx/s, records/s, ...)
//     with higher-is-better semantics: failing only when the current
//     value falls below the baseline by more than -threshold, never on
//     improvement — the ratcheted floor for throughput benchmarks;
//   - optionally gates one benchmark against a different one via a
//     shared metric (-ratio-base / -ratio-new / -min-ratio), e.g. the
//     v2 trace pipeline must beat the v1 reader's ns/rec by 2x;
//   - optionally writes a JSON artifact of summaries and deltas.
//
// Typical CI usage:
//
//	go test -run '^$' -bench . -benchtime 1000x -count 6 -benchmem . > bench.txt
//	benchdiff -baseline ci/bench-baseline.txt -current bench.txt \
//	    -filter 'Table3|Fig8' -threshold 0.10 -gate 'B/op,allocs/op' \
//	    -json BENCH_2026-01-02.json
//	benchdiff -current bench-trace.txt -ratio-base BenchmarkTraceReadV1 \
//	    -ratio-new BenchmarkTraceReadV2Pipeline -min-ratio 2.0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"

	"memories/internal/benchfmt"
)

type artifact struct {
	Current      []benchfmt.Summary     `json:"current"`
	Baseline     []benchfmt.Summary     `json:"baseline,omitempty"`
	Deltas       []benchfmt.Delta       `json:"deltas,omitempty"`
	MetricDeltas []benchfmt.MetricDelta `json:"metric_deltas,omitempty"`
	Ratio        float64                `json:"ratio,omitempty"`
	Threshold    float64                `json:"threshold"`
	Filter       string                 `json:"filter"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "baseline bench output to compare against")
		currentPath  = flag.String("current", "", "current bench output (required)")
		threshold    = flag.Float64("threshold", 0.10, "relative ns/op regression that fails the gate")
		filter       = flag.String("filter", "Table3|Fig8", "regexp of benchmark names the gate guards")
		gate         = flag.String("gate", "", "comma-separated extra metrics to gate at -threshold (e.g. 'B/op,allocs/op')")
		gateUp       = flag.String("gate-up", "", "comma-separated higher-is-better metrics to gate at -threshold (e.g. 'tx/s')")
		jsonPath     = flag.String("json", "", "write a JSON artifact of summaries and deltas")
		ratioBase    = flag.String("ratio-base", "", "reference benchmark for the cross-benchmark ratio gate")
		ratioNew     = flag.String("ratio-new", "", "benchmark that must beat -ratio-base by -min-ratio")
		ratioMetric  = flag.String("ratio-metric", "ns/rec", "shared metric the ratio gate compares")
		minRatio     = flag.Float64("min-ratio", 2.0, "minimum -ratio-base/-ratio-new metric ratio")
	)
	flag.Parse()
	if *currentPath == "" {
		fatal(fmt.Errorf("-current is required"))
	}

	current := mustLoad(*currentPath)
	art := artifact{Current: current, Threshold: *threshold, Filter: *filter}
	failed := false

	if *baselinePath != "" {
		re, err := regexp.Compile(*filter)
		if err != nil {
			fatal(fmt.Errorf("bad -filter: %v", err))
		}
		art.Baseline = mustLoad(*baselinePath)
		art.Deltas = benchfmt.Compare(art.Baseline, current, *threshold, re)
		if len(art.Deltas) == 0 {
			fatal(fmt.Errorf("no benchmarks matching %q found in both files", *filter))
		}
		for _, d := range art.Deltas {
			status := "ok"
			if d.Regressed {
				status = "REGRESSED"
				failed = true
			}
			fmt.Printf("%-50s %10.1f -> %10.1f ns/op  %+6.1f%%  %s\n",
				name(d.Key), d.Old, d.New, (d.Ratio-1)*100, status)
		}
		gateList := func(list string, compare func([]benchfmt.Summary, []benchfmt.Summary, string, float64, *regexp.Regexp) []benchfmt.MetricDelta) {
			for _, metric := range strings.Split(list, ",") {
				metric = strings.TrimSpace(metric)
				if metric == "" {
					continue
				}
				mds := compare(art.Baseline, current, metric, *threshold, re)
				if len(mds) == 0 {
					fatal(fmt.Errorf("no benchmarks matching %q report %s in both files", *filter, metric))
				}
				art.MetricDeltas = append(art.MetricDeltas, mds...)
				for _, d := range mds {
					status := "ok"
					if d.Regressed {
						status = "REGRESSED"
						failed = true
					}
					change := fmt.Sprintf("%+6.1f%%", (d.Ratio-1)*100)
					if d.Old == 0 {
						change = "   n/a" // a zero baseline has no finite ratio
					}
					fmt.Printf("%-50s %14.1f -> %14.1f %-9s %s  %s\n",
						name(d.Key), d.Old, d.New, d.Metric, change, status)
				}
			}
		}
		gateList(*gate, benchfmt.CompareMetric)
		gateList(*gateUp, benchfmt.CompareMetricUp)
	}

	if *ratioBase != "" || *ratioNew != "" {
		if *ratioBase == "" || *ratioNew == "" {
			fatal(fmt.Errorf("-ratio-base and -ratio-new must be set together"))
		}
		ratio, baseProcs, newProcs, err := benchfmt.Ratio(current, *ratioBase, *ratioNew, *ratioMetric)
		if err != nil {
			fatal(err)
		}
		art.Ratio = ratio
		fmt.Printf("%s-%d vs %s-%d: %.2fx by %s, floor %.2fx\n",
			*ratioNew, newProcs, *ratioBase, baseProcs, ratio, *ratioMetric, *minRatio)
		if ratio < *minRatio {
			fmt.Printf("FAIL: ratio below floor\n")
			failed = true
		}
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func name(k benchfmt.Key) string {
	if k.Procs == 1 {
		return k.Name
	}
	return fmt.Sprintf("%s-%d", k.Name, k.Procs)
}

func mustLoad(path string) []benchfmt.Summary {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	rs, err := benchfmt.Parse(f)
	if err != nil {
		fatal(err)
	}
	if len(rs) == 0 {
		fatal(fmt.Errorf("%s contains no benchmark lines", path))
	}
	return benchfmt.Summarize(rs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
