// Package benchfmt parses `go test -bench` output and compares runs, so
// the CI benchmark gate needs no tooling beyond the Go toolchain itself.
// It understands the standard line format
//
//	BenchmarkName[-procs] <iters> <value> ns/op [<value> <unit>]...
//
// aggregates repeated runs (-count=N) by median, and reports regressions
// against a baseline file beyond a relative threshold.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	// Name is the benchmark name without the trailing -procs suffix.
	Name string
	// Procs is GOMAXPROCS for the run (the -N name suffix; 1 if absent).
	Procs int
	// NsPerOp is the reported ns/op.
	NsPerOp float64
	// Metrics holds every other reported unit (missratio, B/op, ...).
	Metrics map[string]float64
}

// Key identifies a benchmark variant across runs.
type Key struct {
	Name  string
	Procs int
}

var procSuffix = regexp.MustCompile(`-(\d+)$`)

// Parse reads benchmark lines from r, ignoring everything else (goos
// headers, PASS/ok trailers).
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		res := Result{Name: fields[0], Procs: 1, Metrics: map[string]float64{}}
		if m := procSuffix.FindStringSubmatch(res.Name); m != nil {
			res.Procs, _ = strconv.Atoi(m[1])
			res.Name = strings.TrimSuffix(res.Name, m[0])
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: bad value in %q: %v", line, err)
			}
			if fields[i+1] == "ns/op" {
				res.NsPerOp = v
			} else {
				res.Metrics[fields[i+1]] = v
			}
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Summary is the per-variant aggregate of repeated runs.
type Summary struct {
	Key
	// Runs is how many lines were aggregated.
	Runs int
	// NsPerOp is the median ns/op across runs.
	NsPerOp float64
	// Metrics maps each extra unit to its median.
	Metrics map[string]float64
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Summarize groups results by (name, procs) and takes medians, returning
// summaries sorted by name then procs.
func Summarize(results []Result) []Summary {
	byKey := map[Key][]Result{}
	for _, r := range results {
		k := Key{r.Name, r.Procs}
		byKey[k] = append(byKey[k], r)
	}
	out := make([]Summary, 0, len(byKey))
	for k, rs := range byKey {
		s := Summary{Key: k, Runs: len(rs), Metrics: map[string]float64{}}
		ns := make([]float64, len(rs))
		units := map[string][]float64{}
		for i, r := range rs {
			ns[i] = r.NsPerOp
			for u, v := range r.Metrics {
				units[u] = append(units[u], v)
			}
		}
		s.NsPerOp = median(ns)
		for u, vs := range units {
			s.Metrics[u] = median(vs)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Procs < out[j].Procs
	})
	return out
}

// Delta is one baseline-vs-current comparison.
type Delta struct {
	Key
	// Old and New are the median ns/op of baseline and current.
	Old, New float64
	// Ratio is New/Old; 1.20 means 20% slower than baseline.
	Ratio float64
	// Regressed is true when Ratio exceeds the gate's threshold.
	Regressed bool
}

// Compare matches current summaries against baseline ones (by key,
// restricted to names matching filter when non-nil) and flags any whose
// ns/op grew by more than threshold (0.10 = +10%). Benchmarks present on
// only one side are skipped: the gate guards kernels that exist in both.
func Compare(baseline, current []Summary, threshold float64, filter *regexp.Regexp) []Delta {
	base := map[Key]Summary{}
	for _, s := range baseline {
		base[s.Key] = s
	}
	var out []Delta
	for _, cur := range current {
		if filter != nil && !filter.MatchString(cur.Name) {
			continue
		}
		b, ok := base[cur.Key]
		if !ok || b.NsPerOp == 0 {
			continue
		}
		d := Delta{Key: cur.Key, Old: b.NsPerOp, New: cur.NsPerOp, Ratio: cur.NsPerOp / b.NsPerOp}
		d.Regressed = d.Ratio > 1+threshold
		out = append(out, d)
	}
	return out
}

// MetricDelta is one baseline-vs-current comparison of a named metric.
type MetricDelta struct {
	Key
	// Metric is the compared unit ("B/op", "allocs/op", "ns/op", ...).
	Metric string
	// Old and New are the median values of baseline and current.
	Old, New float64
	// Ratio is New/Old (0 when Old is 0; see Regressed for that case).
	Ratio float64
	// HigherBetter records which direction this delta was gated in:
	// false for cost metrics (ns/op, B/op), true for rate metrics
	// (tx/s), where shrinking is the regression.
	HigherBetter bool
	// Regressed is true when the metric moved in the bad direction by
	// more than the gate's threshold — grew, for lower-is-better
	// metrics; shrank, for higher-is-better ones. A zero baseline with
	// a nonzero bad-direction current regresses unconditionally (a
	// formerly allocation-free benchmark that starts allocating trips
	// the gate at any threshold); a zero *current* on a higher-is-better
	// metric likewise always regresses (the rate collapsed).
	Regressed bool
}

// CompareMetric matches current summaries against baseline ones (by key,
// restricted to names matching filter when non-nil) and flags any whose
// named metric grew by more than threshold (0.10 = +10%). "ns/op" is
// accepted as a metric name. Benchmarks where both sides are 0 (e.g.
// allocs/op on an allocation-free path) pass; old 0 with new nonzero
// regresses unconditionally. Benchmarks or metrics present on only one
// side are skipped: the gate guards kernels measured in both runs.
func CompareMetric(baseline, current []Summary, metric string, threshold float64, filter *regexp.Regexp) []MetricDelta {
	return compareMetric(baseline, current, metric, threshold, filter, false)
}

// CompareMetricUp is CompareMetric for higher-is-better metrics (tx/s,
// records/s): a delta regresses when the current value falls below the
// baseline by more than threshold (0.10 = −10%), never on improvement.
// A zero current value with a nonzero baseline regresses
// unconditionally; a zero baseline passes (nothing to ratchet against
// yet — the next refresh records the rate).
func CompareMetricUp(baseline, current []Summary, metric string, threshold float64, filter *regexp.Regexp) []MetricDelta {
	return compareMetric(baseline, current, metric, threshold, filter, true)
}

func compareMetric(baseline, current []Summary, metric string, threshold float64, filter *regexp.Regexp, higherBetter bool) []MetricDelta {
	base := map[Key]Summary{}
	for _, s := range baseline {
		base[s.Key] = s
	}
	value := func(s Summary) (float64, bool) {
		if metric == "ns/op" {
			return s.NsPerOp, true
		}
		v, ok := s.Metrics[metric]
		return v, ok
	}
	var out []MetricDelta
	for _, cur := range current {
		if filter != nil && !filter.MatchString(cur.Name) {
			continue
		}
		b, ok := base[cur.Key]
		if !ok {
			continue
		}
		bv, bok := value(b)
		cv, cok := value(cur)
		if !bok || !cok {
			continue
		}
		d := MetricDelta{Key: cur.Key, Metric: metric, Old: bv, New: cv, HigherBetter: higherBetter}
		switch {
		case bv == 0:
			// No baseline rate to fall below; for cost metrics any new
			// nonzero value is a regression.
			d.Regressed = !higherBetter && cv > 0
		case higherBetter:
			d.Ratio = cv / bv
			// A collapsed rate (0 against a nonzero baseline) fails at
			// any threshold, mirroring the cost metrics' zero-baseline
			// rule.
			d.Regressed = cv == 0 || d.Ratio < 1-threshold
		default:
			d.Ratio = cv / bv
			d.Regressed = d.Ratio > 1+threshold
		}
		out = append(out, d)
	}
	return out
}

// Ratio compares two different benchmarks by a shared metric: the
// lowest-procs variant of baseName (the serial reference) against the
// best (lowest-valued) variant of newName at any procs. It returns
// baseValue/newValue — 2.0 means the new benchmark is twice as fast —
// plus the procs of each side. It gates the v2 trace pipeline against
// the v1 reader and the wheel host engine against lock-step.
func Ratio(summaries []Summary, baseName, newName, metric string) (ratio float64, baseProcs, newProcs int, err error) {
	var base, best *Summary
	for i := range summaries {
		s := &summaries[i]
		switch s.Name {
		case baseName:
			if base == nil || s.Procs < base.Procs {
				base = s
			}
		case newName:
			v, ok := s.Metrics[metric]
			if !ok {
				return 0, 0, 0, fmt.Errorf("benchfmt: %s-%d does not report %s", newName, s.Procs, metric)
			}
			if best == nil || v < best.Metrics[metric] {
				best = s
			}
		}
	}
	if base == nil {
		return 0, 0, 0, fmt.Errorf("benchfmt: no variants of %s found", baseName)
	}
	if best == nil {
		return 0, 0, 0, fmt.Errorf("benchfmt: no variants of %s found", newName)
	}
	bv, ok := base.Metrics[metric]
	if !ok {
		return 0, 0, 0, fmt.Errorf("benchfmt: %s-%d does not report %s", baseName, base.Procs, metric)
	}
	nv := best.Metrics[metric]
	if nv == 0 {
		return 0, 0, 0, fmt.Errorf("benchfmt: %s-%d reports 0 %s", newName, best.Procs, metric)
	}
	return bv / nv, base.Procs, best.Procs, nil
}
