package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one number the benchmark prints. The tables below are
// the benchmark's vocabulary: later issues cite these names verbatim,
// and BENCHMARK.json lists exactly the same names, units and bounds
// (TestBenchmarkJSONMatches holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median a metric may worsen
}

// endToEnd is what a user of the emulator sees, measured with tracing
// off. Every workload reports every one of these (the harness's rule):
// emc_per_s on replayed streams is 48 bus cycles per transaction. The
// issue's ingest latencies exist on one workload only, so they live
// among the per-layer metrics as service.ingest_p50_ms/_p95_ms.
//
// The bounds are what this class of machine can resolve, not what one
// would wish: on the 2-vCPU shared box the baseline was taken on,
// neighbours' cache traffic moves whole runs by 5-20 % (README.md,
// "Noise"). Claim gains with paired runs, not against these bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tx_per_s", "1/s", "higher", 0.25},
	{"emc_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer is the traced run's output: one layer = one package. A
// metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// Simulated statistics and correctness, exact for a given seed.
	{"miss_ratio", "ratio", "lower", 0},
	{"ref_err", "ratio", "lower", 0},
	{"failed_frac", "ratio", "lower", 0},

	{"workload.gen_ns_per_ref", "ns", "lower", 0},

	{"tracefile.encode_ns_per_rec", "ns", "lower", 0},
	{"tracefile.bytes_per_rec", "B", "lower", 0},
	{"tracefile.decode_ns_per_rec", "ns", "lower", 0},
	{"tracefile.decode_share", "ratio", "lower", 0},

	{"bench.rec_to_tx_ns_per_tx", "ns", "lower", 0},

	{"core.snoop_batch_ns_per_tx", "ns", "lower", 0},
	{"core.flush_ms", "ms", "lower", 0},
	{"core.snoop_single_ns_per_tx", "ns", "lower", 0},
	{"core.self_ns_per_tx", "ns", "lower", 0},
	{"core.share", "ratio", "lower", 0},
	{"core.filtered_frac", "ratio", "lower", 0},
	{"core.retry_posted", "count", "lower", 0},
	{"core.buffer_peak", "count", "lower", 0},
	{"core.allocs_per_tx", "count", "lower", 0},

	{"cache.access_ns_per_op", "ns", "lower", 0},
	{"cache.fill_ns_per_op", "ns", "lower", 0},
	{"cache.invalidate_ns_per_op", "ns", "lower", 0},
	{"cache.replay_ns_per_tx", "ns", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"cache.evictions", "count", "lower", 0},

	{"sdram.schedule_ns_per_op", "ns", "lower", 0},
	{"sdram.bank_conflict_frac", "ratio", "lower", 0},
	{"sdram.busy_frac", "ratio", "lower", 0},

	{"coherence.lookup_ns_per_op", "ns", "lower", 0},
	{"coherence.lookups_per_tx", "count", "lower", 0},
	{"coherence.load_ms", "ms", "lower", 0},

	{"stats.add_ns_per_op", "ns", "lower", 0},
	{"stats.bumps_per_tx", "count", "lower", 0},
	{"stats.snapshot_us", "us", "lower", 0},

	{"bus.issue_ns_per_tx", "ns", "lower", 0},
	{"bus.util_pct", "%", "lower", 0},
	{"bus.retries", "count", "lower", 0},

	{"host.run_ns_per_ref", "ns", "lower", 0},
	{"host.ns_per_emc", "ns", "lower", 0},
	{"host.tx_per_ref", "ratio", "lower", 0},
	{"host.l2_miss_ratio", "ratio", "lower", 0},
	{"host.events_per_emc", "ratio", "lower", 0},
	{"host.self_share", "ratio", "lower", 0},

	{"service.ingest_p50_ms", "ms", "lower", 0},
	{"service.ingest_p95_ms", "ms", "lower", 0},
	{"service.create_ms_p50", "ms", "lower", 0},
	{"service.post_ms_p50", "ms", "lower", 0},
	{"service.queue_wait_ms_p50", "ms", "lower", 0},
	{"service.queue_wait_ms_p95", "ms", "lower", 0},
	{"service.apply_ns_per_tx", "ns", "lower", 0},
	{"service.http_429_frac", "ratio", "lower", 0},
	{"service.stats_poll_ms_p50", "ms", "lower", 0},
	{"service.vs_replay_ratio", "ratio", "higher", 0},

	{"checkpoint.write_mb_per_s", "MB/s", "higher", 0},
	{"checkpoint.restore_mb_per_s", "MB/s", "higher", 0},

	{"obs.overhead_frac", "ratio", "lower", 0},

	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.heap_mb", "MB", "lower", 0},

	{"trace.overhead_frac", "ratio", "lower", 0},
}

// metrics is one run's named values. A name missing from the map reads
// as "does not apply to this workload" and prints as 0.
type metrics map[string]float64

// lane is one serial stream of timed ops. Every workload but
// service_ingest has one lane; the service has one per client.
type lane struct {
	ends []time.Duration // when op i completed, since the run started
	lat  []time.Duration // latency of op i as its submitter saw it
	tx   []uint64        // bus transactions op i put through the board
	emc  []uint64        // emulated bus cycles op i covered
}

func (l *lane) add(end, lat time.Duration, tx, emc uint64) {
	l.ends = append(l.ends, end)
	l.lat = append(l.lat, lat)
	l.tx = append(l.tx, tx)
	l.emc = append(l.emc, emc)
}

// sliceRates cuts every lane into n equal groups of ops and returns,
// per group, the summed rate (work per second) across lanes. A slice
// runs from the completion of the previous slice's last op to the
// completion of its own, so waits between ops are charged, not lost.
func sliceRates(lanes []lane, n int, work func(*lane) []uint64) []float64 {
	rates := make([]float64, n)
	for i := range lanes {
		l := &lanes[i]
		per := len(l.ends) / n
		if per == 0 {
			return nil
		}
		w := work(l)
		var prev time.Duration
		for s := 0; s < n; s++ {
			var sum uint64
			for _, v := range w[s*per : (s+1)*per] {
				sum += v
			}
			end := l.ends[(s+1)*per-1]
			if d := end - prev; d > 0 {
				rates[s] += float64(sum) / d.Seconds()
			}
			prev = end
		}
	}
	return rates
}

func laneTx(l *lane) []uint64  { return l.tx }
func laneEmc(l *lane) []uint64 { return l.emc }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sustained is the rate a run reports: the p90 slice rate. On a shared
// machine the noise is one-sided — a neighbour's cache traffic only
// ever slows a slice — and comes in phases of seconds, so the median
// slice follows the neighbours while the upper slices follow the code.
// Over ten runs of each workload the p90 slice spread less than the
// median on five workloads of six (README.md, "Noise"). The median and
// p10 slices print beside it.
func sustained(rates []float64) float64 { return quantile(rates, 0.9) }

// tailPercentiles are the tail percentiles the benchmark will name, in
// rising order.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// highestPercentile applies the choosing-metrics rule: report the
// highest percentile that still has at least ten samples beyond it.
// With n samples, percentile p has n·(1−p/100) samples beyond it.
func highestPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 99.9 is not exact in binary
			best = p
		}
	}
	return best
}

// tail returns the value reported under a "p95" name and the
// percentile actually used: 95 when the sample count allows it, the
// highest allowed percentile below it otherwise.
func tail(xs []float64) (value, pct float64) {
	pct = math.Min(95, highestPercentile(len(xs)))
	return quantile(xs, pct/100), pct
}

// histQuantile reads a quantile out of a fixed-bucket histogram (the
// shape /metrics.json publishes) by interpolating inside the bucket the
// quantile falls in; the overflow bucket reads as its lower bound.
func histQuantile(bounds, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			var lo float64
			if i > 0 {
				lo = float64(bounds[i-1])
			}
			if i >= len(bounds) {
				return lo
			}
			hi := float64(bounds[i])
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(bounds[len(bounds)-1])
}
