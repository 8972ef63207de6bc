package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// TimeSeries accumulates (numerator, denominator) event pairs into
// fixed-width buckets along a logical time axis (bus cycles or references)
// and reports the per-bucket ratio. The board uses it to build miss-ratio
// profiles over the course of a run, the mechanism behind Figure 10's
// detection of the periodic OS journaling spikes.
type TimeSeries struct {
	bucketWidth uint64
	num, den    []uint64
}

// NewTimeSeries creates a series whose buckets span bucketWidth units of
// the time axis. bucketWidth must be positive.
func NewTimeSeries(bucketWidth uint64) *TimeSeries {
	if bucketWidth == 0 {
		panic("stats: TimeSeries bucket width must be positive")
	}
	return &TimeSeries{bucketWidth: bucketWidth}
}

// Observe records den denominator events of which num were numerator
// events (e.g. den references, num misses) at the given time coordinate.
func (ts *TimeSeries) Observe(at, num, den uint64) {
	i := int(at / ts.bucketWidth)
	for len(ts.num) <= i {
		ts.num = append(ts.num, 0)
		ts.den = append(ts.den, 0)
	}
	ts.num[i] += num
	ts.den[i] += den
}

// Len returns the number of buckets observed so far.
func (ts *TimeSeries) Len() int { return len(ts.num) }

// Ratio returns the numerator/denominator ratio of bucket i, or 0 for an
// empty bucket.
func (ts *TimeSeries) Ratio(i int) float64 { return Ratio(ts.num[i], ts.den[i]) }

// Ratios returns the per-bucket ratios as a slice.
func (ts *TimeSeries) Ratios() []float64 {
	out := make([]float64, len(ts.num))
	for i := range out {
		out[i] = ts.Ratio(i)
	}
	return out
}

// Mean returns the ratio aggregated over all buckets (total numerator over
// total denominator), not the mean of per-bucket ratios.
func (ts *TimeSeries) Mean() float64 {
	var n, d uint64
	for i := range ts.num {
		n += ts.num[i]
		d += ts.den[i]
	}
	return Ratio(n, d)
}

// Spikes returns the indices of buckets whose ratio exceeds a local
// baseline by at least factor (e.g. factor 2 keeps buckets at 2x the
// baseline). It is how the Figure 10 analysis turns a profile into
// "periodic spikes every ~5 minutes".
//
// The baseline for each bucket is the median of its surrounding window
// (up to four buckets each side), which makes detection robust against
// slow trends — a declining cold-start ramp is not a spike, a periodic
// bump above its neighborhood is. Buckets with an empty denominator are
// ignored.
func (ts *TimeSeries) Spikes(factor float64) []int {
	const window = 4
	ratios := ts.Ratios()
	var out []int
	var neighborhood []float64
	for i, r := range ratios {
		if ts.den[i] == 0 {
			continue
		}
		neighborhood = neighborhood[:0]
		for j := i - window; j <= i+window; j++ {
			if j == i || j < 0 || j >= len(ratios) || ts.den[j] == 0 {
				continue
			}
			neighborhood = append(neighborhood, ratios[j])
		}
		if len(neighborhood) == 0 {
			continue
		}
		sort.Float64s(neighborhood)
		base := neighborhood[len(neighborhood)/2]
		if base == 0 {
			if r > 0 {
				out = append(out, i)
			}
			continue
		}
		if r >= base*factor {
			out = append(out, i)
		}
	}
	return out
}

// DominantPeriod estimates the spacing, in buckets, between recurring
// spikes, returning 0 when fewer than two spikes exist. The estimate is the
// rounded mean gap between consecutive spike indices, collapsing runs of
// adjacent buckets that belong to one spike.
func (ts *TimeSeries) DominantPeriod(factor float64) int {
	spikes := ts.Spikes(factor)
	if len(spikes) < 2 {
		return 0
	}
	// Collapse adjacent indices into single spike events.
	var events []int
	for i, s := range spikes {
		if i == 0 || s != spikes[i-1]+1 {
			events = append(events, s)
		}
	}
	if len(events) < 2 {
		return 0
	}
	var total int
	for i := 1; i < len(events); i++ {
		total += events[i] - events[i-1]
	}
	return int(math.Round(float64(total) / float64(len(events)-1)))
}

// Tail returns a new series containing only the trailing fraction frac
// (0 < frac <= 1) of the buckets. Spike analyses use it to exclude the
// cold-start ramp, whose elevated miss ratios would otherwise register as
// spurious spikes.
func (ts *TimeSeries) Tail(frac float64) *TimeSeries {
	if frac <= 0 || frac > 1 {
		panic("stats: Tail fraction must be in (0,1]")
	}
	start := int(float64(len(ts.num)) * (1 - frac))
	out := NewTimeSeries(ts.bucketWidth)
	out.num = append(out.num, ts.num[start:]...)
	out.den = append(out.den, ts.den[start:]...)
	return out
}

// Sparkline renders the series as a one-line ASCII profile, useful in CLI
// output for eyeballing Figure 10-style periodicity.
func (ts *TimeSeries) Sparkline() string {
	const glyphs = " .:-=+*#%@"
	ratios := ts.Ratios()
	var max float64
	for _, r := range ratios {
		if r > max {
			max = r
		}
	}
	if max == 0 {
		return strings.Repeat(" ", len(ratios))
	}
	var sb strings.Builder
	for _, r := range ratios {
		i := int(r / max * float64(len(glyphs)-1))
		sb.WriteByte(glyphs[i])
	}
	return sb.String()
}

// String summarizes the series.
func (ts *TimeSeries) String() string {
	return fmt.Sprintf("timeseries{buckets=%d width=%d mean=%.4f}", ts.Len(), ts.bucketWidth, ts.Mean())
}
