package obs

import "sync/atomic"

// DefaultSizeBounds is a power-of-four ladder for counts and sizes.
var DefaultSizeBounds = []uint64{1, 4, 16, 64, 256, 1024, 4096, 16384}

// Histogram is a fixed-bucket histogram with atomic cells, safe for
// concurrent Observe and snapshot. It lives off the snoop hot path
// (samplers, drainers, batch bookkeeping).
type Histogram struct {
	bounds []uint64        // ascending upper bounds, inclusive
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Uint64
	sum    atomic.Uint64
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds (inclusive); values above the last bound land in an implicit
// +Inf bucket. Nil or empty bounds select DefaultSizeBounds.
func NewHistogram(bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultSizeBounds
	}
	own := make([]uint64, len(bounds))
	copy(own, bounds)
	for i := 1; i < len(own); i++ {
		if own[i] <= own[i-1] {
			panic("obs: histogram bounds not ascending")
		}
	}
	return &Histogram{bounds: own, counts: make([]atomic.Uint64, len(own)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// view snapshots the histogram. Counts are per-bucket (not cumulative);
// the Prometheus renderer accumulates them.
func (h *Histogram) view(name string) HistView {
	v := HistView{
		Name:   name,
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		v.Counts[i] = h.counts[i].Load()
	}
	return v
}
