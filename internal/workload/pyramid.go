package workload

// Pyramid models nested hierarchical working sets: level k spans the
// first Sizes[k] bytes of a region (each level containing the previous),
// and is chosen with probability proportional to Weights[k]. Accesses are
// uniform within the chosen level.
//
// This is the working-set structure that cache-size sweeps respond to: a
// cache of capacity C captures exactly the levels that fit in C, so the
// steady-state miss ratio falls smoothly as C grows, while a short trace
// only ever touches a fraction of the big levels — the mechanism behind
// the paper's trace-length case study (Figure 8). Database workloads are
// built on it: transaction-local rows at the bottom, warehouse/district
// working sets in the middle, the full table at the top.
type Pyramid struct {
	sizes  []int64
	slots  []int64   // slots per level, at least 1
	cum    []float64 // cumulative selection probabilities
	slotSz int64
}

// NewPyramid builds a pyramid over a span of `total` bytes: the smallest
// level is minLevel bytes, each level is `growth` times larger, and each
// larger level is chosen `damp` times less often (0 < damp < 1). The top
// level always spans the full total. Slot granularity is slotSize bytes.
func NewPyramid(total, minLevel, slotSize int64, growth int64, damp float64) *Pyramid {
	if total <= 0 || minLevel <= 0 || slotSize <= 0 || growth < 2 || damp <= 0 || damp >= 1 {
		panic("workload: invalid pyramid parameters")
	}
	if minLevel > total {
		minLevel = total
	}
	p := &Pyramid{slotSz: slotSize}
	var weights []float64
	w := 1.0
	for s := minLevel; s < total; s *= growth {
		p.sizes = append(p.sizes, s)
		weights = append(weights, w)
		w *= damp
	}
	p.sizes = append(p.sizes, total)
	weights = append(weights, w)
	for _, s := range p.sizes {
		p.slots = append(p.slots, max(s/slotSize, 1))
	}
	var sum float64
	for _, x := range weights {
		sum += x
	}
	acc := 0.0
	p.cum = make([]float64, len(weights))
	for i, x := range weights {
		acc += x / sum
		p.cum[i] = acc
	}
	return p
}

// Sample returns a byte offset within the pyramid's span, aligned to the
// slot size.
func (p *Pyramid) Sample(r *RNG) int64 {
	u := r.Float()
	level := len(p.cum) - 1
	for i, c := range p.cum {
		if u < c {
			level = i
			break
		}
	}
	return r.Intn(p.slots[level]) * p.slotSz
}
