package workload

import "math"

// Zipf samples from an approximate Zipf distribution over [0, n) with
// skew s > 1, using inverse-CDF sampling on the continuous bounded-Pareto
// approximation. Rank 0 is the hottest. This is the record-popularity
// model for OLTP row access: a few rows are very hot, with a long tail.
//
// The rank is floor(b^p) for b = 1 + u*scale and p = 1/(1-s), and the
// stream every digest, golden and checkpoint in the repository hangs
// from is the one math.Pow produces. Sample therefore computes b^p with
// the cheap kernel below (fastPow) and keeps its floor only when the
// result is farther than zipfGuard*x from any integer — a hundred times
// the kernel's error budget — and calls math.Pow itself otherwise, so
// the rank is math.Pow's for every u on every architecture (DESIGN.md,
// "Zipf kernel").
type Zipf struct {
	r     *RNG
	limit int64   // ranks are clamped below this: n, through float64 as always
	p     float64 // 1/(1-s), negative
	scale float64 // n^(1-s) - 1
}

const (
	// zipfGuard is the relative half-width of the band around each
	// integer inside which Sample does not trust fastPow.
	zipfGuard = 1e-9
	// zipfMaxExponent bounds |p| for the kernel: its error grows as
	// |p|*1e-15 (the logarithm's absolute error is multiplied by p), so
	// at 1024, skew 1+2^-10, it is still 1000 times inside the band.
	// NewZipf refuses flatter distributions; every skew in the tree
	// (1.01 to 1.6) has |p| <= 100.
	zipfMaxExponent = 1024
)

// NewZipf builds a sampler over [0, n) with skew s, 1+2^-10 <= s.
func NewZipf(r *RNG, s float64, n int64) *Zipf {
	if n <= 0 {
		panic("workload: zipf range must be positive")
	}
	if s <= 1.0 {
		panic("workload: zipf skew must exceed 1")
	}
	oneMinS := 1 - s
	p := 1 / oneMinS
	if !(p >= -zipfMaxExponent) { // a NaN skew fails this too
		panic("workload: zipf skew must be at least 1+2^-10")
	}
	return &Zipf{
		r:     r,
		limit: int64(float64(n)),
		p:     p,
		scale: math.Pow(float64(n), oneMinS) - 1,
	}
}

// Sample returns a rank in [0, n), rank 0 hottest.
func (z *Zipf) Sample() int64 { return z.rank(z.r.Float()) }

// rank maps a uniform u in [0, 1) to its rank.
func (z *Zipf) rank(u float64) int64 {
	// Inverse CDF of bounded Pareto on [1, n]: x = (1 + u*(n^(1-s)-1))^(1/(1-s))
	b := 1 + u*z.scale
	x := fastPow(b, z.p)
	// Trust x only when it is farther than tau from the nearest integer.
	// x is positive, so the comparison is false for a NaN and for any x
	// past 5e8, where tau exceeds one half; below that roundShift does
	// round to the nearest integer and int64(x) is exact.
	if tau := zipfGuard * x; !(math.Abs(x-((x+roundShift)-roundShift)) > tau) {
		x = math.Pow(b, z.p)
	}
	i := int64(x) - 1
	if i < 0 {
		i = 0
	}
	if i >= z.limit {
		i = z.limit - 1
	}
	return i
}

// Kernel tables, 3 KB in all. lnTab cuts [1, 2) into 128 slices; entry i
// holds 1/c rounded to a double for the slice's midpoint c, and minus the
// logarithm of that double, so the rounding of 1/c costs nothing.
// exp2Tab[j] is 2^(j/128).
var (
	lnTab   [128]struct{ inv, ln float64 }
	exp2Tab [128]float64
)

func init() {
	for i := range lnTab {
		inv := 1 / (1 + (float64(i)+0.5)/128)
		lnTab[i].inv, lnTab[i].ln = inv, -math.Log(inv)
	}
	for j := range exp2Tab {
		exp2Tab[j] = math.Exp2(float64(j) / 128)
	}
}

// roundShift is 1.5*2^52: a double below 2^51 in magnitude plus roundShift
// has no fraction bits left, so adding and then subtracting it rounds to
// the nearest integer, and after the addition that integer sits in the
// low bits of the mantissa — no conversion to int64 and back.
const roundShift = 3 << 51

// fastPow approximates b^p = exp(p*ln b) for a positive normal b and
// 0 <= p*ln b < 709 to a relative error of |p|*1e-15 + 2e-14: both
// functions are one table look-up and a short series whose terms are
// summed pairwise (Estrin), so no step waits on a long chain. It is not a
// general pow — outside that domain the result is meaningless — and
// exists for Zipf.rank, whose b^p never exceeds its range n by more than
// rounding and which never trusts the result near an integer.
func fastPow(b, p float64) float64 {
	// ln b = e*ln2 + ln c + log1p(r), with b = 2^e*m, c the midpoint of
	// m's slice and r = m/c - 1, |r| <= 2^-8. Degree 5: the dropped term
	// r^6/6 is below 6e-16, and it is that absolute error p multiplies.
	bits := math.Float64bits(b)
	e := float64(int(bits>>52) - 1023)
	m := math.Float64frombits(bits&(1<<52-1) | 1023<<52)
	t := &lnTab[bits>>45&127]
	r := m*t.inv - 1
	r2 := r * r
	log1p := (r + r2*(-0.5+r*(1.0/3))) + r2*r2*(-0.25+r*0.2)
	ln := (e*math.Ln2 + t.ln) + log1p

	// exp(p*ln b) = 2^q * 2^(j/128) * exp(v), in units of ln2/128:
	// w = p*ln b*128/ln2, k = 128q + j the integer nearest w, and
	// v = (w-k)*ln2/128, |v| <= ln2/256. Degree 4: v^5/120 is below
	// 1.3e-15. w - k is exact, so ln2 needs no high and low halves.
	w := ln * (p * (128 / math.Ln2))
	ws := w + roundShift
	k := math.Float64bits(ws) // j in bits 0-6, q above them
	v := (w - (ws - roundShift)) * (math.Ln2 / 128)
	v2 := v * v
	expv := ((1 + v) + v2*(0.5+v*(1.0/6))) + v2*v2*(1.0/24)
	// Ten bits of q keep 2^q a positive finite double whatever w was, so a
	// result is positive, +Inf or NaN and never passes Zipf.rank's test by
	// its sign.
	return exp2Tab[k&127] * math.Float64frombits((1023+k>>7&0x3ff)<<52) * expv
}
