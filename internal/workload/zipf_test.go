package workload

import (
	"fmt"
	"math"
	"testing"
)

// referenceZipf is the sampler as it was before the kernel: one math.Pow
// per draw. It is the oracle Zipf.Sample must agree with on every u.
type referenceZipf struct {
	n       float64
	oneMinS float64
	scale   float64
}

func newReferenceZipf(s float64, n int64) referenceZipf {
	oneMinS := 1 - s
	return referenceZipf{n: float64(n), oneMinS: oneMinS, scale: math.Pow(float64(n), oneMinS) - 1}
}

// referenceSample is the old Sample body, with u passed in; it also
// returns the power whose floor the rank is.
func referenceSample(z referenceZipf, u float64) (rank int64, x float64) {
	x = math.Pow(1+u*z.scale, 1/z.oneMinS)
	i := int64(x) - 1
	if i < 0 {
		i = 0
	}
	if i >= int64(z.n) {
		i = int64(z.n) - 1
	}
	return i, x
}

// zipfTally compares kernel and oracle on one u and keeps the run's
// worst kernel error and its guard-band count.
type zipfTally struct {
	z         *Zipf
	ref       referenceZipf
	draws     int
	fallbacks int
	worst     float64 // max |fastPow - Pow| / Pow over draws the kernel answers
}

func (c *zipfTally) check(t testing.TB, u float64) {
	want, xp := referenceSample(c.ref, u)
	if got := c.z.rank(u); got != want {
		t.Fatalf("p %v limit %d u %v (%#x): rank %d, math.Pow gives %d (x = %.17g)",
			c.z.p, c.z.limit, u, math.Float64bits(u), got, want, xp)
	}
	c.draws++
	xf := fastPow(1+u*c.z.scale, c.z.p)
	if !(math.Abs(xf-math.Round(xf)) > zipfGuard*xf) { // rank's test
		c.fallbacks++
		return
	}
	if rel := math.Abs(xf-xp) / xp; !(rel <= c.worst) {
		c.worst = rel
	}
}

// uNear returns the u that the inverse CDF maps closest to x.
func (z referenceZipf) uNear(x float64) float64 {
	return (math.Pow(x, z.oneMinS) - 1) / z.scale
}

// adversarial feeds the tally u values whose x lies within 1e-12 … 1e-8
// of integers, on both sides, and a few representable neighbours of each:
// the draws where a kernel without the guard band would pick the wrong
// floor.
func (c *zipfTally) adversarial(t testing.TB, n int64) {
	t.Helper()
	if n < 2 {
		return
	}
	targets := []int64{1, 2, 3, 7, 100, 1000, 65535, 1 << 20, 123456789, n / 3, n / 2, n - 1, n}
	for _, k := range targets {
		if k < 1 || k > n {
			continue
		}
		for _, d := range []float64{0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8} {
			for _, side := range []float64{-1, 1} {
				u := c.ref.uNear(float64(k) * (1 + side*d))
				for step := 0; step < 3; step++ {
					if u >= 0 && u < 1 {
						c.check(t, u)
					}
					u = math.Nextafter(u, side)
				}
			}
		}
	}
}

// TestZipfMatchesReference: the kernel-with-guard-band sampler returns
// math.Pow's rank for every draw, its error stays a hundred times inside
// the guard band, and the band is narrow enough to be cheap.
func TestZipfMatchesReference(t *testing.T) {
	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	for _, s := range []float64{1.01, 1.1, 1.2, 1.6, 3} {
		t.Run(fmt.Sprint(s), func(t *testing.T) {
			t.Parallel() // each (s, n) seeds its own RNG and tally
			for _, n := range []int64{1, 2, 100, 1 << 14, 1 << 16, 1 << 23, 1 << 27, 1 << 34} {
				r := NewRNG(uint64(n) ^ math.Float64bits(s))
				c := &zipfTally{z: NewZipf(r, s, n), ref: newReferenceZipf(s, n)}
				for i := 0; i < draws; i++ {
					c.check(t, r.Float())
				}
				random := float64(c.fallbacks) / float64(c.draws)
				c.adversarial(t, n)
				t.Logf("n 2^%-4.1f: fallback %.4f %%, worst kernel error %.2e (%d draws)",
					math.Log2(float64(n)), 100*random, c.worst, c.draws)
				if c.worst > zipfGuard/100 {
					t.Errorf("n %d: kernel error %.3e, budget %.0e", n, c.worst, zipfGuard/100)
				}
				// The two board traces the ledger replays: skew 1.2 over 2^23
				// slots and skew 1.01 over 2^27, the flattest and so the worst.
				switch {
				case s == 1.01 && n == 1<<27 && random > 0.02:
					t.Errorf("n 2^27: %.3f %% of draws fall back to math.Pow, want <= 2 %%", 100*random)
				case s == 1.2 && n > 1 && n <= 1<<23 && random > 0.001:
					t.Errorf("n %d: %.4f %% of draws fall back to math.Pow, want <= 0.1 %%", n, 100*random)
				}
			}
		})
	}
}

// TestZipfFlatSkewTakesPow: past zipfMaxExponent the kernel's error is no
// longer a small fraction of the band, and nothing in the tree asks for
// such a skew, so the constructor refuses it the way it refuses s <= 1.
func TestZipfFlatSkewTakesPow(t *testing.T) {
	for _, s := range []float64{1 + 1.0/2048, 1.0001, math.Nextafter(1, 2), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("skew %v accepted, want a panic", s)
				}
			}()
			NewZipf(NewRNG(1), s, 1<<20)
		}()
	}
	if z := NewZipf(NewRNG(1), 1+1.0/1024, 1<<20); z.p != -zipfMaxExponent {
		t.Errorf("skew 1+2^-10: p %v, want %v", z.p, -zipfMaxExponent)
	}
}

// FuzzZipfExact: any skew the constructor accepts, any range, any seed.
func FuzzZipfExact(f *testing.F) {
	for _, s := range []float64{1.01, 1.1, 1.2, 1.3, 1.6, 3, 50, 1e300, math.Inf(1),
		1 + 1.0/1024, 1 + 1.0/1023, 1 + 1.0/1000, 1.002} {
		for _, n := range []int64{1, 2, 1 << 16, 1 << 27, 1 << 34, math.MaxInt64} {
			f.Add(math.Float64bits(s), n, uint64(n)+7)
		}
	}
	f.Fuzz(func(t *testing.T, skewBits uint64, n int64, seed uint64) {
		s := math.Float64frombits(skewBits)
		if !(s > 1) || !(1/(1-s) >= -zipfMaxExponent) || n <= 0 {
			t.Skip()
		}
		r := NewRNG(seed)
		c := &zipfTally{z: NewZipf(r, s, n), ref: newReferenceZipf(s, n)}
		for i := 0; i < 2000; i++ {
			c.check(t, r.Float())
		}
		c.adversarial(t, n)
		if c.worst > zipfGuard/100 {
			t.Errorf("skew %v n %d: kernel error %.3e, budget %.0e", s, n, c.worst, zipfGuard/100)
		}
	})
}
