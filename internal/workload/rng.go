package workload

// RNG is a small, fast, deterministic generator (xorshift64*), used by
// every workload so that streams are reproducible without carrying
// math/rand state into hot loops. It is exported for the splash
// subpackage's kernels.
type RNG struct {
	state uint64
}

// NewRNG seeds the generator; a zero seed is remapped to a fixed odd
// constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n). n must be positive.
func (r *RNG) Intn(n int64) int64 {
	if n <= 0 {
		panic("workload: Intn bound must be positive")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float returns a value in [0, 1).
func (r *RNG) Float() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Chance reports true with probability p.
func (r *RNG) Chance(p float64) bool { return r.Float() < p }
