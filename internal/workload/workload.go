// Package workload generates the synthetic memory-reference streams that
// stand in for the paper's production workloads: TPC-C and TPC-H database
// runs (Figures 8-10) and the SPLASH2 kernels at full problem sizes
// (Tables 5-6, Figures 11-12; see the splash subpackage).
//
// We cannot run a 150GB DB2 instance against a software bus, so each
// generator reproduces the *memory-system structure* the case studies
// depend on: total footprint, hierarchical working sets, per-processor
// data affinity vs shared regions, read/write mix, and sharing intensity.
// Every generator is deterministic for a given seed, which is what makes
// the differential tests between the board and the baseline simulators
// meaningful.
//
// The streams are also frozen: every bench digest, experiment golden and
// checkpoint continuation hangs from them, and TestStreamPins holds the
// first 64 Ki references of each generator to a recorded SHA-256. Next is
// the first stage of every host-driven run and of every trace the replay
// benchmarks are built from, so it is written to cost no division and no
// math.Pow per reference — Zipf.Sample answers from a table-and-series
// kernel and falls back to math.Pow only inside a guard band around each
// integer, which makes its rank math.Pow's for every draw (zipf.go), and
// address arithmetic keeps its counts and wraps by mask or compare
// (wrap, nextCPU) — without moving a stream by one reference (DESIGN.md
// §4g lists what was removed and what was kept).
package workload

// Ref is a single processor memory reference, before any cache filtering.
type Ref struct {
	// Addr is the physical byte address.
	Addr uint64
	// Write marks store references.
	Write bool
	// CPU is the issuing processor (0-based host CPU ID).
	CPU int
	// Instrs is the number of instructions the processor executed to
	// produce this reference (including the reference itself). Miss rates
	// "per 1000 instructions" (Table 6) divide by the sum of this field.
	Instrs uint64
}

// Generator produces a reference stream. Implementations are not safe for
// concurrent use.
//
// A stream is drawn ahead of the machine that runs it: a merged-stream
// host draws up to one window of references before it executes them
// (host.Run; never past Run's n), so Next must not observe the host —
// its caches, its bus, its clock or its statistics. Every generator in
// this module is a pure function of its seed and its own state.
type Generator interface {
	// Name identifies the workload in reports.
	Name() string
	// Next returns the next reference; ok is false when a finite workload
	// has completed. Infinite workloads always return ok = true.
	Next() (ref Ref, ok bool)
	// Footprint returns the total bytes the workload can touch.
	Footprint() int64
}

// ErrReporter is an optional Generator extension for streams that can
// end abnormally (trace readers hitting a truncated file, network
// feeds). After Next returns ok=false, a non-nil Err means the stream
// failed rather than completed; the host surfaces it through Host.Err
// instead of ErrExhausted. Limit and WithDisturbance forward the Err of
// the stream they wrap.
type ErrReporter interface {
	Err() error
}

// Layout hands out disjoint address regions. Regions are aligned to 1MB
// and separated so that distinct data structures never share a cache line
// even at the board's maximum 16KB line size.
type Layout struct {
	next uint64
}

// NewLayout returns a layout allocating from a nonzero base (address 0 is
// left unused to keep zero-valued addresses recognizable in tests).
func NewLayout() *Layout { return &Layout{next: 1 << 20} }

// Region reserves size bytes (rounded up to 1MB) and returns the region.
func (l *Layout) Region(size int64) Region {
	if size <= 0 {
		panic("workload: region size must be positive")
	}
	const align = 1 << 20
	sz := (uint64(size) + align - 1) &^ (align - 1)
	r := Region{Base: l.next, Size: int64(sz)}
	l.next += sz
	return r
}

// Region is a contiguous address range owned by one data structure.
type Region struct {
	Base uint64
	Size int64
}

// At returns the address at byte offset off, wrapping modulo the region
// size so generators can index freely.
func (r Region) At(off int64) uint64 {
	if r.Size == 0 {
		panic("workload: empty region")
	}
	return r.Base + uint64(wrap(off, r.Size))
}

// wrap returns i modulo n in [0, n) for n > 0 — Go's % followed by a
// sign fix — without the division when n is a power of two. The mask is
// the same number for a negative i as well (two's complement), which is
// what lets the Zipf scatter use it on products that overflowed int64.
func wrap(i, n int64) int64 {
	if n&(n-1) == 0 {
		return i & (n - 1)
	}
	if i %= n; i < 0 {
		i += n
	}
	return i
}

// nextCPU returns a generator's round-robin cursor and moves it on. The
// cursor starts at 0 and a checkpoint outside [0, n) is refused (cursor),
// so the wrap is a compare.
func nextCPU(cpu *int, n int) int {
	c := *cpu
	if *cpu = c + 1; *cpu == n {
		*cpu = 0
	}
	return c
}

// Contains reports whether a falls inside the region.
func (r Region) Contains(a uint64) bool {
	return a >= r.Base && a < r.Base+uint64(r.Size)
}

// Slot returns the address of slot i when the region is viewed as an
// array of slotSize-byte elements (wrapping modulo the slot count).
func (r Region) Slot(i int64, slotSize int64) uint64 {
	n := r.Size / slotSize
	if n <= 0 {
		panic("workload: slot size exceeds region")
	}
	return r.Base + uint64(wrap(i, n)*slotSize)
}

// Slots returns how many slotSize-byte elements fit in the region.
func (r Region) Slots(slotSize int64) int64 { return r.Size / slotSize }

// Limit wraps a generator and ends the stream after n references; it
// models "trace length" in the short-vs-long trace experiments.
func Limit(g Generator, n uint64) Generator { return &limited{g: g, left: n} }

type limited struct {
	g    Generator
	left uint64
}

func (l *limited) Name() string     { return l.g.Name() }
func (l *limited) Footprint() int64 { return l.g.Footprint() }

func (l *limited) Next() (Ref, bool) {
	if l.left == 0 {
		return Ref{}, false
	}
	l.left--
	return l.g.Next()
}

// Err forwards the wrapped stream's failure (ErrReporter).
func (l *limited) Err() error { return streamErr(l.g) }

// streamErr is the error g reports when it is an ErrReporter, and nil
// otherwise: a wrapper's Err, so a failure inside it is not read as
// the stream's normal end.
func streamErr(g Generator) error {
	if er, ok := g.(ErrReporter); ok {
		return er.Err()
	}
	return nil
}
