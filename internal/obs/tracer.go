package obs

import (
	"fmt"
	"sync/atomic"
)

// Event is one traced snoop transaction, unpacked.
type Event struct {
	Cycle uint64
	Addr  uint64
	Cmd   uint8
	Src   uint8
}

// CPUMask selects bus IDs 0..255. The zero mask matches every CPU.
type CPUMask [4]uint64

// Set marks bus ID id as traced.
func (m *CPUMask) Set(id int) {
	if id >= 0 && id < 256 {
		m[id>>6] |= 1 << (uint(id) & 63)
	}
}

// Has reports whether id is traced. A zero mask matches everything.
func (m *CPUMask) Has(id int) bool {
	if m.Empty() {
		return true
	}
	if id < 0 || id >= 256 {
		return false
	}
	return m[id>>6]&(1<<(uint(id)&63)) != 0
}

// Empty reports whether no bit is set (= match all).
func (m *CPUMask) Empty() bool { return m[0]|m[1]|m[2]|m[3] == 0 }

// Filter restricts tracing to an address range and/or a CPU mask. The
// zero Filter traces every accepted memory transaction.
type Filter struct {
	// AddrLo/AddrHi bound the traced addresses, inclusive/exclusive.
	// AddrHi == 0 disables the range check.
	AddrLo, AddrHi uint64
	// CPUs selects source bus IDs; the zero mask matches all.
	CPUs CPUMask
}

// Match reports whether a transaction passes the filter.
func (f *Filter) Match(a uint64, src int) bool {
	if f.AddrHi != 0 && (a < f.AddrLo || a >= f.AddrHi) {
		return false
	}
	return f.CPUs.Has(src)
}

// String renders the filter for console status output.
func (f *Filter) String() string {
	s := "all addrs"
	if f.AddrHi != 0 {
		s = fmt.Sprintf("addrs [%#x,%#x)", f.AddrLo, f.AddrHi)
	}
	if f.CPUs.Empty() {
		return s + ", all cpus"
	}
	cpus := ""
	for id := 0; id < 256; id++ {
		if f.CPUs.Has(id) {
			if cpus != "" {
				cpus += ","
			}
			cpus += fmt.Sprint(id)
		}
	}
	return s + ", cpus " + cpus
}

// Tracer is a lock-free single-producer/single-consumer ring of packed
// snoop records, and the one trace state of the board it is attached to:
// whether it records, through which filter, and where its records go. The
// producer is the goroutine that owns the board; the consumer is the one
// caller of Drain at a time, which hands each record to the sink. When
// disabled it costs the producer one inlinable atomic load; it never
// allocates.
//
// Records are packed two words per event: word0 is the address, word1 is
// cycle<<16 | cmd<<8 | src (cycles truncate to 48 bits, which at the
// paper's 100MHz bus is over a month of emulated time).
type Tracer struct {
	buf  []uint64 // 2 words per slot
	mask uint64   // slots-1 (slots is a power of two)
	sink func(Event)

	head    atomic.Uint64 // next slot the consumer will read
	tail    atomic.Uint64 // next slot the producer will write
	enabled atomic.Bool
	filter  atomic.Pointer[Filter]
	drained atomic.Uint64
}

// DefaultTraceDepth is the per-board ring capacity in records.
const DefaultTraceDepth = 1 << 14

// NewTracer builds a tracer with capacity rounded up to a power of two
// (minimum 2; 0 selects DefaultTraceDepth) that drains into sink, which
// must be non-nil. It starts disabled.
func NewTracer(capacity int, sink func(Event)) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceDepth
	}
	slots := 2
	for slots < capacity {
		slots <<= 1
	}
	t := &Tracer{buf: make([]uint64, 2*slots), mask: uint64(slots - 1), sink: sink}
	t.filter.Store(&Filter{})
	return t
}

// Enabled reports whether the tracer is recording. This is the
// producer's hot-path probe; it inlines to one atomic load.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Enable starts recording transactions that match the filter.
func (t *Tracer) Enable(f Filter) {
	t.filter.Store(&f)
	t.enabled.Store(true)
}

// Disable stops recording. Already-buffered records remain drainable.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// Filter returns the filter Enable last set (the zero Filter before).
func (t *Tracer) Filter() Filter { return *t.filter.Load() }

// Record writes one transaction that matches the filter, reporting
// whether it matched and, if so, whether the ring had room for it: a full
// ring drops the record, because tracing must never stall the snoop path.
// The caller counts what was stored and what was lost. Producer goroutine
// only; call only when Enabled() is true.
func (t *Tracer) Record(cycle, a uint64, cmd, src uint8) (matched, stored bool) {
	if !t.filter.Load().Match(a, int(src)) {
		return false, false
	}
	tail := t.tail.Load()
	if tail-t.head.Load() > t.mask {
		return true, false
	}
	i := (tail & t.mask) * 2
	t.buf[i] = a
	t.buf[i+1] = cycle<<16 | uint64(cmd)<<8 | uint64(src)
	t.tail.Store(tail + 1) // publishes the slot to the consumer
	return true, true
}

// Drain hands every buffered record to the sink in record order.
// Consumer goroutine only. Returns the number drained.
func (t *Tracer) Drain() int {
	head := t.head.Load()
	tail := t.tail.Load() // acquire: slots [head,tail) are fully written
	n := 0
	for ; head != tail; head++ {
		i := (head & t.mask) * 2
		w1 := t.buf[i+1]
		t.sink(Event{
			Addr:  t.buf[i],
			Cycle: w1 >> 16,
			Cmd:   uint8(w1 >> 8),
			Src:   uint8(w1),
		})
		n++
		t.head.Store(head + 1) // frees the slot for the producer
	}
	t.drained.Add(uint64(n))
	return n
}

// Drained returns the total number of records handed to the sink.
func (t *Tracer) Drained() uint64 { return t.drained.Load() }
