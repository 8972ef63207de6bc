package obs

import (
	"fmt"
	"sync"
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
// snoop records. The producer is the goroutine that owns one board; the
// consumer is the one caller of TraceHub.DrainOnce at a time. When
// disabled it costs the producer one inlinable atomic load; it never
// allocates.
//
// Records are packed two words per event: word0 is the address, word1 is
// cycle<<16 | cmd<<8 | src (cycles truncate to 48 bits, which at the
// paper's 100MHz bus is over a month of emulated time).
type Tracer struct {
	buf  []uint64 // 2 words per slot
	mask uint64   // slots-1 (slots is a power of two)

	head    atomic.Uint64 // next slot the consumer will read
	tail    atomic.Uint64 // next slot the producer will write
	enabled atomic.Bool
	filter  atomic.Pointer[Filter]
}

// DefaultTraceDepth is the per-board ring capacity in records.
const DefaultTraceDepth = 1 << 14

// NewTracer builds a tracer with capacity rounded up to a power of two
// (minimum 2; 0 selects DefaultTraceDepth). It starts disabled.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceDepth
	}
	slots := 2
	for slots < capacity {
		slots <<= 1
	}
	t := &Tracer{buf: make([]uint64, 2*slots), mask: uint64(slots - 1)}
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

// Drain consumes every buffered record, calling fn for each in record
// order. Consumer goroutine only. Returns the number drained.
func (t *Tracer) Drain(fn func(Event)) int {
	head := t.head.Load()
	tail := t.tail.Load() // acquire: slots [head,tail) are fully written
	n := 0
	for ; head != tail; head++ {
		i := (head & t.mask) * 2
		w1 := t.buf[i+1]
		fn(Event{
			Addr:  t.buf[i],
			Cycle: w1 >> 16,
			Cmd:   uint8(w1 >> 8),
			Src:   uint8(w1),
		})
		n++
		t.head.Store(head + 1) // frees the slot for the producer
	}
	return n
}

// TraceHub aggregates the tracers of one or more boards and hands
// drained events to a record sink. All methods are safe for concurrent
// use except DrainOnce, which has one caller at a time: the tracer rings
// are single-consumer, and whoever drains them (the Sampler's Tick, or a
// recorder between runs) is that consumer.
type TraceHub struct {
	mu      sync.Mutex
	names   []string
	tracers []*Tracer
	sink    func(board string, ev Event)

	on      bool
	filter  Filter
	drained *Counter
}

// NewTraceHub returns a hub passing drained events to sink, with the name
// the event's board was added under (nil discards them but still counts).
func NewTraceHub(sink func(board string, ev Event)) *TraceHub {
	return &TraceHub{sink: sink, drained: &Counter{}}
}

// Add registers one tracer under a name passed to the sink with each of
// its events. Tracers added while tracing is on inherit the active filter.
func (h *TraceHub) Add(name string, t *Tracer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.names = append(h.names, name)
	h.tracers = append(h.tracers, t)
	if h.on {
		t.Enable(h.filter)
	}
}

// Enable turns tracing on for every registered tracer.
func (h *TraceHub) Enable(f Filter) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.on, h.filter = true, f
	for _, t := range h.tracers {
		t.Enable(f)
	}
}

// Disable turns tracing off; buffered records remain drainable.
func (h *TraceHub) Disable() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.on = false
	for _, t := range h.tracers {
		t.Disable()
	}
}

// Enabled reports whether tracing is on, with the active filter.
func (h *TraceHub) Enabled() (bool, Filter) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.on, h.filter
}

// Drained returns the total number of events drained to the sink.
func (h *TraceHub) Drained() uint64 { return h.drained.Value() }

// DrainOnce drains every tracer once, passing each event to the sink in
// record order, tracer by tracer. Returns the number of events drained.
func (h *TraceHub) DrainOnce() int {
	h.mu.Lock()
	names := append([]string(nil), h.names...)
	tracers := append([]*Tracer(nil), h.tracers...)
	sink := h.sink
	h.mu.Unlock()
	n := 0
	for i, t := range tracers {
		name := names[i]
		n += t.Drain(func(ev Event) {
			if sink != nil {
				sink(name, ev)
			}
		})
	}
	h.drained.Add(uint64(n))
	return n
}
