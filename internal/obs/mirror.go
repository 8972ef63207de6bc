package obs

import (
	"sync/atomic"

	"memories/internal/stats"
)

// Mirror publishes a counter bank's values into atomic cells that any
// goroutine may read while the bank's single owner keeps mutating the
// live counters without synchronization.
//
// Division of labour:
//
//   - the owner goroutine (the board's snoop loop) calls Publish — either
//     unconditionally at quiesce points (Flush, end of run) or via the
//     Requested/Publish pair on the hot path, which costs one atomic
//     flag probe per transaction until a sampler asks;
//   - sampler/HTTP goroutines call Request and Each.
//
// Individual values are atomic, so readers never tear a single counter;
// a reader overlapping a publish may observe a mix of old and new values
// across *different* counters, which is inherent to sampling a live
// board and irrelevant once the owner has quiesced (the determinism
// tests compare post-Flush snapshots, which are exact).
type Mirror struct {
	state atomic.Pointer[mirrorState]
	bank  *stats.Bank
	req   atomic.Bool
}

// mirrorState is an immutable (names, sources) pairing plus the mutable
// atomic value cells. It is replaced wholesale when the bank grows (e.g.
// console reprogramming adds per-CPU counters).
type mirrorState struct {
	names []string
	srcs  []*stats.Counter
	vals  []atomic.Uint64
}

// NewMirror builds a mirror of the bank and publishes its current
// values. Must be called by the bank's owner (or before the owner
// starts).
func NewMirror(bank *stats.Bank) *Mirror {
	m := &Mirror{bank: bank}
	m.rebuild()
	return m
}

func (m *Mirror) rebuild() {
	names, srcs := m.bank.Ordered()
	st := &mirrorState{names: names, srcs: srcs, vals: make([]atomic.Uint64, len(srcs))}
	for i, c := range srcs {
		st.vals[i].Store(c.Value())
	}
	m.state.Store(st)
}

// Request asks the owner for a fresh publish at its next safe point.
func (m *Mirror) Request() { m.req.Store(true) }

// Requested reports whether a publish has been requested. It is the
// owner's hot-path probe: a single atomic load, small enough to inline.
func (m *Mirror) Requested() bool { return m.req.Load() }

// Publish copies the bank's current values into the published cells and
// clears any pending request. Owner goroutine only. It allocates nothing
// unless the bank has grown since the last publish.
func (m *Mirror) Publish() {
	m.req.Store(false)
	st := m.state.Load()
	if m.bank.Len() != len(st.srcs) {
		m.rebuild()
		return
	}
	for i, c := range st.srcs {
		st.vals[i].Store(c.Value())
	}
}

// Each calls fn for every mirrored counter with its bank-local name and
// last published value, in the bank's creation order. Safe from any
// goroutine.
func (m *Mirror) Each(fn func(name string, v uint64)) {
	st := m.state.Load()
	for i, name := range st.names {
		fn(name, st.vals[i].Load())
	}
}
