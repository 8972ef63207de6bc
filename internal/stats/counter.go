// Package stats implements the measurement side of the MemorIES board: the
// 40-bit hardware event counters described in §3 of the paper ("more than
// 400 counters ... each counter is 40-bit wide"), named counter banks with
// group prefixes, interval time series used for miss-ratio profiles
// (Figure 10), and plain-text table/CSV rendering for the experiment
// harness.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// CounterMax is the saturation value of a 40-bit hardware counter. At the
// paper's typical 20% utilization of a 100MHz bus this is over 30 hours of
// events, so saturation is an exceptional condition worth surfacing.
const CounterMax uint64 = 1<<40 - 1

// Counter is a 40-bit saturating event counter. The zero value is ready to
// use. It is not safe for concurrent use; the board steps all counters from
// a single lock-step loop, matching the hardware.
type Counter struct {
	v         uint64
	saturated bool
}

// Add increments the counter by n, saturating at CounterMax.
func (c *Counter) Add(n uint64) {
	if n > CounterMax-c.v {
		c.v = CounterMax
		c.saturated = true
		return
	}
	c.v += n
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Saturated reports whether the counter has reached CounterMax.
func (c *Counter) Saturated() bool { return c.saturated }

// Reset clears the counter and its saturation flag.
func (c *Counter) Reset() { c.v, c.saturated = 0, false }

// Restore sets the counter to a checkpointed value, clamping to the
// 40-bit hardware range (a corrupt snapshot must not produce a counter
// the hardware could never hold).
func (c *Counter) Restore(v uint64, saturated bool) {
	if v > CounterMax {
		v = CounterMax
		saturated = true
	}
	c.v, c.saturated = v, saturated
}

// Bank is a collection of named counters, as presented by the board's
// console interface. Counter names are hierarchical with '.' separators,
// e.g. "node0.read.miss"; Group extracts sub-banks by prefix.
type Bank struct {
	counters map[string]*Counter
	order    []string
}

// NewBank returns an empty counter bank.
func NewBank() *Bank {
	return &Bank{counters: make(map[string]*Counter)}
}

// Counter returns the counter with the given name, creating it at zero if
// it does not exist. Creating counters up front (at board initialization)
// keeps the hot path allocation-free.
func (b *Bank) Counter(name string) *Counter {
	if c, ok := b.counters[name]; ok {
		return c
	}
	c := &Counter{}
	b.counters[name] = c
	b.order = append(b.order, name)
	return c
}

// Lookup returns the named counter, or nil if it was never created.
func (b *Bank) Lookup(name string) *Counter { return b.counters[name] }

// Value returns the value of the named counter, or 0 if absent.
func (b *Bank) Value(name string) uint64 {
	if c := b.counters[name]; c != nil {
		return c.v
	}
	return 0
}

// Len returns the number of counters in the bank.
func (b *Bank) Len() int { return len(b.counters) }

// Ordered returns the bank's counter names and the counters themselves in
// creation order, index-aligned. The counter pointers alias the bank's
// live counters: callers that hold them (the observability mirror) read
// values without re-probing the map, but must only do so from the
// goroutine that owns the bank.
func (b *Bank) Ordered() ([]string, []*Counter) {
	names := make([]string, len(b.order))
	copy(names, b.order)
	counters := make([]*Counter, len(names))
	for i, name := range names {
		counters[i] = b.counters[name]
	}
	return names, counters
}

// ResetAll clears every counter in the bank.
func (b *Bank) ResetAll() {
	for _, c := range b.counters {
		c.Reset()
	}
}

// Snapshot returns a copy of all counter values, keyed by name.
func (b *Bank) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(b.counters))
	for name, c := range b.counters {
		out[name] = c.v
	}
	return out
}

// Group returns the names of counters sharing the given dot-separated
// prefix, sorted. A prefix of "node0" matches "node0.read.miss" but not
// "node01.read.miss".
func (b *Bank) Group(prefix string) []string {
	var out []string
	p := prefix + "."
	for name := range b.counters {
		if strings.HasPrefix(name, p) || name == prefix {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Dump renders the bank (optionally filtered by prefix; empty matches all)
// as "name value" lines sorted by name, the format the console software
// extracts over the parallel port.
func (b *Bank) Dump(prefix string) string {
	names := make([]string, 0, len(b.counters))
	for name := range b.counters {
		if prefix == "" || strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		c := b.counters[name]
		sat := ""
		if c.saturated {
			sat = " (saturated)"
		}
		fmt.Fprintf(&sb, "%s %d%s\n", name, c.v, sat)
	}
	return sb.String()
}

// Ratio returns a/b as a float, or 0 when b is zero. Miss ratios and
// utilization figures throughout the experiments use it.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
