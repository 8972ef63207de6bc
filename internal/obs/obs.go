// Package obs is the process-wide observability layer: the software
// equivalent of watching a live MemorIES board from the console PC while
// the host keeps running at full speed (paper §3-§4: the board "observes
// without perturbing").
//
// It has three parts:
//
//   - a metrics Registry that adopts the emulator's existing 40-bit
//     counter banks under hierarchical names ("fig8.tpcc.long.batch0.
//     nodes0.read.miss", "board0.filter.accepted") alongside typed
//     gauges, counters, and histograms, with deterministic snapshots
//     rendered as JSON lines and Prometheus text;
//   - a lock-free snoop event Tracer (one single-producer ring of packed
//     transaction records per board, drained asynchronously into the sink
//     it was built with), enabled per address range or CPU mask;
//   - a Sampler goroutine producing periodic snapshots, plus an opt-in
//     HTTP endpoint (Serve) exposing /metrics and /metrics.json.
//
// The design constraint throughout is that the snoop hot path stays hot:
// nothing here adds an interface call, map probe, or allocation to
// Board.Snoop/SnoopBatch. The banks remain plain non-atomic counters
// owned by one goroutine; the registry never reads them directly.
// Instead each bank gets a Mirror — a published copy held in atomic
// cells — and the bank's owner republishes it only when a sampler has
// requested one (a single atomic flag probe per transaction or batch).
// Readers see the values as of the owner's last safe point, which is the
// only honest semantics for sampling a live board anyway.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is an atomic event counter for code that runs off the board's
// lock-step loop (samplers, drainers, HTTP handlers). Hot-path code uses
// stats.Counter banks plus a Mirror instead.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Store sets the counter to v (for counters mirrored from an external
// monotone source, e.g. records decoded by a trace replay).
func (c *Counter) Store(v uint64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Registry is the process-wide metric namespace. All methods are safe
// for concurrent use; Snapshot is deterministic (sorted by name) for a
// given set of published values.
type Registry struct {
	mu       sync.RWMutex
	mirrors  map[string]*Mirror
	counters map[string]*Counter
	gauges   map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		mirrors:  make(map[string]*Mirror),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// AttachMirror adopts every counter of the mirrored bank under
// "<prefix>.<counter-name>". The prefix must be unique within the
// registry; attaching the same prefix twice is an error.
func (r *Registry) AttachMirror(prefix string, m *Mirror) error {
	if prefix == "" {
		return fmt.Errorf("obs: empty mirror prefix")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.mirrors[prefix]; dup {
		return fmt.Errorf("obs: mirror prefix %q already attached", prefix)
	}
	r.mirrors[prefix] = m
	return nil
}

// RemovePrefix detaches every mirror, counter, gauge, and histogram
// whose name starts with prefix, returning how many metrics were
// dropped. Long-running multi-tenant processes (the session service)
// use it to tear a session's whole namespace out of the registry when
// the session is destroyed, so the registry does not grow without
// bound.
func (r *Registry) RemovePrefix(prefix string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for name := range r.mirrors {
		if strings.HasPrefix(name, prefix) {
			delete(r.mirrors, name)
			n++
		}
	}
	for name := range r.counters {
		if strings.HasPrefix(name, prefix) {
			delete(r.counters, name)
			n++
		}
	}
	for name := range r.gauges {
		if strings.HasPrefix(name, prefix) {
			delete(r.gauges, name)
			n++
		}
	}
	for name := range r.hists {
		if strings.HasPrefix(name, prefix) {
			delete(r.hists, name)
			n++
		}
	}
	return n
}

// Counter returns the named atomic counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// RegisterGaugeFunc registers a gauge evaluated at snapshot time. The
// function must be safe to call from any goroutine.
func (r *Registry) RegisterGaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds if needed (see NewHistogram for the bounds rules).
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// Request asks every attached mirror's owner for a fresh publish at its
// next safe point. It costs each owner one atomic flag probe per
// transaction (or batch) until serviced.
func (r *Registry) Request() {
	r.mu.RLock()
	for _, m := range r.mirrors {
		m.Request()
	}
	r.mu.RUnlock()
}

// NV is one named counter value in a snapshot.
type NV struct {
	Name  string
	Value uint64
}

// NG is one named gauge value in a snapshot.
type NG struct {
	Name  string
	Value float64
}

// HistView is one histogram's state in a snapshot.
type HistView struct {
	Name   string
	Bounds []uint64 // bucket upper bounds (inclusive); +Inf implied last
	Counts []uint64 // len(Bounds)+1: cumulative prom semantics NOT applied
	Count  uint64
	Sum    uint64
}

// Snapshot is a deterministic point-in-time view of the registry:
// counters, gauges, and histograms each sorted by name. Counter values
// from mirrors are as of each bank owner's last publish.
type Snapshot struct {
	Counters []NV
	Gauges   []NG
	Hists    []HistView
}

// Snapshot collects every metric. Two calls with the same published
// state yield byte-identical renderings.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{}
	for prefix, m := range r.mirrors {
		p := prefix + "."
		m.Each(func(name string, v uint64) {
			s.Counters = append(s.Counters, NV{Name: p + name, Value: v})
		})
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NV{Name: name, Value: c.Value()})
	}
	for name, fn := range r.gauges {
		s.Gauges = append(s.Gauges, NG{Name: name, Value: fn()})
	}
	for name, h := range r.hists {
		s.Hists = append(s.Hists, h.view(name))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}

// Value returns the snapshot's value for a counter name, or 0.
func (s *Snapshot) Value(name string) uint64 {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Name >= name })
	if i < len(s.Counters) && s.Counters[i].Name == name {
		return s.Counters[i].Value
	}
	return 0
}

// Dump renders the snapshot as "name value" lines (sorted), optionally
// filtered by name prefix — the console `metrics` command's format,
// matching the classic counter-bank dump.
func (s *Snapshot) Dump(prefix string) string {
	var sb strings.Builder
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			fmt.Fprintf(&sb, "%s %d\n", c.Name, c.Value)
		}
	}
	for _, g := range s.Gauges {
		if strings.HasPrefix(g.Name, prefix) {
			fmt.Fprintf(&sb, "%s %g\n", g.Name, g.Value)
		}
	}
	for _, h := range s.Hists {
		if strings.HasPrefix(h.Name, prefix) {
			fmt.Fprintf(&sb, "%s count=%d sum=%d\n", h.Name, h.Count, h.Sum)
		}
	}
	return sb.String()
}
