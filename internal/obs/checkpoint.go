package obs

import (
	"sort"

	"memories/internal/checkpoint"
)

// Checkpoint walks the registry's own atomic counters (sampler ticks,
// drain events — everything created via Registry.Counter) in
// sorted-name order. Mirrors, gauges, and histograms are derived from
// live owners and are not part of a snapshot. Registry counters are
// open-namespace, unlike the board's fixed bank: loading creates the
// ones this registry has not seen yet.
func (r *Registry) Checkpoint(c *checkpoint.Codec) error {
	var names []string
	if !c.Loading() {
		r.mu.RLock()
		for name := range r.counters {
			names = append(names, name)
		}
		r.mu.RUnlock()
		sort.Strings(names)
	}
	n := uint32(len(names))
	c.U32(&n)
	for i := 0; i < int(n) && c.Err() == nil; i++ {
		var name string
		if !c.Loading() {
			name = names[i]
		}
		c.Str(&name)
		if c.Err() != nil {
			break
		}
		ctr := r.Counter(name)
		v := ctr.Value()
		c.U64(&v)
		if c.Loading() {
			ctr.Store(v)
		}
	}
	return c.Err()
}
