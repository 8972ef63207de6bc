package stats

import "memories/internal/checkpoint"

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

// Checkpoint walks every counter (name, value, saturation flag) in
// creation order. Loading resets the bank and then lands the values in
// the existing counters, so that cached *Counter pointers held by the
// board and the obs mirror remain valid; a snapshot naming a counter
// this bank does not have means the configurations differ, which is
// reported as corruption.
func (b *Bank) Checkpoint(c *checkpoint.Codec) error {
	n := uint32(len(b.order))
	c.U32(&n)
	if c.Loading() {
		b.ResetAll()
	}
	for i := 0; i < int(n) && c.Err() == nil; i++ {
		var name string
		if !c.Loading() {
			name = b.order[i]
		}
		c.Str(&name)
		ctr := b.counters[name]
		if ctr == nil {
			return c.Failf("snapshot counter %q not present in this bank", name)
		}
		v, sat := ctr.v, ctr.saturated
		c.U64(&v)
		c.Bool(&sat)
		if c.Loading() {
			ctr.Restore(v, sat)
		}
	}
	return c.Err()
}
