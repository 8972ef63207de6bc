package sdram

import "memories/internal/checkpoint"

// Checkpoint walks the tag-store scheduler horizon and statistics. The
// configuration itself is not stored; the restorer must be built with
// the same timing, which the per-bank slice length cross-checks. The
// busy-cycle total is stored as Stats derives it, Ops × ChannelGap, and a
// snapshot holding any other value is corrupt.
func (t *TagStore) Checkpoint(c *checkpoint.Codec) error {
	c.U64(&t.channelFree)
	checkpoint.Slice64(c, "bank count", t.bankFree)
	c.U64(&t.stats.Ops)
	busy := t.busyCycles()
	c.U64(&busy)
	if c.Loading() && c.Err() == nil && busy != t.busyCycles() {
		c.Failf("busy cycles %d != ops %d × channel gap %d", busy, t.stats.Ops, t.gap)
	}
	c.U64(&t.stats.BankConflicts)
	c.U64(&t.stats.StallCycles)
	c.U64(&t.stats.InjectedStallCycles)
	return c.Err()
}
