package sdram

import "memories/internal/checkpoint"

// Checkpoint walks the tag-store scheduler horizon and statistics. The
// configuration itself is not stored; the restorer must be built with
// the same timing, which the per-bank slice length cross-checks.
func (t *TagStore) Checkpoint(c *checkpoint.Codec) error {
	c.U64(&t.channelFree)
	checkpoint.Slice64(c, "bank count", t.bankFree)
	c.U64(&t.stats.Ops)
	c.U64(&t.stats.BusyCycles)
	c.U64(&t.stats.BankConflicts)
	c.U64(&t.stats.StallCycles)
	c.U64(&t.stats.InjectedStallCycles)
	return c.Err()
}
