package bus

import "memories/internal/checkpoint"

// Checkpoint walks the bus clock, the transaction sequence, and the
// activity statistics. Attached snoopers are reattached by the caller,
// not stored. A histogram of another width means the snapshot came from
// a different command-set revision and is rejected.
func (b *Bus) Checkpoint(c *checkpoint.Codec) error {
	c.U64(&b.cycle)
	c.U64(&b.seq)
	c.U64(&b.stats.Transactions)
	c.U64(&b.stats.Retries)
	c.U64(&b.stats.BusyCycles)
	checkpoint.Slice64(c, "command histogram length", b.stats.ByCommand[:])
	return c.Err()
}
