package bus

import "memories/internal/checkpoint"

// SaveState serializes the bus clock, the transaction sequence, and the
// activity statistics. Attached snoopers are reattached by the caller,
// not stored.
func (b *Bus) SaveState(e *checkpoint.Enc) {
	e.U64(b.cycle)
	e.U64(b.seq)
	e.U64(b.stats.Transactions)
	e.U64(b.stats.Retries)
	e.U64(b.stats.BusyCycles)
	e.U64Slice(b.stats.ByCommand[:])
}

// RestoreState loads a checkpointed bus state.
func (b *Bus) RestoreState(d *checkpoint.Dec) error {
	b.cycle = d.U64()
	b.seq = d.U64()
	b.stats.Transactions = d.U64()
	b.stats.Retries = d.U64()
	b.stats.BusyCycles = d.U64()
	byCmd := d.U64Slice()
	if d.Err() != nil {
		return d.Err()
	}
	if len(byCmd) != numCommands {
		return d.Failf("command histogram length %d != %d commands", len(byCmd), numCommands)
	}
	copy(b.stats.ByCommand[:], byCmd)
	return nil
}
