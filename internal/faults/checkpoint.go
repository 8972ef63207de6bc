package faults

import "memories/internal/checkpoint"

// Checkpoint walks the injector's RNG position and, when divergence
// detection is enabled, the shadow simulator's full state; the snapshot
// must have been taken with the same Shadow setting. The fault counters
// live in the board's bank and travel with the board sections.
// lastForwarded is response-phase scratch; a checkpoint is only taken
// between transactions, where it is dead state.
func (inj *Injector) Checkpoint(c *checkpoint.Codec) error {
	inj.rng.Checkpoint(c)
	c.FixedBool("shadow presence", inj.shadow != nil)
	if c.Loading() {
		inj.lastForwarded = false
	}
	if inj.shadow != nil {
		return inj.shadow.Checkpoint(c)
	}
	return c.Err()
}
