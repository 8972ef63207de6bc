package simbase

import "memories/internal/checkpoint"

// Checkpoint walks the trace simulator: global record counts and, per
// node, the directory image and result counters. Node configuration is
// cross-checked structurally by the cache walk, not stored.
func (s *TraceSim) Checkpoint(c *checkpoint.Codec) error {
	c.U64(&s.Filtered)
	c.U64(&s.Processed)
	c.Len("node count", len(s.nodes))
	for _, n := range s.nodes {
		if _, err := n.dir.Checkpoint(c); err != nil {
			return err
		}
		c.U64(&n.stats.ReadHit)
		c.U64(&n.stats.ReadMiss)
		c.U64(&n.stats.WriteHit)
		c.U64(&n.stats.WriteMiss)
		c.U64(&n.stats.SatL3)
		c.U64(&n.stats.SatModInt)
		c.U64(&n.stats.SatShrInt)
		c.U64(&n.stats.SatMemory)
		c.U64(&n.stats.Castouts)
		c.U64(&n.stats.Evictions)
	}
	return c.Err()
}
