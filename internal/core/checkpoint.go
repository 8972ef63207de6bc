package core

import (
	"fmt"
	"io"

	"memories/internal/checkpoint"
	"memories/internal/stats"
)

// RestoreReport summarizes ECC repairs made while loading directory
// images — new events observed at restore time, counted into the
// board's ecc counters exactly as a scrub pass would.
type RestoreReport struct {
	ECCCorrected   uint64
	ECCInvalidated uint64
}

// fingerprint describes everything about the board configuration that a
// snapshot must match to be applicable: node shapes, protocols, snoop
// groups, CPU assignments, and the behavioral switches that change the
// transaction stream's effect.
func (b *Board) fingerprint() string {
	s := fmt.Sprintf("depth=%d retry=%v ecc=%v scrub=%d profile=%d",
		b.cfg.BufferDepth, b.cfg.RetryOnOverflow, b.cfg.ECC,
		b.cfg.ScrubIntervalCycles, b.cfg.ProfileBucketCycles)
	for _, n := range b.nodes {
		s += fmt.Sprintf(";node %s geom=%s policy=%d proto=%s group=%d cpus=%v sdram=%+v",
			n.cfg.Name, n.cfg.Geometry, n.cfg.Policy, n.cfg.Protocol.Name,
			n.cfg.Group, n.cfg.CPUs, n.cfg.SDRAM)
	}
	return s
}

// Sections walks the board's checkpoint sections in either direction:
// the configuration fingerprint, the clocks and counter bank, and each
// node's directory image and tag-store state. Nodes that share a timing
// model (Board.regroup) each save it in their own section.
//
// Saving needs a quiescent board: buffered transactions are part of the
// bus's in-flight state and are flushed, not serialized. Loading needs
// an identically configured one. Counter values land in the existing
// bank, so cached counter pointers (the board's own, and any attached
// obs mirror's) stay live. Directory words are ECC-verified as they
// load; repairs are counted into the per-node ecc counters and
// reported. Miss-ratio profiles and the tracer's ring are not part of
// the snapshot (the trace.captured and trace.dropped counters are).
func (b *Board) Sections(a *checkpoint.Archive) (RestoreReport, error) {
	var rep RestoreReport
	if !a.Loading() && b.PendingDepth() != 0 {
		return rep, fmt.Errorf("core: checkpoint with %d buffered transactions (Flush first)", b.PendingDepth())
	}
	if err := a.FixedStr("board.meta", "board configuration", b.fingerprint()); err != nil {
		return rep, err
	}
	err := a.Section("board.state", func(c *checkpoint.Codec) error {
		c.U64(&b.lastCycle)
		c.U64(&b.nextScrub)
		return WalkBank(c, b.bank)
	})
	if err != nil {
		return rep, err
	}
	if a.Loading() {
		b.queue = b.queue[:0]
		b.qhead, b.phead = 0, 0
		b.justEnqueued = false
		// Each node's tag-store section loads into a model of its own, so
		// no section overwrites a model another node shares; the equal
		// ones merge again afterwards, however the load ends.
		for _, n := range b.nodes {
			n.tags = newTagStore(n.cfg)
		}
		defer b.regroup()
	}
	for i, n := range b.nodes {
		err := a.Section(fmt.Sprintf("board.node%d.dir", i), func(c *checkpoint.Codec) error {
			crep, err := n.dir.Checkpoint(c)
			if crep.Corrected > 0 {
				n.cECCCorrected.Add(crep.Corrected)
			}
			if crep.Invalidated > 0 {
				n.cECCInvalidated.Add(crep.Invalidated)
			}
			rep.ECCCorrected += crep.Corrected
			rep.ECCInvalidated += crep.Invalidated
			return err
		})
		if err != nil {
			return rep, err
		}
		if err := a.Section(fmt.Sprintf("board.node%d.tags", i), n.tags.Checkpoint); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// save is Sections in the saving direction, in the shape the container
// writers take.
func (b *Board) save(cw *checkpoint.Writer) error {
	_, err := b.Sections(checkpoint.SaveTo(cw))
	return err
}

// WriteCheckpoint streams a complete board checkpoint to w.
func (b *Board) WriteCheckpoint(w io.Writer) error {
	cw, err := checkpoint.NewWriter(w)
	if err != nil {
		return err
	}
	if err := b.save(cw); err != nil {
		return err
	}
	return cw.Close()
}

// WalkBank walks every counter of a bank (name, value, saturation flag)
// in creation order; the board's bank travels this way in board.state.
// Loading resets the bank and then lands the values in the existing
// counters, so that cached *Counter pointers held by the board and the
// obs mirror remain valid; a snapshot naming a counter this bank does
// not have means the configurations differ, which is reported as
// corruption.
func WalkBank(c *checkpoint.Codec, bank *stats.Bank) error {
	names, _ := bank.Ordered()
	n := uint32(len(names))
	c.U32(&n)
	if c.Loading() {
		bank.ResetAll()
	}
	for i := 0; i < int(n) && c.Err() == nil; i++ {
		var name string
		if !c.Loading() {
			name = names[i]
		}
		c.Str(&name)
		ctr := bank.Lookup(name)
		if ctr == nil {
			return c.Failf("snapshot counter %q not present in this bank", name)
		}
		v, sat := ctr.Value(), ctr.Saturated()
		c.U64(&v)
		c.Bool(&sat)
		if c.Loading() {
			ctr.Restore(v, sat)
		}
	}
	return c.Err()
}

// WriteCheckpointFile writes a board checkpoint crash-safely: temp
// file, fsync, atomic rename.
func (b *Board) WriteCheckpointFile(path string) error {
	return checkpoint.WriteFileAtomic(path, b.save)
}

// RestoreBoard loads a snapshot written by WriteCheckpoint into an
// identically configured board.
func RestoreBoard(b *Board, snap *checkpoint.Snapshot) (RestoreReport, error) {
	return b.Sections(checkpoint.LoadFrom(snap))
}
