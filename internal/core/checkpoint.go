package core

import (
	"fmt"
	"io"

	"memories/internal/checkpoint"
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

// AppendSections writes the board's checkpoint sections to an open
// container writer. The board must be quiescent: buffered transactions
// are part of the bus's in-flight state and are flushed, not serialized.
func (b *Board) AppendSections(cw *checkpoint.Writer) error {
	if b.PendingDepth() != 0 {
		return fmt.Errorf("core: checkpoint with %d buffered transactions (Flush first)", b.PendingDepth())
	}
	var meta checkpoint.Enc
	meta.Str(b.fingerprint())
	if err := cw.Section("board.meta", meta.Bytes()); err != nil {
		return err
	}
	var st checkpoint.Enc
	st.U64(b.lastCycle)
	st.U64(b.nextScrub)
	b.bank.SaveState(&st)
	if err := cw.Section("board.state", st.Bytes()); err != nil {
		return err
	}
	for i, n := range b.nodes {
		var dir checkpoint.Enc
		n.dir.SaveState(&dir)
		if err := cw.Section(fmt.Sprintf("board.node%d.dir", i), dir.Bytes()); err != nil {
			return err
		}
		var tags checkpoint.Enc
		n.tags.SaveState(&tags)
		if err := cw.Section(fmt.Sprintf("board.node%d.tags", i), tags.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// WriteCheckpoint streams a complete board checkpoint to w.
func (b *Board) WriteCheckpoint(w io.Writer) error {
	cw, err := checkpoint.NewWriter(w)
	if err != nil {
		return err
	}
	if err := b.AppendSections(cw); err != nil {
		return err
	}
	return cw.Close()
}

// WriteCheckpointFile writes a board checkpoint crash-safely: temp
// file, fsync, atomic rename.
func (b *Board) WriteCheckpointFile(path string) error {
	return checkpoint.WriteFileAtomic(path, b.AppendSections)
}

// RestoreBoard loads a snapshot written by WriteCheckpoint into an
// identically configured board. Counter values land in the existing
// bank, so cached counter pointers (the board's own, and any attached
// obs mirror's) stay live. Directory words are ECC-verified as they
// load; repairs are counted into the per-node ecc counters and
// reported. Trace capture and miss-ratio profiles are not part of the
// snapshot; capture memory is reset to empty.
func RestoreBoard(b *Board, snap *checkpoint.Snapshot) (RestoreReport, error) {
	var rep RestoreReport
	md, err := snap.Dec("board.meta")
	if err != nil {
		return rep, err
	}
	if got, want := md.Str(), b.fingerprint(); got != want {
		return rep, md.Failf("board configuration mismatch: snapshot %q, this board %q", got, want)
	}
	if err := md.Close(); err != nil {
		return rep, err
	}
	st, err := snap.Dec("board.state")
	if err != nil {
		return rep, err
	}
	lastCycle := st.U64()
	nextScrub := st.U64()
	if err := b.bank.RestoreState(st); err != nil {
		return rep, err
	}
	if err := st.Close(); err != nil {
		return rep, err
	}
	b.lastCycle = lastCycle
	b.nextScrub = nextScrub
	b.queue = b.queue[:0]
	b.qhead = 0
	b.justEnqueued = false
	if b.capture != nil {
		b.capture.Reset()
	}
	for i, n := range b.nodes {
		dd, err := snap.Dec(fmt.Sprintf("board.node%d.dir", i))
		if err != nil {
			return rep, err
		}
		crep, err := n.dir.RestoreState(dd)
		if err != nil {
			return rep, err
		}
		if err := dd.Close(); err != nil {
			return rep, err
		}
		if crep.Corrected > 0 {
			n.cECCCorrected.Add(crep.Corrected)
		}
		if crep.Invalidated > 0 {
			n.cECCInvalidated.Add(crep.Invalidated)
		}
		rep.ECCCorrected += crep.Corrected
		rep.ECCInvalidated += crep.Invalidated
		td, err := snap.Dec(fmt.Sprintf("board.node%d.tags", i))
		if err != nil {
			return rep, err
		}
		if err := n.tags.RestoreState(td); err != nil {
			return rep, err
		}
		if err := td.Close(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
