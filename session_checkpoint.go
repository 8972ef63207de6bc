package memories

import (
	"fmt"

	"memories/internal/checkpoint"
	"memories/internal/core"
)

// Checkpoint-related aliases, so callers can classify restore failures
// and inspect ECC repairs without importing internal packages.
type (
	// CorruptError reports a checkpoint that cannot be decoded or
	// applied (bad CRC, truncation, configuration mismatch).
	CorruptError = checkpoint.CorruptError
	// RestoreReport summarizes ECC repairs made while loading
	// checkpointed directory images.
	RestoreReport = core.RestoreReport
)

// sessionFingerprint ties a snapshot to the session's configuration:
// restoring a snapshot into a differently built session would silently
// produce garbage, so the mismatch is reported as corruption instead.
// host.Config is a flat value (no pointers), so %+v is a stable key.
func (s *Session) sessionFingerprint() string {
	return fmt.Sprintf("host=%+v gen=%s", s.Host.Config(), s.Host.Generator().Name())
}

// sections walks the whole session in either direction: meta
// fingerprint, host state (workload position, RNG, private caches, bus),
// board sections, and — when present — fault-injector state. This is the
// one list of what a session snapshot holds; the console's checkpoint
// command writes it too. Observability adds nothing: every counter a
// registry shows is the board's, mirrored, and travels in the board's
// sections. Loading asks only for these sections, so a snapshot that
// carries others (the obs.counters section older snapshots have) still
// restores.
func (s *Session) sections(a *checkpoint.Archive) (RestoreReport, error) {
	if err := a.FixedStr("session.meta", "session configuration", s.sessionFingerprint()); err != nil {
		return RestoreReport{}, err
	}
	if err := a.Section("host.state", s.Host.Checkpoint); err != nil {
		return RestoreReport{}, err
	}
	rep, err := s.Board.Sections(a)
	if err != nil {
		return rep, err
	}
	if s.inj != nil {
		if err := a.Section("faults.state", s.inj.Checkpoint); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// Checkpoint writes the session's complete state to path, crash-safely
// (temp file + fsync + atomic rename; the previous checkpoint at path
// is never clobbered by a failed write). The board's transaction
// buffers are flushed first so the snapshot is a quiescent point.
func (s *Session) Checkpoint(path string) error {
	s.Board.Flush()
	return checkpoint.WriteFileAtomic(path, func(cw *checkpoint.Writer) error {
		_, err := s.sections(checkpoint.SaveTo(cw))
		return err
	})
}

// Restore loads a checkpoint written by Checkpoint into this session,
// which must be configured identically (same host config, workload
// construction, and board config). Decode or application failures are
// *CorruptError values. The returned report counts ECC repairs made
// while loading the board's directory images.
func (s *Session) Restore(path string) (RestoreReport, error) {
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		return RestoreReport{}, err
	}
	return s.RestoreSnapshot(snap)
}

// RestoreSnapshot applies an already decoded snapshot (see Restore).
func (s *Session) RestoreSnapshot(snap *checkpoint.Snapshot) (RestoreReport, error) {
	return s.sections(checkpoint.LoadFrom(snap))
}
