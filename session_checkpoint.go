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

// appendSections writes the whole session: meta fingerprint, host state
// (workload position, RNG, private caches, bus), board sections, and —
// when present — fault-injector and obs-registry state.
func (s *Session) appendSections(cw *checkpoint.Writer) error {
	var meta checkpoint.Enc
	meta.Str(s.sessionFingerprint())
	if err := cw.Section("session.meta", meta.Bytes()); err != nil {
		return err
	}
	var hs checkpoint.Enc
	if err := s.Host.SaveState(&hs); err != nil {
		return err
	}
	if err := cw.Section("host.state", hs.Bytes()); err != nil {
		return err
	}
	if err := s.Board.AppendSections(cw); err != nil {
		return err
	}
	if s.inj != nil {
		var fs checkpoint.Enc
		s.inj.SaveState(&fs)
		if err := cw.Section("faults.state", fs.Bytes()); err != nil {
			return err
		}
	}
	if s.obs != nil {
		var os checkpoint.Enc
		s.obs.Registry.SaveCounters(&os)
		if err := cw.Section("obs.counters", os.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint writes the session's complete state to path, crash-safely
// (temp file + fsync + atomic rename; the previous checkpoint at path
// is never clobbered by a failed write). The board's transaction
// buffers are flushed first so the snapshot is a quiescent point.
func (s *Session) Checkpoint(path string) error {
	s.Board.Flush()
	return checkpoint.WriteFileAtomic(path, s.appendSections)
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
	md, err := snap.Dec("session.meta")
	if err != nil {
		return RestoreReport{}, err
	}
	if got, want := md.Str(), s.sessionFingerprint(); got != want {
		return RestoreReport{}, md.Failf("session configuration mismatch: snapshot %q, this session %q", got, want)
	}
	if err := md.Close(); err != nil {
		return RestoreReport{}, err
	}
	hs, err := snap.Dec("host.state")
	if err != nil {
		return RestoreReport{}, err
	}
	if err := s.Host.RestoreState(hs); err != nil {
		return RestoreReport{}, err
	}
	if err := hs.Close(); err != nil {
		return RestoreReport{}, err
	}
	rep, err := core.RestoreBoard(s.Board, snap)
	if err != nil {
		return rep, err
	}
	if s.inj != nil {
		fs, err := snap.Dec("faults.state")
		if err != nil {
			return rep, err
		}
		if err := s.inj.RestoreState(fs); err != nil {
			return rep, err
		}
		if err := fs.Close(); err != nil {
			return rep, err
		}
	}
	if s.obs != nil && snap.Has("obs.counters") {
		od, err := snap.Dec("obs.counters")
		if err != nil {
			return rep, err
		}
		if err := s.obs.Registry.RestoreCounters(od); err != nil {
			return rep, err
		}
		if err := od.Close(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
