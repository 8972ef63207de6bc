package memories

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// requireFileDigest pins the bytes Session.Checkpoint leaves on disk.
// The digests were computed with the Enc-based writers of b889b55, so a
// match means files written by either side of the two-way codec load
// under the other.
func requireFileDigest(t *testing.T, path, want string, size int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want || len(b) != size {
		t.Fatalf("%s: digest %s (%d B), want %s (%d B)", filepath.Base(path), got, len(b), want, size)
	}
}

func testSession(t *testing.T) *Session {
	t.Helper()
	gen := NewTPCC(ScaledTPCCConfig(8192))
	s, err := NewSession(DefaultHostConfig(), SingleL3Board(8*MB, 4, 128), gen)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionCheckpointResumeEquivalence is the facade-level oracle: a
// session checkpointed mid-run and restored into a fresh twin must
// finish with counters bit-identical to an uninterrupted run.
func TestSessionCheckpointResumeEquivalence(t *testing.T) {
	const half = 30_000
	path := filepath.Join(t.TempDir(), "session.ckpt")

	ref := testSession(t)
	ref.Run(2 * half)

	s := testSession(t)
	s.Run(half)
	if err := s.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	requireFileDigest(t, path, "11c326ea77154cb9967bd1ffce1b7ce462ba7bc6b7961ac2c45d33b2db6c245f", 4759856)
	resumed := testSession(t)
	if _, err := resumed.Restore(path); err != nil {
		t.Fatal(err)
	}
	resumed.Run(half)

	if got, want := resumed.Host.Stats(), ref.Host.Stats(); got != want {
		t.Fatalf("host stats diverged:\n got %+v\nwant %+v", got, want)
	}
	for name, want := range ref.Board.Counters().Snapshot() {
		if got := resumed.Board.Counters().Value(name); got != want {
			t.Fatalf("board counter %s = %d, want %d", name, got, want)
		}
	}
}

// TestFaultSessionCheckpointResume covers the injector RNG + shadow
// path of the snapshot.
func TestFaultSessionCheckpointResume(t *testing.T) {
	mk := func() (*Session, *FaultInjector) {
		gen := NewTPCC(ScaledTPCCConfig(8192))
		bcfg := SingleL3Board(8*MB, 4, 128)
		bcfg.ECC = true
		s, inj, err := NewFaultSession(DefaultHostConfig(), bcfg, FaultConfig{
			Seed:        3,
			DropProb:    0.001,
			DupProb:     0.001,
			BitFlipProb: 0.0005,
			Shadow:      true,
		}, gen)
		if err != nil {
			t.Fatal(err)
		}
		return s, inj
	}
	// Scrub at the midpoint in both runs: restore verifies ECC as the
	// directory loads and repairs any latent soft error, so a bit-exact
	// comparison needs the uninterrupted run healed at the same point.
	const half = 20_000
	ref, _ := mk()
	ref.Run(half)
	ref.Board.ScrubNow()
	ref.Run(half)

	path := filepath.Join(t.TempDir(), "faults.ckpt")
	pin, _ := mk()
	pin.Run(half)
	if err := pin.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	requireFileDigest(t, path, "61fb46451171c57efb29612d6e5be1851b7b7543c9f2b1438baeec28a9742298", 5284659)

	s, _ := mk()
	s.Run(half)
	s.Board.ScrubNow()
	if err := s.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	resumed, _ := mk()
	if _, err := resumed.Restore(path); err != nil {
		t.Fatal(err)
	}
	resumed.Run(half)

	for name, want := range ref.Board.Counters().Snapshot() {
		if got := resumed.Board.Counters().Value(name); got != want {
			t.Fatalf("counter %s = %d, want %d", name, got, want)
		}
	}
}

// TestSessionRestoreRejectsMismatch: a snapshot from a different
// session shape is a CorruptError, not a silent misload.
func TestSessionRestoreRejectsMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.ckpt")
	s := testSession(t)
	s.Run(1000)
	if err := s.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	gen := NewTPCH(ScaledTPCHConfig(8192))
	other, err := NewSession(DefaultHostConfig(), SingleL3Board(8*MB, 4, 128), gen)
	if err != nil {
		t.Fatal(err)
	}
	_, err = other.Restore(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
}

// TestSessionCheckpointSplashRejected: goroutine-backed kernels cannot
// be snapshotted and must say so.
func TestSessionCheckpointSplashRejected(t *testing.T) {
	gen := NewSplash("lu", "test", 4, 1)
	if gen == nil {
		t.Skip("no splash kernel available")
	}
	s, err := NewSession(DefaultHostConfig(), SingleL3Board(8*MB, 4, 128), gen)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1000)
	if err := s.Checkpoint(filepath.Join(t.TempDir(), "x.ckpt")); err == nil {
		t.Fatal("splash session checkpoint succeeded")
	}
}

// An obs-enabled session carries its registry counters through the
// snapshot: the sampler's own counters and board mirrors resume instead
// of restarting from zero.
func TestSessionCheckpointCarriesObsCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.ckpt")

	s := testSession(t)
	var jsonl bytes.Buffer
	h, err := s.EnableObs("", time.Hour, &jsonl, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	s.Run(20_000)
	h.Registry.Counter("replay.ticks").Add(42)
	if err := s.Checkpoint(path); err != nil {
		t.Fatal(err)
	}

	s2 := testSession(t)
	var jsonl2 bytes.Buffer
	h2, err := s2.EnableObs("", time.Hour, &jsonl2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if _, err := s2.Restore(path); err != nil {
		t.Fatal(err)
	}

	// Registry-owned counters travel in the obs.counters section; board
	// mirrors are derived from the (also restored) bank.
	if got := h2.Registry.Counter("replay.ticks").Value(); got != 42 {
		t.Fatalf("registry counter = %d, want 42 after restore", got)
	}
	got := s2.Board.Counters().Snapshot()
	for name, v := range s.Board.Counters().Snapshot() {
		if got[name] != v {
			t.Fatalf("board counter %s = %d, want %d", name, got[name], v)
		}
	}
}

// A plain session restores a snapshot taken by an obs-enabled twin by
// ignoring the obs section, and vice versa (Has() guards the optional
// section).
func TestSessionRestoreWithoutObsIgnoresObsSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.ckpt")

	s := testSession(t)
	h, err := s.EnableObs("", time.Hour, io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	s.Run(10_000)
	if err := s.Checkpoint(path); err != nil {
		t.Fatal(err)
	}

	plain := testSession(t)
	if _, err := plain.Restore(path); err != nil {
		t.Fatal(err)
	}
	got := plain.Board.Counters().Snapshot()
	for name, v := range s.Board.Counters().Snapshot() {
		if got[name] != v {
			t.Fatalf("board counter %s = %d, want %d after obs-to-plain restore", name, got[name], v)
		}
	}
}
