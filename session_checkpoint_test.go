package memories

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"memories/internal/checkpoint"
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

// TestSessionCheckpointSplashRejected: the splash kernels do not
// implement workload.Checkpointer, so a session running one cannot be
// snapshotted and must say so.
func TestSessionCheckpointSplashRejected(t *testing.T) {
	gen := NewSplash("fft", "test", 4, 1)
	if gen == nil {
		t.Fatal("no fft kernel")
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

// fileBytes reads a snapshot back for byte comparisons.
func fileBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireSameCounters fails unless got's board counters equal want's.
func requireSameCounters(t *testing.T, got, want *Session) {
	t.Helper()
	g := got.Board.Counters().Snapshot()
	for name, v := range want.Board.Counters().Snapshot() {
		if g[name] != v {
			t.Fatalf("board counter %s = %d, want %d", name, g[name], v)
		}
	}
}

// The console's checkpoint command is Session.Checkpoint: it writes the
// same bytes, and Session.Restore (like the console's own restore)
// loads them into a fresh twin.
func TestSessionConsoleCheckpointIsTheSessions(t *testing.T) {
	dir := t.TempDir()
	viaConsole, viaSession := filepath.Join(dir, "console.ckpt"), filepath.Join(dir, "session.ckpt")

	s := testSession(t)
	s.Run(20_000)
	var out bytes.Buffer
	if err := s.Console(&out).Execute("checkpoint " + viaConsole); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(viaSession); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileBytes(t, viaConsole), fileBytes(t, viaSession)) {
		t.Fatal("the console's snapshot differs from the session's")
	}

	resumed := testSession(t)
	if _, err := resumed.Restore(viaConsole); err != nil {
		t.Fatal(err)
	}
	requireSameCounters(t, resumed, s)
	if got, want := resumed.Host.Stats(), s.Host.Stats(); got != want {
		t.Fatalf("host stats = %+v, want %+v", got, want)
	}

	again := testSession(t)
	out.Reset()
	if err := again.Console(&out).Execute("restore " + viaSession); err != nil {
		t.Fatal(err)
	}
	if want := "state restored from " + viaSession + "\n"; out.String() != want {
		t.Fatalf("console restore printed %q, want %q", out.String(), want)
	}
	requireSameCounters(t, again, s)
}

// Observability adds nothing to a snapshot: an obs-enabled session and
// its plain twin write byte-identical checkpoints, and each restores the
// other's.
func TestSessionCheckpointObsAddsNothing(t *testing.T) {
	dir := t.TempDir()
	plainPath, obsPath := filepath.Join(dir, "plain.ckpt"), filepath.Join(dir, "obs.ckpt")

	plain := testSession(t)
	observed := testSession(t)
	var jsonl bytes.Buffer
	h, err := observed.EnableObs("", time.Hour, &jsonl, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	plain.Run(20_000)
	observed.Run(20_000)
	if err := plain.Checkpoint(plainPath); err != nil {
		t.Fatal(err)
	}
	if err := observed.Checkpoint(obsPath); err != nil {
		t.Fatal(err)
	}
	if p, o := fileBytes(t, plainPath), fileBytes(t, obsPath); !bytes.Equal(p, o) {
		t.Fatalf("obs-enabled snapshot (%d B) differs from its plain twin's (%d B)", len(o), len(p))
	}
}

// An obs-enabled session's snapshot carries every counter its registry
// shows: they are the board's, mirrored, and travel in the board's
// sections. A restored obs-enabled twin publishes the same values.
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
	requireSameCounters(t, s2, s)

	h.Registry.Request()
	h2.Registry.Request()
	s.Board.PublishObs()
	s2.Board.PublishObs()
	want, got := h.Registry.Snapshot().Counters, h2.Registry.Snapshot().Counters
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("registry shows %d counters after restore, want %d (> 0)", len(got), len(want))
	}
	for i, c := range want {
		if !strings.HasPrefix(c.Name, "board.") {
			t.Fatalf("registry counter %s is not a board mirror", c.Name)
		}
		if got[i] != c {
			t.Fatalf("registry counter %s = %d after restore, want %d", got[i].Name, got[i].Value, c.Value)
		}
	}
}

// Snapshots written before observability stopped adding to them carry
// an obs.counters section (registry-owned counters: a count, then name
// and value pairs). Plain and obs-enabled sessions restore them alike by
// ignoring that section, and re-save without it.
func TestSessionRestoreWithoutObsIgnoresObsSection(t *testing.T) {
	dir := t.TempDir()
	plainPath, oldPath := filepath.Join(dir, "plain.ckpt"), filepath.Join(dir, "old.ckpt")

	s := testSession(t)
	s.Run(10_000)
	if err := s.Checkpoint(plainPath); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	obsCounters, err := checkpoint.Marshal(func(c *checkpoint.Codec) error {
		n, name, v := uint32(1), "replay.ticks", uint64(42)
		c.U32(&n)
		c.Str(&name)
		c.U64(&v)
		return c.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	err = checkpoint.WriteFileAtomic(oldPath, func(w *checkpoint.Writer) error {
		for _, sec := range snap.Sections() {
			if err := w.Section(sec.Name, sec.Payload); err != nil {
				return err
			}
		}
		return w.Section("obs.counters", obsCounters)
	})
	if err != nil {
		t.Fatal(err)
	}

	plain := testSession(t)
	if _, err := plain.Restore(oldPath); err != nil {
		t.Fatal(err)
	}
	requireSameCounters(t, plain, s)

	observed := testSession(t)
	h, err := observed.EnableObs("", time.Hour, io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := observed.Restore(oldPath); err != nil {
		t.Fatal(err)
	}
	requireSameCounters(t, observed, s)
	for _, c := range h.Registry.Snapshot().Counters {
		if c.Name == "replay.ticks" {
			t.Fatal("the old obs.counters section was applied")
		}
	}
	resaved := filepath.Join(dir, "resaved.ckpt")
	if err := observed.Checkpoint(resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileBytes(t, resaved), fileBytes(t, plainPath)) {
		t.Fatal("re-saving an old snapshot did not drop its obs.counters section")
	}
}
