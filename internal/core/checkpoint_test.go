package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"memories/internal/bus"
	"memories/internal/checkpoint"
	"memories/internal/workload"
)

// driveRandom feeds n pseudo-random transactions through a feeder.
func driveRandom(f *feeder, seed uint64, n int) {
	rng := workload.NewRNG(seed)
	for i := 0; i < n; i++ {
		cmd := bus.Read
		switch rng.Intn(4) {
		case 1:
			cmd = bus.RWITM
		case 2:
			cmd = bus.Castout
		}
		f.issue(cmd, uint64(rng.Intn(1<<22))&^127, int(rng.Intn(4)))
	}
	f.board.Flush()
}

// checkpointBytes renders a board to an in-memory checkpoint image.
func checkpointBytes(t *testing.T, b *Board) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBoardCheckpointRoundTrip is the resume-equivalence oracle at the
// board layer: a board checkpointed mid-stream and restored into a
// fresh board must match the original counter-for-counter, both at the
// restore point and after both process the identical remaining stream.
func TestBoardCheckpointRoundTrip(t *testing.T) {
	orig, f := twoNodeBoard(t)
	driveRandom(f, 11, 4000)
	img := checkpointBytes(t, orig)
	snap, err := checkpoint.Decode(img)
	if err != nil {
		t.Fatal(err)
	}

	fresh, _ := twoNodeBoard(t)
	if _, err := RestoreBoard(fresh, snap); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.Counters().Snapshot(), orig.Counters().Snapshot(); len(got) != len(want) {
		t.Fatalf("counter count %d != %d", len(got), len(want))
	}
	for name, want := range orig.Counters().Snapshot() {
		if got := fresh.Counters().Value(name); got != want {
			t.Fatalf("restored counter %s = %d, want %d", name, got, want)
		}
	}
	if fresh.LastCycle() != orig.LastCycle() {
		t.Fatalf("lastCycle %d != %d", fresh.LastCycle(), orig.LastCycle())
	}

	// Continue both boards through the same tail; every counter must
	// stay identical (this exercises the restored directory words and
	// tag-store horizons, not just the counters).
	f2 := &feeder{board: fresh, cycle: f.cycle}
	driveRandom(f, 22, 4000)
	driveRandom(f2, 22, 4000)
	for name, want := range orig.Counters().Snapshot() {
		if got := fresh.Counters().Value(name); got != want {
			t.Fatalf("post-resume counter %s = %d, want %d", name, got, want)
		}
	}
	for i := 0; i < orig.NumNodes(); i++ {
		if got, want := fresh.DirectoryResident(i), orig.DirectoryResident(i); got != want {
			t.Fatalf("node %d resident %d != %d", i, got, want)
		}
	}
}

// TestBoardCheckpointConfigMismatch: a snapshot must not restore into a
// board with a different shape, and the rejection is a CorruptError.
func TestBoardCheckpointConfigMismatch(t *testing.T) {
	orig, f := twoNodeBoard(t)
	driveRandom(f, 3, 500)
	snap, err := checkpoint.Decode(checkpointBytes(t, orig))
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewBoard(Config{Nodes: []NodeConfig{
		nodeCfg("a", []int{0, 1}, 128, 4, 0), // different size
		nodeCfg("b", []int{2, 3}, 64, 4, 0),
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RestoreBoard(other, snap)
	var ce *checkpoint.CorruptError
	if !errors.As(err, &ce) || ce.Section != "board.meta" {
		t.Fatalf("err = %v, want board.meta CorruptError", err)
	}
}

// TestBoardCheckpointCorruptSection flips one byte of a node directory
// payload and requires the loader to report that section by name and
// offset rather than restore garbage.
func TestBoardCheckpointCorruptSection(t *testing.T) {
	orig, f := twoNodeBoard(t)
	driveRandom(f, 5, 500)
	img := checkpointBytes(t, orig)
	snap, err := checkpoint.Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := snap.Section("board.node0.dir")
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), img...)
	payloadStart := sec.Offset + 1 + int64(len(sec.Name)) + 12
	mut[payloadStart+16] ^= 0x01
	_, err = checkpoint.Decode(mut)
	var ce *checkpoint.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
	if ce.Section != "board.node0.dir" {
		t.Errorf("Section = %q, want board.node0.dir", ce.Section)
	}
	if ce.Offset != sec.Offset {
		t.Errorf("Offset = %d, want %d", ce.Offset, sec.Offset)
	}
	if !strings.Contains(ce.Error(), "board.node0.dir") {
		t.Errorf("Error() = %q does not name the section", ce.Error())
	}
}

// TestBoardCheckpointECCRepairOnLoad corrupts a directory word (the
// soft-error model: bits flip without the check byte following) before
// the save; the restore must repair it through the SECDED datapath and
// count the correction.
func TestBoardCheckpointECCRepairOnLoad(t *testing.T) {
	mk := func() (*Board, *feeder) {
		b, err := NewBoard(Config{
			ECC: true,
			Nodes: []NodeConfig{
				nodeCfg("a", []int{0, 1}, 64, 4, 0),
				nodeCfg("b", []int{2, 3}, 64, 4, 0),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b, &feeder{board: b}
	}
	orig, f := mk()
	driveRandom(f, 7, 2000)
	// Single-bit tag flip: correctable on load.
	orig.CorruptDirectory(0, 10, 1<<5, 0)
	snap, err := checkpoint.Decode(checkpointBytes(t, orig))
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := mk()
	rep, err := RestoreBoard(fresh, snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ECCCorrected != 1 || rep.ECCInvalidated != 0 {
		t.Fatalf("report = %+v, want 1 corrected", rep)
	}
	base := orig.Counters().Value("nodea.ecc.corrected")
	if got := fresh.Counters().Value("nodea.ecc.corrected"); got != base+1 {
		t.Fatalf("ecc.corrected = %d, want %d", got, base+1)
	}
}

// TestBoardCheckpointRequiresQuiescence: buffered transactions are bus
// in-flight state and must not silently vanish into a snapshot.
func TestBoardCheckpointRequiresQuiescence(t *testing.T) {
	b, err := NewBoard(Config{Nodes: []NodeConfig{
		nodeCfg("a", []int{0}, 64, 4, 0),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Two transactions in the same cycle: the second stays buffered
	// behind SDRAM pacing.
	b.Snoop(&bus.Transaction{Cmd: bus.Read, Addr: 0, Size: 128, SrcID: 0, Cycle: 1})
	b.Snoop(&bus.Transaction{Cmd: bus.Read, Addr: 4096, Size: 128, SrcID: 0, Cycle: 1})
	if b.PendingDepth() == 0 {
		t.Skip("pacing did not buffer; nothing to assert")
	}
	var buf bytes.Buffer
	if err := b.WriteCheckpoint(&buf); err == nil {
		t.Fatal("checkpoint accepted with buffered transactions")
	}
}

// WriteCheckpointFile is the atomic on-disk wrapper: the file it leaves
// behind must read back and restore exactly like the in-memory image.
func TestBoardWriteCheckpointFile(t *testing.T) {
	orig, f := twoNodeBoard(t)
	driveRandom(f, 23, 2000)
	path := filepath.Join(t.TempDir(), "board.ckpt")
	if err := orig.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := twoNodeBoard(t)
	rep, err := RestoreBoard(fresh, snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ECCCorrected != 0 || rep.ECCInvalidated != 0 {
		t.Fatalf("clean file reported ECC repairs: %+v", rep)
	}
	want := orig.Counters().Snapshot()
	for name, v := range fresh.Counters().Snapshot() {
		if v != want[name] {
			t.Fatalf("counter %s = %d, want %d", name, v, want[name])
		}
	}
}

// TestWriteCheckpointAllocsIndependentOfSize: serializing into a reused
// buffer costs a fixed number of allocations (section framing, codec
// scratch), not one per slot or per set — the Slice64 bulk path writes
// the packed directory straight through. 16x the directory may add at
// most a handful.
func TestWriteCheckpointAllocsIndependentOfSize(t *testing.T) {
	allocs := func(sizeKB int64) float64 {
		b := MustNewBoard(Config{Nodes: []NodeConfig{nodeCfg("a", []int{0, 1, 2, 3}, sizeKB, 4, 0)}})
		driveRandom(&feeder{board: b}, 7, 1<<16)
		var buf bytes.Buffer
		write := func() {
			buf.Reset()
			if err := b.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
		}
		write() // grow buf to its final capacity
		return testing.AllocsPerRun(5, write)
	}
	small, large := allocs(2*1024), allocs(32*1024)
	if large > small+8 {
		t.Fatalf("WriteCheckpoint allocs grow with the directory: %.0f at 2 MB, %.0f at 32 MB", small, large)
	}
}
