package sdram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"memories/internal/checkpoint"
)

// The per-bank horizon slice length cross-checks the configuration: a
// snapshot from a store with a different bank count is corruption.
func TestTagStoreRestoreBankMismatch(t *testing.T) {
	payload, err := checkpoint.Marshal(New(DefaultConfig()).Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	small := DefaultConfig()
	small.Banks = 4
	err = checkpoint.Unmarshal(payload, New(small).Checkpoint)
	var ce *checkpoint.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *checkpoint.CorruptError", err)
	}
}

// Every operation holds the channel for exactly one channel gap, so the
// stored busy-cycle total is Ops × ChannelGap; a snapshot that says
// otherwise was not written by a tag store and is refused, while its
// unmutated twin restores to the same statistics.
func TestTagStoreRestoreRejectsInconsistentBusy(t *testing.T) {
	cfg := DefaultConfig()
	ts := New(cfg)
	for i := int64(0); i < 100; i++ {
		ts.Schedule(uint64(i*7), i*5)
	}
	payload, err := checkpoint.Marshal(ts.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	twin := New(cfg)
	if err := checkpoint.Unmarshal(payload, twin.Checkpoint); err != nil {
		t.Fatalf("unmutated snapshot: %v", err)
	}
	if got, want := twin.Stats(), ts.Stats(); got != want || got.BusyCycles != 100*cfg.ChannelGap {
		t.Fatalf("restored stats %+v, want %+v with BusyCycles %d", got, want, 100*cfg.ChannelGap)
	}

	// channel horizon, bank count and horizons, ops, then busy cycles.
	off := 8 + 4 + 8*cfg.Banks + 8
	if got := binary.LittleEndian.Uint64(payload[off:]); got != ts.Stats().BusyCycles {
		t.Fatalf("busy cycles at payload offset %d = %d, want %d", off, got, ts.Stats().BusyCycles)
	}
	mut := bytes.Clone(payload)
	binary.LittleEndian.PutUint64(mut[off:], ts.Stats().BusyCycles+1)
	err = checkpoint.Unmarshal(mut, New(cfg).Checkpoint)
	var ce *checkpoint.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *checkpoint.CorruptError", err)
	}
}
