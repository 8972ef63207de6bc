package stats_test

import (
	"errors"
	"testing"

	"memories/internal/checkpoint"
	"memories/internal/core"
	"memories/internal/stats"
)

// walk is the bank's checkpoint walk, which the board's snapshot owns.
func walk(b *stats.Bank) func(*checkpoint.Codec) error {
	return func(c *checkpoint.Codec) error { return core.WalkBank(c, b) }
}

// Round trip: values, saturation flags, and creation order survive, and
// restore lands in the existing counters so cached pointers stay live.
func TestBankCheckpointRoundTrip(t *testing.T) {
	b := stats.NewBank()
	b.Counter("snoops").Add(12345)
	b.Counter("hits").Add(stats.CounterMax + 99) // saturates at the 40-bit cap
	b.Counter("zero")

	payload, err := checkpoint.Marshal(walk(b))
	if err != nil {
		t.Fatal(err)
	}

	b2 := stats.NewBank()
	// Same counter set, scrambled pre-restore values: restore must
	// overwrite everything, including counters the snapshot saw as zero.
	snoops := b2.Counter("snoops")
	b2.Counter("hits")
	b2.Counter("zero").Add(777)

	if err := checkpoint.Unmarshal(payload, walk(b2)); err != nil {
		t.Fatal(err)
	}
	if snoops.Value() != 12345 {
		t.Fatalf("snoops = %d, want 12345 (cached pointer must see restored value)", snoops.Value())
	}
	if got := b2.Value("hits"); got != stats.CounterMax {
		t.Fatalf("hits = %d, want saturated %d", got, stats.CounterMax)
	}
	if !b2.Counter("hits").Saturated() {
		t.Fatal("hits lost its saturation flag")
	}
	if got := b2.Value("zero"); got != 0 {
		t.Fatalf("zero = %d, want 0 after restore", got)
	}
}

// A snapshot naming a counter this bank does not have is a
// configuration mismatch, reported as corruption.
func TestBankRestoreUnknownCounter(t *testing.T) {
	b := stats.NewBank()
	b.Counter("only-here").Inc()
	payload, err := checkpoint.Marshal(walk(b))
	if err != nil {
		t.Fatal(err)
	}

	other := stats.NewBank()
	other.Counter("different")
	err = checkpoint.Unmarshal(payload, walk(other))
	var ce *checkpoint.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *checkpoint.CorruptError", err)
	}
}

// Restore clamps values above the 40-bit hardware range rather than
// materializing a counter the hardware could never hold.
func TestCounterRestoreClamp(t *testing.T) {
	var c stats.Counter
	c.Restore(stats.CounterMax+1, false)
	if c.Value() != stats.CounterMax || !c.Saturated() {
		t.Fatalf("got (%d, %v), want clamped (%d, true)", c.Value(), c.Saturated(), uint64(stats.CounterMax))
	}
	c.Restore(5, true)
	if c.Value() != 5 || !c.Saturated() {
		t.Fatalf("got (%d, %v), want (5, true)", c.Value(), c.Saturated())
	}
}
