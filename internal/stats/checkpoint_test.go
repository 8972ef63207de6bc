package stats

import (
	"errors"
	"testing"

	"memories/internal/checkpoint"
)

// Round trip: values, saturation flags, and creation order survive, and
// restore lands in the existing counters so cached pointers stay live.
func TestBankCheckpointRoundTrip(t *testing.T) {
	b := NewBank()
	b.Counter("snoops").Add(12345)
	b.Counter("hits").Add(CounterMax + 99) // saturates at the 40-bit cap
	b.Counter("zero")

	payload, err := checkpoint.Marshal(b.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	b2 := NewBank()
	// Same counter set, scrambled pre-restore values: restore must
	// overwrite everything, including counters the snapshot saw as zero.
	snoops := b2.Counter("snoops")
	b2.Counter("hits")
	b2.Counter("zero").Add(777)

	if err := checkpoint.Unmarshal(payload, b2.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if snoops.Value() != 12345 {
		t.Fatalf("snoops = %d, want 12345 (cached pointer must see restored value)", snoops.Value())
	}
	if got := b2.Value("hits"); got != CounterMax {
		t.Fatalf("hits = %d, want saturated %d", got, CounterMax)
	}
	if !b2.Counter("hits").saturated {
		t.Fatal("hits lost its saturation flag")
	}
	if got := b2.Value("zero"); got != 0 {
		t.Fatalf("zero = %d, want 0 after restore", got)
	}
}

// A snapshot naming a counter this bank does not have is a
// configuration mismatch, reported as corruption.
func TestBankRestoreUnknownCounter(t *testing.T) {
	b := NewBank()
	b.Counter("only-here").Inc()
	payload, err := checkpoint.Marshal(b.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	other := NewBank()
	other.Counter("different")
	err = checkpoint.Unmarshal(payload, other.Checkpoint)
	var ce *checkpoint.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *checkpoint.CorruptError", err)
	}
}

// Restore clamps values above the 40-bit hardware range rather than
// materializing a counter the hardware could never hold.
func TestCounterRestoreClamp(t *testing.T) {
	var c Counter
	c.Restore(CounterMax+1, false)
	if c.Value() != CounterMax || !c.saturated {
		t.Fatalf("got (%d, %v), want clamped (%d, true)", c.Value(), c.saturated, uint64(CounterMax))
	}
	c.Restore(5, true)
	if c.Value() != 5 || !c.saturated {
		t.Fatalf("got (%d, %v), want (5, true)", c.Value(), c.saturated)
	}
}
