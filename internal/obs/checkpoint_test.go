package obs

import (
	"testing"

	"memories/internal/checkpoint"
)

// Registry counters are open-namespace: restore recreates any the
// receiving registry has not seen yet, and overwrites those it has.
func TestRegistryCountersCheckpointRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("sampler.ticks").Add(42)
	r.Counter("tracer.drops").Store(7)
	r.Counter("zero.counter")

	payload, err := checkpoint.Marshal(r.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	r2 := NewRegistry()
	pre := r2.Counter("sampler.ticks") // existing counter keeps its pointer
	pre.Add(999)
	if err := checkpoint.Unmarshal(payload, r2.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if pre.Value() != 42 {
		t.Fatalf("sampler.ticks = %d, want 42", pre.Value())
	}
	if got := r2.Counter("tracer.drops").Value(); got != 7 {
		t.Fatalf("tracer.drops = %d, want 7", got)
	}
	if got := r2.Counter("zero.counter").Value(); got != 0 {
		t.Fatalf("zero.counter = %d, want 0", got)
	}
}

// A truncated payload latches a corruption error rather than partially
// applying.
func TestRegistryRestoreTruncated(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	payload, err := checkpoint.Marshal(r.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	r2 := NewRegistry()
	if err := checkpoint.Unmarshal(payload[:len(payload)-3], r2.Checkpoint); err == nil {
		t.Fatal("truncated payload restored without error")
	}
}
