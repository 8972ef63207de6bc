package cache

import (
	"testing"

	"memories/internal/addr"
)

func eccCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{Geometry: addr.MustGeometry(16*addr.KB, 128, 4), Policy: LRU, ECC: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestScrubRepairsSingleBitFlips(t *testing.T) {
	c := eccCache(t)
	for a := uint64(0); a < 64*128; a += 128 {
		c.Fill(a, 2)
	}
	before := c.ValidCount()

	// Flip one tag bit and one state bit in two occupied slots.
	var hit []int64
	for i := int64(0); i < c.SlotCount() && len(hit) < 2; i++ {
		if c.words[i].State() != StateInvalid {
			hit = append(hit, i)
		}
	}
	c.CorruptSlot(hit[0], 1<<17, 0)
	c.CorruptSlot(hit[1], 0, 1<<1)

	rep := c.Scrub()
	if rep.Scanned != c.SlotCount() {
		t.Fatalf("scanned %d of %d slots", rep.Scanned, c.SlotCount())
	}
	if rep.Corrected != 2 || rep.Invalidated != 0 {
		t.Fatalf("scrub report %+v, want 2 corrected", rep)
	}
	if c.ValidCount() != before {
		t.Fatalf("valid lines %d -> %d after repair", before, c.ValidCount())
	}
	// A second pass finds nothing.
	if rep := c.Scrub(); rep.Corrected+rep.Invalidated != 0 {
		t.Fatalf("second scrub still repaired: %+v", rep)
	}
}

func TestScrubInvalidatesDoubleBitFlips(t *testing.T) {
	c := eccCache(t)
	c.Fill(0x1000, 2)
	var slot int64 = -1
	for i := int64(0); i < c.SlotCount(); i++ {
		if c.words[i].State() != StateInvalid {
			slot = i
			break
		}
	}
	if !c.CorruptSlot(slot, 1<<3|1<<40, 0) {
		t.Fatal("corrupted an empty slot")
	}
	rep := c.Scrub()
	if rep.Corrected != 0 || rep.Invalidated != 1 {
		t.Fatalf("scrub report %+v, want 1 invalidated", rep)
	}
	if c.Probe(0x1000) != StateInvalid {
		t.Fatal("uncorrectable line still probes valid")
	}
	// The invalidated slot is internally consistent again.
	if rep := c.Scrub(); rep.Corrected+rep.Invalidated != 0 {
		t.Fatalf("second scrub still repaired: %+v", rep)
	}
}

// TestECCTracksLegitimateMutations drives every mutation path (fill,
// in-place refill, state change, invalidate, clear) and checks the
// sidecar never drifts: a scrub over a never-corrupted cache must find
// nothing.
func TestECCTracksLegitimateMutations(t *testing.T) {
	c := eccCache(t)
	for a := uint64(0); a < 256*128; a += 128 {
		c.Fill(a, 1+uint8(a/128)%3)
	}
	c.Fill(0, 3)       // in-place state update via Fill
	c.SetState(128, 2) // explicit state change
	c.Invalidate(256)
	if rep := c.Scrub(); rep.Corrected+rep.Invalidated != 0 {
		t.Fatalf("scrub flagged legitimate mutations: %+v", rep)
	}
}

func TestScrubWithoutECCIsNoop(t *testing.T) {
	c, err := New(Config{Geometry: addr.MustGeometry(16*addr.KB, 128, 4), Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	if c.hasECC {
		t.Fatal("ECC unexpectedly on")
	}
	c.Fill(0, 2)
	if rep := c.Scrub(); rep != (ScrubReport{}) {
		t.Fatalf("scrub on ECC-less cache: %+v", rep)
	}
}
