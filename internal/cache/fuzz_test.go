package cache

import (
	"testing"

	"memories/internal/addr"
	"memories/internal/sdram"
)

// FuzzPackedSlot round-trips arbitrary (tag, state, rank) triples through
// the packed word — field encode/decode, ECC encode — then injects one or
// two bit flips across the payload-plus-check-bit domain and demands that
// the packed layout's correction behavior matches the unpacked
// (tag64, state8) SECDED code exactly, both at the word level
// (CheckWordECC vs CheckECC) and at the cache level (Scrub after
// CorruptSlot corrects or invalidates just as the old layout did, and
// the slot calls then act on the slot Find reports exactly as the legacy
// address calls act on the line).
func FuzzPackedSlot(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(0x1234abcd), uint8(2), uint8(3), uint8(7), uint8(7))
	f.Add(uint64(1)<<48, uint8(15), uint8(7), uint8(48), uint8(52))
	f.Add(uint64(0xdeadbeef), uint8(1), uint8(0), uint8(53), uint8(60))
	f.Fuzz(func(t *testing.T, tag uint64, state, rank, b1, b2 uint8) {
		tag &= sdram.WordTagMask
		state &= sdram.WordStateMask
		rank &= sdram.WordRankMask
		// Bit domain: payload bits then the 8 check bits.
		const domain = sdram.WordPayloadBits + sdram.WordCheckBits
		bits := []int{int(b1) % domain}
		if b2 != b1 {
			bits = append(bits, int(b2)%domain)
		}
		if len(bits) == 2 && bits[0] == bits[1] {
			bits = bits[:1]
		}

		// Field round trip.
		w := sdram.PackWord(tag, state, rank, 0)
		if w.Tag() != tag || w.State() != state || w.Rank() != rank || w.Check() != 0 {
			t.Fatalf("round trip lost fields: (%#x,%d,%d) -> (%#x,%d,%d)",
				tag, state, rank, w.Tag(), w.State(), w.Rank())
		}
		w = sdram.EncodeWordECC(w)
		if w.Check() != sdram.EncodeECC(tag, state) {
			t.Fatalf("in-word check byte %#x != unpacked %#x", w.Check(), sdram.EncodeECC(tag, state))
		}

		// Word-level: flip the bits in both representations and compare
		// correction outcomes.
		cw := w
		ltag, lstate, lcode := tag, state, w.Check()
		for _, b := range bits {
			switch {
			case b < sdram.WordTagBits:
				cw ^= 1 << (sdram.WordTagShift + b)
				ltag ^= 1 << b
			case b < sdram.WordPayloadBits:
				cw ^= 1 << (sdram.WordStateShift + b - sdram.WordTagBits)
				lstate ^= 1 << (b - sdram.WordTagBits)
			default:
				cw ^= 1 << (b - sdram.WordPayloadBits)
				lcode ^= 1 << (b - sdram.WordPayloadBits)
			}
		}
		fixedTag, fixedState, lres := sdram.CheckECC(ltag, lstate, lcode)
		fixedWord, pres := sdram.CheckWordECC(cw)
		if pres != lres {
			t.Fatalf("flips %v: packed result %v, unpacked %v", bits, pres, lres)
		}
		if pres == sdram.ECCCorrected {
			if fixedWord.Tag() != fixedTag || fixedWord.State() != fixedState {
				t.Fatalf("flips %v: packed corrected to (%#x,%d), unpacked to (%#x,%d)",
					bits, fixedWord.Tag(), fixedWord.State(), fixedTag, fixedState)
			}
			if fixedWord.Rank() != rank {
				t.Fatalf("flips %v: correction disturbed rank %d -> %d", bits, rank, fixedWord.Rank())
			}
		}

		// Cache-level: CorruptSlot + Scrub must match the legacy layout's
		// scrub outcome for payload flips (CorruptSlot cannot reach the
		// check byte, as in hardware where the code is part of the word).
		if state == StateInvalid {
			return
		}
		var tagXor uint64
		var stateXor uint8
		for _, b := range bits {
			switch {
			case b < sdram.WordTagBits:
				tagXor ^= 1 << b
			case b < sdram.WordPayloadBits:
				stateXor ^= 1 << (b - sdram.WordTagBits)
			}
		}
		if tagXor == 0 && stateXor == 0 {
			return
		}
		cfg := Config{Geometry: addr.MustGeometry(4*addr.KB, 128, 1), Policy: LRU, ECC: true}
		a := cfg.Geometry.Rebuild(tag, 0)
		packed, legacy := MustNew(cfg), newLegacy(cfg)
		packed.Fill(a, state)
		legacy.Fill(a, state)
		if pw, lw := packed.CorruptSlot(0, tagXor, stateXor), legacy.CorruptSlot(0, tagXor, stateXor); pw != lw {
			t.Fatalf("CorruptSlot was-valid diverged: %v vs %v", pw, lw)
		}
		pr, lr := packed.Scrub(), legacy.Scrub()
		if pr != lr {
			t.Fatalf("scrub reports diverged: packed %+v legacy %+v", pr, lr)
		}
		slot, ps := packed.Find(a)
		if ls := legacy.Probe(a); ps != ls || (slot >= 0) != (ls != StateInvalid) {
			t.Fatalf("post-scrub find diverged: slot %d state %d vs %d", slot, ps, ls)
		}
		// Slot calls on whatever the scrub left: a survivor is rewritten
		// and dropped by slot, a dropped line is refilled by NoSlot.
		if slot >= 0 {
			next := state%sdram.WordStateMask + 1
			packed.SetStateAt(slot, next)
			legacy.SetState(a, next)
			if pp, lp := packed.InvalidateAt(slot), next; pp != lp || legacy.Probe(a) != next {
				t.Fatalf("SetStateAt/InvalidateAt: prior %d, want %d (legacy holds %d)", pp, lp, legacy.Probe(a))
			}
			legacy.Invalidate(a)
			slot = NoSlot
		}
		pv, pe := packed.FillAt(a, slot, state)
		lv, le := legacy.Fill(a, state)
		if pv != lv || pe != le {
			t.Fatalf("FillAt diverged: (%+v,%v) vs (%+v,%v)", pv, pe, lv, le)
		}
		if _, got := packed.AccessSlot(a); got != legacy.Access(a) {
			t.Fatalf("AccessSlot after FillAt returned %d", got)
		}
		if packed.Stats() != legacy.stats || packed.ValidCount() != legacy.ValidCount() {
			t.Fatalf("after slot ops: stats %+v valid %d, legacy %+v valid %d",
				packed.Stats(), packed.ValidCount(), legacy.stats, legacy.ValidCount())
		}
	})
}
