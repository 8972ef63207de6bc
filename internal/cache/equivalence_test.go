package cache

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"memories/internal/addr"
	"memories/internal/checkpoint"
	"memories/internal/sdram"
)

// TestPackedMatchesLegacy is the old-vs-new equivalence harness demanded
// by the packed-layout change: the packed-word Cache and the legacy
// struct-of-arrays port run the same randomized operation stream — fills,
// accesses, probes, state changes, invalidations, clears, soft-error
// injection, and scrubs — and every observable output must be
// bit-identical: returned states, victims, eviction flags, structural
// stats, scrub reports, valid counts, and full enumeration. The packed
// side runs twice, once through the address calls and once through the
// slot calls the board's node controllers use — a slot from Find or
// AccessSlot carried into FillAt, SetStateAt or InvalidateAt — and the
// two must also end with identical checkpoint sections (words, ranks,
// sidecars, generator state). One caveat bounds the fault model: at most
// two bit flips land in a slot between scrubs, because under three or
// more aliased flips the two layouts' SECDED codes may mis-correct
// differently (both are wrong; they are allowed to be differently wrong).
func TestPackedMatchesLegacy(t *testing.T) {
	// 32 configs x 40k ops dominates this package's runtime; -short keeps
	// the full config matrix but trims each stream to a smoke depth.
	ops := 40000
	if testing.Short() {
		ops = 5000
	}
	for _, p := range []Policy{LRU, PLRU, FIFO, Random} {
		for _, assoc := range []int{1, 2, 4, 8} {
			for _, ecc := range []bool{false, true} {
				p, assoc, ecc := p, assoc, ecc
				t.Run(fmt.Sprintf("%v/assoc%d/ecc%v", p, assoc, ecc), func(t *testing.T) {
					runEquivalence(t, p, assoc, ecc, ops, int64(1+assoc)<<8|int64(p))
				})
			}
		}
	}
}

func runEquivalence(t *testing.T, p Policy, assoc int, ecc bool, ops int, seed int64) {
	t.Helper()
	cfg := Config{
		Geometry: addr.MustGeometry(32*addr.KB, 128, assoc),
		Policy:   p,
		Seed:     12345,
		ECC:      ecc,
	}
	packed := MustNew(cfg)  // address calls
	slotted := MustNew(cfg) // slot calls
	legacy := newLegacy(cfg)
	rng := rand.New(rand.NewSource(seed))

	// ~3x capacity working set, plus occasional far addresses exercising
	// wide (but representable) tags.
	lines := cfg.Geometry.Lines()
	randomAddr := func() uint64 {
		if rng.Intn(16) == 0 {
			return (rng.Uint64() % (1 << 48)) &^ 127
		}
		return uint64(rng.Int63n(3*lines)) * 128
	}
	randomState := func() uint8 { return uint8(1 + rng.Intn(15)) }

	// lookup is how a state-changing op finds its line: half the time
	// behind a demand access, as node.local does (all three sides access;
	// the slot side keeps the slot AccessSlot returned, across the recency
	// update), otherwise by a bare Find, as Board.process does for peers.
	lookup := func(op int, a uint64) (slot int64) {
		if rng.Intn(2) == 0 {
			slot, _ = slotted.Find(a)
			return slot
		}
		slot, ss := slotted.AccessSlot(a)
		if ps, ls := packed.Access(a), legacy.Access(a); ps != ls || ss != ls {
			t.Fatalf("op %d: Access(%#x) diverged: packed %d slotted %d legacy %d", op, a, ps, ss, ls)
		}
		return slot
	}

	corrupted := map[int64]bool{}

	type entry struct {
		a uint64
		s uint8
	}
	checkAll := func(op int) {
		if ps, ss, ls := packed.Stats(), slotted.Stats(), legacy.stats; ps != ls || ss != ls {
			t.Fatalf("op %d: stats diverged: packed %+v slotted %+v legacy %+v", op, ps, ss, ls)
		}
		if pv, sv, lv := packed.ValidCount(), slotted.ValidCount(), legacy.ValidCount(); pv != lv || sv != lv {
			t.Fatalf("op %d: valid count diverged: packed %d slotted %d legacy %d", op, pv, sv, lv)
		}
		var le []entry
		legacy.ForEachValid(func(a uint64, s uint8) { le = append(le, entry{a, s}) })
		// Satellite cross-check: the O(1) resident counter vs a real scan.
		if int64(len(le)) != packed.ValidCount() {
			t.Fatalf("op %d: ValidCount %d but scan found %d", op, packed.ValidCount(), len(le))
		}
		for name, c := range map[string]*Cache{"packed": packed, "slotted": slotted} {
			i := 0
			c.ForEachValid(func(a uint64, s uint8) {
				if i < len(le) && le[i] != (entry{a, s}) {
					t.Fatalf("op %d: enumeration diverged at %d: %s %+v legacy %+v", op, i, name, entry{a, s}, le[i])
				}
				i++
			})
			if i != len(le) {
				t.Fatalf("op %d: enumeration length diverged: %s %d legacy %d", op, name, i, len(le))
			}
		}
	}

	for op := 0; op < ops; op++ {
		switch k := rng.Intn(100); {
		case k < 30: // Fill
			a, s := randomAddr(), randomState()
			slot := lookup(op, a)
			pv, pe := packed.Fill(a, s)
			sv, se := slotted.FillAt(a, slot, s)
			lv, le := legacy.Fill(a, s)
			if pv != lv || pe != le || sv != lv || se != le {
				t.Fatalf("op %d: Fill(%#x,%d) diverged: packed (%+v,%v) slotted (%+v,%v) legacy (%+v,%v)",
					op, a, s, pv, pe, sv, se, lv, le)
			}
		case k < 60: // Access
			a := randomAddr()
			_, ss := slotted.AccessSlot(a)
			if ps, ls := packed.Access(a), legacy.Access(a); ps != ls || ss != ls {
				t.Fatalf("op %d: Access(%#x) diverged: packed %d slotted %d legacy %d", op, a, ps, ss, ls)
			}
		case k < 75: // Probe
			a := randomAddr()
			slot, ss := slotted.Find(a)
			if ps, ls := packed.Probe(a), legacy.Probe(a); ps != ls || ss != ls || (slot >= 0) != (ls != StateInvalid) {
				t.Fatalf("op %d: Probe(%#x) diverged: packed %d slotted %d (slot %d) legacy %d", op, a, ps, ss, slot, ls)
			}
		case k < 85: // SetState
			a, s := randomAddr(), randomState()
			slot := lookup(op, a)
			if slot >= 0 {
				slotted.SetStateAt(slot, s)
			}
			if pf, lf := packed.SetState(a, s), legacy.SetState(a, s); pf != lf || (slot >= 0) != lf {
				t.Fatalf("op %d: SetState(%#x,%d) diverged: packed %v slotted %v legacy %v", op, a, s, pf, slot >= 0, lf)
			}
		case k < 93: // Invalidate
			a := randomAddr()
			slot := lookup(op, a)
			ss := StateInvalid
			if slot >= 0 {
				ss = slotted.InvalidateAt(slot)
			}
			ps, pf := packed.Invalidate(a)
			ls, lf := legacy.Invalidate(a)
			if ps != ls || pf != lf || ss != ls || (slot >= 0) != lf {
				t.Fatalf("op %d: Invalidate(%#x) diverged: packed (%d,%v) slotted (%d,%v) legacy (%d,%v)",
					op, a, ps, pf, ss, slot >= 0, ls, lf)
			}
		case k < 96 && ecc: // CorruptSlot: 1 or 2 flips, one virgin slot
			i := rng.Int63n(packed.SlotCount())
			if corrupted[i] {
				continue
			}
			corrupted[i] = true
			var tagXor uint64
			var stateXor uint8
			for n := 1 + rng.Intn(2); n > 0; n-- {
				if bit := rng.Intn(sdram.WordPayloadBits); bit < sdram.WordTagBits {
					tagXor ^= 1 << bit
				} else {
					stateXor ^= 1 << (bit - sdram.WordTagBits)
				}
			}
			pw, sw, lw := packed.CorruptSlot(i, tagXor, stateXor), slotted.CorruptSlot(i, tagXor, stateXor), legacy.CorruptSlot(i, tagXor, stateXor)
			if pw != lw || sw != lw {
				t.Fatalf("op %d: CorruptSlot(%d) was-valid diverged: packed %v slotted %v legacy %v", op, i, pw, sw, lw)
			}
		case k < 98: // Scrub
			pr, sr, lr := packed.Scrub(), slotted.Scrub(), legacy.Scrub()
			if pr != lr || sr != lr {
				t.Fatalf("op %d: scrub reports diverged: packed %+v slotted %+v legacy %+v", op, pr, sr, lr)
			}
			corrupted = map[int64]bool{}
		default:
			packed.stats, slotted.stats, legacy.stats = Stats{}, Stats{}, Stats{}
		}
		if op%997 == 0 {
			checkAll(op)
		}
	}
	// Drain corruption before the final sweep so all sides are clean.
	pr, sr, lr := packed.Scrub(), slotted.Scrub(), legacy.Scrub()
	if pr != lr || sr != lr {
		t.Fatalf("final scrub diverged: packed %+v slotted %+v legacy %+v", pr, sr, lr)
	}
	checkAll(ops)
	if ps, ss := sectionDigest(packed), sectionDigest(slotted); ps != ss {
		t.Fatalf("checkpoint sections differ: address calls %x, slot calls %x", ps, ss)
	}
}

// sectionDigest is the SHA-256 of the cache's checkpoint section: every
// packed word (ranks and check bytes included), the replacement sidecars,
// the generator state, the resident count and the structural statistics.
func sectionDigest(c *Cache) [sha256.Size]byte {
	payload, _ := checkpoint.Marshal(walk(c))
	return sha256.Sum256(payload)
}

// TestTouchSetChangesNothing: the look-ahead load is invisible — same
// statistics, same resident count, same checkpoint section before and
// after touching every set, several times over.
func TestTouchSetChangesNothing(t *testing.T) {
	for _, assoc := range []int{1, 4, 8, 16} {
		cfg := Config{Geometry: addr.MustGeometry(64*addr.KB, 128, assoc), Policy: LRU, ECC: true}
		c := MustNew(cfg)
		drive(c, 4000)
		stats, valid, digest := c.Stats(), c.ValidCount(), sectionDigest(c)
		var sink uint64
		for i := int64(0); i < 4*cfg.Geometry.Sets; i++ {
			sink ^= c.TouchSet(i % cfg.Geometry.Sets)
		}
		_ = sink
		if c.Stats() != stats || c.ValidCount() != valid || sectionDigest(c) != digest {
			t.Fatalf("assoc %d: TouchSet changed the cache: stats %+v -> %+v, valid %d -> %d",
				assoc, stats, c.Stats(), valid, c.ValidCount())
		}
	}
}

// TestPackedMatchesLegacyWideAssoc covers the side-array fallbacks for
// associativities wider than the in-word rank field (not reachable with
// the board's 1/2/4/8 ways, but allowed by the geometry).
func TestPackedMatchesLegacyWideAssoc(t *testing.T) {
	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	for _, p := range []Policy{LRU, PLRU, FIFO, Random} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			runEquivalence(t, p, 16, true, ops, int64(p)+777)
		})
	}
}

// TestWideAssocEvictionMatchesLegacy drives 16-way sets far past
// capacity so the side-array victim selectors themselves run: the
// randomized harness above spreads its fills over every set, so this
// test hammers two sets with 6x-associativity distinct
// tags, interleaved with re-touches, and demands identical victims.
func TestWideAssocEvictionMatchesLegacy(t *testing.T) {
	for _, p := range []Policy{LRU, PLRU, FIFO, Random} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := Config{
				Geometry: addr.MustGeometry(4*addr.KB, 128, 16), // 2 sets
				Policy:   p,
				Seed:     9,
				ECC:      true,
			}
			packed := MustNew(cfg)
			legacy := newLegacy(cfg)
			rng := rand.New(rand.NewSource(int64(p) + 5))
			for i := 0; i < 6*16*2; i++ {
				set := int64(i & 1)
				a := cfg.Geometry.Rebuild(uint64(i), set)
				pv, pe := packed.Fill(a, 2)
				lv, le := legacy.Fill(a, 2)
				if pv != lv || pe != le {
					t.Fatalf("fill %d: packed victim %+v/%v, legacy %+v/%v", i, pv, pe, lv, le)
				}
				// Re-touch an earlier line so recency state diverges from
				// insertion order before the next eviction decision.
				back := cfg.Geometry.Rebuild(uint64(rng.Intn(i+1)), set)
				if ps, ls := packed.Access(back), legacy.Access(back); ps != ls {
					t.Fatalf("access %d: packed state %d, legacy %d", i, ps, ls)
				}
			}
			if packed.Stats() != legacy.stats {
				t.Fatalf("stats diverged: packed %+v, legacy %+v", packed.Stats(), legacy.stats)
			}
			if packed.Stats().Evictions == 0 {
				t.Fatal("no evictions — the test did not exercise the victim path")
			}
		})
	}
}

func TestFillRejectsOversizeTag(t *testing.T) {
	c := MustNew(Config{Geometry: addr.MustGeometry(16*addr.KB, 128, 4), Policy: LRU})
	defer func() {
		if recover() == nil {
			t.Fatal("Fill with a tag wider than the packed field did not panic")
		}
	}()
	c.Fill(1<<63, 1) // tag = 2^63 >> (off+idx) bits, far beyond 49 bits
}

func TestProbeOversizeTagMisses(t *testing.T) {
	c := MustNew(Config{Geometry: addr.MustGeometry(16*addr.KB, 128, 4), Policy: LRU})
	c.Fill(0x1000, 2)
	if got := c.Probe(1 << 63); got != StateInvalid {
		t.Fatalf("oversize-tag probe returned state %d", got)
	}
	if got := c.Access(1 << 63); got != StateInvalid {
		t.Fatalf("oversize-tag access returned state %d", got)
	}
}

func TestDirectoryBytesPerSlot(t *testing.T) {
	// Acceptance bound: at most 9 bytes per slot with ECC enabled, for
	// every policy at the board's associativities (Table 2 geometries).
	for _, p := range []Policy{LRU, PLRU, FIFO, Random} {
		for _, assoc := range []int{1, 2, 4, 8} {
			if p == PLRU && !addr.IsPow2(int64(assoc)) {
				continue
			}
			c := MustNew(Config{Geometry: addr.MustGeometry(1*addr.MB, 128, assoc), Policy: p, ECC: true})
			got := float64(c.DirectoryBytes()) / float64(c.SlotCount())
			if got > 9 {
				t.Errorf("%v assoc %d: %.2f bytes/slot, want <= 9", p, assoc, got)
			}
			if p == LRU && got != 8 {
				t.Errorf("LRU assoc %d: %.2f bytes/slot, want exactly 8", assoc, got)
			}
		}
	}
}
