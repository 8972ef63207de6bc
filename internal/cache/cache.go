package cache

import (
	"fmt"
	"math/bits"

	"memories/internal/addr"
	"memories/internal/sdram"
)

// StateInvalid is the reserved line state meaning "no line present". All
// coherence protocols must map their invalid state to 0.
const StateInvalid uint8 = 0

// Config describes one cache structure.
type Config struct {
	Geometry addr.Geometry
	Policy   Policy
	// Seed initializes the Random replacement generator; ignored for the
	// deterministic policies.
	Seed uint64
	// ECC maintains a SECDED check byte inside each packed tag word so
	// that soft errors injected with CorruptSlot can be detected and
	// repaired by Scrub. Off by default; the board enables it for its tag
	// directories.
	ECC bool
}

// Stats counts structural cache events. Protocol-level classification
// (read miss vs write miss, interventions, ...) belongs to the users of
// the cache; these are the events the tag array itself can see.
type Stats struct {
	Probes      uint64 // lookups
	Hits        uint64 // probe found a valid matching tag
	Fills       uint64 // lines installed
	Evictions   uint64 // valid lines displaced by fills
	Invalidates uint64 // lines removed by explicit invalidation
}

// Victim describes a line displaced by a fill.
type Victim struct {
	Addr  uint64 // line-aligned address of the displaced line
	State uint8  // its state at eviction time
}

// Cache is a set-associative tag/state array. Each slot is one packed
// sdram.Word — tag, state, replacement rank, and SECDED check byte in a
// single uint64, mirroring the board's SDRAM entry format (paper §3.3) —
// so a probe touches one machine word per way instead of parallel
// tag/state/ECC/replacer arrays. It is not safe for concurrent use;
// every user in this codebase drives it from a single simulation loop.
type Cache struct {
	geom  addr.Geometry
	words []sdram.Word
	// perSet holds replacement metadata that is per-set rather than
	// per-slot: the packed PLRU tree (setStride bytes per set), or the
	// FIFO rotation pointer for associativities too wide for the in-word
	// rank field. Nil otherwise.
	perSet    []uint8
	setStride int64
	// wideRank holds per-slot LRU ranks when assoc-1 exceeds the in-word
	// rank field; nil for the hardware-realistic associativities.
	wideRank []uint8
	policy   Policy
	rng      uint64 // xorshift64 state for Random replacement
	hasECC   bool
	valid    int64 // resident lines, maintained incrementally
	stats    Stats
	// offBits, setMask and tagShift split an address into its set index
	// and tag: the geometry's Index and Tag, kept here so the address-based
	// wrappers stay within the inlining budget.
	offBits, tagShift uint
	setMask           uint64
}

// New builds a cache from cfg. PLRU requires power-of-two associativity.
func New(cfg Config) (*Cache, error) {
	g := cfg.Geometry
	if g.Sets == 0 {
		return nil, fmt.Errorf("cache: zero geometry (use addr.NewGeometry)")
	}
	if g.Assoc > 256 {
		return nil, fmt.Errorf("cache: associativity %d exceeds replacement metadata width", g.Assoc)
	}
	c := &Cache{
		geom:     g,
		words:    make([]sdram.Word, g.Lines()),
		policy:   cfg.Policy,
		hasECC:   cfg.ECC,
		offBits:  addr.Log2(g.LineSize),
		tagShift: addr.Log2(g.LineSize) + addr.Log2(g.Sets),
		setMask:  uint64(g.Sets - 1),
	}
	// An all-zero packed word is a self-consistent invalid entry even
	// with ECC on (EncodeECC(0,0) == 0), so no initialization pass is
	// needed: an 8 GB directory powers up by zero pages alone.
	switch cfg.Policy {
	case LRU:
		if g.Assoc-1 > sdram.WordRankMax {
			c.wideRank = make([]uint8, g.Lines())
		}
	case PLRU:
		if !addr.IsPow2(int64(g.Assoc)) {
			return nil, fmt.Errorf("cache: PLRU requires power-of-two associativity, got %d", g.Assoc)
		}
		c.setStride = int64(g.Assoc-1+7) / 8
		c.perSet = make([]uint8, g.Sets*c.setStride)
	case FIFO:
		if g.Assoc-1 > sdram.WordRankMax {
			c.perSet = make([]uint8, g.Sets)
			c.setStride = 1
		}
	case Random:
		c.rng = cfg.Seed
		if c.rng == 0 {
			c.rng = 0x9e3779b97f4a7c15
		}
	default:
		return nil, fmt.Errorf("cache: unknown policy %v", cfg.Policy)
	}
	return c, nil
}

// MustNew is New for statically known-good configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Geometry returns the cache geometry.
func (c *Cache) Geometry() addr.Geometry { return c.geom }

// Stats returns a copy of the structural statistics.
func (c *Cache) Stats() Stats { return c.stats }

// findWay returns the way within the set at base holding a valid line
// with the given tag, or -1. Every lookup funnels through here. A way
// matches when its word's tag field equals tag and its state field is
// nonzero; shifting the check and rank bits away and XORing against the
// pre-shifted probe tag reduces that to a single branch-free compare:
//
//	x := (word >> stateShift) ^ (tag << stateBits)
//	match iff x-1 < 15   (tag fields equal and state in 1..15)
//
// The hardware-realistic associativities (1/2/4/8 ways, Table 2) take
// unrolled fast paths over array views so the per-way bounds checks and
// induction-variable overhead of the generic scan disappear from the
// snoop hot loop. Assoc 4 and 8 go further, SWAR-style: every way's
// match bit is computed branch-free (wayMatch) and merged into one
// mask, so a whole set costs one predictable mask!=0 branch instead of
// one data-dependent branch per way — on a snoop stream the hit way is
// effectively random, and those per-way branches mispredict constantly.
// TrailingZeros on the mask recovers the lowest matching way, keeping
// the first-match contract of the sequential scan.
func (c *Cache) findWay(base int64, tag uint64) int {
	if tag > sdram.WordTagMask {
		return -1 // wider than the packed tag field: cannot be resident
	}
	probe := tag << sdram.WordStateBits
	const shift, mask = sdram.WordStateShift, uint64(sdram.WordStateMask)
	switch c.geom.Assoc {
	case 1:
		if (uint64(c.words[base])>>shift^probe)-1 < mask {
			return 0
		}
	case 2:
		w := (*[2]sdram.Word)(c.words[base:])
		if (uint64(w[0])>>shift^probe)-1 < mask {
			return 0
		}
		if (uint64(w[1])>>shift^probe)-1 < mask {
			return 1
		}
	case 4:
		ws := (*[4]sdram.Word)(c.words[base:])
		m := wayMatch(uint64(ws[0])>>shift^probe) |
			wayMatch(uint64(ws[1])>>shift^probe)<<1 |
			wayMatch(uint64(ws[2])>>shift^probe)<<2 |
			wayMatch(uint64(ws[3])>>shift^probe)<<3
		if m != 0 {
			return bits.TrailingZeros64(m)
		}
	case 8:
		ws := (*[8]sdram.Word)(c.words[base:])
		m := wayMatch(uint64(ws[0])>>shift^probe) |
			wayMatch(uint64(ws[1])>>shift^probe)<<1 |
			wayMatch(uint64(ws[2])>>shift^probe)<<2 |
			wayMatch(uint64(ws[3])>>shift^probe)<<3 |
			wayMatch(uint64(ws[4])>>shift^probe)<<4 |
			wayMatch(uint64(ws[5])>>shift^probe)<<5 |
			wayMatch(uint64(ws[6])>>shift^probe)<<6 |
			wayMatch(uint64(ws[7])>>shift^probe)<<7
		if m != 0 {
			return bits.TrailingZeros64(m)
		}
	default:
		ws := c.words[base : base+int64(c.geom.Assoc)]
		for w := range ws {
			if (uint64(ws[w])>>shift^probe)-1 < mask {
				return w
			}
		}
	}
	return -1
}

// wayMatch is the branch-free per-way match bit: 1 when x (the way's
// word with check+rank bits shifted away, XORed against the pre-shifted
// probe tag) denotes a valid matching line, i.e. x-1 < 15 unsigned.
// The naive ((x-1)-15)>>63 sign trick is wrong at the wraparound point
// (x == 0, an all-zero invalid word, makes x-1 the max uint64); the
// subtract-with-borrow below handles the full range and compiles to a
// single SBB.
func wayMatch(x uint64) uint64 {
	_, borrow := bits.Sub64(x-1, uint64(sdram.WordStateMask), 0)
	return borrow
}

// Slot addressing. A lookup scans the set once; its result is a slot —
// the flat index of the matching word, or NoSlot — that the *At calls take
// back, so a caller that looks a line up and then acts on it (the board's
// node controllers: one read-modify-write per transaction, paper §3.3)
// reads the set once. A slot stays valid until the next call that writes
// this cache (the recency update inside the AccessSlot that returned it
// included: it reorders ranks, never slots) other than the *At call it is
// handed to. The address-based calls below are each a Find plus the
// slot-based one.
//
// Set and tag keys. FindIn, AccessSlotIn, FillIn and TouchSet take a
// line's set index and tag instead of its address, so a caller holding
// several caches of one set shape (line size and set count; the board's
// lanes) splits each address once for all of them. Find, Probe,
// AccessSlot, Access and FillAt split it here and make the keyed call,
// one line each, small enough to inline into their callers. Each assigns
// the call's results to its named results and returns bare: returning
// the call directly costs the inliner more (81 against 75), enough to
// stop Find from inlining. ci/check-inline.sh holds all five.

// NoSlot is the slot of a line that is not resident.
const NoSlot int64 = -1

// Find looks a line up without modifying replacement state or
// statistics. It returns the line's slot and state (NoSlot and
// StateInvalid on miss).
func (c *Cache) Find(a uint64) (slot int64, state uint8) {
	slot, state = c.FindIn(int64(a>>c.offBits&c.setMask), a>>c.tagShift)
	return
}

// FindIn is Find for the line with the given set index and tag.
func (c *Cache) FindIn(set int64, tag uint64) (slot int64, state uint8) {
	base := set * int64(c.geom.Assoc)
	if w := c.findWay(base, tag); w >= 0 {
		slot = base + int64(w)
		return slot, c.words[slot].State()
	}
	return NoSlot, StateInvalid
}

// TouchSet is the look-ahead load: it reads the first and last word of
// the set with the given index — between them every host cache line a
// set of up to 16 ways occupies — and returns them combined, for the
// caller to fold into a sink so the loads stay live. A burst of TouchSets
// over the sets a batch is about to look up puts their host-memory misses
// in flight together instead of one per dependent lookup. It changes
// nothing (no statistics, no word, no rank).
func (c *Cache) TouchSet(set int64) uint64 {
	base := set * int64(c.geom.Assoc)
	return uint64(c.words[base]) ^ uint64(c.words[base+int64(c.geom.Assoc)-1])
}

// Probe looks a line up without modifying replacement state. It returns
// the line's state (StateInvalid on miss).
func (c *Cache) Probe(a uint64) (state uint8) {
	_, state = c.FindIn(int64(a>>c.offBits&c.setMask), a>>c.tagShift)
	return
}

// AccessSlot looks a line up as a demand reference: on hit it updates
// replacement recency and returns the slot and state; on miss it returns
// NoSlot and StateInvalid. It counts a probe and, on success, a hit.
func (c *Cache) AccessSlot(a uint64) (slot int64, state uint8) {
	slot, state = c.AccessSlotIn(int64(a>>c.offBits&c.setMask), a>>c.tagShift)
	return
}

// AccessSlotIn is AccessSlot for the line with the given set index and
// tag.
func (c *Cache) AccessSlotIn(set int64, tag uint64) (slot int64, state uint8) {
	c.stats.Probes++
	base := set * int64(c.geom.Assoc)
	if w := c.findWay(base, tag); w >= 0 {
		c.stats.Hits++
		c.touch(set, base, w)
		slot = base + int64(w)
		return slot, c.words[slot].State()
	}
	return NoSlot, StateInvalid
}

// Access is AccessSlot for callers that only need the state.
func (c *Cache) Access(a uint64) (state uint8) {
	_, state = c.AccessSlotIn(int64(a>>c.offBits&c.setMask), a>>c.tagShift)
	return
}

// SetStateAt rewrites the state of the resident line in slot (e.g. S -> M
// on upgrade, M -> S on snoop). Setting StateInvalid is rejected; use
// InvalidateAt.
func (c *Cache) SetStateAt(slot int64, s uint8) {
	if s == StateInvalid {
		panic("cache: SetState to invalid; use Invalidate")
	}
	c.writeState(slot, s)
}

// SetState is Find plus SetStateAt. It reports whether the line was
// found; StateInvalid is rejected whether or not it is.
func (c *Cache) SetState(a uint64, s uint8) bool {
	slot, _ := c.Find(a)
	if slot < 0 && s != StateInvalid {
		return false
	}
	c.SetStateAt(slot, s)
	return true
}

// FillAt installs line a in state s given slot, the result of looking a
// up: a resident line (slot >= 0) has its state updated in place and
// evicts nothing; an absent one (NoSlot) takes a free way, or evicts a
// victim if the set is full. It returns the victim (valid only when
// evicted is true). The line's tag must fit the packed tag field
// (addresses up to 2^56 bytes with 128 B lines); larger tags panic rather
// than alias.
func (c *Cache) FillAt(a uint64, slot int64, s uint8) (victim Victim, evicted bool) {
	victim, evicted = c.FillIn(int64(a>>c.offBits&c.setMask), a>>c.tagShift, slot, s)
	return
}

// FillIn is FillAt for the line with the given set index and tag.
func (c *Cache) FillIn(set int64, tag uint64, slot int64, s uint8) (victim Victim, evicted bool) {
	if s == StateInvalid {
		panic("cache: Fill with invalid state")
	}
	if tag > sdram.WordTagMask {
		panic("cache: tag exceeds the packed tag field")
	}
	base := set * int64(c.geom.Assoc)
	if slot >= 0 {
		c.writeState(slot, s)
		c.touch(set, base, int(slot-base))
		return Victim{}, false
	}
	free := -1
	for w := 0; w < c.geom.Assoc; w++ {
		if c.words[base+int64(w)].State() == StateInvalid {
			free = w
			break
		}
	}
	way := free
	if way < 0 {
		way = c.victim(set, base)
		old := c.words[base+int64(way)]
		victim = Victim{
			Addr:  c.geom.Rebuild(old.Tag(), set),
			State: old.State(),
		}
		evicted = true
		c.stats.Evictions++
	} else {
		c.valid++
	}
	i := base + int64(way)
	w := sdram.PackWord(tag, s, c.words[i].Rank(), 0)
	if c.hasECC {
		w = sdram.EncodeWordECC(w)
	}
	c.words[i] = w
	c.fillRepl(set, base, way)
	c.stats.Fills++
	return victim, evicted
}

// Fill is Find plus FillAt: it installs a line in state s, evicting a
// victim if the set is full; filling a line that is already resident
// updates its state in place.
func (c *Cache) Fill(a uint64, s uint8) (victim Victim, evicted bool) {
	slot, _ := c.Find(a)
	return c.FillAt(a, slot, s)
}

// InvalidateAt removes the resident line in slot, returning its prior
// state.
func (c *Cache) InvalidateAt(slot int64) (prior uint8) {
	prior = c.words[slot].State()
	c.writeInvalid(slot)
	c.stats.Invalidates++
	return prior
}

// Invalidate is Find plus InvalidateAt: it removes a line if present,
// returning its prior state and whether it was resident.
func (c *Cache) Invalidate(a uint64) (prior uint8, found bool) {
	slot, _ := c.Find(a)
	if slot < 0 {
		return StateInvalid, false
	}
	return c.InvalidateAt(slot), true
}

// Presence buckets. A summary of which of several same-geometry caches may
// hold a line (the host bus's snoop filter) needs a partition of the line
// addresses that every such cache computes identically and that one cache
// can test for emptiness without a walk. A bucket is (set index, hash of
// the tag): all of one cache's lines in a bucket live in one set, so
// "does this cache still hold anything in the bucket" is one set scan.

// BucketsPerWay is the grain of the partition: a set splits into
// Assoc × BucketsPerWay buckets, so a full set marks at most 1 in 16.
const BucketsPerWay = 16

// Buckets returns how many buckets a cache of geometry g splits into.
func Buckets(g addr.Geometry) int64 { return g.Lines() * BucketsPerWay }

// Bucket returns the bucket of the line containing a, in [0, Buckets(g)).
func Bucket(g addr.Geometry, a uint64) int64 {
	per := uint64(g.Assoc) * BucketsPerWay
	return g.Index(a)*int64(per) + int64(tagBucket(g.Tag(a), per))
}

// tagBucket spreads a tag over [0, per). The tag is hashed (Fibonacci
// multiply, top 32 bits, then multiply-shift range reduction) because the
// low tag bits of real streams carry little entropy: regions start at
// round addresses, so neighbouring tags differ mostly above them.
func tagBucket(tag, per uint64) uint64 {
	return (tag * 0x9e3779b97f4a7c15 >> 32) * per >> 32
}

// BucketOccupied reports whether any resident line shares a's bucket —
// a itself included, if resident. It rescans a's one set and changes
// nothing (no statistics, no recency).
func (c *Cache) BucketOccupied(a uint64) bool {
	per := uint64(c.geom.Assoc) * BucketsPerWay
	want := tagBucket(c.geom.Tag(a), per)
	base := c.geom.Index(a) * int64(c.geom.Assoc)
	for _, w := range c.words[base : base+int64(c.geom.Assoc)] {
		if w.State() != StateInvalid && tagBucket(w.Tag(), per) == want {
			return true
		}
	}
	return false
}

// ValidCount returns the number of resident lines in O(1); the count is
// maintained incrementally by every state-changing operation (an 8 GB
// directory scan would be 64M iterations per occupancy sample).
func (c *Cache) ValidCount() int64 { return c.valid }

// ForEachValid calls fn for every resident line with its line-aligned
// address and state. Iteration order is set-major and must not be relied
// upon beyond determinism.
func (c *Cache) ForEachValid(fn func(lineAddr uint64, state uint8)) {
	for set := int64(0); set < c.geom.Sets; set++ {
		base := set * int64(c.geom.Assoc)
		for w := 0; w < c.geom.Assoc; w++ {
			if wd := c.words[base+int64(w)]; wd.State() != StateInvalid {
				fn(c.geom.Rebuild(wd.Tag(), set), wd.State())
			}
		}
	}
}

// writeState rewrites the state field of slot i to a non-invalid value,
// refreshing the check byte and the resident count.
func (c *Cache) writeState(i int64, s uint8) {
	w := c.words[i]
	if w.State() == StateInvalid {
		c.valid++
	}
	w = w.WithState(s)
	if c.hasECC {
		w = sdram.EncodeWordECC(w)
	}
	c.words[i] = w
}

// writeInvalid zeroes the state field of slot i, refreshing the check
// byte and the resident count.
func (c *Cache) writeInvalid(i int64) {
	w := c.words[i]
	if w.State() != StateInvalid {
		c.valid--
	}
	w = w.WithState(StateInvalid)
	if c.hasECC {
		w = sdram.EncodeWordECC(w)
	}
	c.words[i] = w
}

// SlotCount returns the number of tag slots (sets x ways); fault
// injection addresses slots by flat index.
func (c *Cache) SlotCount() int64 { return int64(len(c.words)) }

// DirectoryBytes returns the backing-store footprint of the directory:
// the packed word array plus any per-set or wide-associativity
// replacement sidecars. With the paper's policies and associativities
// this is 8 bytes per slot for LRU/FIFO/Random and 8 + stride/assoc for
// PLRU — at most 9 bytes per slot, ECC included.
func (c *Cache) DirectoryBytes() int64 {
	return int64(len(c.words))*8 + int64(len(c.perSet)) + int64(len(c.wideRank))
}

// CorruptSlot XORs the given masks into the stored tag and state fields
// of slot i without updating the in-word check byte — the software model
// of an SDRAM soft error. Masks wider than the packed fields are
// truncated (the physical word has nothing else to flip). It reports
// whether the slot held a valid line beforehand.
func (c *Cache) CorruptSlot(i int64, tagXor uint64, stateXor uint8) bool {
	w := c.words[i]
	valid := w.State() != StateInvalid
	w ^= sdram.Word(tagXor&sdram.WordTagMask) << sdram.WordTagShift
	w ^= sdram.Word(stateXor&sdram.WordStateMask) << sdram.WordStateShift
	c.words[i] = w
	if nowValid := w.State() != StateInvalid; nowValid != valid {
		if nowValid {
			c.valid++
		} else {
			c.valid--
		}
	}
	return valid
}

// ScrubReport summarizes one Scrub pass.
type ScrubReport struct {
	Scanned     int64 // slots examined
	Corrected   int64 // single-bit errors repaired in place
	Invalidated int64 // uncorrectable entries dropped
}

// Scrub verifies every slot against its in-word SECDED check byte:
// single-bit errors (in the tag, the state, or the code itself) are
// corrected in place; uncorrectable entries are invalidated, which is
// always safe for the board's non-inclusive emulated caches — the line
// simply re-misses. Scrub is a no-op when ECC is disabled.
func (c *Cache) Scrub() ScrubReport {
	var rep ScrubReport
	if !c.hasECC {
		return rep
	}
	for i := range c.words {
		rep.Scanned++
		w := c.words[i]
		fixed, res := sdram.CheckWordECC(w)
		switch res {
		case sdram.ECCOK:
		case sdram.ECCCorrected:
			if (w.State() != StateInvalid) != (fixed.State() != StateInvalid) {
				if fixed.State() != StateInvalid {
					c.valid++
				} else {
					c.valid--
				}
			}
			c.words[i] = fixed
			rep.Corrected++
		default:
			if w.State() != StateInvalid {
				c.valid--
			}
			c.words[i] = sdram.EncodeWordECC(w.WithState(StateInvalid))
			rep.Invalidated++
		}
	}
	return rep
}
