package cache

// This file ports the pre-packed struct-of-arrays cache implementation —
// parallel tags/state/ecc arrays plus separate replacer state, exactly as
// it stood before the packed-word layout — as a test-only reference
// model. equivalence_test.go drives it in lockstep with the packed Cache
// and demands bit-identical observable behavior: stats, victims, probe
// results, scrub reports, and enumeration.

import (
	"memories/internal/addr"
	"memories/internal/sdram"
)

type legacyReplacer interface {
	touch(set int64, way int)
	fill(set int64, way int)
	victim(set int64) int
}

type legacyLRU struct {
	assoc  int
	clock  uint64
	stamps []uint64
}

func newLegacyLRU(sets int64, assoc int) *legacyLRU {
	return &legacyLRU{assoc: assoc, stamps: make([]uint64, sets*int64(assoc))}
}

func (r *legacyLRU) touch(set int64, way int) {
	r.clock++
	r.stamps[set*int64(r.assoc)+int64(way)] = r.clock
}

func (r *legacyLRU) fill(set int64, way int) { r.touch(set, way) }

func (r *legacyLRU) victim(set int64) int {
	base := set * int64(r.assoc)
	best, bestStamp := 0, r.stamps[base]
	for w := 1; w < r.assoc; w++ {
		if s := r.stamps[base+int64(w)]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

type legacyPLRU struct {
	assoc int
	bits  []uint8 // assoc-1 bits per set, one per byte
}

func newLegacyPLRU(sets int64, assoc int) *legacyPLRU {
	return &legacyPLRU{assoc: assoc, bits: make([]uint8, sets*int64(assoc-1))}
}

func (r *legacyPLRU) touch(set int64, way int) {
	base := set * int64(r.assoc-1)
	node, lo, hi := 0, 0, r.assoc
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			r.bits[base+int64(node)] = 1
			node = 2*node + 1
			hi = mid
		} else {
			r.bits[base+int64(node)] = 0
			node = 2*node + 2
			lo = mid
		}
	}
}

func (r *legacyPLRU) fill(set int64, way int) { r.touch(set, way) }

func (r *legacyPLRU) victim(set int64) int {
	base := set * int64(r.assoc-1)
	node, lo, hi := 0, 0, r.assoc
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if r.bits[base+int64(node)] == 0 {
			node = 2*node + 1
			hi = mid
		} else {
			node = 2*node + 2
			lo = mid
		}
	}
	return lo
}

type legacyFIFO struct {
	assoc int
	next  []uint8
}

func newLegacyFIFO(sets int64, assoc int) *legacyFIFO {
	return &legacyFIFO{assoc: assoc, next: make([]uint8, sets)}
}

func (r *legacyFIFO) touch(int64, int) {}

func (r *legacyFIFO) fill(set int64, way int) {
	if int(r.next[set]) == way {
		r.next[set] = uint8((way + 1) % r.assoc)
	}
}

func (r *legacyFIFO) victim(set int64) int { return int(r.next[set]) }

type legacyRandom struct {
	assoc int
	state uint64
}

func newLegacyRandom(assoc int, seed uint64) *legacyRandom {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &legacyRandom{assoc: assoc, state: seed}
}

func (r *legacyRandom) touch(int64, int) {}
func (r *legacyRandom) fill(int64, int)  {}

func (r *legacyRandom) victim(int64) int {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return int(r.state % uint64(r.assoc))
}

type legacyCache struct {
	geom  addr.Geometry
	tags  []uint64
	state []uint8
	ecc   []uint8
	repl  legacyReplacer
	stats Stats
}

func newLegacy(cfg Config) *legacyCache {
	g := cfg.Geometry
	var r legacyReplacer
	switch cfg.Policy {
	case LRU:
		r = newLegacyLRU(g.Sets, g.Assoc)
	case PLRU:
		r = newLegacyPLRU(g.Sets, g.Assoc)
	case FIFO:
		r = newLegacyFIFO(g.Sets, g.Assoc)
	case Random:
		r = newLegacyRandom(g.Assoc, cfg.Seed)
	}
	lines := g.Lines()
	c := &legacyCache{
		geom:  g,
		tags:  make([]uint64, lines),
		state: make([]uint8, lines),
		repl:  r,
	}
	if cfg.ECC {
		c.ecc = make([]uint8, lines)
		zero := sdram.EncodeECC(0, StateInvalid)
		for i := range c.ecc {
			c.ecc[i] = zero
		}
	}
	return c
}

func (c *legacyCache) findWay(base int64, tag uint64) int {
	end := base + int64(c.geom.Assoc)
	t := c.tags[base:end]
	s := c.state[base:end]
	for w := range t {
		if s[w] != StateInvalid && t[w] == tag {
			return w
		}
	}
	return -1
}

func (c *legacyCache) Probe(a uint64) uint8 {
	set, tag := c.geom.Index(a), c.geom.Tag(a)
	base := set * int64(c.geom.Assoc)
	if w := c.findWay(base, tag); w >= 0 {
		return c.state[base+int64(w)]
	}
	return StateInvalid
}

func (c *legacyCache) Access(a uint64) uint8 {
	c.stats.Probes++
	set, tag := c.geom.Index(a), c.geom.Tag(a)
	base := set * int64(c.geom.Assoc)
	if w := c.findWay(base, tag); w >= 0 {
		c.stats.Hits++
		c.repl.touch(set, w)
		return c.state[base+int64(w)]
	}
	return StateInvalid
}

func (c *legacyCache) SetState(a uint64, s uint8) bool {
	set, tag := c.geom.Index(a), c.geom.Tag(a)
	base := set * int64(c.geom.Assoc)
	if w := c.findWay(base, tag); w >= 0 {
		c.state[base+int64(w)] = s
		c.updateECC(base + int64(w))
		return true
	}
	return false
}

func (c *legacyCache) Fill(a uint64, s uint8) (victim Victim, evicted bool) {
	set, tag := c.geom.Index(a), c.geom.Tag(a)
	base := set * int64(c.geom.Assoc)
	if w := c.findWay(base, tag); w >= 0 {
		c.state[base+int64(w)] = s
		c.updateECC(base + int64(w))
		c.repl.touch(set, w)
		return Victim{}, false
	}
	free := -1
	for w := 0; w < c.geom.Assoc; w++ {
		if c.state[base+int64(w)] == StateInvalid {
			free = w
			break
		}
	}
	way := free
	if way < 0 {
		way = c.repl.victim(set)
		victim = Victim{
			Addr:  c.geom.Rebuild(c.tags[base+int64(way)], set),
			State: c.state[base+int64(way)],
		}
		evicted = true
		c.stats.Evictions++
	}
	c.tags[base+int64(way)] = tag
	c.state[base+int64(way)] = s
	c.updateECC(base + int64(way))
	c.repl.fill(set, way)
	c.stats.Fills++
	return victim, evicted
}

func (c *legacyCache) Invalidate(a uint64) (prior uint8, found bool) {
	set, tag := c.geom.Index(a), c.geom.Tag(a)
	base := set * int64(c.geom.Assoc)
	if w := c.findWay(base, tag); w >= 0 {
		prior = c.state[base+int64(w)]
		c.state[base+int64(w)] = StateInvalid
		c.updateECC(base + int64(w))
		c.stats.Invalidates++
		return prior, true
	}
	return StateInvalid, false
}

func (c *legacyCache) ValidCount() int64 {
	var n int64
	for _, s := range c.state {
		if s != StateInvalid {
			n++
		}
	}
	return n
}

func (c *legacyCache) ForEachValid(fn func(lineAddr uint64, state uint8)) {
	for set := int64(0); set < c.geom.Sets; set++ {
		base := set * int64(c.geom.Assoc)
		for w := 0; w < c.geom.Assoc; w++ {
			if s := c.state[base+int64(w)]; s != StateInvalid {
				fn(c.geom.Rebuild(c.tags[base+int64(w)], set), s)
			}
		}
	}
}

func (c *legacyCache) updateECC(i int64) {
	if c.ecc != nil {
		c.ecc[i] = sdram.EncodeECC(c.tags[i], c.state[i])
	}
}

func (c *legacyCache) SlotCount() int64 { return int64(len(c.state)) }

func (c *legacyCache) CorruptSlot(i int64, tagXor uint64, stateXor uint8) bool {
	valid := c.state[i] != StateInvalid
	c.tags[i] ^= tagXor
	c.state[i] ^= stateXor
	return valid
}

func (c *legacyCache) Scrub() ScrubReport {
	var rep ScrubReport
	if c.ecc == nil {
		return rep
	}
	for i := range c.state {
		rep.Scanned++
		tag, st, res := sdram.CheckECC(c.tags[i], c.state[i], c.ecc[i])
		switch res {
		case sdram.ECCOK:
		case sdram.ECCCorrected:
			c.tags[i], c.state[i] = tag, st
			c.ecc[i] = sdram.EncodeECC(tag, st)
			rep.Corrected++
		default:
			c.state[i] = StateInvalid
			c.ecc[i] = sdram.EncodeECC(c.tags[i], StateInvalid)
			rep.Invalidated++
		}
	}
	return rep
}
