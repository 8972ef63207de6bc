// Package cache implements the set-associative tag/state arrays used
// everywhere in the emulator: the four emulated shared-cache directories
// on the MemorIES board, the host's private L1/L2 caches, and the NUMA
// sparse-directory and remote-cache structures.
//
// A Cache stores no data — exactly like the board, which keeps only tag,
// state, and LRU information in its SDRAM (paper §3: "1GB of SDRAM memory
// to implement the cache tag and state tables"). Line state is an opaque
// byte owned by the coherence layer; state 0 always means invalid.
//
// Every operation exists once, keyed by a line's set index and tag and
// working on a slot: FindIn and AccessSlotIn scan a set and return the
// slot they found, and SetStateAt, InvalidateAt and FillIn act on it. The
// address-based Find, Probe, AccessSlot, Access and FillAt split the
// address into those keys and call them, one line each; SetState,
// Invalidate and Fill are each a Find plus the slot call. The board's
// node controllers use the keyed calls, so a transaction splits its
// address once per set shape and reads each directory set once, as the
// hardware's one read-modify-write per tag entry does; TouchSet is the
// read-only look-ahead load core.Board.SnoopBatch issues a window ahead
// of those scans.
package cache

import (
	"fmt"
	"strings"
)

// Policy selects a replacement algorithm. The board's replacement
// algorithm is one of its programmable cache attributes (paper §1).
type Policy uint8

const (
	// LRU evicts the least recently used way (the board's default).
	LRU Policy = iota
	// PLRU is tree pseudo-LRU, cheaper in hardware than true LRU.
	PLRU
	// FIFO evicts the oldest-filled way regardless of use.
	FIFO
	// Random evicts a pseudo-randomly chosen way.
	Random
)

// String returns the policy mnemonic.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case PLRU:
		return "plru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy parses a policy mnemonic (case insensitive).
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "lru":
		return LRU, nil
	case "plru", "tree-plru":
		return PLRU, nil
	case "fifo":
		return FIFO, nil
	case "random", "rand":
		return Random, nil
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q", s)
}

// Replacement metadata lives inside the packed words wherever it fits,
// exactly like the board's SDRAM entries (tag/state/LRU in one word):
//
//   - LRU keeps a per-way recency rank in each word's rank field. Rank
//     assoc-1 is the most recently used way; untouched ways sit at rank
//     0. A touch promotes the way to assoc-1 and decrements every rank
//     above its old one, so the touched ways always occupy the top ranks
//     in recency order — the same total order a global use-stamp clock
//     produces, which the equivalence tests verify against the unpacked
//     layout. Associativities wider than the rank field (not reachable
//     with the board's 1/2/4/8 ways) spill ranks to a per-slot side
//     array.
//   - FIFO keeps its per-set rotation pointer in the rank field of the
//     set's way-0 word (the field is otherwise unused by FIFO), spilling
//     to a per-set byte for wide associativities.
//   - PLRU packs its assoc-1 tree bits into setStride bytes per set (one
//     byte per set for the board's associativities).
//   - Random needs only the xorshift64 generator state.

// touch records a demand access to a valid way.
func (c *Cache) touch(set, base int64, way int) {
	switch c.policy {
	case LRU:
		c.lruTouch(base, way)
	case PLRU:
		c.plruTouch(set, way)
	}
}

// fillRepl records a line installation into a way.
func (c *Cache) fillRepl(set, base int64, way int) {
	switch c.policy {
	case LRU:
		c.lruTouch(base, way)
	case PLRU:
		c.plruTouch(set, way)
	case FIFO:
		c.fifoFill(set, base, way)
	}
}

// victim selects the way to evict from a full set.
func (c *Cache) victim(set, base int64) int {
	switch c.policy {
	case LRU:
		return c.lruVictim(base)
	case PLRU:
		return c.plruVictim(set)
	case FIFO:
		return c.fifoVictim(set, base)
	default:
		return c.randomVictim()
	}
}

// lruTouch promotes way to the most-recent rank (assoc-1) and closes the
// gap it left by decrementing every rank above its old one. A way already
// at the top rank changes nothing, so it returns without the scan: the
// common case of a line hit again before any other line of its set.
func (c *Cache) lruTouch(base int64, way int) {
	assoc := c.geom.Assoc
	if assoc == 1 {
		return
	}
	if c.wideRank != nil {
		old := c.wideRank[base+int64(way)]
		if int(old) == assoc-1 {
			return
		}
		for w := 0; w < assoc; w++ {
			if r := c.wideRank[base+int64(w)]; r > old {
				c.wideRank[base+int64(w)] = r - 1
			}
		}
		c.wideRank[base+int64(way)] = uint8(assoc - 1)
		return
	}
	old := c.words[base+int64(way)].Rank()
	if int(old) == assoc-1 {
		return
	}
	for w := 0; w < assoc; w++ {
		i := base + int64(w)
		if r := c.words[i].Rank(); r > old {
			c.words[i] = c.words[i].WithRank(r - 1)
		}
	}
	i := base + int64(way)
	c.words[i] = c.words[i].WithRank(uint8(assoc - 1))
}

// lruVictim returns the way with the lowest rank, ties to the lowest way
// index (matching a min-use-stamp scan from way 0).
func (c *Cache) lruVictim(base int64) int {
	if c.wideRank != nil {
		best, bestRank := 0, c.wideRank[base]
		for w := 1; w < c.geom.Assoc; w++ {
			if r := c.wideRank[base+int64(w)]; r < bestRank {
				best, bestRank = w, r
			}
		}
		return best
	}
	best, bestRank := 0, c.words[base].Rank()
	for w := 1; w < c.geom.Assoc; w++ {
		if r := c.words[base+int64(w)].Rank(); r < bestRank {
			best, bestRank = w, r
		}
	}
	return best
}

// plruTouch walks the tree toward way, pointing every node away from it.
// Node n's bit lives at bit n&7 of byte n>>3 in the set's stride.
func (c *Cache) plruTouch(set int64, way int) {
	base := set * c.setStride
	node, lo, hi := 0, 0, c.geom.Assoc
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		idx := base + int64(node>>3)
		bit := uint8(1) << (node & 7)
		if way < mid {
			c.perSet[idx] |= bit // next victim search goes right
			node = 2*node + 1
			hi = mid
		} else {
			c.perSet[idx] &^= bit // next victim search goes left
			node = 2*node + 2
			lo = mid
		}
	}
}

// plruVictim follows the tree bits: 0 means go left, 1 means go right.
func (c *Cache) plruVictim(set int64) int {
	base := set * c.setStride
	node, lo, hi := 0, 0, c.geom.Assoc
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if c.perSet[base+int64(node>>3)]&(1<<(node&7)) == 0 {
			node = 2*node + 1
			hi = mid
		} else {
			node = 2*node + 2
			lo = mid
		}
	}
	return lo
}

// fifoFill advances the rotation pointer only when the fill consumed the
// victim slot; out-of-order fills (into invalid ways) do not disturb
// rotation. The pointer lives in the way-0 word's rank field unless the
// associativity is too wide for it.
func (c *Cache) fifoFill(set, base int64, way int) {
	if c.perSet != nil {
		if int(c.perSet[set]) == way {
			c.perSet[set] = uint8((way + 1) % c.geom.Assoc)
		}
		return
	}
	if w0 := c.words[base]; int(w0.Rank()) == way {
		c.words[base] = w0.WithRank(uint8((way + 1) % c.geom.Assoc))
	}
}

// fifoVictim returns the rotation pointer.
func (c *Cache) fifoVictim(set, base int64) int {
	if c.perSet != nil {
		return int(c.perSet[set])
	}
	return int(c.words[base].Rank())
}

// randomVictim picks a way with a xorshift64 generator so runs are
// reproducible for a given seed.
func (c *Cache) randomVictim() int {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return int(c.rng % uint64(c.geom.Assoc))
}
