package cache

import (
	"memories/internal/checkpoint"
	"memories/internal/sdram"
)

// RestoreReport summarizes ECC activity observed while loading a
// checkpointed cache image: bit flips that happened to the snapshot
// (in memory before the save, or on disk) surface here exactly as a
// scrub pass would report them.
type RestoreReport struct {
	Corrected   uint64 // single-bit errors repaired on load
	Invalidated uint64 // uncorrectable lines dropped to invalid
}

// SaveState serializes the cache image: a geometry/policy fingerprint,
// the packed tag words (with their SECDED check bits intact), and the
// replacement metadata. Derived state (valid count) is not stored.
func (c *Cache) SaveState(e *checkpoint.Enc) {
	e.I64(c.geom.SizeBytes)
	e.I64(c.geom.LineSize)
	e.U32(uint32(c.geom.Assoc))
	e.U8(uint8(c.policy))
	e.Bool(c.hasECC)
	e.U64(c.rng)
	e.U64(c.stats.Probes)
	e.U64(c.stats.Hits)
	e.U64(c.stats.Fills)
	e.U64(c.stats.Evictions)
	e.U64(c.stats.Invalidates)
	e.U8Slice(c.perSet)
	e.U8Slice(c.wideRank)
	// Enc.U64Slice's layout, written without first copying the
	// directory (128 MB on a 2 GB board) into a []uint64.
	e.U32(uint32(len(c.words)))
	for _, w := range c.words {
		e.U64(uint64(w))
	}
}

// RestoreState loads a checkpointed image into an identically
// configured cache. When ECC is enabled every word's check bits are
// verified as they land, reusing the scrub datapath: single-bit errors
// are repaired and counted, uncorrectable words are dropped to invalid
// rather than trusted. The valid count is recomputed from the restored
// words, never read from the snapshot.
func (c *Cache) RestoreState(d *checkpoint.Dec) (RestoreReport, error) {
	var rep RestoreReport
	if got, want := d.I64(), c.geom.SizeBytes; got != want {
		return rep, d.Failf("cache size %d != configured %d", got, want)
	}
	if got, want := d.I64(), c.geom.LineSize; got != want {
		return rep, d.Failf("line size %d != configured %d", got, want)
	}
	if got, want := int(d.U32()), c.geom.Assoc; got != want {
		return rep, d.Failf("associativity %d != configured %d", got, want)
	}
	if got, want := Policy(d.U8()), c.policy; got != want {
		return rep, d.Failf("replacement policy %d != configured %d", got, want)
	}
	if got, want := d.Bool(), c.hasECC; got != want {
		return rep, d.Failf("ECC flag %v != configured %v", got, want)
	}
	c.rng = d.U64()
	c.stats.Probes = d.U64()
	c.stats.Hits = d.U64()
	c.stats.Fills = d.U64()
	c.stats.Evictions = d.U64()
	c.stats.Invalidates = d.U64()
	perSet := d.U8Slice()
	wideRank := d.U8Slice()
	words := d.U64Slice()
	if err := d.Err(); err != nil {
		return rep, err
	}
	if len(perSet) != len(c.perSet) {
		return rep, d.Failf("perSet metadata length %d != %d", len(perSet), len(c.perSet))
	}
	if len(wideRank) != len(c.wideRank) {
		return rep, d.Failf("wideRank metadata length %d != %d", len(wideRank), len(c.wideRank))
	}
	if len(words) != len(c.words) {
		return rep, d.Failf("word count %d != %d lines", len(words), len(c.words))
	}
	copy(c.perSet, perSet)
	copy(c.wideRank, wideRank)
	c.valid = 0
	for i, raw := range words {
		w := sdram.Word(raw)
		if c.hasECC {
			fixed, res := sdram.CheckWordECC(w)
			switch res {
			case sdram.ECCOK:
			case sdram.ECCCorrected:
				w = fixed
				rep.Corrected++
			default:
				w = sdram.EncodeWordECC(w.WithState(StateInvalid))
				rep.Invalidated++
			}
		}
		c.words[i] = w
		if w.State() != StateInvalid {
			c.valid++
		}
	}
	return rep, nil
}
