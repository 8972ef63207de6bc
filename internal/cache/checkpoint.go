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

// Checkpoint walks the cache image: a geometry/policy fingerprint (a
// snapshot loads only into an identically configured cache), the
// statistics, the replacement metadata, and the packed tag words with
// their SECDED check bits intact.
//
// When loading with ECC enabled every word's check bits are verified
// once the image is in, reusing the scrub datapath: single-bit errors
// are repaired and counted, uncorrectable words are dropped to invalid
// rather than trusted. The valid count is derived state: recomputed
// from the restored words, never stored.
func (c *Cache) Checkpoint(k *checkpoint.Codec) (RestoreReport, error) {
	var rep RestoreReport
	k.FixedI64("cache size", c.geom.SizeBytes)
	k.FixedI64("line size", c.geom.LineSize)
	k.Len("associativity", c.geom.Assoc)
	k.FixedU8("replacement policy", uint8(c.policy))
	k.FixedBool("ECC flag", c.hasECC)
	k.U64(&c.rng)
	k.U64(&c.stats.Probes)
	k.U64(&c.stats.Hits)
	k.U64(&c.stats.Fills)
	k.U64(&c.stats.Evictions)
	k.U64(&c.stats.Invalidates)
	k.Bytes("perSet metadata length", c.perSet)
	k.Bytes("wideRank metadata length", c.wideRank)
	checkpoint.Slice64(k, "directory word count", c.words)
	if err := k.Err(); err != nil || !k.Loading() {
		return rep, err
	}
	c.valid = 0
	for i, w := range c.words {
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
			c.words[i] = w
		}
		if w.State() != StateInvalid {
			c.valid++
		}
	}
	return rep, nil
}
