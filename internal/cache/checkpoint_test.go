package cache

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"memories/internal/addr"
	"memories/internal/checkpoint"
)

// drive runs a deterministic mixed op stream (fills, upgrades,
// invalidates) so the image, replacement metadata, and RNG all move.
func drive(c *Cache, n int) {
	a := uint64(0x1234)
	for i := 0; i < n; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		line := (a >> 16) % (64 * 1024)
		addr := line * 128
		switch i % 5 {
		case 0, 1:
			if c.Access(addr) == StateInvalid {
				c.Fill(addr, 1)
			}
		case 2:
			if c.Probe(addr) != StateInvalid {
				c.SetState(addr, 2)
			}
		case 3:
			c.Fill(addr, 3)
		default:
			c.Invalidate(addr)
		}
	}
}

// walk is c.Checkpoint in the shape Marshal takes.
func walk(c *Cache) func(*checkpoint.Codec) error {
	return func(k *checkpoint.Codec) error {
		_, err := c.Checkpoint(k)
		return err
	}
}

// marshal renders a cache's checkpoint section.
func marshal(t testing.TB, c *Cache) []byte {
	t.Helper()
	payload, err := checkpoint.Marshal(walk(c))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// unmarshal loads a checkpoint section into c, unread bytes included in
// the verdict.
func unmarshal(c *Cache, payload []byte) (rep RestoreReport, err error) {
	err = checkpoint.Unmarshal(payload, func(k *checkpoint.Codec) (err error) {
		rep, err = c.Checkpoint(k)
		return err
	})
	return rep, err
}

// Round trip across every replacement policy: the restored twin must be
// image-identical and continue bit-exactly under the same op stream.
func TestCacheCheckpointRoundTrip(t *testing.T) {
	for pol := LRU; pol <= Random; pol++ {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{
				Geometry: addr.MustGeometry(64*addr.KB, 128, 4),
				Policy:   pol,
				Seed:     9,
				ECC:      true,
			}
			c := MustNew(cfg)
			drive(c, 4000)

			payload := marshal(t, c)
			// The on-disk layout is pinned (digest computed with the
			// Enc-based writer of b889b55): checkpoints written before
			// the two-way codec must still load.
			if pol == LRU {
				const want = "c8bf61ba7287590369c24a51b8cc9d303080527489a3b18bc3c2a84d7e69d7c3"
				if got := fmt.Sprintf("%x", sha256.Sum256(payload)); got != want {
					t.Fatalf("cache section digest %s, want %s", got, want)
				}
			}

			c2 := MustNew(cfg)
			rep, err := unmarshal(c2, payload)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Corrected != 0 || rep.Invalidated != 0 {
				t.Fatalf("clean snapshot reported ECC activity: %+v", rep)
			}
			if c2.ValidCount() != c.ValidCount() {
				t.Fatalf("valid count %d != %d", c2.ValidCount(), c.ValidCount())
			}
			if c2.Stats() != c.Stats() {
				t.Fatalf("stats %+v != %+v", c2.Stats(), c.Stats())
			}
			for i := range c.words {
				if c.words[i] != c2.words[i] {
					t.Fatalf("word %d differs after restore", i)
				}
			}
			// Continuation equivalence: same future ops, same future state.
			drive(c, 2000)
			drive(c2, 2000)
			if c2.Stats() != c.Stats() || c2.ValidCount() != c.ValidCount() {
				t.Fatalf("divergence after resume: %+v/%d vs %+v/%d",
					c2.Stats(), c2.ValidCount(), c.Stats(), c.ValidCount())
			}
		})
	}
}

// A single-bit soft error present in memory at save time is repaired on
// load, exactly as a scrub pass would repair it.
func TestCacheRestoreHealsSoftError(t *testing.T) {
	cfg := Config{Geometry: addr.MustGeometry(64*addr.KB, 128, 4), Policy: LRU, ECC: true}
	c := MustNew(cfg)
	drive(c, 4000)
	if !c.CorruptSlot(3, 1<<9, 0) {
		t.Fatal("CorruptSlot refused slot 3")
	}

	c2 := MustNew(cfg)
	rep, err := unmarshal(c2, marshal(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrected != 1 || rep.Invalidated != 0 {
		t.Fatalf("report %+v, want exactly one corrected word", rep)
	}
}

// Snapshots only restore into an identically configured cache; every
// fingerprint field mismatch is corruption, not a silent reshape.
func TestCacheRestoreConfigMismatch(t *testing.T) {
	base := Config{Geometry: addr.MustGeometry(64*addr.KB, 128, 4), Policy: LRU, ECC: true}
	c := MustNew(base)
	drive(c, 500)
	payload := marshal(t, c)

	for name, cfg := range map[string]Config{
		"size":   {Geometry: addr.MustGeometry(128*addr.KB, 128, 4), Policy: LRU, ECC: true},
		"line":   {Geometry: addr.MustGeometry(64*addr.KB, 256, 4), Policy: LRU, ECC: true},
		"assoc":  {Geometry: addr.MustGeometry(64*addr.KB, 128, 8), Policy: LRU, ECC: true},
		"policy": {Geometry: addr.MustGeometry(64*addr.KB, 128, 4), Policy: FIFO, ECC: true},
		"ecc":    {Geometry: addr.MustGeometry(64*addr.KB, 128, 4), Policy: LRU, ECC: false},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := unmarshal(MustNew(cfg), payload)
			var ce *checkpoint.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *checkpoint.CorruptError", err)
			}
		})
	}
}
