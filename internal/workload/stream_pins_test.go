package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"memories/internal/addr"
)

// pinnedRefs is how much of each stream a pin covers.
const pinnedRefs = 64 << 10

type pinnedStream struct {
	name string
	g    Generator
}

// streamPins builds every generator whose stream is pinned, for one seed.
// The configurations take both sides of each arithmetic shortcut in the
// generators: power-of-two and other slot counts, CPU counts that do and
// do not divide the footprint, and Zipf footprints of 512 GB and more,
// where rank*2654435761 overflows int64 and the scatter sees negative
// products.
func streamPins(seed uint64) []pinnedStream {
	tpcc8 := ScaledTPCCConfig(2048)
	tpcc8.Seed = seed
	tpcc3 := ScaledTPCCConfig(2048)
	tpcc3.NumCPUs, tpcc3.Seed = 3, seed
	tpccPaper := DefaultTPCCConfig()
	tpccPaper.Seed = seed
	tpch := ScaledTPCHConfig(2048)
	tpch.Seed = seed
	tpch3 := ScaledTPCHConfig(100)
	tpch3.NumCPUs, tpch3.Seed = 3, seed
	web := ScaledWebConfig(64)
	web.Seed = seed
	webOdd := WebConfig{NumCPUs: 3, DocBytes: 100 * addr.MB, MeanDocBytes: 5000, Connections: 1000, Skew: 1.1, Seed: seed}
	return []pinnedStream{
		{"zipf-pow2", NewZipfian(ZipfConfig{NumCPUs: 4, FootprintByte: 8 * addr.MB, WriteFraction: 0.3, Seed: seed})},
		{"zipf-odd", NewZipfian(ZipfConfig{NumCPUs: 3, FootprintByte: 10 * addr.MB, SlotBytes: 96, Skew: 1.6, WriteFraction: 0.3, Seed: seed})},
		{"zipf-1tb", NewZipfian(ZipfConfig{NumCPUs: 8, FootprintByte: 1024 * addr.GB, Skew: 1.01, WriteFraction: 0.3, Seed: seed})},
		{"zipf-768gb", NewZipfian(ZipfConfig{NumCPUs: 8, FootprintByte: 768 * addr.GB, Skew: 1.01, WriteFraction: 0.3, Seed: seed})},
		{"tpcc-2048", NewTPCC(tpcc8)},
		{"tpcc-2048-3cpu", NewTPCC(tpcc3)},
		{"tpcc-paper", NewTPCC(tpccPaper)},
		{"tpch-2048", NewTPCH(tpch)},
		{"tpch-100-3cpu", NewTPCH(tpch3)},
		{"web-64", NewWeb(web)},
		{"web-odd", NewWeb(webOdd)},
		{"uniform", NewUniform(UniformConfig{NumCPUs: 3, FootprintByte: 10 * addr.MB, WriteFraction: 0.3, Seed: seed})},
		{"uniform-pow2", NewUniform(UniformConfig{NumCPUs: 8, FootprintByte: 64 * addr.MB, WriteFraction: 0.3, Seed: seed})},
		{"stride", NewStride(StrideConfig{NumCPUs: 3, FootprintByte: 10 * addr.MB, WriteFraction: 0.3, Seed: seed})},
		{"tpcc+journaling", WithDisturbance(NewTPCC(tpcc8), DisturbanceConfig{PeriodRefs: 5000, BurstRefs: 700, JournalBytes: 3 * addr.MB, CPU: 1})},
	}
}

func streamDigest(g Generator, n int) string {
	h := sha256.New()
	var b [21]byte
	for i := 0; i < n; i++ {
		ref, _ := g.Next()
		binary.LittleEndian.PutUint64(b[0:], ref.Addr)
		binary.LittleEndian.PutUint32(b[8:], uint32(ref.CPU))
		binary.LittleEndian.PutUint64(b[12:], ref.Instrs)
		b[20] = 0
		if ref.Write {
			b[20] = 1
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamPins holds every generator's stream to the bytes it produced
// before the Zipf kernel and the division-free address arithmetic went
// in (recorded at the parent of that change). A pin that moves means
// every bench digest, experiment golden and checkpoint continuation
// moves with it; nothing in this package may change a stream.
func TestStreamPins(t *testing.T) {
	want := map[uint64]map[string]string{
		7: {
			"zipf-pow2":       "e1ac407432bcb21de8db0b7b69a4aad0422fe666a459bbac72bd7cc32d5f41fb",
			"zipf-odd":        "0003825dfed81b2a31ac78593c984b4f2fed75ecd799e7ea4fd51b3eb6d8b7ca",
			"zipf-1tb":        "36b8214f9031cbed3af2ae6e9d1624b5cb591f6c7dc6480f3ce8bb2d8a2c9881",
			"zipf-768gb":      "1c9111d2c6a5f2d38c2d7bd4e30ce03e6164784f51fc66e00bdf8a199d500ec7",
			"tpcc-2048":       "6fcc5d105287d78078d59876768e449ecc899b8d6ae19b45838a2b4c29956f94",
			"tpcc-2048-3cpu":  "d82891681d44d1cfc099da85911b7ae9e0acf4a02d8005f809e48fbbfff9d438",
			"tpcc-paper":      "f192b2db7b149cb0604dd36cfe883366b6dca03ee07bc1cf9b29dbb8f5ba8d1f",
			"tpch-2048":       "42914af5aacd28c599a91b6142517b9fe8cb26b02843ad0b5740fe70c88b36da",
			"tpch-100-3cpu":   "119fd6f79f0bf91b23a5004638511e79dc9512eb8cc04a16bcb374dac2400173",
			"web-64":          "15ce1bc3aa05794c6b73a8a576b08c0416c89856279a60fc3664d90d1a81ebfb",
			"web-odd":         "32e1f4a19c523f90d4a9160aedfb38c7e975c5044e1e365d81daaf64bc817bf2",
			"uniform":         "a8b7f568556cfcef884f7e04cb8b827e508b36d6689f599d05abbe2a2ba35526",
			"uniform-pow2":    "77da86ec494cc384cdadec16b0a9f44b9e23a593c35c91a7cfa2821cb233ee00",
			"stride":          "e5b128e3ebe78c2721d2504ef3db78e6272f3e322f38ae9b0a06b5cde8448237",
			"tpcc+journaling": "4239ad874afcd18573c3a442badaa3ebd3a5e9c92933e18e601f86c6c7b3fe79",
		},
		11: {
			"zipf-pow2":       "fcd72cbeb3c2777738ee6790a19c3748f12f41a719ba14c933ba7291df8fb7bc",
			"zipf-odd":        "ea0f8e078c8d04756d6a70d8847a9f74306aa201fe8a007b40cfcc3b073f2bec",
			"zipf-1tb":        "62e88c4ed0834ce0ef136caecb98130571762ab7dbb8c3b9a0a5dcb1933d627f",
			"zipf-768gb":      "965f9e2ee14fb35f5deba3637197e079bf32c4ff79875306b5494b9e3d6cd5a2",
			"tpcc-2048":       "e6da47c3a66d7b103a8ee6b332971cd75d41424cb12c7f7d12b49fb55ec0c2f5",
			"tpcc-2048-3cpu":  "e7c1e6fd1dfc721265a9ad2347cd52878e131cde10fd87034941c54dc58b5c88",
			"tpcc-paper":      "e28c5e297917a1ffbb87680b6ce8ff84768d66d711169e2f3a4fd0cae8d3fbef",
			"tpch-2048":       "fbed19fc73c5387d78b0505804765afb69f2c3c5584e41fd2c28951c98d3d83f",
			"tpch-100-3cpu":   "8bb84208da7d90b5cfee5d9e784725c5f8848d9d40020443dd5b6fcbc781e7d1",
			"web-64":          "20acd5df63cedc15ef425ac2f57b10c25f4d3be932996bbef327f1e4a131b1ad",
			"web-odd":         "3c4418f9b5cb5b5f062471591e5e06f63bbdd45bb09567f75dac7d24967f3195",
			"uniform":         "b58a3ec908f351b5b8eb194c78152634adb0931d40729289c5ae2a4a54f89ae0",
			"uniform-pow2":    "0825022552bdd1fbf2a9a921b8de7f54f60186c28b339f6ca08d0fbd68bbfa00",
			"stride":          "c5c9e66209f35a52bf1710b3c6dee306ab31d14dde73dcb5c9535f5745c44011",
			"tpcc+journaling": "f6d25f219ac880e23f4a2b1ab1c5a1006f5214349f36951e186b8d8c3db2f5ae",
		},
	}
	for _, seed := range []uint64{7, 11} {
		for _, c := range streamPins(seed) {
			if got := streamDigest(c.g, pinnedRefs); got != want[seed][c.name] {
				t.Errorf("seed %d %s: stream digest\n got %s\nwant %s", seed, c.name, got, want[seed][c.name])
			}
		}
	}
}

// TestNextAllocFree: no generator allocates per reference.
func TestNextAllocFree(t *testing.T) {
	for _, c := range streamPins(7) {
		g := c.g
		if n := testing.AllocsPerRun(1000, func() { g.Next() }); n != 0 {
			t.Errorf("%s: %v allocs per Next", c.name, n)
		}
	}
}
