package core

import (
	"fmt"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/sdram"
	"memories/internal/workload"
	"memories/protocols"
)

// mixedProtocolConfig is one snoop group of four nodes, each running a
// different shipped protocol over two CPUs: every protocol is both the
// requester and a snooper of the other three.
func mixedProtocolConfig() Config {
	var nodes []NodeConfig
	for i, proto := range []string{"msi", "mesi", "moesi", "write-once"} {
		nodes = append(nodes, NodeConfig{
			CPUs:     []int{2 * i, 2*i + 1},
			Geometry: addr.MustGeometry(2*addr.MB, 128, 4),
			Policy:   cache.LRU,
			Protocol: protocols.MustLoad(proto),
		})
	}
	return Config{Nodes: nodes}
}

// writeHeavyStream is a Zipf stream over eight CPUs and a 32 MB footprint
// with the given write fraction, stamped step bus cycles apart: the shape
// of four coherent nodes sharing data, where snoops, invalidations and
// upgrades are a large share of the work.
func writeHeavyStream(n int, step uint64, writes float64) []bus.Transaction {
	gen := workload.NewZipfian(workload.ZipfConfig{
		NumCPUs: 8, FootprintByte: 32 * addr.MB, WriteFraction: writes, Seed: 29,
	})
	txs := make([]bus.Transaction, n)
	for i := range txs {
		ref, _ := gen.Next()
		cmd := bus.Read
		switch {
		case i%23 == 0:
			cmd = bus.Castout
		case i%41 == 0:
			cmd = bus.DClaim
		case ref.Write:
			cmd = bus.RWITM
		}
		txs[i] = bus.Transaction{
			Seq: uint64(i), Cycle: uint64(i+1) * step, Cmd: cmd,
			Addr: ref.Addr &^ 127, Size: 128, SrcID: ref.CPU,
		}
	}
	return txs
}

// pinBoard is one pinned board: its configuration, its stream at a given
// bus-cycle step, and a hook run before each 1000-transaction chunk.
type pinBoard struct {
	cfg    func() Config
	stream func(step uint64) []bus.Transaction
	before func(b *Board, chunk int)
}

// pinBoards are the boards TestBoardDigestPins holds: between them every
// protocol as requester and snooper, every replacement policy, ECC with
// scrub repairs, the non-power-of-two bank path with injected stalls, four
// independent groups of four set shapes, and one group of two set shapes,
// each shared by two associativities.
func pinBoards() map[string]pinBoard {
	const n = 32_000
	fourNode := func(step uint64) []bus.Transaction { return fourNodeStream(n, step) }
	wr60 := func(step uint64) []bus.Transaction { return writeHeavyStream(n, step, 0.6) }
	single := func(p cache.Policy) func() Config {
		return func() Config {
			cfg := fourNodeConfig()
			cfg.Nodes = cfg.Nodes[:1]
			cfg.Nodes[0].CPUs = CPURange(8)
			cfg.Nodes[0].Policy = p
			return cfg
		}
	}
	pins := map[string]pinBoard{
		"moesi-4node-wr60": {cfg: func() Config {
			cfg := mixedProtocolConfig()
			for i := range cfg.Nodes {
				cfg.Nodes[i].Protocol = protocols.MustLoad("moesi")
			}
			return cfg
		}, stream: wr60},
		"four-node": {cfg: fourNodeConfig, stream: fourNode},
		"multiconfig-4": {cfg: func() Config {
			var cfg Config
			for i, size := range []int64{1, 2, 4, 8} {
				cfg.Nodes = append(cfg.Nodes, NodeConfig{
					CPUs:     CPURange(8),
					Geometry: addr.MustGeometry(size*addr.MB, 128, 4),
					Policy:   cache.LRU,
					Protocol: protocols.MustLoad("mesi"),
					Group:    i,
				})
			}
			return cfg
		}, stream: wr60},
		"two-shapes-one-group": {cfg: func() Config {
			cfg := mixedProtocolConfig()
			for i, g := range []addr.Geometry{
				addr.MustGeometry(2*addr.MB, 128, 4),
				addr.MustGeometry(4*addr.MB, 128, 8),
				addr.MustGeometry(4*addr.MB, 128, 4),
				addr.MustGeometry(8*addr.MB, 128, 8),
			} {
				cfg.Nodes[i].Geometry = g
				cfg.Nodes[i].Protocol = protocols.MustLoad("moesi")
			}
			return cfg
		}, stream: wr60},
		"mixed-protocol": {cfg: mixedProtocolConfig, stream: wr60},
		"single-plru":    {cfg: single(cache.PLRU), stream: fourNode},
		"single-fifo":    {cfg: single(cache.FIFO), stream: fourNode},
		"single-random":  {cfg: single(cache.Random), stream: fourNode},
		"ecc-scrub": {cfg: func() Config {
			cfg := fourNodeConfig()
			cfg.ECC = true
			cfg.ScrubIntervalCycles = 5000
			return cfg
		}, stream: fourNode, before: func(b *Board, chunk int) {
			for i := 0; i < b.NumNodes(); i++ {
				b.CorruptDirectory(i, int64(chunk*7919)%b.DirectorySlots(i), 1, 0)
			}
		}},
		"sdram-12bank-stall": {cfg: func() Config {
			cfg := fourNodeConfig()
			for i := range cfg.Nodes {
				cfg.Nodes[i].SDRAM = sdram.Config{Banks: 12, ChannelGap: 23, BankBusy: 46}
			}
			return cfg
		}, stream: fourNode, before: func(b *Board, chunk int) {
			if chunk%5 == 3 {
				b.StallTagStores(4000)
			}
		}},
	}
	return pins
}

// runPinBoard feeds a pinned board its stream in 1000-transaction
// batches and returns it flushed.
func runPinBoard(t testing.TB, pb pinBoard, step uint64) *Board {
	t.Helper()
	b := MustNewBoard(pb.cfg())
	txs := pb.stream(step)
	for chunk, i := 0, 0; i < len(txs); chunk, i = chunk+1, i+1000 {
		if pb.before != nil {
			pb.before(b, chunk)
		}
		b.SnoopBatch(txs[i:min(i+1000, len(txs))])
	}
	b.Flush()
	return b
}

// TestBoardDigestPins holds the checkpoint bytes — every counter,
// directory word, LRU rank, tag-store statistic — of a set of boards after
// fixed streams to the values the straightforward per-peer snoop path
// produced: every peer looked up, its snoop taken through the full table
// lookup, every LRU touch scanning the set, and the SDRAM channel's busy
// cycles summed per operation. TestSnoopBatchMatchesSerial cannot catch a
// wrong fast path that Snoop and SnoopBatch share; these pins can.
func TestBoardDigestPins(t *testing.T) {
	want := map[string]string{
		"ecc-scrub/step1":             "e5c4f3f582e12c1c557b5677b0219f69a3433cc58afd62a9091d1c00cc790d7e",
		"ecc-scrub/step48":            "a279ab159b4023262f1a0c7a1584c37393a5930d43a13a9dce9f8c7359add200",
		"four-node/step1":             "2da5b2b450ea50173eeef7de0a3bb4d9b8664cec6b5c4304d1b4f54e24cb9c37",
		"four-node/step48":            "508a4458aebed02998f7282d803b1d3189b7815fc1548d81ea9441f755cf8604",
		"multiconfig-4/step1":         "5f146d0c99d78c28662d89a11f7d48008d320804a4267b74c3133b2137bea569",
		"multiconfig-4/step48":        "8b3f05bbf8076ba733978704076d34845fa96bb6b2d2a9279b4f53174597ab7e",
		"two-shapes-one-group/step1":  "0824657d8a3f9153365bd5609e794810234640f942a81003077a1cdd00bcd97b",
		"two-shapes-one-group/step48": "9d3639257a690dd810e97eb6804f9e4f5b6c72474445a53c60759345488505b8",
		"mixed-protocol/step1":        "b7ed6c9cab8839e7de94225654edb88fd124b05416eebd6ee9d884dab58e7d7f",
		"mixed-protocol/step48":       "07398590467619e3440c16a5afd14d8d4b6b4b3229d6b8b97eaf08d396e5bacd",
		"moesi-4node-wr60/step1":      "320ff347893d9cdc7a246afbf7e9e755f80cbc9c74db73ee3ecfcd5d591925cd",
		"moesi-4node-wr60/step48":     "7bf6d408864874a6c0f9da9f6c4369190934a46e72df9651ac6d77bb78091546",
		"sdram-12bank-stall/step1":    "da13dcda50583b40151c634946df47dfc1047e6a63b1a4f1b99c01f7c58b6dbd",
		"sdram-12bank-stall/step48":   "dbac6c13bf4ba46ca99e8878adc7930a85aa7d86fc587fe9db6a7148a3b001ab",
		"single-fifo/step1":           "7b4317fb54af7477091a77c071367432b2d28a880b922a2d58563f295e4dc8dd",
		"single-fifo/step48":          "79e34b3f9ddf5fe87a32d3d9ebae2abdcfb313cda5671ad9edeee027fa7919b6",
		"single-plru/step1":           "776c77bbd78b1347d5110bce274d3968afc772193fb356bc839cabb26d3f4f29",
		"single-plru/step48":          "e66466316e6137d62ebbd7ed758a8c147370d6fd4eadb0cbe0076641b68773e1",
		"single-random/step1":         "e6953448c3ae768f84217d617aeebf8c0be6bdd32580b42ac2bef479b639deec",
		"single-random/step48":        "d6744238dc4eecdb0cde0268345dc7cacc2461e06f833fa3e8af3b4563b0bdad",
	}
	// What each board must have exercised for its pin to mean anything.
	exercised := map[string]string{
		"moesi-4node-wr60":     "nodea.snoop.invalidated",
		"mixed-protocol":       "noded.intervention.supplied.mod",
		"single-plru":          "nodea.evictions",
		"ecc-scrub":            "nodea.ecc.corrected",
		"multiconfig-4":        "nodea.evictions",
		"two-shapes-one-group": "nodeb.snoop.invalidated",
	}
	for name, pb := range pinBoards() {
		for _, step := range []uint64{48, 1} {
			label := fmt.Sprintf("%s/step%d", name, step)
			b := runPinBoard(t, pb, step)
			if got := fmt.Sprintf("%x", checkpointDigest(t, b)); got != want[label] {
				t.Errorf("%s: checkpoint sha256 %s, want %s", label, got, want[label])
			}
			if c, ok := exercised[name]; ok && b.Counters().Value(c) == 0 {
				t.Errorf("%s: %s never counted", label, c)
			}
			if name == "sdram-12bank-stall" && b.TagStoreStats(0).InjectedStallCycles == 0 {
				t.Errorf("%s: no stall injected", label)
			}
		}
	}
}
