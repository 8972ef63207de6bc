// Ablations for the design decisions called out in DESIGN.md §4. Each
// reports a simulated metric (writebacks/op, overflow/op, missratio,
// divergence, maxqueue) through b.ReportMetric; ns/op is incidental.
// Timing lives in the `go run ./bench` ledger. Run with:
//
//	go test -run '^$' -bench Ablation -benchtime 2000x .
package memories

import (
	"fmt"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/core"
	"memories/internal/sdram"
	"memories/internal/simbase"
	"memories/internal/workload"
	"memories/protocols"
)

func benchCPUs() []int { return []int{0, 1, 2, 3, 4, 5, 6, 7} }

// AblationProtocolTables compares three shipped protocols on one
// write-heavy stream: protocol choice is data, so swapping tables costs
// no code.
func BenchmarkAblationProtocol(b *testing.B) {
	for _, name := range []string{"msi", "mesi", "moesi"} {
		b.Run(name, func(b *testing.B) {
			nodes := []core.NodeConfig{
				{Name: "a", CPUs: []int{0, 1, 2, 3}, Geometry: addr.MustGeometry(8*addr.MB, 128, 4), Policy: cache.LRU, Protocol: protocols.MustLoad(name)},
				{Name: "b", CPUs: []int{4, 5, 6, 7}, Geometry: addr.MustGeometry(8*addr.MB, 128, 4), Policy: cache.LRU, Protocol: protocols.MustLoad(name)},
			}
			board := core.MustNewBoard(core.Config{Nodes: nodes})
			gen := workload.NewZipfian(workload.ZipfConfig{NumCPUs: 8, FootprintByte: 64 * addr.MB, WriteFraction: 0.4, Seed: 5})
			cycle := uint64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref, _ := gen.Next()
				cmd := bus.Read
				if ref.Write {
					cmd = bus.RWITM
				}
				cycle += 48
				board.Snoop(&bus.Transaction{Cmd: cmd, Addr: ref.Addr, Size: 128, SrcID: ref.CPU, Cycle: cycle})
			}
			board.Flush()
			wb := board.Counters().Value("nodea.writeback") + board.Counters().Value("nodeb.writeback")
			b.ReportMetric(float64(wb)/float64(b.N), "writebacks/op")
		})
	}
}

// AblationBufferDepth sweeps the transaction-buffer depth under a bursty
// arrival pattern and reports how often it would have overflowed — the
// paper's 512 entries exist precisely to make this number zero at real
// utilizations.
func BenchmarkAblationBufferDepth(b *testing.B) {
	for _, depth := range []int{16, 64, 512} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			bcfg := SingleL3Board(64*MB, 8, 128)
			bcfg.BufferDepth = depth
			board := core.MustNewBoard(bcfg)
			rng := workload.NewRNG(9)
			cycle := uint64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Bursty: clumps of back-to-back ops, then a gap.
				if i%64 < 48 {
					cycle += 2
				} else {
					cycle += 180
				}
				board.Snoop(&bus.Transaction{Cmd: bus.Read, Addr: uint64(rng.Intn(1<<28)) &^ 127, Size: 128, SrcID: int(rng.Intn(8)), Cycle: cycle})
			}
			board.Flush()
			b.ReportMetric(float64(board.Counters().Value("buffer.overflow"))/float64(b.N), "overflow/op")
		})
	}
}

// AblationReplacement compares the replacement policies on a skewed
// stream.
func BenchmarkAblationReplacement(b *testing.B) {
	for _, pol := range []cache.Policy{cache.LRU, cache.PLRU, cache.FIFO, cache.Random} {
		b.Run(pol.String(), func(b *testing.B) {
			bcfg := SingleL3Board(8*MB, 8, 128)
			bcfg.Nodes[0].Policy = pol
			board := core.MustNewBoard(bcfg)
			gen := workload.NewZipfian(workload.ZipfConfig{NumCPUs: 8, FootprintByte: 64 * addr.MB, Seed: 5})
			cycle := uint64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref, _ := gen.Next()
				cycle += 48
				board.Snoop(&bus.Transaction{Cmd: bus.Read, Addr: ref.Addr, Size: 128, SrcID: ref.CPU, Cycle: cycle})
			}
			board.Flush()
			b.ReportMetric(board.Node(0).MissRatio(), "missratio")
		})
	}
}

// AblationInclusive quantifies the §3.4 passive (non-inclusive)
// limitation: the same raw stream through a board-style passive L2+L3
// model and an inclusive oracle, reporting the miss-ratio divergence.
func BenchmarkAblationInclusive(b *testing.B) {
	s := simbase.MustNewInclusiveSim(simbase.InclusiveConfig{
		NumCPUs: 8,
		L2:      addr.MustGeometry(64*addr.KB, 128, 2),
		L3:      addr.MustGeometry(512*addr.KB, 128, 4),
		Policy:  cache.LRU,
	})
	gen := workload.NewZipfian(workload.ZipfConfig{
		NumCPUs: 8, FootprintByte: 16 * addr.MB, Skew: 1.4, Seed: 3,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, _ := gen.Next()
		s.Reference(ref.Addr&^127, ref.CPU)
	}
	b.ReportMetric(s.Stats().Divergence(), "divergence")
}

// AblationLockStep quantifies the cost of the board's lock-step design
// (§3.1): a four-node lock-step board must wait for the slowest node's
// SDRAM on every transaction, while four independent single-node boards
// pace themselves. The metric is worst-case queue depth under the same
// bursty stream — the pressure the 512-entry buffers absorb.
func BenchmarkAblationLockStep(b *testing.B) {
	mkNodes := func(n int) []core.NodeConfig {
		var nodes []core.NodeConfig
		for i := 0; i < n; i++ {
			nodes = append(nodes, core.NodeConfig{
				Name:     string(rune('a' + i)),
				CPUs:     benchCPUs(),
				Geometry: addr.MustGeometry(int64(8<<i)*addr.MB, 128, 4),
				Policy:   cache.LRU,
				Protocol: protocols.MustLoad("mesi"),
				Group:    i,
			})
		}
		return nodes
	}
	feed := func(b *testing.B, boards []*core.Board) {
		rng := workload.NewRNG(9)
		cycle := uint64(0)
		var maxDepth int
		for i := 0; i < b.N; i++ {
			if i%64 < 48 {
				cycle += 3
			} else {
				cycle += 200
			}
			tx := bus.Transaction{Cmd: bus.Read, Addr: uint64(rng.Intn(1<<28)) &^ 127, Size: 128, SrcID: int(rng.Intn(8)), Cycle: cycle}
			depth := 0
			for _, board := range boards {
				t := tx
				board.Snoop(&t)
				if d := board.PendingDepth(); d > depth {
					depth = d
				}
			}
			if depth > maxDepth {
				maxDepth = depth
			}
		}
		for _, board := range boards {
			board.Flush()
		}
		b.ReportMetric(float64(maxDepth), "maxqueue")
	}
	b.Run("lockstep4", func(b *testing.B) {
		board := core.MustNewBoard(core.Config{Nodes: mkNodes(4)})
		b.ResetTimer()
		feed(b, []*core.Board{board})
	})
	b.Run("freerunning4x1", func(b *testing.B) {
		var boards []*core.Board
		for i := 0; i < 4; i++ {
			boards = append(boards, core.MustNewBoard(core.Config{Nodes: mkNodes(4)[i : i+1]}))
		}
		b.ResetTimer()
		feed(b, boards)
	})
}

// AblationSDRAMPacing compares tag-store timings: the stock 42%-of-bus
// model against a hypothetical full-speed SDRAM, measuring queue pressure.
func BenchmarkAblationSDRAMPacing(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  sdram.Config
	}{
		{"stock42pct", sdram.DefaultConfig()},
		{"fullspeed", sdram.Config{Banks: 16, ChannelGap: 1, BankBusy: 2}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			bcfg := SingleL3Board(64*MB, 8, 128)
			bcfg.Nodes[0].SDRAM = tc.cfg
			board := core.MustNewBoard(bcfg)
			rng := workload.NewRNG(9)
			cycle := uint64(0)
			var maxDepth int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%64 < 48 {
					cycle += 2
				} else {
					cycle += 180
				}
				board.Snoop(&bus.Transaction{Cmd: bus.Read, Addr: uint64(rng.Intn(1<<28)) &^ 127, Size: 128, SrcID: int(rng.Intn(8)), Cycle: cycle})
				if d := board.PendingDepth(); d > maxDepth {
					maxDepth = d
				}
			}
			board.Flush()
			b.ReportMetric(float64(maxDepth), "maxqueue")
		})
	}
}
