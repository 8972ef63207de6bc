// Benchmarks: one per paper table/figure (regenerating its measurement
// kernel at per-iteration granularity) plus ablations for the design
// decisions called out in DESIGN.md §4. Run with:
//
//	go test -bench=. -benchmem .
//
// The per-experiment benches measure the simulation machinery's
// throughput (how fast this reproduction regenerates the paper's data);
// domain metrics (miss ratios, overflow counts) are attached via
// b.ReportMetric so regressions in *results*, not just speed, show up.
package memories

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"runtime"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/checkpoint"
	"memories/internal/coherence"
	"memories/internal/core"
	"memories/internal/host"
	"memories/internal/obs"
	"memories/internal/sdram"
	"memories/internal/simbase"
	"memories/internal/tracefile"
	"memories/internal/workload"
	"memories/internal/workload/splash"
	"memories/protocols"
)

func benchCPUs() []int { return []int{0, 1, 2, 3, 4, 5, 6, 7} }

// --- Table 3: trace-driven C simulator vs the board ---

func BenchmarkTable3TraceSim(b *testing.B) {
	sim := simbase.MustNewTraceSim([]simbase.TraceNodeConfig{{
		CPUs:     benchCPUs(),
		Geometry: addr.MustGeometry(64*addr.MB, 128, 4),
		Policy:   cache.LRU,
		Protocol: protocols.MustLoad("mesi"),
	}})
	gen := workload.NewZipfian(workload.ZipfConfig{NumCPUs: 8, FootprintByte: 1 * addr.GB, WriteFraction: 0.3, Seed: 7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, _ := gen.Next()
		cmd := bus.Read
		if ref.Write {
			cmd = bus.RWITM
		}
		sim.Process(tracefile.Record{Addr: ref.Addr &^ 7, Cmd: cmd, SrcID: uint8(ref.CPU)})
	}
	b.ReportMetric(sim.NodeStats(0).MissRatio(), "missratio")
}

// zipfStream pre-generates n line-aligned bus transactions (reads, and
// RWITMs for the generator's writes) so a benchmark loop times the board
// and not gen.Next(). Cycles are left for the loop to stamp.
func zipfStream(n int, cfg workload.ZipfConfig) []bus.Transaction {
	gen := workload.NewZipfian(cfg)
	txs := make([]bus.Transaction, n)
	for i := range txs {
		ref, _ := gen.Next()
		cmd := bus.Read
		if ref.Write {
			cmd = bus.RWITM
		}
		txs[i] = bus.Transaction{Cmd: cmd, Addr: ref.Addr &^ 127, Size: 128, SrcID: ref.CPU}
	}
	return txs
}

// table3Stream is the reference stream BenchmarkTable3BoardSnoop and
// BenchmarkSnoopBatch share.
func table3Stream() []bus.Transaction {
	return zipfStream(1<<16, workload.ZipfConfig{NumCPUs: 8, FootprintByte: 1 * addr.GB, WriteFraction: 0.3, Seed: 7})
}

func BenchmarkTable3BoardSnoop(b *testing.B) {
	board := core.MustNewBoard(SingleL3Board(64*MB, 4, 128))
	txs := table3Stream()
	cycle := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := &txs[i&(len(txs)-1)]
		cycle += 48 // ~20% utilization arrival spacing
		tx.Cycle = cycle
		board.Snoop(tx)
	}
	board.Flush()
	b.ReportMetric(board.Node(0).MissRatio(), "missratio")
}

// --- ISSUE 10: compiled protocol engine ---

// protocolLookupSequence is a fixed pseudo-random walk over the cells a
// MESI controller actually visits.
func protocolLookupSequence() []struct {
	op coherence.Op
	st coherence.State
	sn coherence.SnoopIn
} {
	type cell = struct {
		op coherence.Op
		st coherence.State
		sn coherence.SnoopIn
	}
	tab := protocols.MustLoad("mesi")
	var seq []cell
	x := uint64(0x9e3779b97f4a7c15)
	for len(seq) < 1024 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		op := coherence.Op(x % uint64(coherence.NumOps))
		st := coherence.State((x >> 8) % uint64(coherence.NumStates))
		sn := coherence.SnoopIn((x >> 16) % uint64(coherence.NumSnoopIns))
		if _, ok := tab.Lookup(op, st, sn); !ok {
			continue // MESI leaves Owned undefined
		}
		seq = append(seq, cell{op, st, sn})
	}
	return seq
}

// BenchmarkProtocolEngineLookup is the hot-path cost the board pays per
// transition with the compiled engine (the node controller's table
// walk, §3.2). Must stay 0 allocs/op (benchdiff gate).
func BenchmarkProtocolEngineLookup(b *testing.B) {
	eng, err := coherence.Compile(protocols.MustLoad("mesi"))
	if err != nil {
		b.Fatal(err)
	}
	seq := protocolLookupSequence()
	var sink coherence.State
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := seq[i&(len(seq)-1)]
		sink = eng.Lookup(c.op, c.st, c.sn).Next
	}
	_ = sink
}

// BenchmarkProtocolCheck prices the exhaustive model check a protocol
// pays once at load time (three caches, full reachable state space).
func BenchmarkProtocolCheck(b *testing.B) {
	tab := protocols.MustLoad("mesi")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := coherence.Check(tab); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ISSUE 5: observability overhead on the Table 3 snoop kernel ---

// BenchmarkObsOverhead measures the live-observability tax on the exact
// Table3BoardSnoop kernel: detached (no registry), attached with
// tracing off (the steady state the ≤2% budget applies to), and
// attached with tracing on (ring writes included). All three must stay
// zero-allocation; detached vs attached-off is the gated delta.
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, attach, traceOn bool) {
		board := core.MustNewBoard(SingleL3Board(64*MB, 4, 128))
		if attach {
			reg := obs.NewRegistry()
			hub := obs.NewTraceHub(io.Discard)
			if err := board.Observe(reg, hub, "bench", 1<<14); err != nil {
				b.Fatal(err)
			}
			if traceOn {
				board.Tracer().Enable(obs.Filter{})
			}
		}
		gen := workload.NewZipfian(workload.ZipfConfig{NumCPUs: 8, FootprintByte: 1 * addr.GB, WriteFraction: 0.3, Seed: 7})
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
		b.ReportMetric(board.Node(0).MissRatio(), "missratio")
	}
	b.Run("detached", func(b *testing.B) { run(b, false, false) })
	b.Run("attached-trace-off", func(b *testing.B) { run(b, true, false) })
	b.Run("attached-trace-on", func(b *testing.B) { run(b, true, true) })
}

// --- Table 2 bigmem corner: the paper's largest advertised config ---

// bigmemFlag gates the fully allocated 8 GB directory benchmark, which
// commits ~512 MB of packed tag words. Run with:
//
//	go test -run '^$' -bench Table2BigMem -bigmem .
var bigmemFlag = flag.Bool("bigmem", false, "enable the fully allocated 8 GB directory benchmark")

// BenchmarkTable2BigMemSnoop measures snoop throughput against the 8 GB,
// 128 B-line Table 2 corner with the directory fully resident — the
// configuration whose footprint the packed single-word layout exists to
// make practical (64M slots x 8 B = 512 MB, vs ~1.1 GB across the old
// parallel arrays). The random working set spans the whole 8 GB so
// probes walk the full packed array.
func BenchmarkTable2BigMemSnoop(b *testing.B) {
	if !*bigmemFlag {
		b.Skip("pass -bigmem to run the 8 GB fully allocated directory benchmark")
	}
	board := core.MustNewBoard(SingleL3Board(8*GB, 1, 128))
	// Commit the whole directory up front: one fill per slot.
	cycle := uint64(0)
	slots := board.DirectorySlots(0)
	for i := int64(0); i < slots; i++ {
		cycle += 24
		board.Snoop(&bus.Transaction{Cmd: bus.Read, Addr: uint64(i) * 128, Size: 128, SrcID: 0, Cycle: cycle})
	}
	board.Flush()
	if board.DirectoryResident(0) != slots {
		b.Fatalf("directory not fully resident: %d of %d", board.DirectoryResident(0), slots)
	}
	gen := workload.NewZipfian(workload.ZipfConfig{NumCPUs: 8, FootprintByte: 8 * addr.GB, WriteFraction: 0.3, Seed: 7})
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
	b.ReportMetric(board.Node(0).MissRatio(), "missratio")
	b.ReportMetric(float64(board.DirectoryBytes(0))/float64(slots), "B/slot")
}

// --- Table 4: execution-driven simulation ---

func BenchmarkTable4Augmint(b *testing.B) {
	cfg := simbase.DefaultAugmintConfig()
	cfg.WorkPerInstr = 400
	aug, err := simbase.NewAugmint(cfg)
	if err != nil {
		b.Fatal(err)
	}
	fft := splash.NewFFT(splash.FFTConfig{NumCPUs: 8, M: 16, Seed: 3})
	b.ResetTimer()
	aug.Run(fft, uint64(b.N))
	if aug.Checksum() == 0 && b.N > 10 {
		b.Fatal("interpreter work eliminated")
	}
}

func BenchmarkTable4HostRealTime(b *testing.B) {
	h := host.MustNew(host.DefaultConfig(), splash.NewFFT(splash.FFTConfig{NumCPUs: 8, M: 16, Seed: 3}))
	b.ResetTimer()
	h.Run(uint64(b.N))
	b.ReportMetric(h.EstimatedRuntimeSeconds(), "modelsec")
}

// --- Figures 8/9: database cache sweeps ---

func benchHostBoard(b *testing.B, bcfg core.Config, gen workload.Generator) (*core.Board, *host.Host) {
	b.Helper()
	hcfg := host.DefaultConfig()
	hcfg.L2Bytes = 1 * addr.MB
	hcfg.L2Assoc = 1
	board := core.MustNewBoard(bcfg)
	h := host.MustNew(hcfg, gen)
	h.Bus().Attach(board)
	return board, h
}

func BenchmarkFig8MultiConfigSweep(b *testing.B) {
	bcfg := MultiConfigBoard(benchCPUs(), 128, 8, 2*MB, 4*MB, 8*MB, 16*MB)
	board, h := benchHostBoard(b, bcfg, workload.NewTPCC(workload.ScaledTPCCConfig(2048)))
	b.ResetTimer()
	h.Run(uint64(b.N))
	board.Flush()
	b.ReportMetric(board.Node(3).MissRatio(), "missratio16MB")
}

func BenchmarkFig9FourNodePartition(b *testing.B) {
	var nodes []core.NodeConfig
	for n := 0; n < 4; n++ {
		nodes = append(nodes, core.NodeConfig{
			Name:     string(rune('a' + n)),
			CPUs:     []int{n * 2, n*2 + 1},
			Geometry: addr.MustGeometry(4*addr.MB, 128, 8),
			Policy:   cache.LRU,
			Protocol: protocols.MustLoad("mesi"),
		})
	}
	board, h := benchHostBoard(b, core.Config{Nodes: nodes}, workload.NewTPCC(workload.ScaledTPCCConfig(2048)))
	b.ResetTimer()
	h.Run(uint64(b.N))
	board.Flush()
}

// --- Figure 10: miss-ratio profiling with the journaling disturbance ---

func BenchmarkFig10ProfiledRun(b *testing.B) {
	gen := workload.WithDisturbance(
		workload.NewTPCC(workload.ScaledTPCCConfig(2048)),
		workload.DisturbanceConfig{PeriodRefs: 400_000, BurstRefs: 40_000, JournalBytes: 64 * addr.MB})
	bcfg := SingleL3Board(64*MB, 8, 128)
	bcfg.ProfileBucketCycles = 2_000_000
	board, h := benchHostBoard(b, bcfg, gen)
	b.ResetTimer()
	h.Run(uint64(b.N))
	board.Flush()
}

// --- Tables 5/6: SPLASH2 kernels through the host ---

func BenchmarkTable5SplashHost(b *testing.B) {
	for _, name := range splash.Names() {
		b.Run(name, func(b *testing.B) {
			h := host.MustNew(host.DefaultConfig(), splash.New(name, splash.SizePaper, 8, 3))
			b.ResetTimer()
			h.Run(uint64(b.N))
			st := h.Stats()
			if st.Instructions > 0 {
				b.ReportMetric(float64(st.L2Misses)/float64(st.Instructions)*1000, "missper1000instr")
			}
		})
	}
}

func BenchmarkTable6ClassicSizes(b *testing.B) {
	hcfg := host.DefaultConfig()
	hcfg.L2Bytes = 1 * addr.MB
	hcfg.L2Assoc = 4
	h := host.MustNew(hcfg, splash.New(splash.NameOcean, splash.SizeClassic, 8, 3))
	b.ResetTimer()
	h.Run(uint64(b.N))
}

// --- Figure 11: L3 sweep over a SPLASH2 kernel ---

func BenchmarkFig11BarnesSweep(b *testing.B) {
	hcfg := host.DefaultConfig()
	hcfg.L1Bytes = 16 * addr.KB
	hcfg.L2Bytes = 256 * addr.KB
	bcfg := MultiConfigBoard(benchCPUs(), 128, 4, 512*KB, 1*MB, 2*MB, 4*MB)
	board := core.MustNewBoard(bcfg)
	h := host.MustNew(hcfg, splash.New(splash.NameBarnes, splash.SizeClassic, 8, 3))
	h.Bus().Attach(board)
	b.ResetTimer()
	h.Run(uint64(b.N))
	board.Flush()
}

// --- Figure 12: multi-node intervention breakdown ---

func BenchmarkFig12FMMTwoNode(b *testing.B) {
	nodes := []core.NodeConfig{
		{Name: "a", CPUs: []int{0, 1, 2, 3}, Geometry: addr.MustGeometry(64*addr.MB, 1024, 4), Policy: cache.LRU, Protocol: protocols.MustLoad("mesi")},
		{Name: "b", CPUs: []int{4, 5, 6, 7}, Geometry: addr.MustGeometry(64*addr.MB, 1024, 4), Policy: cache.LRU, Protocol: protocols.MustLoad("mesi")},
	}
	board := core.MustNewBoard(core.Config{Nodes: nodes})
	h := host.MustNew(host.DefaultConfig(), splash.New(splash.NameFMM, splash.SizeClassic, 8, 3))
	h.Bus().Attach(board)
	b.ResetTimer()
	h.Run(uint64(b.N))
	board.Flush()
	v := board.Node(0)
	if tot := v.SatL3 + v.SatModInt + v.SatShrInt + v.SatMemory; tot > 0 {
		b.ReportMetric(float64(v.SatModInt+v.SatShrInt)/float64(tot), "interventionfrac")
	}
}

// --- Ablations (DESIGN.md §4) ---

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

// --- Sustained snoop throughput ---

// BenchmarkBoardSustainedTxPerSec is the raw-speed gate: a four-node
// board driven flat-out through Board.SnoopBatch, the ingest path trace
// replay and the session service use. The tx/s metric is gated
// higher-is-better in CI (benchdiff -gate-up), so once a rate is in the
// baseline it becomes a floor — the board's real-time claim, ratcheted.
// Run with -cpu 8 so the key matches the CI baseline regardless of the
// runner's core count.
func BenchmarkBoardSustainedTxPerSec(b *testing.B) {
	const mask, batch = 1<<16 - 1, 256
	txs := zipfStream(mask+1, workload.ZipfConfig{NumCPUs: 8, FootprintByte: 64 * addr.MB, WriteFraction: 0.3, Seed: 7})
	var nodes []core.NodeConfig
	for i := 0; i < 4; i++ {
		nodes = append(nodes, core.NodeConfig{
			Name:     string(rune('a' + i)),
			CPUs:     []int{2 * i, 2*i + 1},
			Geometry: addr.MustGeometry(16*addr.MB, 128, 8),
			Policy:   cache.LRU,
			Protocol: protocols.MustLoad("mesi"),
		})
	}
	board := core.MustNewBoard(core.Config{Nodes: nodes})
	cycle := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		base := done & mask // batch divides the stream length: no wrap inside a chunk
		chunk := txs[base : base+min(batch, b.N-done)]
		for i := range chunk {
			cycle += 48
			chunk[i].Cycle = cycle
		}
		board.SnoopBatch(chunk)
	}
	board.Flush()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tx/s")
}

// --- Trace pipeline (ISSUE 3): format codecs and batched ingest ---

// benchTraceRecords builds a bus-realistic record stream: Zipfian
// addresses (so v2 deltas have real-trace statistics, not best-case
// strides) with the Table 3 command mix.
func benchTraceRecords(n int) []tracefile.Record {
	gen := workload.NewZipfian(workload.ZipfConfig{NumCPUs: 8, FootprintByte: 1 * addr.GB, WriteFraction: 0.3, Seed: 7})
	recs := make([]tracefile.Record, n)
	for i := range recs {
		ref, _ := gen.Next()
		cmd := bus.Read
		if ref.Write {
			cmd = bus.RWITM
		}
		recs[i] = tracefile.Record{Addr: ref.Addr &^ 127, Cmd: cmd, SrcID: uint8(ref.CPU)}
	}
	return recs
}

func benchTraceWrite(b *testing.B, format tracefile.Format) {
	recs := benchTraceRecords(1 << 16)
	var buf bytes.Buffer
	w, err := tracefile.NewWriterFormat(&buf, format)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(1<<16-1) == 0 && i > 0 {
			// Restart the sink so memory stays bounded at any b.N; the
			// reset cost is amortized over 64Ki records.
			b.StopTimer()
			buf.Reset()
			w, _ = tracefile.NewWriterFormat(&buf, format)
			b.StartTimer()
		}
		if err := w.Write(recs[i&(1<<16-1)]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(buf.Len())/float64((b.N-1)&(1<<16-1)+1), "bytes/record")
}

func BenchmarkTraceWriteV1(b *testing.B) { benchTraceWrite(b, tracefile.FormatV1) }
func BenchmarkTraceWriteV2(b *testing.B) { benchTraceWrite(b, tracefile.FormatV2) }

func benchTraceRead(b *testing.B, format tracefile.Format) {
	recs := benchTraceRecords(1 << 16)
	var buf bytes.Buffer
	w, err := tracefile.NewWriterFormat(&buf, format)
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	var sink uint64
	b.SetBytes(int64(len(data) / len(recs)))
	b.ResetTimer()
	var r tracefile.RecordReader
	for i := 0; i < b.N; i++ {
		if i&(1<<16-1) == 0 {
			var err error
			if r, err = tracefile.Open(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
		rec, err := r.Next()
		if err != nil {
			b.Fatal(err)
		}
		sink += rec.Addr
	}
	b.StopTimer()
	// ns/rec mirrors ns/op here (one op is one record); it exists so the
	// benchdiff ratio gate can compare this against the pipeline
	// benchmark below, whose op is a whole stream pass.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/rec")
	if sink == 0 && b.N > 1 {
		b.Fatal("decode eliminated")
	}
}

func BenchmarkTraceReadV1(b *testing.B) { benchTraceRead(b, tracefile.FormatV1) }
func BenchmarkTraceReadV2(b *testing.B) { benchTraceRead(b, tracefile.FormatV2) }

// BenchmarkTraceReadV2Pipeline measures the production decode path —
// tracefile.ForEachBatch with GOMAXPROCS decode workers — over the same
// record stream as BenchmarkTraceReadV1/V2. Run it with -cpu 1,2,4 to
// see block-level decode parallelism; the CI gate requires its ns/rec
// to beat the v1 per-record reader by at least 2x at the runner's core
// count.
//
// Each pass decodes the full 64Ki-record stream, so at fixed small
// -benchtime=Nx the ns/op column overstates per-record cost; the ns/rec
// metric divides by the records actually decoded and is accurate at any
// -benchtime. Gate on ns/rec, not ns/op.
func BenchmarkTraceReadV2Pipeline(b *testing.B) {
	recs := benchTraceRecords(1 << 16)
	var buf bytes.Buffer
	w, err := tracefile.NewWriterFormat(&buf, tracefile.FormatV2)
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	workers := runtime.GOMAXPROCS(0)
	var sink, processed uint64
	b.ResetTimer()
	for processed < uint64(b.N) {
		n, err := tracefile.ForEachBatch(bytes.NewReader(data), workers, func(batch []tracefile.Record) error {
			for i := range batch {
				sink += batch[i].Addr
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		processed += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(processed), "ns/rec")
	b.ReportMetric(float64(workers), "workers")
	if sink == 0 {
		b.Fatal("decode eliminated")
	}
}

// BenchmarkSnoopBatch is the batched counterpart of
// BenchmarkTable3BoardSnoop: dir=4MB is the same board and stream,
// ingested through Board.SnoopBatch in feeder-sized chunks. ns/op is per
// transaction, so the delta against Table3BoardSnoop is the per-call
// dispatch overhead the batch path removes. dir=128MB is the 2 GB/8-way
// board under a near-uniform 16 GB stream (the bench driver's
// replay_l3_2g): nearly every set lookup misses the host's caches, so
// this is where SnoopBatch's look-ahead loads show. The stream is
// replayed once before the timer starts so the directory's pages are
// faulted in and the emulated cache is warm.
func BenchmarkSnoopBatch(b *testing.B) {
	b.Run("dir=4MB", func(b *testing.B) {
		benchSnoopBatch(b, core.MustNewBoard(SingleL3Board(64*MB, 4, 128)), table3Stream(), false)
	})
	b.Run("dir=128MB", func(b *testing.B) {
		txs := zipfStream(1<<20, workload.ZipfConfig{NumCPUs: 8, FootprintByte: 16 * addr.GB, Skew: 1.01, WriteFraction: 0.3, Seed: 7})
		benchSnoopBatch(b, core.MustNewBoard(SingleL3Board(2*GB, 8, 128)), txs, true)
	})
}

func benchSnoopBatch(b *testing.B, board *core.Board, txs []bus.Transaction, warm bool) {
	const batch = 256 // divides the stream length: no wrap inside a chunk
	cycle := uint64(0)
	replay := func(n int) {
		for done := 0; done < n; done += batch {
			base := done & (len(txs) - 1)
			chunk := txs[base : base+min(batch, n-done)]
			for i := range chunk {
				cycle += 48
				chunk[i].Cycle = cycle
			}
			board.SnoopBatch(chunk)
		}
		board.Flush()
	}
	if warm {
		replay(len(txs))
	}
	b.ResetTimer()
	replay(b.N)
	b.ReportMetric(board.Node(0).MissRatio(), "missratio")
}

// --- Checkpoint serialization (crash-safe snapshots) ---

// warmedCheckpointBoard is the 2 MB board both checkpoint benchmarks
// serialize, after 64 Ki Zipf transactions.
func warmedCheckpointBoard() *core.Board {
	board := core.MustNewBoard(SingleL3Board(2*MB, 4, 128))
	gen := workload.NewZipfian(workload.ZipfConfig{NumCPUs: 8, FootprintByte: 64 * addr.MB, WriteFraction: 0.3, Seed: 7})
	cycle := uint64(0)
	for i := 0; i < 1<<16; i++ {
		ref, _ := gen.Next()
		cmd := bus.Read
		if ref.Write {
			cmd = bus.RWITM
		}
		cycle += 48
		board.Snoop(&bus.Transaction{Cmd: cmd, Addr: ref.Addr, Size: 128, SrcID: ref.CPU, Cycle: cycle})
	}
	board.Flush()
	return board
}

// BenchmarkCheckpointWrite measures full-board snapshot serialization —
// packed directory words, tag-store timing state, and the counter bank
// through the section-framed container (CRC-32 per section plus the
// whole-file digest). SetBytes makes the MB/s column the gated metric:
// a checkpoint of the warmed 2 MB board must not get slower to produce,
// since cmd/experiments and cmd/tracesim write these at every
// -checkpoint-every boundary.
func BenchmarkCheckpointWrite(b *testing.B) {
	board := warmedCheckpointBoard()
	var buf bytes.Buffer
	if err := board.WriteCheckpoint(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := board.WriteCheckpoint(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRestore is the other direction: verify the
// container (both CRC layers) and load it into a fresh board, the cost
// every -resume pays before the first transaction.
func BenchmarkCheckpointRestore(b *testing.B) {
	var buf bytes.Buffer
	if err := warmedCheckpointBoard().WriteCheckpoint(&buf); err != nil {
		b.Fatal(err)
	}
	fresh := core.MustNewBoard(SingleL3Board(2*MB, 4, 128))
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := checkpoint.Decode(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.RestoreBoard(fresh, snap); err != nil {
			b.Fatal(err)
		}
	}
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

// --- Discrete-event host: the event-wheel scheduler (DESIGN.md §4e) ---

// BenchmarkHostStep measures the merged-stream host's per-reference step
// and reports emulated bus cycles per wall-clock second — the rate
// real-time emulation lives or dies by. emc/s is gated HIGHER-is-better
// in the throughput job.
func BenchmarkHostStep(b *testing.B) {
	h := host.MustNew(host.DefaultConfig(), workload.NewTPCC(workload.ScaledTPCCConfig(4096)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Step()
	}
	b.ReportMetric(float64(h.Bus().Cycle())/b.Elapsed().Seconds(), "emc/s")
}

// computeGen spaces a stream's references out in emulated time (each
// ref stands for instrScale times more computation) and relocates them
// to a private region, so the bus settles into the low-utilization band
// (~10-15% busy) the wheel targets — the regime where lock-step polling
// wastes almost every cycle evaluation.
type computeGen struct {
	workload.Generator
	offset     uint64
	instrScale uint64
}

func (g computeGen) Next() (workload.Ref, bool) {
	r, ok := g.Generator.Next()
	r.Addr += g.offset
	r.Instrs *= g.instrScale
	return r, ok
}

// benchPerCPUHost builds the scaling benchmark's machine: `active`
// compute-heavy Zipf streams inside an ncpu-way SMP, each over its own
// region with a tail that spills the 1MB L2 — sustained sparse misses,
// not cold-start or ping-pong saturation.
func benchPerCPUHost(ncpu, active int, engine host.Engine) *host.Host {
	cfg := host.DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.L1Bytes = 32 * addr.KB
	cfg.L2Bytes = 1 * addr.MB
	cfg.IOFraction = 0
	streams := make([]workload.Generator, ncpu)
	for i := 0; i < active; i++ {
		streams[i] = computeGen{
			Generator: workload.NewZipfian(workload.ZipfConfig{
				NumCPUs:       1,
				FootprintByte: 2 * addr.MB,
				WriteFraction: 0.2,
				Seed:          11 + uint64(i),
			}),
			offset:     uint64(i+1) << 30,
			instrScale: 24,
		}
	}
	return host.MustNewPerCPU(cfg, streams, engine)
}

// hostScaleFlag keeps the scaling suite out of the default `-bench .`
// sweep: one op emulates a 50k-cycle slab (up to ~20ms on the lock-step
// side), so the stock 20000x BENCHTIME would take minutes. The bench and
// throughput Make targets run it explicitly:
//
//	go test -run '^$' -bench HostStepScaling -hostscale -benchtime 30x .
var hostScaleFlag = flag.Bool("hostscale", false, "enable the host event-wheel scaling suite (multi-ms ops; pair with a small -benchtime)")

// BenchmarkHostStepScaling is the scheduler scaling gate: the same 8
// busy streams inside machines of growing size, under both per-CPU
// engines. One benchmark op advances the emulation by a fixed slab of
// bus cycles, so ns/op is directly the cost of emulated time and the
// two derived metrics feed the CI gates: ns/emc (lower is better)
// drives the cross-engine ratio gate — the wheel must beat lock-step
// polling by >=10x at 256 CPUs — and emc/s is the ratcheted
// emulated-cycles-per-second floor.
func BenchmarkHostStepScaling(b *testing.B) {
	if !*hostScaleFlag {
		b.Skip("pass -hostscale to run the event-wheel scaling suite (use a small -benchtime like 30x)")
	}
	const active = 8
	const slab = 50_000 // emulated bus cycles per op
	for _, eng := range []struct {
		name   string
		engine host.Engine
	}{
		{"wheel", host.EngineWheel},
		{"lockstep", host.EngineLockStep},
	} {
		for _, ncpu := range []int{8, 64, 256} {
			b.Run(fmt.Sprintf("engine=%s/cpus=%d", eng.name, ncpu), func(b *testing.B) {
				h := benchPerCPUHost(ncpu, active, eng.engine)
				var target uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					target += slab
					h.RunCycles(target)
				}
				sec := b.Elapsed().Seconds()
				emc := float64(target)
				b.ReportMetric(emc/sec, "emc/s")
				b.ReportMetric(sec*1e9/emc, "ns/emc")
				b.ReportMetric(h.Bus().Utilization()*100, "busbusy%")
			})
		}
	}
}
