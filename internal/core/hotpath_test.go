package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/host"
	"memories/internal/workload"
	"memories/protocols"
)

// fourNodeConfig is a four-node, two-group board with mixed geometries:
// group 0 partitions the eight CPUs into two nodes, group 1 is an
// independent alternative configuration of the same machine.
func fourNodeConfig() Config {
	mk := func(name string, cpus []int, size int64, assoc, group int) NodeConfig {
		return NodeConfig{
			Name:     name,
			CPUs:     cpus,
			Geometry: addr.MustGeometry(size, 128, assoc),
			Policy:   cache.LRU,
			Protocol: protocols.MustLoad("mesi"),
			Group:    group,
		}
	}
	return Config{Nodes: []NodeConfig{
		mk("a", []int{0, 1, 2, 3}, 2*addr.MB, 4, 0),
		mk("b", []int{4, 5, 6, 7}, 2*addr.MB, 4, 0),
		mk("c", []int{0, 1, 2, 3}, 8*addr.MB, 8, 1),
		mk("d", []int{4, 5, 6, 7}, 4*addr.MB, 2, 1),
	}}
}

// fourNodeStream builds a deterministic transaction stream with the
// full command mix the address filter must handle: reads, write misses,
// castouts, and non-memory traffic.
func fourNodeStream(n int) []bus.Transaction {
	gen := workload.NewZipfian(workload.ZipfConfig{
		NumCPUs: 8, FootprintByte: 64 * addr.MB, WriteFraction: 0.3, Seed: 21,
	})
	txs := make([]bus.Transaction, 0, n)
	cycle := uint64(0)
	for i := 0; i < n; i++ {
		ref, _ := gen.Next()
		cycle += 48
		cmd := bus.Read
		switch {
		case i%31 == 0:
			cmd = bus.IORead
		case i%17 == 0:
			cmd = bus.Castout
		case ref.Write:
			cmd = bus.RWITM
		}
		txs = append(txs, bus.Transaction{
			Seq: uint64(i), Cycle: cycle, Cmd: cmd,
			Addr: ref.Addr &^ 127, Size: 128, SrcID: ref.CPU,
		})
	}
	return txs
}

func diffSnapshots(t *testing.T, want, got map[string]uint64, label string) {
	t.Helper()
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s: counter %s = %d, want %d", label, name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: unexpected counter %s", label, name)
		}
	}
}

// checkpointDigest is the SHA-256 of the board's checkpoint stream: every
// directory word (LRU ranks and check bytes included), the structural
// cache.Stats, the tag-store timing state and the counter bank. The board
// must be flushed.
func checkpointDigest(t *testing.T, b *Board) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := b.WriteCheckpoint(h); err != nil {
		t.Fatal(err)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// drainEvent is one directory operation as the drain observer saw it.
type drainEvent struct {
	seq, cycle uint64
	cmd        bus.Command
	addr       uint64
	src        int
}

// TestSnoopBatchMatchesSerial proves the batched ingest is bit-identical
// to per-transaction Snoop: same counters (every one, including buffer
// telemetry — a single board sees the same occupancy either way), same
// drain log, same trace capture, and the same checkpoint bytes — so the
// look-ahead loads and the carried slots changed no word, rank or
// structural statistic — for batch sizes on both sides of the look-ahead
// window and several feature configurations.
func TestSnoopBatchMatchesSerial(t *testing.T) {
	const n = 60_000
	txs := fourNodeStream(n)

	configs := map[string]func() Config{
		"base": fourNodeConfig,
		"trace": func() Config {
			cfg := fourNodeConfig()
			cfg.TraceCapacity = 4096
			return cfg
		},
		"scrub": func() Config {
			cfg := fourNodeConfig()
			cfg.ECC = true
			cfg.ScrubIntervalCycles = 50_000
			return cfg
		},
		"tiny-buffer": func() Config {
			// Overflow (count-only) path exercised on every transaction
			// burst the SDRAM pacing cannot keep up with.
			cfg := fourNodeConfig()
			cfg.BufferDepth = 2
			return cfg
		},
		"one-node-8way": func() Config {
			// No peers: the local AccessSlot -> apply path alone, on the
			// 8-way set scan the large-directory boards use.
			cfg := fourNodeConfig()
			cfg.Nodes = cfg.Nodes[2:3]
			cfg.Nodes[0].CPUs = []int{0, 1, 2, 3, 4, 5, 6, 7}
			cfg.Nodes[0].Geometry = addr.MustGeometry(4*addr.MB, 128, 8)
			return cfg
		},
	}

	for name, mkCfg := range configs {
		t.Run(name, func(t *testing.T) {
			serial := MustNewBoard(mkCfg())
			var serialEvents []drainEvent
			serial.SetDrainObserver(func(seq, cycle uint64, cmd bus.Command, a uint64, src int) {
				serialEvents = append(serialEvents, drainEvent{seq, cycle, cmd, a, src})
			})
			for i := range txs {
				tx := txs[i]
				serial.Snoop(&tx)
			}
			serial.Flush()
			want := serial.Counters().Snapshot()
			wantDigest := checkpointDigest(t, serial)

			for _, batchSize := range []int{1, 7, lookAhead - 1, lookAhead, lookAhead + 1, 128, 2*lookAhead + 3, n} {
				batched := MustNewBoard(mkCfg())
				var events []drainEvent
				batched.SetDrainObserver(func(seq, cycle uint64, cmd bus.Command, a uint64, src int) {
					events = append(events, drainEvent{seq, cycle, cmd, a, src})
				})
				for i := 0; i < len(txs); i += batchSize {
					end := i + batchSize
					if end > len(txs) {
						end = len(txs)
					}
					batch := append([]bus.Transaction(nil), txs[i:end]...)
					batched.SnoopBatch(batch)
				}
				batched.Flush()

				label := fmt.Sprintf("batch=%d", batchSize)
				diffSnapshots(t, want, batched.Counters().Snapshot(), label)
				if len(events) != len(serialEvents) {
					t.Fatalf("%s: %d drain events, serial %d", label, len(events), len(serialEvents))
				}
				for i := range events {
					if events[i] != serialEvents[i] {
						t.Fatalf("%s: event %d = %+v, serial %+v", label, i, events[i], serialEvents[i])
					}
				}
				if sc, bc := serial.Trace(), batched.Trace(); (sc == nil) != (bc == nil) {
					t.Fatalf("%s: capture presence differs", label)
				} else if sc != nil {
					if sc.Len() != bc.Len() || sc.Dropped() != bc.Dropped() {
						t.Fatalf("%s: capture len/dropped %d/%d, serial %d/%d",
							label, bc.Len(), bc.Dropped(), sc.Len(), sc.Dropped())
					}
					for i := 0; i < sc.Len(); i++ {
						if sc.Record(i) != bc.Record(i) {
							t.Fatalf("%s: capture record %d differs", label, i)
						}
					}
				}
				for i := 0; i < serial.NumNodes(); i++ {
					if batched.Node(i) != serial.Node(i) {
						t.Fatalf("%s: node %d view %+v, serial %+v", label, i, batched.Node(i), serial.Node(i))
					}
				}
				if got := checkpointDigest(t, batched); got != wantDigest {
					t.Fatalf("%s: checkpoint digest %x, serial %x", label, got, wantDigest)
				}
			}
		})
	}
}

// TestSnoopBatchRejectsRetryBoards: the batch path cannot deliver
// per-transaction retry responses, so a RetryOnOverflow board must
// refuse it loudly rather than silently dropping retries.
func TestSnoopBatchRejectsRetryBoards(t *testing.T) {
	cfg := fourNodeConfig()
	cfg.RetryOnOverflow = true
	b := MustNewBoard(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("SnoopBatch on a RetryOnOverflow board did not panic")
		}
	}()
	b.SnoopBatch([]bus.Transaction{{Cmd: bus.Read, Addr: 0x1000, Size: 128}})
}

// TestBoardRejectsBadBusIDs: bus IDs must fit the 8-bit bus tag that the
// trace format and the dense per-CPU slices both rely on.
func TestBoardRejectsBadBusIDs(t *testing.T) {
	for _, id := range []int{-1, MaxBusID + 1} {
		cfg := Config{Nodes: []NodeConfig{{
			CPUs:     []int{id},
			Geometry: addr.MustGeometry(2*addr.MB, 128, 4),
			Policy:   cache.LRU,
			Protocol: protocols.MustLoad("mesi"),
		}}}
		if _, err := NewBoard(cfg); err == nil {
			t.Errorf("NewBoard accepted bus ID %d", id)
		}
	}
	// The top of the range is fine.
	cfg := Config{Nodes: []NodeConfig{{
		CPUs:     []int{MaxBusID},
		Geometry: addr.MustGeometry(2*addr.MB, 128, 4),
		Policy:   cache.LRU,
		Protocol: protocols.MustLoad("mesi"),
	}}}
	b := MustNewBoard(cfg)
	tx := bus.Transaction{Cmd: bus.Read, Addr: 0x2000, Size: 128, SrcID: MaxBusID}
	b.Snoop(&tx)
	b.Flush()
	if got := b.Counters().Value("filter.accepted"); got != 1 {
		t.Fatalf("accepted = %d, want 1", got)
	}
	// Unassigned and out-of-range source IDs are filtered, not crashed on.
	for _, src := range []int{-1, 3, 1 << 20} {
		tx := bus.Transaction{Cmd: bus.Read, Addr: 0x3000, Size: 128, SrcID: src}
		b.Snoop(&tx)
	}
	b.Flush()
	if got := b.Counters().Value("filter.unassigned"); got != 3 {
		t.Fatalf("unassigned = %d, want 3", got)
	}
}

// TestBoardSnoopAllocFree is an ISSUE 3 acceptance criterion: the
// steady-state snoop path — filter, counters, SDRAM-paced drain,
// directory transitions, evictions — performs zero heap allocations per
// transaction.
func TestBoardSnoopAllocFree(t *testing.T) {
	b := MustNewBoard(fourNodeConfig())
	txs := fourNodeStream(4096)
	// Warm up: queue ring and replacement structures reach steady state.
	for i := range txs {
		b.Snoop(&txs[i])
	}
	cycle := txs[len(txs)-1].Cycle
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		cycle += 48
		tx := txs[i%len(txs)]
		tx.Cycle = cycle
		b.Snoop(&tx)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Board.Snoop allocates %.2f/op, want 0", allocs)
	}
}

// TestHostStepAllocFree: the full emulation loop — workload generation,
// private MESI hierarchy, bus issue, board snoop and drain — allocates
// nothing per reference once warm. This is the end-to-end form of the
// ISSUE 3 zero-allocation criterion.
func TestHostStepAllocFree(t *testing.T) {
	gen := workload.NewUniform(workload.UniformConfig{
		NumCPUs:       8,
		FootprintByte: 64 * addr.MB,
		WriteFraction: 0.3,
		Seed:          7,
	})
	h := host.MustNew(host.DefaultConfig(), gen)
	b := MustNewBoard(fourNodeConfig())
	h.Bus().Attach(b)
	h.Run(200_000) // warm caches, queue ring, replacement state
	allocs := testing.AllocsPerRun(20000, func() {
		h.Step()
	})
	if allocs != 0 {
		t.Fatalf("host.Step allocates %.2f/op, want 0", allocs)
	}
}

// TestHostStepAllocFreePerCPU is the wheel twin: eight per-CPU actors over
// one shared region, so a step is an event pop, a burst of filtered
// references, and a bus tenure that goes through the presence summary to
// the peers that hold the line and on to the board.
func TestHostStepAllocFreePerCPU(t *testing.T) {
	cfg := host.DefaultConfig()
	cfg.L1Bytes = 8 * addr.KB
	cfg.L2Bytes = 64 * addr.KB
	streams := make([]workload.Generator, cfg.NumCPUs)
	for i := range streams {
		streams[i] = workload.NewZipfian(workload.ZipfConfig{
			NumCPUs: 1, FootprintByte: addr.MB, WriteFraction: 0.3, Seed: 7 + uint64(i),
		})
	}
	h := host.MustNewPerCPU(cfg, streams, host.EngineWheel)
	b := MustNewBoard(fourNodeConfig())
	h.Bus().Attach(b)
	h.Run(200_000)
	if st := h.Stats(); st.Invalidations == 0 || st.Castouts == 0 {
		t.Fatalf("warm-up never invalidated or cast out: %+v", st)
	}
	allocs := testing.AllocsPerRun(20000, func() {
		h.Step()
	})
	if allocs != 0 {
		t.Fatalf("per-CPU host.Step allocates %.2f/op, want 0", allocs)
	}
}

// TestSnoopBatchAllocFree: the batched ingest must allocate nothing
// beyond the caller-owned batch slice.
func TestSnoopBatchAllocFree(t *testing.T) {
	b := MustNewBoard(fourNodeConfig())
	txs := fourNodeStream(4096)
	b.SnoopBatch(txs)
	cycle := txs[len(txs)-1].Cycle
	batch := make([]bus.Transaction, 64)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		for j := range batch {
			cycle += 48
			batch[j] = txs[(i+j)%len(txs)]
			batch[j].Cycle = cycle
		}
		i += len(batch)
		b.SnoopBatch(batch)
	})
	if allocs != 0 {
		t.Fatalf("Board.SnoopBatch allocates %.2f/run, want 0", allocs)
	}
}
