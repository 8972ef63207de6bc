package core

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"unsafe"

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
// castouts, and non-memory traffic, stamped step bus cycles apart. At
// step 48 the SDRAM keeps up and the buffer stays shallow; at step 1
// transactions arrive faster than the tag store retires them, as in a
// service session, and the buffer runs deep.
func fourNodeStream(n int, step uint64) []bus.Transaction {
	gen := workload.NewZipfian(workload.ZipfConfig{
		NumCPUs: 8, FootprintByte: 64 * addr.MB, WriteFraction: 0.3, Seed: 21,
	})
	txs := make([]bus.Transaction, 0, n)
	cycle := uint64(0)
	for i := 0; i < n; i++ {
		ref, _ := gen.Next()
		cycle += step
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

func diffSnapshots(t testing.TB, want, got map[string]uint64, label string) {
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
func checkpointDigest(t testing.TB, b *Board) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := b.WriteCheckpoint(h); err != nil {
		t.Fatal(err)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// drainEvent is one directory operation as the drain observer saw it.
type drainEvent struct {
	cycle uint64
	cmd   bus.Command
	addr  uint64
	src   int
}

// recordDrains attaches a drain observer to b that appends to *log.
func recordDrains(b *Board, log *[]drainEvent) {
	b.SetDrainObserver(func(cycle uint64, cmd bus.Command, a uint64, src int) {
		*log = append(*log, drainEvent{cycle, cmd, a, src})
	})
}

// split is one step on the batched side of lockstep: the next n
// transactions in one SnoopBatch (or, if snoop is set, one Snoop each, so
// the two entry points mix), then a Flush of both boards if flush is set.
type split struct {
	n     int
	snoop bool
	flush bool
}

// lockstep feeds txs to serial one Snoop at a time and to batched in the
// splits next returns, and checks at every call boundary that both boards have
// serviced everything they retired and hold the same value in every
// counter. On ECC boards, before each batch in which a scrub pass falls,
// it corrupts — on both boards alike — one tag bit at the set of each of
// the next lookAhead transactions to retire: a scrub that ran before the
// retired transactions were serviced would repair words that serial Snoop
// had already seen corrupted, and the counters would part.
func lockstep(t testing.TB, label string, serial, batched *Board, txs []bus.Transaction, next func(done int) split) {
	t.Helper()
	names, sc := serial.Counters().Ordered()
	_, bc := batched.Counters().Ordered()
	if len(sc) != len(bc) {
		t.Fatalf("%s: %d counters, serial %d", label, len(bc), len(sc))
	}
	var buf []bus.Transaction
	for done := 0; done < len(txs); {
		s := next(done)
		end := min(done+max(s.n, 1), len(txs))
		if batched.cfg.ECC && txs[end-1].Cycle >= batched.nextScrub {
			corruptAhead(serial, batched)
		}
		for i := done; i < end; i++ {
			tx := txs[i]
			serial.Snoop(&tx)
		}
		buf = append(buf[:0], txs[done:end]...)
		if s.snoop {
			for i := range buf {
				batched.Snoop(&buf[i])
			}
		} else {
			batched.SnoopBatch(buf)
		}
		done = end
		if s.flush {
			serial.Flush()
			batched.Flush()
		}
		for _, b := range []*Board{serial, batched} {
			if b.phead != b.qhead {
				t.Fatalf("%s: after %d transactions phead %d != qhead %d", label, done, b.phead, b.qhead)
			}
		}
		for i := range sc {
			if sc[i].Value() != bc[i].Value() {
				t.Fatalf("%s: after %d transactions counter %s = %d, serial %d",
					label, done, names[i], bc[i].Value(), sc[i].Value())
			}
		}
	}
	serial.Flush()
	batched.Flush()
}

// corruptAhead flips one tag bit in every node's directory at the set of
// each of the next lookAhead transactions to retire from boards[0]'s
// buffer — the slot holding the line if it is resident, else the set's
// first way — and applies the same flips to every board.
func corruptAhead(boards ...*Board) {
	b0 := boards[0]
	for _, p := range b0.queue[b0.qhead:min(b0.qhead+lookAhead, len(b0.queue))] {
		for i, n := range b0.nodes {
			slot, _ := n.dir.Find(p.addr)
			if slot == cache.NoSlot {
				slot = n.cfg.Geometry.Index(p.addr) * int64(n.cfg.Geometry.Assoc)
			}
			for _, b := range boards {
				b.CorruptDirectory(i, slot, 1, 0)
			}
		}
	}
}

// checkSameBoard compares two flushed boards: every counter, every node
// view, and the SHA-256 of the whole checkpoint stream — so the look-ahead
// loads, the carried slots and the split between retiring and servicing
// changed no word, rank or structural statistic.
func checkSameBoard(t testing.TB, label string, want, got *Board) {
	t.Helper()
	diffSnapshots(t, want.Counters().Snapshot(), got.Counters().Snapshot(), label)
	for i := 0; i < want.NumNodes(); i++ {
		if got.Node(i) != want.Node(i) {
			t.Fatalf("%s: node %d view %+v, serial %+v", label, i, got.Node(i), want.Node(i))
		}
	}
	if g, w := checkpointDigest(t, got), checkpointDigest(t, want); g != w {
		t.Fatalf("%s: checkpoint digest %x, serial %x", label, g, w)
	}
}

// TestSnoopBatchMatchesSerial proves the batched ingest is bit-identical
// to per-transaction Snoop: the same counters (every one, including
// buffer telemetry — a single board sees the same occupancy either way)
// at every call boundary, the same drain log, the same trace capture, and
// the same checkpoint bytes, for batch sizes on both sides of the
// look-ahead window and several feature configurations. The deep-buffer
// configurations stamp transactions one cycle apart and flush every 8 Ki,
// as a service session does, so most directory work is done inside Flush
// and, with scrubbing on, scrub passes fall between retiring and
// servicing.
func TestSnoopBatchMatchesSerial(t *testing.T) {
	const n = 60_000
	type setup struct {
		cfg        func() Config
		step       uint64 // bus cycles between transactions
		flushEvery int    // transactions between Flushes (0: at the end only)
	}
	scrub := func(interval uint64) func() Config {
		return func() Config {
			cfg := fourNodeConfig()
			cfg.ECC = true
			cfg.ScrubIntervalCycles = interval
			return cfg
		}
	}
	configs := map[string]setup{
		"base": {cfg: fourNodeConfig, step: 48},
		"trace": {cfg: func() Config {
			cfg := fourNodeConfig()
			cfg.TraceCapacity = 4096
			return cfg
		}, step: 48},
		"scrub": {cfg: scrub(50_000), step: 48},
		"tiny-buffer": {cfg: func() Config {
			// Overflow (count-only) path exercised on every transaction
			// burst the SDRAM pacing cannot keep up with.
			cfg := fourNodeConfig()
			cfg.BufferDepth = 2
			return cfg
		}, step: 48},
		"one-node-8way": {cfg: func() Config {
			// No peers: the local AccessSlot -> apply path alone, on the
			// 8-way set scan the large-directory boards use.
			cfg := fourNodeConfig()
			cfg.Nodes = cfg.Nodes[2:3]
			cfg.Nodes[0].CPUs = []int{0, 1, 2, 3, 4, 5, 6, 7}
			cfg.Nodes[0].Geometry = addr.MustGeometry(4*addr.MB, 128, 8)
			return cfg
		}, step: 48},
		// One group of four nodes running msi, mesi, moesi and write-once:
		// every protocol's snoop cells, idle and not, as a peer of the rest.
		"mixed-protocol":    {cfg: mixedProtocolConfig, step: 48},
		"deep-buffer":       {cfg: fourNodeConfig, step: 1, flushEvery: 8192},
		"deep-buffer-scrub": {cfg: scrub(1000), step: 1, flushEvery: 8192},
	}

	for name, su := range configs {
		t.Run(name, func(t *testing.T) {
			txs := fourNodeStream(n, su.step)
			for _, batchSize := range []int{1, 7, lookAhead - 1, lookAhead, lookAhead + 1, 128, 2*lookAhead + 3, n} {
				label := fmt.Sprintf("batch=%d", batchSize)
				serial, batched := MustNewBoard(su.cfg()), MustNewBoard(su.cfg())
				var serialEvents, events []drainEvent
				recordDrains(serial, &serialEvents)
				recordDrains(batched, &events)
				lockstep(t, label, serial, batched, txs, func(done int) split {
					return split{n: batchSize, flush: su.flushEvery > 0 && (done+batchSize)/su.flushEvery > done/su.flushEvery}
				})
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
				checkSameBoard(t, label, serial, batched)
				if su.step == 1 && batched.Counters().Value("buffer.high-water") <= DefaultBufferDepth {
					t.Fatalf("%s: high-water %d: the buffer never ran deep", label, batched.Counters().Value("buffer.high-water"))
				}
				if su.cfg().ScrubIntervalCycles > 0 && batchSize < n && batched.Counters().Value("nodea.ecc.corrected") == 0 {
					t.Fatalf("%s: no scrub ever repaired a corrupted word", label)
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
	txs := fourNodeStream(4096, 48)
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
// beyond the caller-owned batch slice — with the SDRAM keeping up, and
// with transactions stamped one cycle apart and a Flush per call, as a
// service session feeds it, once the queue has grown to a call's depth.
func TestSnoopBatchAllocFree(t *testing.T) {
	for _, tc := range []struct {
		step  uint64
		size  int
		flush bool
	}{{48, 64, false}, {1, 4096, true}} {
		b := MustNewBoard(fourNodeConfig())
		txs := fourNodeStream(4096, tc.step)
		b.SnoopBatch(txs)
		b.Flush()
		cycle := txs[len(txs)-1].Cycle
		batch := make([]bus.Transaction, tc.size)
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			for j := range batch {
				cycle += tc.step
				batch[j] = txs[(i+j)%len(txs)]
				batch[j].Cycle = cycle
			}
			i += len(batch)
			b.SnoopBatch(batch)
			if tc.flush {
				b.Flush()
			}
		})
		if allocs != 0 {
			t.Fatalf("step %d: Board.SnoopBatch allocates %.2f/run, want 0", tc.step, allocs)
		}
	}
}

// TestServicedAtEveryCallBoundary: service never leaves a retired
// transaction behind when control returns to the caller, whichever entry
// point ran — so between calls the board is what processing at
// retirement would have left.
func TestServicedAtEveryCallBoundary(t *testing.T) {
	for _, step := range []uint64{1, 48} {
		b := MustNewBoard(fourNodeConfig())
		txs := fourNodeStream(20_000, step)
		check := func(call string, i int) {
			t.Helper()
			if b.phead != b.qhead {
				t.Fatalf("step %d: after %s at %d: phead %d != qhead %d", step, call, i, b.phead, b.qhead)
			}
		}
		for i, k := 0, 0; i < len(txs); k++ {
			switch k % 5 {
			case 0, 1:
				tx := txs[i]
				b.Snoop(&tx)
				check("Snoop", i)
				if i%3 == 0 {
					b.ObserveResponse(&tx, bus.RespRetry)
					check("ObserveResponse", i)
				}
				i++
			case 2, 3:
				end := min(i+97, len(txs))
				b.SnoopBatch(txs[i:end])
				check("SnoopBatch", i)
				i = end
			default:
				b.Flush()
				check("Flush", i)
			}
		}
	}
}

// TestPendingIs24Bytes pins the buffered-transaction size: service walks
// the queue once per window and drain once per retirement, so the entry
// is kept to three words.
func TestPendingIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(pending{}); got != 24 {
		t.Fatalf("pending is %d bytes, want 24", got)
	}
}
