package memories

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/checkpoint"
	"memories/internal/core"
	"memories/internal/faults"
	"memories/internal/host"
	"memories/internal/hotspot"
	"memories/internal/numa"
	"memories/internal/obs"
	"memories/internal/simbase"
	"memories/internal/tracefile"
	"memories/internal/workload"
	"memories/internal/workload/splash"
	"memories/protocols"
)

// recordTrace runs refs references on s in chunks of at most chunk — the
// most a ring of 2*chunk records can take, one reference putting at most
// two memory transactions on the bus — with the board's tracer on and
// drained into a v2 trace after each chunk, as cmd/tracegen records. It
// fails the test if the ring dropped a record.
func recordTrace(t *testing.T, s *Session, refs, chunk uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := tracefile.NewV2Writer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sink := func(ev obs.Event) {
		if err := w.Write(tracefile.Record{Addr: ev.Addr, Cmd: bus.Command(ev.Cmd), SrcID: ev.Src}); err != nil {
			t.Error(err)
		}
	}
	if err := s.Board.Observe(obs.NewRegistry(), sink, "board", int(2*chunk)); err != nil {
		t.Fatal(err)
	}
	tr := s.Board.Tracer()
	tr.Enable(obs.Filter{})
	for done := uint64(0); done < refs; done += chunk {
		s.Run(min(chunk, refs-done))
		tr.Drain()
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if c := s.Board.Counters(); c.Value("trace.dropped") != 0 || c.Value("trace.captured") == 0 {
		t.Fatalf("tracer captured %d and dropped %d", c.Value("trace.captured"), c.Value("trace.dropped"))
	}
	return buf.Bytes()
}

// loadDirs loads one fresh directory per node configuration from the
// checkpoint walk image: what each node holds, line by line.
func loadDirs(t *testing.T, cfg []simbase.TraceNodeConfig, image []byte, walk func(c *checkpoint.Codec, dirs []*cache.Cache) error) []map[uint64]uint8 {
	t.Helper()
	dirs := make([]*cache.Cache, len(cfg))
	for i, nc := range cfg {
		dirs[i] = cache.MustNew(cache.Config{Geometry: nc.Geometry, Policy: nc.Policy})
	}
	if err := checkpoint.Unmarshal(image, func(c *checkpoint.Codec) error { return walk(c, dirs) }); err != nil {
		t.Fatal(err)
	}
	lines := make([]map[uint64]uint8, len(dirs))
	for i, d := range dirs {
		lines[i] = map[uint64]uint8{}
		d.ForEachValid(func(a uint64, st uint8) { lines[i][a] = st })
	}
	return lines
}

// boardLines returns what each of the board's node directories holds,
// read from its checkpoint sections.
func boardLines(t *testing.T, b *Board, cfg []simbase.TraceNodeConfig) []map[uint64]uint8 {
	t.Helper()
	var buf bytes.Buffer
	if err := b.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var lines []map[uint64]uint8
	for i := range cfg {
		sec, err := snap.Section(fmt.Sprintf("board.node%d.dir", i))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, loadDirs(t, cfg[i:i+1], sec.Payload, func(c *checkpoint.Codec, dirs []*cache.Cache) error {
			_, err := dirs[0].Checkpoint(c)
			return err
		})[0])
	}
	return lines
}

// simLines returns what each of the simulator's node directories holds,
// read from its checkpoint walk (record counts, then per node the
// directory image and ten result counters).
func simLines(t *testing.T, sim *simbase.TraceSim, cfg []simbase.TraceNodeConfig) []map[uint64]uint8 {
	t.Helper()
	image, err := checkpoint.Marshal(sim.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	return loadDirs(t, cfg, image, func(c *checkpoint.Codec, dirs []*cache.Cache) error {
		var skip uint64
		c.U64(&skip)
		c.U64(&skip)
		c.Len("node count", len(dirs))
		for _, d := range dirs {
			if _, err := d.Checkpoint(c); err != nil {
				return err
			}
			for range 10 {
				c.U64(&skip)
			}
		}
		return c.Err()
	})
}

// TestIntegrationCaptureReplayMatchesBoard exercises the full trace
// pipeline: the board records the bus stream it is emulating, the record
// is written in the on-disk format, and replaying that file through the
// trace-driven simulator with the same cache configuration reproduces the
// board's own statistics, and its directories line for line and state
// for state. This is the off-line analysis workflow of §2.3 closing the
// loop with §4.1's validation, and the one check that the board and
// cmd/tracesim's simulator agree. Each shipped protocol is loaded into
// both, on two nodes of four CPUs that snoop each other, so the protocol
// decides the interventions counted and the states held. Two streams run
// on each: TPC-C, and uniform references with writes over a footprint
// both nodes share, where one node reads lines the other writes.
//
// The msi, mesi and moesi legs must leave different results, or a
// board-vs-simulator bug that only one of their tables shows could pass.
// The counters alone do not separate msi from mesi: a line a node holds
// Exclusive under MESI, it holds Shared with no sharer under MSI, and the
// two count alike. The states held do. write-once differs from mesi only
// in where a write miss fetches from when a peer holds the line Modified
// (memory, not an intervention), and neither the board nor the simulator
// models the fetch source, so its leg must leave exactly what mesi's does.
func TestIntegrationCaptureReplayMatchesBoard(t *testing.T) {
	streams := []struct {
		name string
		host func() HostConfig
		gen  func() Generator
	}{
		{"tpcc", DefaultHostConfig, func() Generator { return NewTPCC(ScaledTPCCConfig(4096)) }},
		{"shared-rw", tapHost, func() Generator { return NewUniform(8, 2*MB, 0.3, 5) }},
	}
	// legs holds each protocol's results: per stream and node, the ten
	// counters and the number of lines held in each state.
	type result struct {
		stats  simbase.TraceNodeStats
		states map[uint8]int
	}
	legs := map[string][]result{}
	for _, proto := range []string{"mesi", "msi", "moesi", "write-once"} {
		t.Run(proto, func(t *testing.T) {
			tab := protocols.MustLoad(proto)
			geom := addr.MustGeometry(4*addr.MB, 128, 4)
			var bcfg BoardConfig
			var scfg []simbase.TraceNodeConfig
			for i, name := range []string{"x", "y"} {
				cpus := []int{4 * i, 4*i + 1, 4*i + 2, 4*i + 3}
				bcfg.Nodes = append(bcfg.Nodes, NodeConfig{Name: name, CPUs: cpus, Geometry: geom, Policy: cache.LRU, Protocol: tab})
				scfg = append(scfg, simbase.TraceNodeConfig{CPUs: cpus, Geometry: geom, Policy: cache.LRU, Protocol: tab})
			}
			for _, st := range streams {
				s, err := NewSession(st.host(), bcfg, st.gen())
				if err != nil {
					t.Fatal(err)
				}
				trace := recordTrace(t, s, 150_000, 1<<16)
				sim := simbase.MustNewTraceSim(scfg)
				if _, err := tracefile.ForEachBatch(bytes.NewReader(trace), 1, func(recs []tracefile.Record) error {
					sim.ProcessBatch(recs)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				bl, sl := boardLines(t, s.Board, scfg), simLines(t, sim, scfg)
				for i := range scfg {
					bv, sv := s.Board.Node(i), sim.NodeStats(i)
					if bv.Protocol != proto {
						t.Fatalf("board node %d runs %q, want %q", i, bv.Protocol, proto)
					}
					got := simbase.TraceNodeStats{
						ReadHit: bv.ReadHit, ReadMiss: bv.ReadMiss, WriteHit: bv.WriteHit, WriteMiss: bv.WriteMiss,
						SatL3: bv.SatL3, SatModInt: bv.SatModInt, SatShrInt: bv.SatShrInt, SatMemory: bv.SatMemory,
						Castouts: bv.Castouts, Evictions: bv.Evictions,
					}
					if got != sv {
						t.Fatalf("%s node %d replay diverged: board %+v vs replay %+v", st.name, i, got, sv)
					}
					if !reflect.DeepEqual(bl[i], sl[i]) {
						t.Fatalf("%s node %d: the board's directory holds %d lines, the replay's %d, not in the same states", st.name, i, len(bl[i]), len(sl[i]))
					}
					states := map[uint8]int{}
					for _, st := range bl[i] {
						states[st]++
					}
					legs[proto] = append(legs[proto], result{got, states})
				}
			}
		})
	}
	if t.Failed() {
		return // a leg stopped early; its results are incomplete
	}
	for _, pair := range [][2]string{{"mesi", "msi"}, {"mesi", "moesi"}, {"msi", "moesi"}} {
		if reflect.DeepEqual(legs[pair[0]], legs[pair[1]]) {
			t.Errorf("the %s and %s legs leave identical results: a bug only one of their tables shows would pass", pair[0], pair[1])
		}
	}
	if !reflect.DeepEqual(legs["write-once"], legs["mesi"]) {
		t.Errorf("the write-once leg left %+v, mesi %+v: a fetch source changed a count or a state", legs["write-once"], legs["mesi"])
	}
}

// TestIntegrationHotspotMode attaches the hot-spot profiler (the §2.3
// FPGA reprogramming mode) to a live host and confirms it finds the OLTP
// hot set.
func TestIntegrationHotspotMode(t *testing.T) {
	prof, err := hotspot.New(hotspot.Config{Granularity: 4096, MaxBlocks: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	h := host.MustNew(host.DefaultConfig(), workload.NewTPCC(workload.ScaledTPCCConfig(4096)))
	h.Bus().Attach(prof)
	h.Run(200_000)
	if prof.Total() == 0 {
		t.Fatal("profiler saw nothing")
	}
	top := prof.Top(10)
	if len(top) == 0 || top[0].Total() < 2 {
		t.Fatalf("no hot pages found: %+v", top)
	}
	if c := prof.Concentration(100); c <= 0.01 {
		t.Fatalf("OLTP concentration %.3f implausibly flat", c)
	}
}

// TestIntegrationNUMAMode attaches the NUMA directory emulator to a live
// host running the sharing-heavy FMM kernel and confirms remote traffic
// and interventions appear.
func TestIntegrationNUMAMode(t *testing.T) {
	cfg := numa.Config{
		HomeInterleaveBytes: 4 * addr.KB,
		Directory:           addr.MustGeometry(1*addr.MB, 128, 4),
	}
	for n := 0; n < 4; n++ {
		cfg.Nodes = append(cfg.Nodes, numa.NodeConfig{
			CPUs:   []int{n * 2, n*2 + 1},
			L3:     addr.MustGeometry(4*addr.MB, 128, 4),
			Policy: cache.LRU,
		})
	}
	emu := numa.MustNew(cfg)
	hcfg := host.DefaultConfig()
	hcfg.L2Bytes = 256 * addr.KB
	h := host.MustNew(hcfg, splash.New(splash.NameFMM, splash.SizeClassic, 8, 3))
	h.Bus().Attach(emu)
	h.Run(300_000)

	var local, remote, interv uint64
	for n := 0; n < 4; n++ {
		v := emu.Node(n)
		local += v.Local
		remote += v.Remote
	}
	interv = emu.Counters().Value("numa0.intervention.supplied") +
		emu.Counters().Value("numa1.intervention.supplied") +
		emu.Counters().Value("numa2.intervention.supplied") +
		emu.Counters().Value("numa3.intervention.supplied")
	if local == 0 || remote == 0 {
		t.Fatalf("local=%d remote=%d: interleaving broken", local, remote)
	}
	// 4KB interleave over 4 nodes: ~3/4 of requests are remote.
	frac := float64(remote) / float64(local+remote)
	if frac < 0.5 || frac > 0.95 {
		t.Fatalf("remote fraction %.2f implausible for 4-way interleave", frac)
	}
	if interv == 0 {
		t.Fatal("FMM produced no NUMA interventions")
	}
}

// TestIntegrationBoardAndNUMATogether runs both observers on one bus —
// the board is passive, so observers compose freely.
func TestIntegrationBoardAndNUMATogether(t *testing.T) {
	board := core.MustNewBoard(SingleL3Board(8*MB, 4, 128))
	prof, err := hotspot.New(hotspot.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := host.MustNew(host.DefaultConfig(), workload.NewTPCC(workload.ScaledTPCCConfig(4096)))
	h.Bus().Attach(board)
	h.Bus().Attach(prof)
	h.Run(100_000)
	board.Flush()
	if board.Node(0).Refs() == 0 || prof.Total() == 0 {
		t.Fatal("composed observers missed traffic")
	}
	// Both observers saw the same memory-op count.
	boardOps := board.Counters().Value("filter.accepted")
	if boardOps != prof.Total() {
		t.Fatalf("board accepted %d vs profiler %d", boardOps, prof.Total())
	}
}

// TestIntegrationRetryProtocolEndToEnd forces the board's overflow-retry
// path (§3.3) against a live host: with a pathologically small
// transaction buffer and RetryOnOverflow set, the board posts bus
// retries, the processors back off and re-issue, and the run still
// completes with consistent statistics. This is the one situation where
// "the MemorIES board could alter system bus behavior" — which the test
// also shows never happens with the stock 512-entry buffer.
func TestIntegrationRetryProtocolEndToEnd(t *testing.T) {
	run := func(depth int) (*core.Board, *host.Host) {
		bcfg := SingleL3Board(8*MB, 4, 128)
		bcfg.BufferDepth = depth
		bcfg.RetryOnOverflow = true
		board := core.MustNewBoard(bcfg)
		hcfg := host.DefaultConfig()
		hcfg.L2Bytes = 64 * addr.KB // hot bus
		h := host.MustNew(hcfg, workload.NewUniform(workload.UniformConfig{
			NumCPUs: 8, FootprintByte: 32 * addr.MB, WriteFraction: 0.3, Seed: 4,
		}))
		h.Bus().Attach(board)
		if got := h.Run(150_000); got != 150_000 {
			t.Fatalf("host stalled at %d refs", got)
		}
		board.Flush()
		return board, h
	}

	// Stock buffer: passive, zero retries (the paper's lab experience).
	board, h := run(core.DefaultBufferDepth)
	if h.Stats().Retried != 0 || board.Counters().Value("buffer.retry-posted") != 0 {
		t.Fatalf("stock buffer caused retries: host %d, board %d",
			h.Stats().Retried, board.Counters().Value("buffer.retry-posted"))
	}

	// Pathological 2-entry buffer: retries happen, are honored, and the
	// two sides agree on the count.
	board, h = run(2)
	if h.Stats().Retried == 0 {
		t.Fatal("2-entry buffer never forced a retry")
	}
	if h.Stats().Retried != board.Counters().Value("buffer.retry-posted") {
		t.Fatalf("retry accounting disagrees: host %d vs board %d",
			h.Stats().Retried, board.Counters().Value("buffer.retry-posted"))
	}
}

// TestIntegrationFaultInjectedOverflowRetry drives the overflow-retry
// path with the *stock* 512-entry buffer: an injected transaction burst
// is the only way to fill it (the paper never saw it fire, and
// TestIntegrationRetryProtocolEndToEnd confirms nominal traffic keeps it
// nearly empty). Count-only mode shows the burst genuinely pushes the
// buffer past its depth; retry mode shows the resulting combined
// RespRetry reaches the host, which backs off, re-issues, and completes.
func TestIntegrationFaultInjectedOverflowRetry(t *testing.T) {
	run := func(retryOnOverflow bool) (*core.Board, *host.Host) {
		bcfg := SingleL3Board(8*MB, 4, 128)
		bcfg.RetryOnOverflow = retryOnOverflow
		board := core.MustNewBoard(bcfg)
		inj, err := faults.New(board, faults.Config{Seed: 9, BurstProb: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		h := host.MustNew(host.DefaultConfig(), workload.NewTPCC(workload.ScaledTPCCConfig(4096)))
		h.Bus().Attach(inj)
		if got := h.Run(100_000); got != 100_000 {
			t.Fatalf("host stalled at %d refs", got)
		}
		board.Flush()
		if board.Counters().Value("faults.bursts") == 0 {
			t.Fatal("no bursts injected; raise BurstProb or refs")
		}
		return board, h
	}

	// Count-only mode: the burst drives occupancy beyond the hardware
	// depth (the model keeps processing, so the high-water mark shows how
	// far past 512 the burst went).
	board, h := run(false)
	if hw := board.Counters().Value("buffer.high-water"); hw <= core.DefaultBufferDepth {
		t.Fatalf("burst high-water %d never exceeded the %d-entry buffer", hw, core.DefaultBufferDepth)
	}
	if board.Counters().Value("buffer.overflow") == 0 {
		t.Fatal("no overflow events counted")
	}
	if h.Stats().Retried != 0 {
		t.Fatal("count-only mode must stay passive on the bus")
	}

	// Retry mode: the full buffer posts a combined RespRetry that the
	// host observes and honors.
	board, h = run(true)
	if board.Counters().Value("buffer.retry-posted") == 0 {
		t.Fatal("full buffer posted no retries")
	}
	if h.Stats().Retried == 0 {
		t.Fatal("host never observed a combined RespRetry")
	}
	if h.Stats().RetryExhausted != 0 {
		t.Fatalf("%d transactions exhausted the retry limit; drain is wedged", h.Stats().RetryExhausted)
	}
}

// TestIntegrationConsoleDrivenReconfiguration reproduces the dynamic
// reprogramming workflow: measure, reprogram a bigger cache through the
// console, measure again, and confirm the bigger cache misses less on the
// same (deterministic) workload.
func TestIntegrationConsoleDrivenReconfiguration(t *testing.T) {
	run := func(setup []string) float64 {
		gen := NewTPCC(ScaledTPCCConfig(4096))
		s, err := NewSession(DefaultHostConfig(), SingleL3Board(2*MB, 4, 128), gen)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		c := s.Console(&out)
		for _, cmd := range setup {
			if err := c.Execute(cmd); err != nil {
				t.Fatalf("%q: %v (output %s)", cmd, err, out.String())
			}
		}
		s.Run(200_000)
		return s.Board.Node(0).MissRatio()
	}
	small := run(nil)
	big := run([]string{"reprogram 0 size=16MB assoc=8"})
	if big >= small {
		t.Fatalf("console-configured 16MB cache (%.4f) not better than 2MB (%.4f)", big, small)
	}
}
