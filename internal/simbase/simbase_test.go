package simbase

import (
	"bytes"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/core"
	"memories/internal/tracefile"
	"memories/internal/workload"
	"memories/protocols"
)

func traceNodeCfg(cpus []int, sizeKB int64, assoc int) TraceNodeConfig {
	return TraceNodeConfig{
		CPUs:     cpus,
		Geometry: addr.MustGeometry(sizeKB*addr.KB, 128, assoc),
		Policy:   cache.LRU,
		Protocol: protocols.MustLoad("mesi"),
	}
}

func TestTraceSimBasics(t *testing.T) {
	s := MustNewTraceSim([]TraceNodeConfig{traceNodeCfg([]int{0, 1}, 64, 4)})
	s.Process(tracefile.Record{Addr: 0x1000, Cmd: bus.Read, SrcID: 0})
	s.Process(tracefile.Record{Addr: 0x1000, Cmd: bus.Read, SrcID: 1})
	s.Process(tracefile.Record{Addr: 0x1000, Cmd: bus.IORead, SrcID: 0}) // filtered
	s.Process(tracefile.Record{Addr: 0x1000, Cmd: bus.Read, SrcID: 9})   // unassigned
	st := s.NodeStats(0)
	if st.ReadMiss != 1 || st.ReadHit != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if s.Filtered != 2 || s.Processed != 2 {
		t.Fatalf("filtered=%d processed=%d", s.Filtered, s.Processed)
	}
	if st.MissRatio() != 0.5 {
		t.Fatalf("miss ratio = %v", st.MissRatio())
	}
}

func TestTraceSimValidation(t *testing.T) {
	if _, err := NewTraceSim(nil); err == nil {
		t.Fatal("accepted empty config")
	}
	nc := traceNodeCfg([]int{0}, 64, 4)
	nc.Protocol = nil
	if _, err := NewTraceSim([]TraceNodeConfig{nc}); err == nil {
		t.Fatal("accepted nil protocol")
	}
	if _, err := NewTraceSim([]TraceNodeConfig{
		traceNodeCfg([]int{0}, 64, 4),
		traceNodeCfg([]int{0}, 64, 4),
	}); err == nil {
		t.Fatal("accepted duplicate CPU")
	}
}

func TestTraceSimRunFromFile(t *testing.T) {
	var buf bytes.Buffer
	w, err := tracefile.NewV2Writer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Write(tracefile.Record{Addr: uint64(i%8) * 128, Cmd: bus.Read, SrcID: uint8(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s := MustNewTraceSim([]TraceNodeConfig{traceNodeCfg([]int{0, 1}, 64, 4)})
	n, err := tracefile.ForEachBatch(&buf, 1, func(recs []tracefile.Record) error {
		s.ProcessBatch(recs)
		return nil
	})
	if err != nil || n != 100 {
		t.Fatalf("ForEachBatch = %d, %v", n, err)
	}
	st := s.NodeStats(0)
	if st.ReadMiss != 8 || st.ReadHit != 92 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDifferentialBoardVsTraceSim is the validation exercise the paper
// itself performed ("a trace-driven C simulator ... was used as one of
// the methods to validate the MemorIES design"): identical streams
// through the board (with its buffers, SDRAM pacing, lock-step service)
// and the functional simulator must produce identical cache statistics.
func TestDifferentialBoardVsTraceSim(t *testing.T) {
	boardCfg := core.Config{Nodes: []core.NodeConfig{
		{
			Name:     "a",
			CPUs:     []int{0, 1, 2, 3},
			Geometry: addr.MustGeometry(128*addr.KB, 128, 4),
			Policy:   cache.LRU,
			Protocol: protocols.MustLoad("mesi"),
		},
		{
			Name:     "b",
			CPUs:     []int{4, 5, 6, 7},
			Geometry: addr.MustGeometry(64*addr.KB, 128, 2),
			Policy:   cache.LRU,
			Protocol: protocols.MustLoad("mesi"),
		},
	}}
	b := core.MustNewBoard(boardCfg)
	s := MustNewTraceSim([]TraceNodeConfig{
		{CPUs: []int{0, 1, 2, 3}, Geometry: addr.MustGeometry(128*addr.KB, 128, 4), Policy: cache.LRU, Protocol: protocols.MustLoad("mesi")},
		{CPUs: []int{4, 5, 6, 7}, Geometry: addr.MustGeometry(64*addr.KB, 128, 2), Policy: cache.LRU, Protocol: protocols.MustLoad("mesi")},
	})

	rng := workload.NewRNG(1234)
	cmds := []bus.Command{bus.Read, bus.Read, bus.Read, bus.RWITM, bus.DClaim, bus.Castout, bus.IORead}
	cycle := uint64(0)
	for i := 0; i < 300000; i++ {
		cmd := cmds[rng.Intn(int64(len(cmds)))]
		a := uint64(rng.Intn(1<<21)) &^ 127 // 2MB footprint, heavy conflict
		src := int(rng.Intn(8))
		cycle += 1 + uint64(rng.Intn(60))
		b.Snoop(&bus.Transaction{Cmd: cmd, Addr: a, Size: 128, SrcID: src, Cycle: cycle})
		s.Process(tracefile.Record{Addr: a, Cmd: cmd, SrcID: uint8(src)})
	}
	b.Flush()

	for i := 0; i < 2; i++ {
		bv := b.Node(i)
		sv := s.NodeStats(i)
		if bv.ReadHit != sv.ReadHit || bv.ReadMiss != sv.ReadMiss ||
			bv.WriteHit != sv.WriteHit || bv.WriteMiss != sv.WriteMiss {
			t.Fatalf("node %d hit/miss diverged: board %+v vs sim %+v", i, bv, sv)
		}
		if bv.SatL3 != sv.SatL3 || bv.SatModInt != sv.SatModInt ||
			bv.SatShrInt != sv.SatShrInt || bv.SatMemory != sv.SatMemory {
			t.Fatalf("node %d satisfaction diverged: board %+v vs sim %+v", i, bv, sv)
		}
		if bv.Evictions != sv.Evictions {
			t.Fatalf("node %d evictions diverged: %d vs %d", i, bv.Evictions, sv.Evictions)
		}
	}
}

func TestAugmintInterpretsInstructions(t *testing.T) {
	a, err := NewAugmint(DefaultAugmintConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewUniform(workload.UniformConfig{NumCPUs: 8, FootprintByte: 4 * addr.MB, Seed: 1})
	n := a.Run(gen, 10000)
	if n != 10000 {
		t.Fatalf("Run = %d", n)
	}
	st := a.stats
	if st.Refs != 10000 || st.Instructions == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.L1Misses == 0 || st.L2Misses == 0 {
		t.Fatalf("cache model inert: %+v", st)
	}
	if a.checksum == 0 {
		t.Fatal("interpreter work optimized away")
	}
}

func TestAugmintStopsAtStreamEnd(t *testing.T) {
	a, _ := NewAugmint(DefaultAugmintConfig())
	gen := workload.Limit(workload.NewUniform(workload.UniformConfig{NumCPUs: 2, FootprintByte: addr.MB}), 50)
	if n := a.Run(gen, 1000); n != 50 {
		t.Fatalf("Run = %d, want 50", n)
	}
}

func TestAugmintValidation(t *testing.T) {
	cfg := DefaultAugmintConfig()
	cfg.NumCPUs = 0
	if _, err := NewAugmint(cfg); err == nil {
		t.Fatal("accepted zero CPUs")
	}
	cfg = DefaultAugmintConfig()
	cfg.L1Bytes = 100
	if _, err := NewAugmint(cfg); err == nil {
		t.Fatal("accepted bad geometry")
	}
}
