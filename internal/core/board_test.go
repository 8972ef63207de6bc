package core

import (
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/coherence"
	"memories/internal/host"
	"memories/internal/obs"
	"memories/internal/workload"
	"memories/protocols"
)

// feeder issues hand-crafted transactions to a board, advancing the bus
// clock generously so SDRAM pacing never defers processing.
type feeder struct {
	board *Board
	cycle uint64
}

func (f *feeder) issue(cmd bus.Command, a uint64, src int) bus.SnoopResponse {
	f.cycle += 100
	return f.board.Snoop(&bus.Transaction{Cmd: cmd, Addr: a, Size: 128, SrcID: src, Cycle: f.cycle})
}

func nodeCfg(name string, cpus []int, sizeKB int64, assoc int, group int) NodeConfig {
	return NodeConfig{
		Name:     name,
		CPUs:     cpus,
		Geometry: addr.MustGeometry(sizeKB*addr.KB, 128, assoc),
		Policy:   cache.LRU,
		Protocol: protocols.MustLoad("mesi"),
		Group:    group,
	}
}

func twoNodeBoard(t *testing.T) (*Board, *feeder) {
	t.Helper()
	b, err := NewBoard(Config{Nodes: []NodeConfig{
		nodeCfg("a", []int{0, 1}, 64, 4, 0),
		nodeCfg("b", []int{2, 3}, 64, 4, 0),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return b, &feeder{board: b}
}

func TestBoardValidation(t *testing.T) {
	if _, err := NewBoard(Config{}); err == nil {
		t.Fatal("accepted zero nodes")
	}
	five := make([]NodeConfig, 5)
	for i := range five {
		five[i] = nodeCfg(string(rune('a'+i)), []int{i}, 64, 4, 0)
	}
	if _, err := NewBoard(Config{Nodes: five}); err == nil {
		t.Fatal("accepted five nodes")
	}
	// Duplicate CPU within one group.
	if _, err := NewBoard(Config{Nodes: []NodeConfig{
		nodeCfg("a", []int{0}, 64, 4, 0),
		nodeCfg("b", []int{0}, 64, 4, 0),
	}}); err == nil {
		t.Fatal("accepted duplicate CPU in one group")
	}
	// Same CPU across groups is the multi-config mode and must work.
	if _, err := NewBoard(Config{Nodes: []NodeConfig{
		nodeCfg("a", []int{0}, 64, 4, 0),
		nodeCfg("b", []int{0}, 64, 8, 1),
	}}); err != nil {
		t.Fatalf("multi-config rejected: %v", err)
	}
	// Missing protocol.
	nc := nodeCfg("a", []int{0}, 64, 4, 0)
	nc.Protocol = nil
	if _, err := NewBoard(Config{Nodes: []NodeConfig{nc}}); err == nil {
		t.Fatal("accepted nil protocol")
	}
	// No CPUs.
	nc = nodeCfg("a", nil, 64, 4, 0)
	if _, err := NewBoard(Config{Nodes: []NodeConfig{nc}}); err == nil {
		t.Fatal("accepted node with no CPUs")
	}
}

func TestAddressFilterRejectsNonMemory(t *testing.T) {
	b, f := twoNodeBoard(t)
	f.issue(bus.IORead, 0x1000, 0)
	f.issue(bus.IOWrite, 0x1000, 0)
	f.issue(bus.Interrupt, 0, 0)
	f.issue(bus.Sync, 0, 0)
	b.Flush()
	bank := b.Counters()
	if got := bank.Value("filter.rejected.io"); got != 2 {
		t.Fatalf("rejected.io = %d, want 2", got)
	}
	if got := bank.Value("filter.rejected.other"); got != 2 {
		t.Fatalf("rejected.other = %d, want 2", got)
	}
	if got := bank.Value("filter.accepted"); got != 0 {
		t.Fatalf("accepted = %d, want 0", got)
	}
	if b.Node(0).Refs() != 0 {
		t.Fatal("filtered traffic reached a node controller")
	}
}

func TestAddressFilterRejectsUnassignedCPU(t *testing.T) {
	b, f := twoNodeBoard(t)
	f.issue(bus.Read, 0x2000, 9) // CPU 9 unassigned
	b.Flush()
	if got := b.Counters().Value("filter.unassigned"); got != 1 {
		t.Fatalf("unassigned = %d, want 1", got)
	}
	if b.Node(0).Refs()+b.Node(1).Refs() != 0 {
		t.Fatal("unassigned traffic reached a node")
	}
}

func TestLocalReadMissThenHit(t *testing.T) {
	b, f := twoNodeBoard(t)
	f.issue(bus.Read, 0x4000, 0)
	f.issue(bus.Read, 0x4000, 1) // same node (cpus 0,1)
	b.Flush()
	v := b.Node(0)
	if v.ReadMiss != 1 || v.ReadHit != 1 {
		t.Fatalf("node a: %+v", v)
	}
	if v.SatMemory != 1 || v.SatL3 != 1 {
		t.Fatalf("satisfaction breakdown: %+v", v)
	}
	if v.MissRatio() != 0.5 {
		t.Fatalf("miss ratio = %v", v.MissRatio())
	}
	// Counters mirror the view.
	bank := b.Counters()
	if bank.Value("nodea.read.miss") != 1 || bank.Value("nodea.read.hit") != 1 {
		t.Fatal("counter bank mismatch")
	}
	if bank.Value("nodea.cpu00.miss") != 1 || bank.Value("nodea.cpu01.hit") != 1 {
		t.Fatal("per-CPU counters mismatch")
	}
}

func TestCrossNodeModifiedIntervention(t *testing.T) {
	b, f := twoNodeBoard(t)
	f.issue(bus.RWITM, 0x8000, 0) // node a takes M
	f.issue(bus.Read, 0x8000, 2)  // node b reads: a intervenes
	b.Flush()
	va, vb := b.Node(0), b.Node(1)
	if vb.SatModInt != 1 {
		t.Fatalf("node b satisfied: %+v", vb)
	}
	bank := b.Counters()
	if bank.Value("nodea.intervention.supplied.mod") != 1 {
		t.Fatal("node a did not supply the intervention")
	}
	if bank.Value("nodea.writeback") != 1 {
		t.Fatal("MESI downgrade must write back")
	}
	if bank.Value("nodea.snoop.read.hit") != 1 {
		t.Fatal("snoop read hit not counted")
	}
	_ = va
}

func TestCrossNodeSharedIntervention(t *testing.T) {
	b, f := twoNodeBoard(t)
	f.issue(bus.Read, 0xC000, 0) // node a E
	f.issue(bus.Read, 0xC000, 2) // node b: shr-int
	b.Flush()
	if got := b.Node(1).SatShrInt; got != 1 {
		t.Fatalf("shr-int = %d, want 1", got)
	}
}

func TestRemoteWriteInvalidates(t *testing.T) {
	b, f := twoNodeBoard(t)
	f.issue(bus.Read, 0x10000, 0)  // a holds line
	f.issue(bus.RWITM, 0x10000, 2) // b claims it
	f.issue(bus.Read, 0x10000, 0)  // a must miss now
	b.Flush()
	va := b.Node(0)
	if va.ReadMiss != 2 {
		t.Fatalf("node a read misses = %d, want 2 (invalidated between)", va.ReadMiss)
	}
	if b.Counters().Value("nodea.snoop.invalidated") != 1 {
		t.Fatal("invalidation not counted")
	}
	// And the second miss is satisfied by b's modified copy.
	if va.SatModInt != 1 {
		t.Fatalf("node a satisfaction: %+v", va)
	}
}

func TestGroupsDoNotSnoopEachOther(t *testing.T) {
	b, err := NewBoard(Config{Nodes: []NodeConfig{
		nodeCfg("a", []int{0, 1}, 64, 4, 0),
		nodeCfg("b", []int{0, 1}, 64, 8, 1), // alternative config, same CPUs
	}})
	if err != nil {
		t.Fatal(err)
	}
	f := &feeder{board: b}
	f.issue(bus.Read, 0x4000, 0)
	b.Flush()
	va, vb := b.Node(0), b.Node(1)
	// Both universes observe the read as local and miss to memory: no
	// cross-universe interventions.
	if va.ReadMiss != 1 || vb.ReadMiss != 1 {
		t.Fatalf("both configs must process: a=%+v b=%+v", va, vb)
	}
	if va.SatMemory != 1 || vb.SatMemory != 1 {
		t.Fatalf("cross-group snoop leaked: a=%+v b=%+v", va, vb)
	}
}

func TestCastoutAbsorbedAndAllocated(t *testing.T) {
	b, f := twoNodeBoard(t)
	f.issue(bus.Read, 0x14000, 0)    // line present (E)
	f.issue(bus.Castout, 0x14000, 0) // absorbed, becomes M
	f.issue(bus.Castout, 0x18000, 0) // absent: allocated M
	b.Flush()
	bank := b.Counters()
	if bank.Value("nodea.castout.absorbed") != 1 {
		t.Fatal("castout not absorbed")
	}
	if bank.Value("nodea.castout.allocated") != 1 {
		t.Fatal("castout not allocated")
	}
	// Both lines must now be dirty in the directory.
	f.issue(bus.Read, 0x14000, 2) // node b reads: mod intervention from a
	b.Flush()
	if b.Node(1).SatModInt != 1 {
		t.Fatal("absorbed castout did not leave the line modified")
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	// 2KB direct-mapped: 16 sets of 128B.
	b, err := NewBoard(Config{Nodes: []NodeConfig{{
		Name:     "a",
		CPUs:     []int{0},
		Geometry: addr.MustGeometry(2*addr.KB, 128, 1),
		Policy:   cache.LRU,
		Protocol: protocols.MustLoad("mesi"),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	f := &feeder{board: b}
	f.issue(bus.RWITM, 0x0000, 0)  // set 0, dirty
	f.issue(bus.RWITM, 0x10000, 0) // same set, evicts dirty victim
	b.Flush()
	bank := b.Counters()
	if bank.Value("nodea.evictions") != 1 || bank.Value("nodea.evictions.dirty") != 1 {
		t.Fatalf("evictions=%d dirty=%d", bank.Value("nodea.evictions"), bank.Value("nodea.evictions.dirty"))
	}
	if bank.Value("nodea.writeback") != 1 {
		t.Fatal("dirty eviction must count a writeback")
	}
}

func TestBufferOverflowCountsAndOptionallyRetries(t *testing.T) {
	const depth, n = 4, 64
	mk := func(retry bool) (*Board, int) {
		b, err := NewBoard(Config{
			Nodes:           []NodeConfig{nodeCfg("a", []int{0}, 64, 4, 0)},
			BufferDepth:     depth,
			RetryOnOverflow: retry,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Saturating burst: all transactions arrive in consecutive
		// cycles, far faster than one directory op per ~23 cycles.
		retries := 0
		for i := 0; i < n; i++ {
			tx := &bus.Transaction{Cmd: bus.Read, Addr: uint64(i) * 128, Size: 128, SrcID: 0, Cycle: uint64(i)}
			if b.Snoop(tx) == bus.RespRetry {
				retries++
			}
			// A posted retry keeps the transaction out of the buffer, so
			// only count-only mode may run past its depth.
			if retry && b.PendingDepth() > depth {
				t.Fatalf("after transaction %d the buffer holds %d, depth %d", i, b.PendingDepth(), depth)
			}
		}
		return b, retries
	}
	flushed := func(b *Board) {
		t.Helper()
		b.Flush()
		if refs, acc := b.Node(0).Refs(), b.Counters().Value("filter.accepted"); refs != acc {
			t.Fatalf("node serviced %d refs, filter accepted %d", refs, acc)
		}
	}
	b, retries := mk(false)
	if b.Counters().Value("buffer.overflow") == 0 {
		t.Fatal("overflow burst not detected")
	}
	if retries != 0 {
		t.Fatal("count-only mode posted retries")
	}
	if acc := b.Counters().Value("filter.accepted"); acc != n {
		t.Fatalf("count-only mode accepted %d of %d", acc, n)
	}
	flushed(b)

	b2, retries2 := mk(true)
	bank := b2.Counters()
	if retries2 == 0 {
		t.Fatal("retry mode posted no retries")
	}
	if bank.Value("buffer.retry-posted") != uint64(retries2) {
		t.Fatal("retry counter mismatch")
	}
	if acc, posted := bank.Value("filter.accepted"), bank.Value("buffer.retry-posted"); acc+posted != n {
		t.Fatalf("retry mode accepted %d and posted %d retries, want %d in all", acc, posted, n)
	}
	if hw := bank.Value("buffer.high-water"); hw > depth {
		t.Fatalf("retry mode high-water %d, depth %d", hw, depth)
	}
	flushed(b2)
}

func TestLockStepPacingDefersProcessing(t *testing.T) {
	b, err := NewBoard(Config{Nodes: []NodeConfig{nodeCfg("a", []int{0}, 64, 4, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	// Burst at cycle ~0: the SDRAM cannot keep up, so the queue builds.
	for i := 0; i < 20; i++ {
		b.Snoop(&bus.Transaction{Cmd: bus.Read, Addr: uint64(i) * 4096, Size: 128, SrcID: 0, Cycle: uint64(i)})
	}
	if b.PendingDepth() == 0 {
		t.Fatal("burst did not queue (SDRAM pacing missing)")
	}
	b.Flush()
	if b.PendingDepth() != 0 {
		t.Fatal("Flush left work pending")
	}
	if b.Node(0).Refs() != 20 {
		t.Fatalf("processed %d refs, want 20", b.Node(0).Refs())
	}
}

func TestBufferKeepsUpAtPaperUtilization(t *testing.T) {
	// At <=20% utilization the 512-entry buffer must never overflow —
	// the paper's "never once posted a retry" claim.
	b, err := NewBoard(Config{Nodes: []NodeConfig{nodeCfg("a", []int{0, 1, 2, 3}, 1024, 4, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(1)
	cycle := uint64(0)
	for i := 0; i < 200000; i++ {
		// 20% utilization: one memory op per ~48 cycles (op occupies
		// ~9.6); randomize arrival gaps.
		cycle += 30 + uint64(rng.Intn(37))
		b.Snoop(&bus.Transaction{Cmd: bus.Read, Addr: uint64(rng.Intn(1<<28)) &^ 127, Size: 128, SrcID: int(rng.Intn(4)), Cycle: cycle})
	}
	if got := b.Counters().Value("buffer.overflow"); got != 0 {
		t.Fatalf("buffer overflowed %d times at 20%% utilization", got)
	}
	hw := b.Counters().Value("buffer.high-water")
	if hw >= DefaultBufferDepth {
		t.Fatalf("high water %d reached buffer depth", hw)
	}
}

// TestTraceCaptureMode: the tracer is the board's trace-collection mode
// (§2.3). It records accepted memory transactions its filter matches, a
// full ring drops the rest, and trace.captured and trace.dropped count
// what it stored and lost.
func TestTraceCaptureMode(t *testing.T) {
	b, err := NewBoard(Config{Nodes: []NodeConfig{nodeCfg("a", []int{0}, 64, 4, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	var evs []obs.Event
	if err := b.Observe(obs.NewRegistry(), func(ev obs.Event) { evs = append(evs, ev) }, "board", 8); err != nil {
		t.Fatal(err)
	}
	b.Tracer().Enable(obs.Filter{})
	f := &feeder{board: b}
	for i := 0; i < 12; i++ {
		f.issue(bus.Read, uint64(i)*128, 0)
	}
	f.issue(bus.IORead, 0, 0) // filtered, must not be traced
	b.Flush()
	if b.Counters().Value("trace.captured") != 8 || b.Counters().Value("trace.dropped") != 4 {
		t.Fatalf("capture counters: %s", b.Counters().Dump("trace"))
	}
	b.Tracer().Drain()
	if len(evs) != 8 || evs[3].Addr != 3*128 || bus.Command(evs[3].Cmd) != bus.Read {
		t.Fatalf("drained %d records, record 3 = %+v", len(evs), evs)
	}
	// What the filter passes over is neither stored nor dropped.
	b.Tracer().Enable(obs.Filter{AddrHi: 128})
	for i := 0; i < 3; i++ {
		f.issue(bus.Read, uint64(i)*128, 0)
	}
	b.Flush()
	if b.Counters().Value("trace.captured") != 9 || b.Counters().Value("trace.dropped") != 4 {
		t.Fatalf("capture counters after a filtered window: %s", b.Counters().Dump("trace"))
	}
}

func TestMissRatioProfile(t *testing.T) {
	b, err := NewBoard(Config{
		Nodes:               []NodeConfig{nodeCfg("a", []int{0}, 64, 4, 0)},
		ProfileBucketCycles: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &feeder{board: b}
	for i := 0; i < 100; i++ {
		f.issue(bus.Read, uint64(i%4)*128, 0) // mostly hits after warmup
	}
	b.Flush()
	prof := b.Profile(0)
	if prof == nil || prof.Len() == 0 {
		t.Fatal("profiling produced no buckets")
	}
	if prof.Mean() >= 0.5 {
		t.Fatalf("profile mean %.2f too high for a hit-dominated stream", prof.Mean())
	}
}

func TestReprogramChangesGeometryKeepsCounters(t *testing.T) {
	b, f := twoNodeBoard(t)
	f.issue(bus.Read, 0x4000, 0)
	b.Flush()
	before := b.Node(0).ReadMiss
	nc := nodeCfg("a", []int{0, 1}, 128, 8, 0)
	if err := b.Reprogram(0, nc); err != nil {
		t.Fatal(err)
	}
	// Directory cleared: the same read misses again.
	f.issue(bus.Read, 0x4000, 0)
	b.Flush()
	v := b.Node(0)
	if v.ReadMiss != before+1 {
		t.Fatalf("read misses = %d, want %d (counters preserved, directory cleared)", v.ReadMiss, before+1)
	}
	if v.Geometry != "128KB 8-way, 128B lines" {
		t.Fatalf("geometry = %q", v.Geometry)
	}
	// Reprogram cannot rename or double-own CPUs.
	bad := nodeCfg("z", []int{0, 1}, 128, 8, 0)
	if err := b.Reprogram(0, bad); err == nil {
		t.Fatal("rename accepted")
	}
	if err := b.Reprogram(7, nc); err == nil {
		t.Fatal("bad index accepted")
	}
}

// TestRejectedReprogramLeavesNodeIntact: a reprogram refused for claiming
// a peer's CPUs must change nothing — the old node keeps its CPUs, its
// traffic still reaches it, and no counter appears for the refused IDs.
func TestRejectedReprogramLeavesNodeIntact(t *testing.T) {
	b, f := twoNodeBoard(t)
	names := len(b.Counters().Snapshot())
	if err := b.Reprogram(0, nodeCfg("a", []int{2, 3}, 64, 4, 0)); err == nil {
		t.Fatal("reprogram onto node b's CPUs accepted")
	}
	f.issue(bus.Read, 0x4000, 0)
	b.Flush()
	if got := b.Counters().Value("filter.unassigned"); got != 0 {
		t.Fatalf("filter.unassigned = %d after a rejected reprogram, want 0", got)
	}
	if got := b.Node(0).ReadMiss; got != 1 {
		t.Fatalf("node a read misses = %d, want 1", got)
	}
	if got := len(b.Counters().Snapshot()); got != names {
		t.Fatalf("rejected reprogram grew the counter bank from %d to %d names", names, got)
	}
	// Keeping its own CPUs (and taking a free one) is not a conflict.
	if err := b.Reprogram(0, nodeCfg("a", []int{0, 1, 5}, 64, 4, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestWildStateDropsLine: a directory state the protocol cannot produce
// (Owned under MESI) is dropped, counted, and treated as a miss on both
// the local and the snoop path — and the fill that follows sees the set
// as it is after the drop, so a second copy of the tag (a tag-bit soft
// error) is updated in place rather than joined by a third.
func TestWildStateDropsLine(t *testing.T) {
	b, f := twoNodeBoard(t) // 64 KB 4-way: set 0 is every 16 KB
	const lineA, lineB, lineC = 0x0000, 0x4000, 0x8000
	wild := uint8(coherence.Exclusive ^ coherence.Owned)
	f.issue(bus.Read, lineA, 0) // node a slot 0
	f.issue(bus.Read, lineB, 0) // node a slot 1
	b.Flush()
	b.CorruptDirectory(0, 1, 0^1, 0) // slot 1's tag becomes A's
	b.CorruptDirectory(0, 0, 0, wild)
	f.issue(bus.Read, lineA, 0)
	b.Flush()
	if got := b.Counters().Value("nodea.ecc.wild-state"); got != 1 {
		t.Fatalf("local path: wild-state = %d, want 1", got)
	}
	if got := b.Node(0).ReadMiss; got != 3 {
		t.Fatalf("local path: read misses = %d, want 3 (the wild hit is a miss)", got)
	}
	if got := b.DirectoryResident(0); got != 1 {
		t.Fatalf("local path: %d resident lines, want 1 (second copy reused)", got)
	}

	f.issue(bus.Read, lineC, 0) // takes the freed slot 0
	b.Flush()
	b.CorruptDirectory(0, 0, 0, wild)
	f.issue(bus.Read, lineC, 2) // node b reads; node a snoops its wild copy
	b.Flush()
	if got := b.Counters().Value("nodea.ecc.wild-state"); got != 2 {
		t.Fatalf("snoop path: wild-state = %d, want 2", got)
	}
	if got := b.DirectoryResident(0); got != 1 {
		t.Fatalf("snoop path: %d resident lines in node a, want 1", got)
	}
	if got := b.Counters().Value("nodea.snoop.read.hit"); got != 0 {
		t.Fatalf("snoop path: snoop read hits = %d, want 0", got)
	}
}

func TestMoreThan400Counters(t *testing.T) {
	// The paper: "The MemorIES board contains more than 400 counters".
	// A fully populated board (4 nodes, 12 CPUs) must honor that.
	cpus := func(lo, hi int) []int {
		var out []int
		for i := lo; i <= hi; i++ {
			out = append(out, i)
		}
		return out
	}
	b, err := NewBoard(Config{Nodes: []NodeConfig{
		nodeCfg("a", cpus(0, 5), 1024, 4, 0),
		nodeCfg("b", cpus(6, 11), 1024, 4, 0),
		nodeCfg("c", cpus(0, 5), 2048, 8, 1),
		nodeCfg("d", cpus(6, 11), 2048, 8, 1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Counters().Len(); got <= 400 {
		t.Fatalf("board has %d counters, paper says more than 400", got)
	}
}

func TestDifferentProtocolsPerNode(t *testing.T) {
	// §3.2: "Different state table files could be loaded to different
	// node controller FPGAs to experiment with different coherence
	// protocols during the same measurement." Two configs of the same
	// node, one MESI one MSI: after a read miss, a local write upgrade
	// differs (E->M silent vs S->M upgrade).
	msi := nodeCfg("b", []int{0}, 64, 4, 1)
	msi.Protocol = protocols.MustLoad("msi")
	b, err := NewBoard(Config{Nodes: []NodeConfig{
		nodeCfg("a", []int{0}, 64, 4, 0),
		msi,
	}})
	if err != nil {
		t.Fatal(err)
	}
	f := &feeder{board: b}
	f.issue(bus.Read, 0x4000, 0)
	f.issue(bus.RWITM, 0x4000, 0)
	b.Flush()
	bank := b.Counters()
	if bank.Value("nodea.upgrades") != 0 {
		t.Fatal("MESI write-hit on E must not count an upgrade")
	}
	if bank.Value("nodeb.upgrades") != 1 {
		t.Fatal("MSI write-hit on S must count an upgrade")
	}
}

func TestDirectoryOccupancy(t *testing.T) {
	b, f := twoNodeBoard(t)
	f.issue(bus.Read, 0x4000, 0)
	f.issue(bus.RWITM, 0x8000, 0)
	b.Flush()
	if got := b.DirectoryOccupancy(0); got != 2 {
		t.Fatalf("occupancy = %d, want 2", got)
	}
	bank := b.Counters()
	if bank.Value("nodea.occupancy.E")+bank.Value("nodea.occupancy.M") != 2 {
		t.Fatalf("occupancy counters: %s", bank.Dump("nodea.occupancy"))
	}
}

func TestBoardWithHostIntegration(t *testing.T) {
	hcfg := host.DefaultConfig()
	hcfg.NumCPUs = 8
	hcfg.L2Bytes = 256 * addr.KB // small L2 so plenty of traffic escapes
	gen := workload.NewTPCC(workload.ScaledTPCCConfig(512))
	h := host.MustNew(hcfg, gen)
	b := MustNewBoard(Config{Nodes: []NodeConfig{
		nodeCfg("a", []int{0, 1, 2, 3, 4, 5, 6, 7}, 4096, 4, 0),
	}})
	h.Bus().Attach(b)
	h.Run(300_000)
	b.Flush()
	v := b.Node(0)
	if v.Refs() == 0 {
		t.Fatal("board saw no traffic")
	}
	mr := v.MissRatio()
	if mr <= 0 || mr >= 1 {
		t.Fatalf("miss ratio = %v", mr)
	}
	// The paper's headline passivity claim: at real utilization the
	// buffers never overflow.
	if b.Counters().Value("buffer.overflow") != 0 {
		t.Fatal("board overflowed under a realistic host")
	}
	// Host L2 misses equal board-visible reads+writes (every L2 miss and
	// upgrade reaches the bus; castouts are separate).
	hs := h.Stats()
	if v.Refs() != hs.L2Misses+hs.Upgrades {
		t.Fatalf("board refs %d != host L2 misses %d + upgrades %d", v.Refs(), hs.L2Misses, hs.Upgrades)
	}
}

// retrier is a bus device that retries the first n transactions it sees.
type retrier struct{ left int }

func (r *retrier) BusID() int { return 30 }
func (r *retrier) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	if r.left > 0 && tx.Cmd.IsMemoryOp() {
		r.left--
		return bus.RespRetry
	}
	return bus.RespNull
}

// TestRetriedOperationsFilteredOut checks §3.3: operations rejected
// (retried) by other bus devices never occupy buffer space or touch the
// emulated directories.
func TestRetriedOperationsFilteredOut(t *testing.T) {
	b := MustNewBoard(Config{Nodes: []NodeConfig{nodeCfg("a", []int{0}, 64, 4, 0)}})
	busLine := bus.New(bus.DefaultConfig())
	busLine.Attach(b)
	r := &retrier{left: 3}
	busLine.Attach(r)

	for i := 0; i < 10; i++ {
		busLine.Issue(&bus.Transaction{Cmd: bus.Read, Addr: 0x4000, Size: 128, SrcID: 0})
		busLine.AdvanceTo(busLine.Cycle() + 100)
	}
	b.Flush()
	v := b.Node(0)
	if got := b.Counters().Value("filter.rejected.retried"); got != 3 {
		t.Fatalf("rejected.retried = %d, want 3", got)
	}
	// 7 operations survive: 1 miss then 6 hits.
	if v.ReadMiss != 1 || v.ReadHit != 6 {
		t.Fatalf("node view after retries: %+v", v)
	}
}

func TestRealTimeModel(t *testing.T) {
	m := PaperRealTimeModel()
	// Table 3: 10 million references -> ~1 second? No: paper says 10M in
	// 1 second (from its table, at 20% utilization): 100MHz*0.2/9.6 =
	// 2.08M ops/s -> 10M refs = 4.8s. The paper's own numbers imply ~2
	// cycles per vector; Table 3 treats trace vectors arriving at 20%
	// of 100MHz directly. Assert the model is self-consistent instead.
	if m.OpsPerSecond() <= 0 {
		t.Fatal("bad rate")
	}
	d1 := m.Duration(10_000_000)
	d2 := m.Duration(20_000_000)
	if d2 <= d1 {
		t.Fatal("duration must grow with trace length")
	}
}
