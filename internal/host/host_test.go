package host

import (
	"errors"
	"strings"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/workload"
)

// scriptGen replays a fixed list of references.
type scriptGen struct {
	refs []workload.Ref
	i    int
}

func (s *scriptGen) Name() string     { return "script" }
func (s *scriptGen) Footprint() int64 { return 1 << 30 }
func (s *scriptGen) Next() (workload.Ref, bool) {
	if s.i >= len(s.refs) {
		return workload.Ref{}, false
	}
	r := s.refs[s.i]
	s.i++
	if r.Instrs == 0 {
		r.Instrs = 1
	}
	return r, true
}

// busSpy records all transactions passively.
type busSpy struct {
	seen []bus.Transaction
}

func (s *busSpy) BusID() int { return -1 }
func (s *busSpy) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	s.seen = append(s.seen, *tx)
	return bus.RespNull
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumCPUs = 4
	cfg.L1Bytes = 8 * addr.KB
	cfg.L2Bytes = 64 * addr.KB
	cfg.IOFraction = 0
	return cfg
}

func (s *busSpy) byCmd(cmd bus.Command) []bus.Transaction {
	var out []bus.Transaction
	for _, tx := range s.seen {
		if tx.Cmd == cmd {
			out = append(out, tx)
		}
	}
	return out
}

func TestColdReadMissGoesToBus(t *testing.T) {
	gen := &scriptGen{refs: []workload.Ref{{Addr: 0x10000, CPU: 0}}}
	h := MustNew(testConfig(), gen)
	spy := &busSpy{}
	h.Bus().Attach(spy)
	h.Run(10)
	reads := spy.byCmd(bus.Read)
	if len(reads) != 1 {
		t.Fatalf("reads on bus = %d, want 1", len(reads))
	}
	if reads[0].Addr != 0x10000 || reads[0].SrcID != 0 {
		t.Fatalf("read tx = %+v", reads[0])
	}
	s := h.Stats()
	if s.L2Misses != 1 || s.L1Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRepeatReadHitsInL1(t *testing.T) {
	gen := &scriptGen{refs: []workload.Ref{
		{Addr: 0x10000, CPU: 0},
		{Addr: 0x10000, CPU: 0},
		{Addr: 0x10040, CPU: 0}, // same 128B line
	}}
	h := MustNew(testConfig(), gen)
	spy := &busSpy{}
	h.Bus().Attach(spy)
	h.Run(10)
	if len(spy.seen) != 1 {
		t.Fatalf("bus transactions = %d, want 1 (only the cold miss)", len(spy.seen))
	}
	if h.Stats().L1Hits != 2 {
		t.Fatalf("L1Hits = %d, want 2", h.Stats().L1Hits)
	}
}

func TestWriteMissUsesRWITM(t *testing.T) {
	gen := &scriptGen{refs: []workload.Ref{{Addr: 0x20000, CPU: 1, Write: true}}}
	h := MustNew(testConfig(), gen)
	spy := &busSpy{}
	h.Bus().Attach(spy)
	h.Run(10)
	if len(spy.byCmd(bus.RWITM)) != 1 {
		t.Fatalf("RWITM count = %d, want 1", len(spy.byCmd(bus.RWITM)))
	}
}

func TestWriteToSharedUpgradesWithDClaim(t *testing.T) {
	gen := &scriptGen{refs: []workload.Ref{
		{Addr: 0x30000, CPU: 0},              // cpu0 reads: E
		{Addr: 0x30000, CPU: 1},              // cpu1 reads: both S
		{Addr: 0x30000, CPU: 0, Write: true}, // cpu0 writes: DClaim
		{Addr: 0x30000, CPU: 1},              // cpu1 re-reads: miss (invalidated)
	}}
	h := MustNew(testConfig(), gen)
	spy := &busSpy{}
	h.Bus().Attach(spy)
	h.Run(10)
	if n := len(spy.byCmd(bus.DClaim)); n != 1 {
		t.Fatalf("DClaim count = %d, want 1", n)
	}
	// cpu1's second read must be a fresh bus read (its copy was killed).
	if n := len(spy.byCmd(bus.Read)); n != 3 {
		t.Fatalf("Read count = %d, want 3", n)
	}
	if h.Stats().Invalidations == 0 {
		t.Fatal("no invalidations recorded")
	}
}

func TestModifiedInterventionOnRemoteRead(t *testing.T) {
	gen := &scriptGen{refs: []workload.Ref{
		{Addr: 0x40000, CPU: 0, Write: true}, // cpu0 owns M
		{Addr: 0x40000, CPU: 1},              // cpu1 reads: mod intervention
	}}
	h := MustNew(testConfig(), gen)
	h.Run(10)
	if h.Stats().IntervModSup != 1 {
		t.Fatalf("IntervModSup = %d, want 1", h.Stats().IntervModSup)
	}
}

func TestExclusiveDowngradeSuppliesShared(t *testing.T) {
	gen := &scriptGen{refs: []workload.Ref{
		{Addr: 0x50000, CPU: 0}, // cpu0 E
		{Addr: 0x50000, CPU: 1}, // cpu1 read: shared intervention
	}}
	h := MustNew(testConfig(), gen)
	h.Run(10)
	if h.Stats().IntervShrSup != 1 {
		t.Fatalf("IntervShrSup = %d, want 1", h.Stats().IntervShrSup)
	}
}

func TestDirtyEvictionCastsOut(t *testing.T) {
	cfg := testConfig()
	// Direct-mapped tiny L2 to force conflict evictions.
	cfg.L2Bytes = 8 * addr.KB
	cfg.L2Assoc = 1
	cfg.L1Bytes = 8 * addr.KB
	gen := &scriptGen{refs: []workload.Ref{
		{Addr: 0x00000, CPU: 0, Write: true},
		{Addr: 0x10000, CPU: 0, Write: true}, // same set (8KB DM), evicts dirty
	}}
	h := MustNew(cfg, gen)
	spy := &busSpy{}
	h.Bus().Attach(spy)
	h.Run(10)
	casts := spy.byCmd(bus.Castout)
	if len(casts) != 1 {
		t.Fatalf("Castout count = %d, want 1", len(casts))
	}
	if casts[0].Addr != 0 {
		t.Fatalf("castout addr = %#x, want 0", casts[0].Addr)
	}
}

func TestL2DisabledMakesL1CoherencePoint(t *testing.T) {
	cfg := testConfig()
	cfg.L2Enabled = false
	gen := &scriptGen{refs: []workload.Ref{
		{Addr: 0x60000, CPU: 0},
		{Addr: 0x60000, CPU: 0},
	}}
	h := MustNew(cfg, gen)
	spy := &busSpy{}
	h.Bus().Attach(spy)
	h.Run(10)
	if len(spy.seen) != 1 {
		t.Fatalf("bus transactions = %d, want 1", len(spy.seen))
	}
	// With the small L1 as the only cache, misses reach the bus sooner:
	// a sweep larger than L1 must produce more traffic than with L2 on.
	sweep := func(l2 bool) uint64 {
		cfg := testConfig()
		cfg.L2Enabled = l2
		var refs []workload.Ref
		for a := uint64(0); a < 64*1024; a += 128 {
			refs = append(refs, workload.Ref{Addr: a, CPU: 0})
		}
		refs = append(refs, refs...) // two passes
		h := MustNew(cfg, &scriptGen{refs: refs})
		h.Run(uint64(len(refs)))
		return h.Stats().L2Misses
	}
	if sweep(false) <= sweep(true) {
		t.Fatal("disabling L2 should increase bus misses for a 64KB sweep")
	}
}

func TestInclusionHoldsUnderRandomLoad(t *testing.T) {
	cfg := testConfig()
	gen := workload.NewUniform(workload.UniformConfig{
		NumCPUs: cfg.NumCPUs, FootprintByte: 2 * addr.MB, WriteFraction: 0.3, Seed: 9,
	})
	h := MustNew(cfg, gen)
	h.Run(300_000)
	if bad, violated := h.CheckInclusion(); violated {
		t.Fatalf("inclusion violated at %#x", bad)
	}
}

func TestUtilizationInPaperBand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCPUs = 8
	gen := workload.NewTPCC(workload.ScaledTPCCConfig(256))
	h := MustNew(cfg, gen)
	h.Run(400_000)
	u := h.Bus().Utilization()
	if u < 0.01 || u > 0.42 {
		t.Fatalf("bus utilization %.3f outside sane band (paper observed 2-20%%)", u)
	}
}

func TestIOInjection(t *testing.T) {
	cfg := testConfig()
	cfg.IOFraction = 0.2
	gen := workload.NewUniform(workload.UniformConfig{NumCPUs: 4, FootprintByte: addr.MB, Seed: 2})
	h := MustNew(cfg, gen)
	spy := &busSpy{}
	h.Bus().Attach(spy)
	h.Run(10_000)
	if h.Stats().IOOps == 0 {
		t.Fatal("no I/O injected")
	}
	nonMem := 0
	for _, tx := range spy.seen {
		if !tx.Cmd.IsMemoryOp() {
			nonMem++
		}
	}
	if uint64(nonMem) != h.Stats().IOOps {
		t.Fatalf("bus saw %d non-memory ops, stats say %d", nonMem, h.Stats().IOOps)
	}
}

func TestRunStopsAtStreamEnd(t *testing.T) {
	gen := &scriptGen{refs: make([]workload.Ref, 5)}
	h := MustNew(testConfig(), gen)
	if n := h.Run(100); n != 5 {
		t.Fatalf("Run = %d, want 5", n)
	}
}

func TestEstimatedRuntimeGrowsWithMisses(t *testing.T) {
	mk := func(l2bytes int64) float64 {
		cfg := testConfig()
		cfg.L2Bytes = l2bytes
		gen := workload.NewUniform(workload.UniformConfig{
			NumCPUs: 4, FootprintByte: 4 * addr.MB, Seed: 3,
		})
		h := MustNew(cfg, gen)
		h.Run(200_000)
		return h.EstimatedRuntimeSeconds()
	}
	small, big := mk(16*addr.KB), mk(4*addr.MB)
	if small <= big {
		t.Fatalf("runtime with small L2 (%.4fs) not above big L2 (%.4fs)", small, big)
	}
}

func TestInstructionsAccumulated(t *testing.T) {
	gen := &scriptGen{refs: []workload.Ref{
		{Addr: 0x1000, CPU: 0, Instrs: 10},
		{Addr: 0x2000, CPU: 1, Instrs: 20},
	}}
	h := MustNew(testConfig(), gen)
	h.Run(10)
	if h.Stats().Instructions != 30 {
		t.Fatalf("Instructions = %d, want 30", h.Stats().Instructions)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.NumCPUs = 0
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("accepted zero CPUs")
	}
	cfg = testConfig()
	cfg.L2Bytes = 100 // not pow2
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("accepted invalid L2 geometry")
	}
}

// TestCacheFootprintIsPackedWordPerSlot pins the host-side cost of the
// packed directory layout: LRU caches carry no sidecars, so the modeled
// SMP's L1+L2 tag storage is exactly one 8-byte word per slot.
func TestCacheFootprintIsPackedWordPerSlot(t *testing.T) {
	h := MustNew(testConfig(), &scriptGen{})
	var slots, bytes int64
	for _, c := range h.cpus {
		if c.l1 != nil {
			slots += c.l1.SlotCount()
			bytes += c.l1.DirectoryBytes()
		}
		slots += c.coh.SlotCount()
		bytes += c.coh.DirectoryBytes()
	}
	if slots == 0 {
		t.Fatal("host built no cache slots")
	}
	if bytes != 8*slots {
		t.Fatalf("cache directories = %d bytes, want %d (8 B x %d slots)", bytes, 8*slots, slots)
	}
}

// failGen emits n good references and then fails its stream, modeling a
// trace reader hitting a truncated file.
type failGen struct {
	left int
	err  error
}

func (g *failGen) Name() string     { return "failing" }
func (g *failGen) Footprint() int64 { return 1 << 20 }
func (g *failGen) Err() error       { return g.err }
func (g *failGen) Next() (workload.Ref, bool) {
	if g.left == 0 {
		g.err = errTruncated
		return workload.Ref{}, false
	}
	g.left--
	return workload.Ref{Addr: uint64(g.left) * 128, Instrs: 1}, true
}

var errTruncated = errors.New("trace truncated")

// TestRunSurfacesExhaustionVsError is the regression test for the Err
// sentinel: Step returning false used to conflate "stream finished" with
// "stream broke"; Err tells them apart.
func TestRunSurfacesExhaustionVsError(t *testing.T) {
	// Normal end of stream: ErrExhausted.
	done := MustNew(testConfig(), &scriptGen{refs: []workload.Ref{{Addr: 4096}, {Addr: 8192}}})
	if n := done.Run(10); n != 2 || !errors.Is(done.Err(), ErrExhausted) {
		t.Fatalf("Run = %d, Err = %v, want 2, ErrExhausted", n, done.Err())
	}

	// Broken stream: the generator's own error, wrapped — distinct from
	// exhaustion.
	broken := MustNew(testConfig(), &failGen{left: 5})
	if n := broken.Run(10); n != 5 {
		t.Fatalf("Run processed %d refs, want 5", n)
	}
	if err := broken.Err(); !errors.Is(err, errTruncated) || errors.Is(err, ErrExhausted) {
		t.Fatalf("Err = %v, want wrapped errTruncated", err)
	}

	// A full run reports no terminal condition.
	live := MustNew(testConfig(), &failGen{left: 100})
	if n := live.Run(10); n != 10 || live.Err() != nil {
		t.Fatalf("Run = %d, Err = %v mid-stream, want 10, nil", n, live.Err())
	}
}

// TestWrappedStreamFailureSurfaces: Limit and WithDisturbance forward
// the wrapped stream's failure (workload.ErrReporter), so a host over a
// wrapper reports the generator's error, not ErrExhausted, under each
// mode's prefix.
func TestWrappedStreamFailureSurfaces(t *testing.T) {
	wrappers := []struct {
		name string
		wrap func(workload.Generator) workload.Generator
	}{
		{"limit", func(g workload.Generator) workload.Generator { return workload.Limit(g, 100) }},
		{"disturbance", func(g workload.Generator) workload.Generator {
			return workload.WithDisturbance(g, workload.DisturbanceConfig{PeriodRefs: 3, BurstRefs: 2, JournalBytes: addr.MB})
		}},
	}
	check := func(t *testing.T, h *Host, prefix string) {
		t.Helper()
		h.Run(1000)
		err := h.Err()
		if !errors.Is(err, errTruncated) || errors.Is(err, ErrExhausted) || !strings.HasPrefix(err.Error(), prefix) {
			t.Fatalf("Err = %v, want errTruncated wrapped under %q", err, prefix)
		}
	}
	for _, w := range wrappers {
		t.Run(w.name+"/merged", func(t *testing.T) {
			check(t, MustNew(testConfig(), w.wrap(&failGen{left: 5})), `host: workload "failing`)
		})
		t.Run(w.name+"/per-cpu", func(t *testing.T) {
			streams := make([]workload.Generator, 2)
			streams[1] = w.wrap(&failGen{left: 5})
			check(t, MustNewPerCPU(perCPUTestConfig(2), streams, EngineWheel), "host: cpu 1 stream: ")
		})
	}
}

// TestCheckInclusionNonDefaultGeometries exercises the inclusion checker
// away from the 8-way default: an L2-disabled host (no L1/L2 pair, so
// inclusion is vacuous), a direct-mapped L2 under heavy eviction
// pressure, and a deliberately broken hierarchy.
func TestCheckInclusionNonDefaultGeometries(t *testing.T) {
	// L2 off: the L1 is the coherence point; nothing to violate.
	noL2 := testConfig()
	noL2.NumCPUs = 2
	noL2.L2Enabled = false
	h := MustNew(noL2, workload.NewUniform(workload.UniformConfig{
		NumCPUs: 2, FootprintByte: addr.MB, WriteFraction: 0.3, Seed: 3,
	}))
	h.Run(20000)
	if bad, violated := h.CheckInclusion(); violated {
		t.Fatalf("L2-off host reported inclusion violation at %#x", bad)
	}

	// Direct-mapped 32KB L2 over a 16KB 4-way L1: constant L2 evictions
	// must keep invalidating the L1 to preserve inclusion.
	tight := testConfig()
	tight.NumCPUs = 12
	tight.L1Bytes = 16 * addr.KB
	tight.L1Assoc = 4
	tight.L2Bytes = 32 * addr.KB
	tight.L2Assoc = 1
	h = MustNew(tight, workload.NewUniform(workload.UniformConfig{
		NumCPUs: 12, FootprintByte: 4 * addr.MB, WriteFraction: 0.3, Seed: 5,
	}))
	h.Run(50000)
	if bad, violated := h.CheckInclusion(); violated {
		t.Fatalf("inclusion violated at line %#x", bad)
	}

	// Break inclusion by hand (invalidate an L2 line behind the L1's
	// back); the checker must catch it and name the line.
	gen := &scriptGen{refs: []workload.Ref{{Addr: 0x40000, CPU: 0}}}
	h = MustNew(testConfig(), gen)
	h.Run(1)
	line := h.cpus[0].coh.Geometry().LineAddr(0x40000)
	h.cpus[0].coh.Invalidate(line)
	bad, violated := h.CheckInclusion()
	if !violated || bad != line {
		t.Fatalf("CheckInclusion = (%#x, %v), want (%#x, true)", bad, violated, line)
	}
}

// TestEstimatedRuntimeNonDefaultGeometries cross-checks the runtime
// model against the closed-form expectation at machine shapes other
// than the 8-way default.
func TestEstimatedRuntimeNonDefaultGeometries(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"2cpu", func(c *Config) { c.NumCPUs = 2 }},
		{"12cpu-overlap4", func(c *Config) { c.NumCPUs = 12; c.MissOverlap = 4 }},
		{"l2off-fastclock", func(c *Config) { c.L2Enabled = false; c.CPUClockMHz = 500; c.CPI = 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mut(&cfg)
			h := MustNew(cfg, workload.NewUniform(workload.UniformConfig{
				NumCPUs: cfg.NumCPUs, FootprintByte: 2 * addr.MB, WriteFraction: 0.2, Seed: 7,
			}))
			h.Run(30000)
			s := h.Stats()
			if s.L2Misses == 0 {
				t.Fatal("degenerate run: no misses")
			}
			cpuHz := float64(cfg.CPUClockMHz) * 1e6
			busHz := float64(cfg.Bus.ClockMHz) * 1e6
			want := float64(s.Instructions)*cfg.CPI/cpuHz/float64(cfg.NumCPUs) +
				float64(s.L2Misses)*cfg.MissStallBusCycles/busHz/cfg.MissOverlap/float64(cfg.NumCPUs)
			got := h.EstimatedRuntimeSeconds()
			if diff := got - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("EstimatedRuntimeSeconds = %g, want %g", got, want)
			}
			if got <= 0 {
				t.Fatalf("runtime estimate %g not positive", got)
			}
		})
	}
}
