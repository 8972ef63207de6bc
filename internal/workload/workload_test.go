package workload

import (
	"testing"

	"memories/internal/addr"
)

func TestLayoutRegionsDisjoint(t *testing.T) {
	l := NewLayout()
	a := l.Region(10 * addr.MB)
	b := l.Region(1)
	c := l.Region(3 * addr.GB)
	regions := []Region{a, b, c}
	for i, r := range regions {
		for j, s := range regions {
			if i == j {
				continue
			}
			if r.Contains(s.Base) || s.Contains(r.Base) {
				t.Fatalf("regions %d and %d overlap: %+v %+v", i, j, r, s)
			}
		}
	}
	if a.Base == 0 {
		t.Fatal("layout allocated at address 0")
	}
}

func TestRegionAtWraps(t *testing.T) {
	r := Region{Base: 0x1000, Size: 256}
	if got := r.At(0); got != 0x1000 {
		t.Fatalf("At(0) = %#x", got)
	}
	if got := r.At(256); got != 0x1000 {
		t.Fatalf("At(size) should wrap, got %#x", got)
	}
	if got := r.At(-1); got != 0x10ff {
		t.Fatalf("At(-1) = %#x, want last byte", got)
	}
}

// TestWrapIsFlooredModulo: the mask wrap takes for a power-of-two count
// is the % and sign fix it replaced, negative indices included (the Zipf
// scatter's products overflow int64 past 2^31.7 slots).
func TestWrapIsFlooredModulo(t *testing.T) {
	r := NewRNG(9)
	for _, n := range []int64{1, 2, 3, 96, 128, 81920, 1 << 23, 6 << 30, 1 << 33, 1<<62 + 1, 1 << 62} {
		for i := 0; i < 2000; i++ {
			v := int64(r.Uint64())
			if i < 8 {
				v = []int64{0, -1, 1, n, -n, n - 1, 1 - n, -1 << 63}[i]
			}
			want := v % n
			if want < 0 {
				want += n
			}
			if got := wrap(v, n); got != want {
				t.Fatalf("wrap(%d, %d) = %d, want %d", v, n, got, want)
			}
		}
	}
}

func TestRegionSlots(t *testing.T) {
	r := Region{Base: 0x1000, Size: 1024}
	if got := r.Slots(128); got != 8 {
		t.Fatalf("Slots = %d", got)
	}
	if got := r.Slot(8, 128); got != 0x1000 {
		t.Fatalf("Slot wraps: got %#x", got)
	}
	if got := r.Slot(3, 128); got != 0x1000+3*128 {
		t.Fatalf("Slot(3) = %#x", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(100)
	diff := false
	a2 := NewRNG(99)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRNGFloatRange(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		f := r.Float()
		if f < 0 || f >= 1 {
			t.Fatalf("Float out of range: %v", f)
		}
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	r := NewRNG(7)
	z := NewZipf(r, 1.5, 1_000_000)
	const n = 100000
	inTop := 0
	for i := 0; i < n; i++ {
		if z.Sample() < 1000 { // top 0.1% of ranks
			inTop++
		}
	}
	frac := float64(inTop) / n
	if frac < 0.4 {
		t.Fatalf("top-1000 ranks got %.2f of accesses, want heavy concentration", frac)
	}
	// But the tail is not empty either.
	tail := 0
	for i := 0; i < n; i++ {
		if z.Sample() >= 100000 {
			tail++
		}
	}
	if tail == 0 {
		t.Fatal("zipf tail never sampled")
	}
}

func TestZipfBounds(t *testing.T) {
	r := NewRNG(8)
	z := NewZipf(r, 1.2, 100)
	for i := 0; i < 100000; i++ {
		s := z.Sample()
		if s < 0 || s >= 100 {
			t.Fatalf("sample %d out of range", s)
		}
	}
}

func TestLimitEndsStream(t *testing.T) {
	g := Limit(NewUniform(UniformConfig{NumCPUs: 2, FootprintByte: addr.MB}), 10)
	count := 0
	for {
		_, ok := g.Next()
		if !ok {
			break
		}
		count++
		if count > 20 {
			t.Fatal("Limit did not stop the stream")
		}
	}
	if count != 10 {
		t.Fatalf("got %d refs, want 10", count)
	}
}

func TestUniformSpreadsCPUsAndAddresses(t *testing.T) {
	g := NewUniform(UniformConfig{NumCPUs: 4, FootprintByte: addr.MB, WriteFraction: 0.5, Seed: 3})
	cpuSeen := map[int]int{}
	writes := 0
	for i := 0; i < 4000; i++ {
		ref, ok := g.Next()
		if !ok {
			t.Fatal("uniform ended")
		}
		cpuSeen[ref.CPU]++
		if ref.Write {
			writes++
		}
		if ref.CPU < 0 || ref.CPU >= 4 {
			t.Fatalf("bad CPU %d", ref.CPU)
		}
		if ref.Instrs == 0 {
			t.Fatal("zero instruction count")
		}
	}
	for cpu, n := range cpuSeen {
		if n != 1000 {
			t.Fatalf("cpu %d issued %d refs, want 1000 (round robin)", cpu, n)
		}
	}
	if writes < 1600 || writes > 2400 {
		t.Fatalf("writes = %d, want ~2000", writes)
	}
}

func TestStrideIsSequentialPerCPU(t *testing.T) {
	g := NewStride(StrideConfig{NumCPUs: 2, FootprintByte: addr.MB, Stride: 128})
	var prev [2]uint64
	for i := 0; i < 100; i++ {
		ref, _ := g.Next()
		if prev[ref.CPU] != 0 && ref.Addr != prev[ref.CPU]+128 {
			t.Fatalf("cpu %d: addr %#x after %#x, want +128", ref.CPU, ref.Addr, prev[ref.CPU])
		}
		prev[ref.CPU] = ref.Addr
	}
}

func TestStridePartitionsDisjoint(t *testing.T) {
	g := NewStride(StrideConfig{NumCPUs: 4, FootprintByte: 4 * addr.MB})
	seen := map[int]map[uint64]bool{}
	for i := 0; i < 100000; i++ {
		ref, _ := g.Next()
		if seen[ref.CPU] == nil {
			seen[ref.CPU] = map[uint64]bool{}
		}
		seen[ref.CPU][ref.Addr] = true
	}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			for addr := range seen[a] {
				if seen[b][addr] {
					t.Fatalf("cpus %d and %d both touched %#x", a, b, addr)
				}
			}
		}
	}
}

func TestZipfianStaysInRegion(t *testing.T) {
	g := NewZipfian(ZipfConfig{NumCPUs: 2, FootprintByte: 16 * addr.MB, Seed: 4})
	for i := 0; i < 50000; i++ {
		ref, _ := g.Next()
		if ref.Addr < 1<<20 || ref.Addr >= uint64(1<<20)+uint64(g.Footprint())+uint64(1<<20) {
			t.Fatalf("address %#x escaped region", ref.Addr)
		}
	}
}

func TestTPCCDeterministicAndInBounds(t *testing.T) {
	cfg := ScaledTPCCConfig(1024) // ~150MB
	g1, g2 := NewTPCC(cfg), NewTPCC(cfg)
	for i := 0; i < 20000; i++ {
		r1, _ := g1.Next()
		r2, _ := g2.Next()
		if r1 != r2 {
			t.Fatalf("tpcc not deterministic at ref %d: %+v vs %+v", i, r1, r2)
		}
		if r1.CPU < 0 || r1.CPU >= cfg.NumCPUs {
			t.Fatalf("bad cpu %d", r1.CPU)
		}
	}
}

func TestTPCCMixesReadsWritesAndRegions(t *testing.T) {
	g := NewTPCC(ScaledTPCCConfig(1024))
	writes, logRefs := 0, 0
	const n = 50000
	for i := 0; i < n; i++ {
		ref, _ := g.Next()
		if ref.Write {
			writes++
		}
		if g.log.Contains(ref.Addr) {
			logRefs++
		}
	}
	if writes < n/10 || writes > n/2 {
		t.Fatalf("writes = %d of %d, outside OLTP range", writes, n)
	}
	if logRefs == 0 {
		t.Fatal("no log traffic generated")
	}
}

func TestTPCCFootprintScales(t *testing.T) {
	small := NewTPCC(ScaledTPCCConfig(1024))
	big := NewTPCC(ScaledTPCCConfig(256))
	if small.Footprint() >= big.Footprint() {
		t.Fatal("scaling did not shrink footprint")
	}
}

func TestTPCHScanDominates(t *testing.T) {
	cfg := ScaledTPCHConfig(1024)
	g := NewTPCH(cfg)
	inFact := 0
	const n = 50000
	for i := 0; i < n; i++ {
		ref, _ := g.Next()
		if g.fact.Contains(ref.Addr) {
			inFact++
		}
	}
	frac := float64(inFact) / n
	if frac < 0.6 || frac > 0.8 {
		t.Fatalf("fact-table fraction = %.2f, want ~0.7", frac)
	}
}

func TestDisturbanceInjectsBursts(t *testing.T) {
	base := NewUniform(UniformConfig{NumCPUs: 2, FootprintByte: addr.MB, Seed: 5})
	cfg := DisturbanceConfig{PeriodRefs: 100, BurstRefs: 20, JournalBytes: addr.MB, CPU: 0}
	g := WithDisturbance(base, cfg)
	journal := 0
	const n = 1200
	for i := 0; i < n; i++ {
		ref, _ := g.Next()
		if ref.Addr >= 1<<50 {
			journal++
			if !ref.Write {
				t.Fatal("journal refs must be writes")
			}
			if ref.CPU != 0 {
				t.Fatal("journal refs must come from the daemon CPU")
			}
		}
	}
	// 1200 refs at period 100 burst 20: each period contributes 20 journal
	// refs per 120 emitted, so expect n/6 = 200.
	if journal < 150 || journal > 250 {
		t.Fatalf("journal refs = %d, want ~200", journal)
	}
	if g.Name() != "uniform+journaling" {
		t.Fatalf("Name = %q", g.Name())
	}
}

func TestDisturbanceJournalAlwaysFresh(t *testing.T) {
	base := NewUniform(UniformConfig{NumCPUs: 1, FootprintByte: addr.MB, Seed: 6})
	g := WithDisturbance(base, DisturbanceConfig{PeriodRefs: 10, BurstRefs: 5, JournalBytes: 64 * addr.MB})
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		ref, _ := g.Next()
		if ref.Addr >= 1<<50 {
			if seen[ref.Addr] {
				t.Fatalf("journal address %#x reused too soon", ref.Addr)
			}
			seen[ref.Addr] = true
		}
	}
}
