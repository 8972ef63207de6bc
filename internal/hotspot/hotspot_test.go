package hotspot

import (
	"testing"

	"memories/internal/bus"
	"memories/internal/workload"
)

func mustNew(t *testing.T, cfg Config) *Profiler {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("hotspot.New: %v", err)
	}
	return p
}

func snoop(p *Profiler, cmd bus.Command, a uint64) {
	p.Snoop(&bus.Transaction{Cmd: cmd, Addr: a, Size: 128})
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{Granularity: 100, MaxBlocks: 10}); err == nil {
		t.Fatal("accepted non-pow2 granularity")
	}
	if _, err := New(Config{Granularity: 128, MaxBlocks: 0}); err == nil {
		t.Fatal("accepted zero table")
	}
}

func TestCountsReadsAndWritesPerBlock(t *testing.T) {
	p := mustNew(t, Config{Granularity: 128, MaxBlocks: 100})
	snoop(p, bus.Read, 0x100)
	snoop(p, bus.Read, 0x17f) // same 128B block
	snoop(p, bus.RWITM, 0x100)
	snoop(p, bus.Castout, 0x100)
	snoop(p, bus.Read, 0x200)
	top := p.Top(10)
	if len(top) != 2 {
		t.Fatalf("tracked %d blocks, want 2", len(top))
	}
	if top[0].Block != 0x100 || top[0].Reads != 2 || top[0].Writes != 2 {
		t.Fatalf("hottest = %+v", top[0])
	}
	if p.Total() != 5 {
		t.Fatalf("Total = %d", p.Total())
	}
}

func TestPageGranularity(t *testing.T) {
	p := mustNew(t, Config{Granularity: 4096, MaxBlocks: 100})
	snoop(p, bus.Read, 0x0)
	snoop(p, bus.Read, 0xFFF)
	snoop(p, bus.Read, 0x1000)
	if p.Tracked() != 2 {
		t.Fatalf("Tracked = %d, want 2 pages", p.Tracked())
	}
}

func TestNonMemoryIgnored(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	snoop(p, bus.IORead, 0x100)
	snoop(p, bus.Interrupt, 0x100)
	if p.Total() != 0 || p.Tracked() != 0 {
		t.Fatal("non-memory ops counted")
	}
}

func TestTableCapacity(t *testing.T) {
	p := mustNew(t, Config{Granularity: 128, MaxBlocks: 4})
	for i := 0; i < 10; i++ {
		snoop(p, bus.Read, uint64(i)*128)
	}
	if p.Tracked() != 4 {
		t.Fatalf("Tracked = %d, want 4", p.Tracked())
	}
	if p.Total() != 10 {
		t.Fatalf("Total = %d, want 10: untracked blocks still count", p.Total())
	}
	// Existing blocks keep counting even when the table is full.
	snoop(p, bus.Read, 0)
	if p.Top(1)[0].Total() != 2 {
		t.Fatal("full table stopped counting tracked blocks")
	}
}

func TestTopOrderingAndTies(t *testing.T) {
	p := mustNew(t, Config{Granularity: 128, MaxBlocks: 100})
	for i := 0; i < 3; i++ {
		snoop(p, bus.Read, 0x300)
	}
	snoop(p, bus.Read, 0x100)
	snoop(p, bus.Read, 0x200) // tie with 0x100: lower address first
	top := p.Top(3)
	if top[0].Block != 0x300 {
		t.Fatalf("top = %+v", top)
	}
	if top[1].Block != 0x100 || top[2].Block != 0x200 {
		t.Fatalf("tie break wrong: %+v", top)
	}
	if len(p.Top(1)) != 1 {
		t.Fatal("Top(k) did not truncate")
	}
}

func TestConcentrationDetectsZipfHotSet(t *testing.T) {
	p := mustNew(t, Config{Granularity: 128, MaxBlocks: 1 << 20})
	gen := workload.NewZipfian(workload.ZipfConfig{
		NumCPUs: 1, FootprintByte: 64 << 20, Skew: 1.4, Seed: 5,
	})
	for i := 0; i < 200000; i++ {
		ref, _ := gen.Next()
		cmd := bus.Read
		if ref.Write {
			cmd = bus.RWITM
		}
		snoop(p, cmd, ref.Addr)
	}
	if c := p.Concentration(100); c < 0.3 {
		t.Fatalf("Zipf concentration(100) = %.2f, want hot-spot signal", c)
	}

	p.Reset()
	u := workload.NewUniform(workload.UniformConfig{NumCPUs: 1, FootprintByte: 64 << 20, Seed: 5})
	for i := 0; i < 200000; i++ {
		ref, _ := u.Next()
		snoop(p, bus.Read, ref.Addr)
	}
	if c := p.Concentration(100); c > 0.05 {
		t.Fatalf("uniform concentration(100) = %.2f, want flat", c)
	}
}

func TestReset(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	snoop(p, bus.Read, 0)
	p.Reset()
	if p.Total() != 0 || p.Tracked() != 0 {
		t.Fatal("Reset incomplete")
	}
}
