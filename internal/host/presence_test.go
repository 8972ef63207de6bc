package host

import (
	"bytes"
	"fmt"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/workload"
)

// thrashGen draws reads and writes over a few dozen lines whose tags span
// low and high address bits, so the tiny caches of presenceConfig thrash
// every set and every bucket sees fills, evictions and invalidations.
type thrashGen struct {
	rng  *workload.RNG
	cpus int64
}

func (g *thrashGen) Name() string     { return "thrash" }
func (g *thrashGen) Footprint() int64 { return 1 << 40 }
func (g *thrashGen) Next() (workload.Ref, bool) {
	line := uint64(g.rng.Intn(48))
	a := line<<7 | uint64(g.rng.Intn(3))<<20 | uint64(g.rng.Intn(2))<<33
	return workload.Ref{
		Addr:   a,
		Write:  g.rng.Chance(0.3),
		CPU:    int(g.rng.Intn(g.cpus)),
		Instrs: 1 + uint64(g.rng.Intn(4)),
	}, true
}

// presenceConfig is a host whose coherence caches hold 16 lines (4 with
// the L2 off): every set is full within a few dozen references.
func presenceConfig(ncpu int, l2 bool, seed uint64) Config {
	cfg := DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.L1Bytes = 512
	cfg.L1Assoc = 2
	cfg.L2Bytes = 2 * addr.KB
	cfg.L2Assoc = 4
	cfg.L2Enabled = l2
	cfg.IOFraction = 0.05
	cfg.Seed = seed
	return cfg
}

// presenceAuditor is a passive snooper that, on every transaction, holds
// the bus's presence table against a fresh rebuild from the caches: equal
// means no holder is missing (no false negative) and no bit is stale.
// The bus calls it after the filtered CPUs, so each audit sees the
// previous transaction's fill and this one's snoop reactions.
type presenceAuditor struct {
	t      *testing.T
	h      *Host
	audits int
}

func (a *presenceAuditor) BusID() int { return -1 }
func (a *presenceAuditor) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	a.audit(tx)
	return bus.RespNull
}

func (a *presenceAuditor) audit(tx *bus.Transaction) {
	a.audits++
	p := a.h.pres
	want := newPresence(p.cpus, p.live)
	want.rebuild()
	if !bytes.Equal(p.rows, want.rows) {
		a.t.Fatalf("audit %d (tx %+v): presence table differs from a rebuild of the caches", a.audits, tx)
	}
}

// auditPresence runs one randomly shaped host — merged or per-CPU, L2 on
// or off, some actors idle — under thrashing traffic with the auditor on
// the bus. Odd seeds drive a per-CPU host with the lock-step poller.
func auditPresence(t *testing.T, seed uint64, ncpu int, perCPU, l2 bool, idle uint64) {
	cfg := presenceConfig(ncpu, l2, seed)
	var h *Host
	if perCPU {
		streams := make([]workload.Generator, ncpu)
		for i := range streams {
			if i > 0 && idle>>uint(i)&1 == 1 { // CPU 0 always runs
				continue
			}
			streams[i] = &thrashGen{rng: workload.NewRNG(seed + uint64(i)*977), cpus: 1}
		}
		h = MustNewPerCPU(cfg, streams, EngineWheel)
	} else {
		h = MustNew(cfg, &thrashGen{rng: workload.NewRNG(seed), cpus: int64(ncpu)})
	}
	run := h.Run
	if perCPU && seed&1 == 1 {
		run = pollWith(h).Run
	}
	a := &presenceAuditor{t: t, h: h}
	h.Bus().Attach(a)
	run(4000)
	a.audit(nil)
	if a.audits < 1000 {
		t.Fatalf("only %d audits: the traffic did not reach the bus", a.audits)
	}
	if bad, violated := h.CheckInclusion(); violated {
		t.Fatalf("inclusion violated at %#x", bad)
	}
}

// TestPresenceExact: after every bus transaction the snoop filter equals
// a rebuild from ForEachValid, across machine sizes (one- and two-byte
// rows), host modes, coherence points and idle actors.
func TestPresenceExact(t *testing.T) {
	for _, ncpu := range []int{2, 3, 8, 9, 16} {
		for _, perCPU := range []bool{false, true} {
			for _, l2 := range []bool{true, false} {
				for seed := uint64(1); seed <= 2; seed++ {
					name := fmt.Sprintf("%dcpu/percpu=%v/l2=%v/seed%d", ncpu, perCPU, l2, seed)
					t.Run(name, func(t *testing.T) {
						auditPresence(t, seed, ncpu, perCPU, l2, seed*0x5a5a)
					})
				}
			}
		}
	}
}

func FuzzPresence(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint64(0))
	f.Add(uint64(7), uint8(0xff), uint64(0xaaaa))
	f.Add(uint64(0x9e3779b97f4a7c15), uint8(0x4e), uint64(0xfffe))
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, idle uint64) {
		ncpu := 2 + int(shape&0xf)%15 // 2..16
		auditPresence(t, seed, ncpu, shape&0x10 != 0, shape&0x20 != 0, idle)
	})
}

// wheelMix is one CPU's stream of the 64-way wheel host: a private Zipf
// region and a region every CPU shares.
type wheelMix struct {
	priv, shared *workload.Zipfian
	pick         *workload.RNG
	offset       uint64
}

func (g *wheelMix) Name() string     { return "zipf-mix" }
func (g *wheelMix) Footprint() int64 { return g.priv.Footprint() + g.shared.Footprint() }
func (g *wheelMix) Next() (workload.Ref, bool) {
	if g.pick.Chance(0.25) {
		return g.shared.Next()
	}
	r, ok := g.priv.Next()
	r.Addr += g.offset
	return r, ok
}

func wheelMixHost(ncpu int, seed uint64) *Host {
	cfg := DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.L1Bytes = 8 * addr.KB
	cfg.L2Bytes = 128 * addr.KB
	cfg.Seed = seed
	streams := make([]workload.Generator, ncpu)
	for i := range streams {
		s := seed*1000 + uint64(i)
		streams[i] = &wheelMix{
			priv:   workload.NewZipfian(workload.ZipfConfig{NumCPUs: 1, FootprintByte: 512 * addr.KB, WriteFraction: 0.2, Seed: s + 1<<20}),
			shared: workload.NewZipfian(workload.ZipfConfig{NumCPUs: 1, FootprintByte: 1 * addr.MB, WriteFraction: 0.2, Seed: s + 2<<20}),
			pick:   workload.NewRNG(s + 3<<20),
			offset: uint64(i+1) << 30,
		}
	}
	return MustNewPerCPU(cfg, streams, EngineWheel)
}

// snoopEveryone rewires a host that has not run yet onto a bus without
// the presence summary, every live CPU attached the plain way: the
// exhaustive snoop loop the filter replaced, as the oracle.
func snoopEveryone(h *Host) {
	h.bus = bus.New(h.cfg.Bus)
	for _, c := range h.cpus {
		if c.bit >= 0 {
			h.bus.Attach(c)
		}
	}
}

// TestPresenceMatchesExhaustive: a 64-CPU wheel host with a quarter of
// its traffic shared runs bit-identically with and without the snoop
// filter — same transaction stream, Stats, bus Stats and event count —
// while the filter makes a fraction of the snoops.
func TestPresenceMatchesExhaustive(t *testing.T) {
	const ncpu, cycles = 64, 400_000
	run := func(filtered bool) (*Host, *streamSpy) {
		h := wheelMixHost(ncpu, 7)
		if !filtered {
			snoopEveryone(h)
		}
		spy := &streamSpy{}
		h.Bus().Attach(spy)
		h.RunCycles(cycles)
		return h, spy
	}
	h, spy := run(true)
	oracle, oracleSpy := run(false)

	if got, want := h.Stats(), oracle.Stats(); got != want {
		t.Fatalf("stats diverged:\n filtered   %+v\n exhaustive %+v", got, want)
	}
	if got, want := h.Bus().Stats(), oracle.Bus().Stats(); got != want {
		t.Fatalf("bus stats diverged:\n filtered   %+v\n exhaustive %+v", got, want)
	}
	if got, want := h.Events(), oracle.Events(); got != want {
		t.Fatalf("%d events, exhaustive %d", got, want)
	}
	if len(spy.txs) != len(oracleSpy.txs) {
		t.Fatalf("%d bus transactions, exhaustive %d", len(spy.txs), len(oracleSpy.txs))
	}
	for i := range spy.txs {
		if spy.txs[i] != oracleSpy.txs[i] {
			t.Fatalf("tx %d diverged:\n filtered   %+v\n exhaustive %+v", i, spy.txs[i], oracleSpy.txs[i])
		}
	}
	if st := h.Stats(); st.Invalidations == 0 || st.IntervModSup == 0 || st.Castouts == 0 {
		t.Fatalf("degenerate run, the streams must conflict: %+v", st)
	}

	// What the filter did: probed + skipped is every snoop the exhaustive
	// bus made, and probed is a small share of it.
	probed, skipped := h.SnoopFilter()
	if exhaustive := oracle.pres.probed; probed+skipped != exhaustive {
		t.Fatalf("filter probed %d + skipped %d; the exhaustive bus snooped %d", probed, skipped, exhaustive)
	}
	memTx := h.Bus().Stats().Transactions - h.Stats().IOOps
	if perTx := float64(probed) / float64(memTx); perTx > 8 {
		t.Fatalf("%.1f probes per memory transaction with %d peers, want <= 8", perTx, ncpu-1)
	}
}
