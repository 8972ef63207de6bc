package host

import (
	"fmt"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/workload"
)

// This file retains a verbatim port of the pre-event-wheel merged-stream
// host — the loop that pulled one reference at a time from the merged
// stream, walked its own copy of the MESI hierarchy, and advanced the
// bus clock itself — as the equivalence oracle for New. The merged-stream
// host no longer has a walk of its own: it runs each reference through
// the per-CPU actor's filter and commit at once, on a clock loaded from
// the bus. TestHostMatchesLegacyPort sweeps configs × workloads × seeds,
// plus one input whose bus retries, and requires the bus transaction
// stream and final Stats to be bit-identical, the same discipline as the
// cache's legacy-port tests. (The two per-CPU engines are held to each
// other by TestPerCPUWheelMatchesLockStep, not here.)
//
// Do not "modernize" this copy: its value is that it does not share code
// with the host under test.

type legacyCPU struct {
	id   int
	host *legacyHost
	l1   *cache.Cache
	coh  *cache.Cache
}

type legacyHost struct {
	cfg   Config
	bus   *bus.Bus
	cpus  []*legacyCPU
	gen   workload.Generator
	rng   *workload.RNG
	stats Stats

	idleCarry    float64
	cyclesPerRef float64
	ioAddr       uint64

	tx bus.Transaction
}

func newLegacyHost(t *testing.T, cfg Config, gen workload.Generator) *legacyHost {
	t.Helper()
	if cfg.MissOverlap <= 0 {
		cfg.MissOverlap = 1
	}
	h := &legacyHost{
		cfg: cfg,
		bus: bus.New(cfg.Bus),
		gen: gen,
		rng: workload.NewRNG(cfg.Seed),
	}
	h.cyclesPerRef = cfg.CPI * float64(cfg.Bus.ClockMHz) / float64(cfg.CPUClockMHz) / float64(cfg.NumCPUs)
	for i := 0; i < cfg.NumCPUs; i++ {
		c := &legacyCPU{id: i, host: h}
		l1geom, err := addr.NewGeometry(cfg.L1Bytes, cfg.LineSize, cfg.L1Assoc)
		if err != nil {
			t.Fatalf("legacy L1 geometry: %v", err)
		}
		l1 := cache.MustNew(cache.Config{Geometry: l1geom, Policy: cache.LRU})
		if cfg.L2Enabled {
			l2geom, err := addr.NewGeometry(cfg.L2Bytes, cfg.LineSize, cfg.L2Assoc)
			if err != nil {
				t.Fatalf("legacy L2 geometry: %v", err)
			}
			c.l1 = l1
			c.coh = cache.MustNew(cache.Config{Geometry: l2geom, Policy: cache.LRU})
		} else {
			c.coh = l1
		}
		h.cpus = append(h.cpus, c)
		h.bus.Attach(c)
	}
	return h
}

func (h *legacyHost) Step() bool {
	ref, ok := h.gen.Next()
	if !ok {
		return false
	}
	h.stats.Refs++
	h.stats.Instructions += ref.Instrs

	h.idleCarry += float64(ref.Instrs) * h.cyclesPerRef
	if h.idleCarry >= 1 {
		n := uint64(h.idleCarry)
		h.bus.AdvanceTo(h.bus.Cycle() + n)
		h.idleCarry -= float64(n)
	}

	if h.cfg.IOFraction > 0 && h.rng.Chance(h.cfg.IOFraction) {
		h.injectIO(ref.CPU)
	}

	c := h.cpus[ref.CPU%len(h.cpus)]
	c.access(ref.Addr, ref.Write)
	return true
}

func (h *legacyHost) Run(n uint64) uint64 {
	var i uint64
	for ; i < n; i++ {
		if !h.Step() {
			break
		}
	}
	return i
}

func (h *legacyHost) injectIO(cpuID int) {
	h.stats.IOOps++
	h.ioAddr += 8
	var cmd bus.Command
	switch h.rng.Intn(4) {
	case 0:
		cmd = bus.IORead
	case 1:
		cmd = bus.IOWrite
	case 2:
		cmd = bus.Interrupt
	default:
		cmd = bus.Sync
	}
	h.tx = bus.Transaction{
		Cmd:   cmd,
		Addr:  (1 << 52) | (h.ioAddr & 0xffff),
		Size:  8,
		SrcID: cpuID,
	}
	h.bus.Issue(&h.tx)
}

func (c *legacyCPU) access(a uint64, write bool) {
	h := c.host
	geom := c.coh.Geometry()
	line := geom.LineAddr(a)

	if c.l1 != nil {
		if c.l1.Access(line) != stInvalid {
			h.stats.L1Hits++
			if !write {
				return
			}
			st := c.coh.Access(line)
			switch st {
			case stModified:
				return
			case stExclusive:
				c.coh.SetState(line, stModified)
				return
			case stShared:
				c.upgrade(line)
				return
			case stInvalid:
				panic("legacy host: L1 hit without L2 backing (inclusion broken)")
			}
			return
		}
		h.stats.L1Misses++
	}

	st := c.coh.Access(line)
	switch {
	case st == stInvalid:
		c.miss(line, write)
	case write && st == stShared:
		h.stats.L2Hits++
		c.upgrade(line)
	case write && st == stExclusive:
		h.stats.L2Hits++
		c.coh.SetState(line, stModified)
	default:
		h.stats.L2Hits++
	}
	if c.l1 != nil {
		c.l1.Fill(line, 1)
	}
}

func (h *legacyHost) issueWithRetry(tx *bus.Transaction) bus.SnoopResponse {
	for attempt := 0; ; attempt++ {
		resp := h.bus.Issue(tx)
		if resp != bus.RespRetry {
			return resp
		}
		if attempt >= retryLimit {
			h.stats.RetryExhausted++
			return resp
		}
		h.stats.Retried++
		h.bus.AdvanceTo(h.bus.Cycle() + retryDelayCycles)
	}
}

func (c *legacyCPU) upgrade(line uint64) {
	h := c.host
	h.stats.Upgrades++
	h.tx = bus.Transaction{
		Cmd:   bus.DClaim,
		Addr:  line,
		SrcID: c.id,
	}
	h.issueWithRetry(&h.tx)
	c.coh.SetState(line, stModified)
}

func (c *legacyCPU) miss(line uint64, write bool) {
	h := c.host
	h.stats.L2Misses++
	cmd := bus.Read
	if write {
		cmd = bus.RWITM
	}
	h.tx = bus.Transaction{
		Cmd:   cmd,
		Addr:  line,
		Size:  int(h.cfg.LineSize),
		SrcID: c.id,
	}
	resp := h.issueWithRetry(&h.tx)

	h.idleCarry += h.cfg.MissStallBusCycles / h.cfg.MissOverlap
	if h.idleCarry >= 1 {
		n := uint64(h.idleCarry)
		h.bus.AdvanceTo(h.bus.Cycle() + n)
		h.idleCarry -= float64(n)
	}

	fill := uint8(stExclusive)
	switch {
	case write:
		fill = stModified
	case resp == bus.RespShared || resp == bus.RespModified:
		fill = stShared
	}
	victim, evicted := c.coh.Fill(line, fill)
	if evicted {
		if c.l1 != nil {
			c.l1.Invalidate(victim.Addr)
		}
		if victim.State == stModified {
			h.stats.Castouts++
			h.tx = bus.Transaction{
				Cmd:   bus.Castout,
				Addr:  victim.Addr,
				Size:  int(h.cfg.LineSize),
				SrcID: c.id,
			}
			h.issueWithRetry(&h.tx)
		}
	}
}

func (c *legacyCPU) BusID() int { return c.id }

func (c *legacyCPU) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	if !tx.Cmd.IsMemoryOp() {
		return bus.RespNull
	}
	h := c.host
	line := c.coh.Geometry().LineAddr(tx.Addr)
	st := c.coh.Probe(line)
	if st == stInvalid {
		return bus.RespNull
	}
	switch tx.Cmd {
	case bus.Read:
		switch st {
		case stModified:
			h.stats.IntervModSup++
			c.coh.SetState(line, stShared)
			return bus.RespModified
		case stExclusive:
			h.stats.IntervShrSup++
			c.coh.SetState(line, stShared)
			return bus.RespShared
		default:
			return bus.RespShared
		}
	case bus.RWITM, bus.DClaim, bus.Flush:
		h.stats.Invalidations++
		c.coh.Invalidate(line)
		if c.l1 != nil {
			c.l1.Invalidate(line)
		}
		if st == stModified {
			h.stats.IntervModSup++
			return bus.RespModified
		}
		return bus.RespShared
	case bus.Clean:
		if st == stModified {
			c.coh.SetState(line, stShared)
			return bus.RespModified
		}
		return bus.RespNull
	default:
		return bus.RespNull
	}
}

// streamSpy records every bus transaction it snoops (as a passive
// observer, BusID -1) so two engines' full address streams can be
// compared bit-for-bit.
type streamSpy struct {
	txs []bus.Transaction
}

func (s *streamSpy) BusID() int { return -1 }

func (s *streamSpy) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	s.txs = append(s.txs, *tx)
	return bus.RespNull
}

// nthRetrier answers Retry to every nth memory transaction it snoops — a
// deterministic stand-in for a board whose buffer now and then overflows.
type nthRetrier struct{ n, seen uint64 }

func (r *nthRetrier) BusID() int { return -1 }

func (r *nthRetrier) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	if !tx.Cmd.IsMemoryOp() {
		return bus.RespNull
	}
	r.seen++
	if r.seen%r.n == 0 {
		return bus.RespRetry
	}
	return bus.RespNull
}

// equivalenceInput is one host configuration of the legacy sweep, and
// how often a snooper on both buses retries a memory transaction (0:
// never).
type equivalenceInput struct {
	cfg        Config
	retryEvery uint64
}

// equivalenceInputs are the geometry/timing points the legacy sweep
// covers: the paper 8-way default, a small skewed-associativity L2, an
// L2-disabled host (L1 is the coherence point), and a 12-way S7A ceiling
// with I/O injection exercised throughout. The last repeats the default
// with every 7th memory transaction retried, so the port's idle back-off
// and the host's back-off on its clock are held to each other too.
func equivalenceInputs() []equivalenceInput {
	base := DefaultConfig()
	base.L1Bytes = 8 * addr.KB
	base.L2Bytes = 256 * addr.KB

	small := base
	small.NumCPUs = 4
	small.L2Bytes = 64 * addr.KB
	small.L2Assoc = 1

	noL2 := base
	noL2.NumCPUs = 8
	noL2.L2Enabled = false
	noL2.L1Bytes = 16 * addr.KB

	wide := base
	wide.NumCPUs = 12
	wide.IOFraction = 0.01

	return []equivalenceInput{{cfg: base}, {cfg: small}, {cfg: noL2}, {cfg: wide}, {cfg: base, retryEvery: 7}}
}

func equivalenceWorkloads(ncpu int, seed uint64) map[string]func() workload.Generator {
	return map[string]func() workload.Generator{
		"uniform": func() workload.Generator {
			return workload.NewUniform(workload.UniformConfig{
				NumCPUs: ncpu, FootprintByte: 2 * addr.MB, WriteFraction: 0.3, Seed: seed,
			})
		},
		"zipf": func() workload.Generator {
			return workload.NewZipfian(workload.ZipfConfig{
				NumCPUs: ncpu, FootprintByte: 4 * addr.MB, WriteFraction: 0.25, Seed: seed,
			})
		},
		"tpcc": func() workload.Generator {
			cfg := workload.ScaledTPCCConfig(4096)
			cfg.NumCPUs = ncpu
			cfg.Seed = seed
			return workload.NewTPCC(cfg)
		},
	}
}

// TestHostMatchesLegacyPort is the merged-stream host's equivalence
// oracle: for every input × workload × seed, New's host must produce a
// bus transaction stream and final Stats bit-identical to the retained
// port of the merged-stream host it replaced.
func TestHostMatchesLegacyPort(t *testing.T) {
	const refs = 20000
	seeds := []uint64{1, 97}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for ci, in := range equivalenceInputs() {
		for _, seed := range seeds {
			cfg := in.cfg
			cfg.Seed = seed
			for name, mk := range equivalenceWorkloads(cfg.NumCPUs, seed) {
				t.Run(fmt.Sprintf("cfg%d/%s/seed%d", ci, name, seed), func(t *testing.T) {
					legacy := newLegacyHost(t, cfg, mk())
					legacySpy := &streamSpy{}
					legacy.bus.Attach(legacySpy)

					h := MustNew(cfg, mk())
					spy := &streamSpy{}
					h.Bus().Attach(spy)
					if in.retryEvery > 0 {
						legacy.bus.Attach(&nthRetrier{n: in.retryEvery})
						h.Bus().Attach(&nthRetrier{n: in.retryEvery})
					}

					if got, want := h.Run(refs), legacy.Run(refs); got != want {
						t.Fatalf("processed %d refs, legacy %d", got, want)
					}
					if got, want := h.Stats(), legacy.stats; got != want {
						t.Fatalf("stats diverged:\n new   %+v\n legacy %+v", got, want)
					}
					if in.retryEvery > 0 && h.Stats().Retried == 0 {
						t.Fatal("the retrying input retried nothing")
					}
					if got, want := h.Bus().Stats(), legacy.bus.Stats(); got != want {
						t.Fatalf("bus stats diverged:\n new   %+v\n legacy %+v", got, want)
					}
					if got, want := h.Bus().Cycle(), legacy.bus.Cycle(); got != want {
						t.Fatalf("bus cycle %d, legacy %d", got, want)
					}
					if len(spy.txs) != len(legacySpy.txs) {
						t.Fatalf("%d bus transactions, legacy %d", len(spy.txs), len(legacySpy.txs))
					}
					for i := range spy.txs {
						if spy.txs[i] != legacySpy.txs[i] {
							t.Fatalf("tx %d diverged:\n new    %+v\n legacy %+v",
								i, spy.txs[i], legacySpy.txs[i])
						}
					}
				})
			}
		}
	}
}
