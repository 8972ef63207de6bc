package main

import (
	"fmt"
	"time"

	"memories"
	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/core"
	"memories/internal/host"
	"memories/internal/workload"
	"memories/protocols"
)

// Host workloads: the modeled SMP generates the bus stream and the board
// snoops it one transaction at a time.
//
// host_tpcc_smp8 is memories.NewSession on the paper's 8-way host with
// the TPC-C generator, run in 1 Mi-reference slices (eight 128 Ki ops).
// host_wheel_64 is 64 per-CPU actors on the event wheel, all active,
// advanced in 50 k-cycle slabs; the 1 MB L2s cannot hold the 2 MB
// private footprints, so the single 6xx bus runs saturated.
const (
	tpccOpRefs    = 128 << 10
	tpccWarmRefs  = 4 << 20
	wheelCPUs     = 64
	wheelSlab     = 50_000
	wheelWarm     = 100 // slabs
	sharedChance  = 0.25
	captureCapTx  = 4 << 20
	hostProbeFull = 512 << 10
)

// mixGen is one wheel CPU's stream: a private Zipf region and a region
// every CPU shares, both 20 % writes.
type mixGen struct {
	priv, shared *workload.Zipfian
	pick         *workload.RNG
	offset       uint64
}

func (g *mixGen) Name() string     { return "zipf-mix" }
func (g *mixGen) Footprint() int64 { return g.priv.Footprint() + g.shared.Footprint() }
func (g *mixGen) Next() (workload.Ref, bool) {
	if g.pick.Chance(sharedChance) {
		return g.shared.Next()
	}
	r, ok := g.priv.Next()
	r.Addr += g.offset
	return r, ok
}

func newMixGen(seed uint64, cpu int) *mixGen {
	s := seed*1000 + uint64(cpu)
	return &mixGen{
		priv:   workload.NewZipfian(workload.ZipfConfig{NumCPUs: 1, FootprintByte: 2 * addr.MB, WriteFraction: 0.2, Seed: s + 1<<20}),
		shared: workload.NewZipfian(workload.ZipfConfig{NumCPUs: 1, FootprintByte: 8 * addr.MB, WriteFraction: 0.2, Seed: s + 2<<20}),
		pick:   workload.NewRNG(s + 3<<20),
		offset: uint64(cpu+1) << 30,
	}
}

func tpccGen(seed uint64) workload.Generator {
	tc := memories.ScaledTPCCConfig(2048)
	tc.Seed = seed
	return memories.NewTPCC(tc)
}

// capture is a passive bus snooper that keeps the head of the stream
// the board saw, for the isolated layer replays. Traced runs only.
type capture struct {
	txs []bus.Transaction
}

func (c *capture) BusID() int { return -1 }
func (c *capture) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	if len(c.txs) < cap(c.txs) {
		c.txs = append(c.txs, *tx)
	}
	return bus.RespNull
}

type hostWL struct {
	e     *env
	wheel bool

	bcfg   core.Config
	h      *host.Host
	b      *core.Board
	sess   *memories.Session // host_tpcc_smp8 only
	cap    *capture
	target uint64 // wheel: bus cycle reached
	done   int

	loadMs float64
}

func newHostWL(e *env, wheel bool) *hostWL {
	return &hostWL{e: e, wheel: wheel}
}

func (w *hostWL) setup(tr *tracer) error {
	sp := tr.begin("protocols.Load")
	table, err := protocols.Load("mesi")
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	if tr != nil {
		w.loadMs = float64(totals(tr.spans)["protocols.Load"].Total) / 1e6
	}
	w.target, w.done = 0, 0
	sp = tr.begin("host.New")
	defer func() { tr.end(sp, 1) }()
	if w.wheel {
		cfg := host.DefaultConfig()
		cfg.NumCPUs = wheelCPUs
		cfg.L1Bytes = 32 * addr.KB
		cfg.L2Bytes = 1 * addr.MB
		cfg.Seed = w.e.seed
		streams := make([]workload.Generator, wheelCPUs)
		cpus := make([]int, wheelCPUs)
		for i := range streams {
			streams[i] = newMixGen(w.e.seed, i)
			cpus[i] = i
		}
		if w.h, err = host.NewPerCPU(cfg, streams, host.EngineWheel); err != nil {
			return err
		}
		w.bcfg = core.Config{Nodes: []core.NodeConfig{{
			CPUs: cpus, Geometry: addr.MustGeometry(256*addr.MB, 128, 8), Policy: cache.LRU, Protocol: table,
		}}}
		if w.b, err = core.NewBoard(w.bcfg); err != nil {
			return err
		}
		w.h.Bus().Attach(w.b)
	} else {
		w.bcfg = memories.SingleL3Board(256*memories.MB, 8, 128)
		w.bcfg.Nodes[0].Protocol = table
		hcfg := memories.DefaultHostConfig()
		hcfg.Seed = w.e.seed
		if w.sess, err = memories.NewSession(hcfg, w.bcfg, tpccGen(w.e.seed)); err != nil {
			return err
		}
		w.h, w.b = w.sess.Host, w.sess.Board
	}
	w.cap = nil
	if tr != nil {
		w.cap = &capture{txs: make([]bus.Transaction, 0, w.captureCap())}
		w.h.Bus().Attach(w.cap)
	}
	return nil
}

// slab is how far one wheel op advances the bus clock.
func (w *hostWL) slab() uint64 {
	if w.e.quick {
		return wheelSlab / 10
	}
	return wheelSlab
}

func (w *hostWL) captureCap() int {
	if w.e.quick {
		return 64 << 10
	}
	return captureCapTx
}

// step runs one op and returns the references it covered.
func (w *hostWL) step() (refs uint64, err error) {
	if w.wheel {
		before := w.h.Stats().Refs
		w.target += w.slab()
		w.h.RunCycles(w.target)
		// As Session.Run does after every slice. The saturated bus outruns
		// the SDRAM model (23 cycles per directory op), so an unflushed
		// transaction buffer would grow for the whole run.
		w.b.Flush()
		if w.h.Live() != wheelCPUs {
			return 0, fmt.Errorf("host_wheel_64: only %d of %d actors live", w.h.Live(), wheelCPUs)
		}
		return w.h.Stats().Refs - before, nil
	}
	n := uint64(tpccOpRefs)
	if w.e.quick {
		n = 4 << 10
	}
	if ran := w.sess.Run(n); ran != n {
		return ran, fmt.Errorf("host_tpcc_smp8: ran %d of %d references: %v", ran, n, w.h.Err())
	}
	return n, nil
}

func (w *hostWL) warm() error {
	n := wheelWarm
	if !w.wheel {
		n = tpccWarmRefs / tpccOpRefs
	}
	if w.e.quick {
		n = 4
	}
	for i := 0; i < n; i++ {
		if _, err := w.step(); err != nil {
			return err
		}
	}
	return nil
}

func (w *hostWL) run(from, to int, tr *tracer) ([]lane, error) {
	if from != w.done {
		return nil, fmt.Errorf("host: run from op %d, but %d are done", from, w.done)
	}
	var l lane
	accepted := w.b.Counters().Lookup("filter.accepted")
	t0 := time.Now()
	var prev time.Duration
	for ; w.done < to; w.done++ {
		tx0, c0 := accepted.Value(), w.h.Bus().Cycle()
		sp := tr.begin("host.Run")
		refs, err := w.step()
		tr.end(sp, refs)
		if err != nil {
			return nil, err
		}
		now := time.Since(t0)
		l.add(now, now-prev, accepted.Value()-tx0, w.h.Bus().Cycle()-c0)
		prev = now
	}
	return []lane{l}, nil
}

func (w *hostWL) sim() (simStats, error) {
	d := newDigester()
	boardDigest(w.b, d)
	hs, bs := w.h.Stats(), w.h.Bus().Stats()
	for _, kv := range []struct {
		k string
		v uint64
	}{
		{"host.refs", hs.Refs}, {"host.instructions", hs.Instructions},
		{"host.l1.hits", hs.L1Hits}, {"host.l1.misses", hs.L1Misses},
		{"host.l2.hits", hs.L2Hits}, {"host.l2.misses", hs.L2Misses},
		{"host.upgrades", hs.Upgrades}, {"host.castouts", hs.Castouts},
		{"host.interv.mod", hs.IntervModSup}, {"host.interv.shr", hs.IntervShrSup},
		{"host.invalidations", hs.Invalidations}, {"host.io", hs.IOOps},
		{"host.retried", hs.Retried}, {"host.retry-exhausted", hs.RetryExhausted},
		{"host.events", w.h.Events()},
		{"bus.transactions", bs.Transactions}, {"bus.retries", bs.Retries},
		{"bus.busy", bs.BusyCycles}, {"bus.cycle", w.h.Bus().Cycle()},
	} {
		d.add(kv.k, kv.v)
	}
	d.keep("host.refs", hs.Refs)
	d.keep("host.l2.misses", hs.L2Misses)
	d.keep("bus.transactions", bs.Transactions)
	return simStats{
		Digest: d.sum(), MissRatio: w.b.Node(0).MissRatio(), Headline: d.headline,
		attempted: int64(w.done), failed: int64(hs.RetryExhausted),
	}, nil
}

// validate: the repository holds no reference for the host model.
func (w *hostWL) validate() (float64, bool, error) { return 0, false, nil }

func (w *hostWL) layers(tr *tracer, m metrics) error {
	m["coherence.load_ms"] = w.loadMs
	run := totals(tr.spans)["host.Run"]
	hs, bs := w.h.Stats(), w.h.Bus().Stats()
	boardCounters(w.b, m)
	m["bus.util_pct"] = 100 * w.h.Bus().Utilization()
	m["bus.retries"] = float64(bs.Retries)
	m["host.l2_miss_ratio"] = float64(hs.L2Misses) / float64(hs.L2Hits+hs.L2Misses)
	m["host.tx_per_ref"] = float64(w.b.Counters().Value("filter.accepted")) / float64(hs.Refs)
	if w.wheel {
		m["host.events_per_emc"] = float64(w.h.Events()) / float64(w.h.Bus().Cycle())
	}
	// The spans count references; cycles and transactions per reference
	// come from the whole run, which the traced part is a steady slice of.
	emc := uint64(float64(run.Work) * float64(w.h.Bus().Cycle()) / float64(hs.Refs))
	tx := uint64(float64(run.Work) * m["host.tx_per_ref"])
	m["host.run_ns_per_ref"] = perWork(run.Total, run.Work)
	m["host.ns_per_emc"] = perWork(run.Total, emc)

	// The generator alone, same configuration and seed.
	var gen workload.Generator = newMixGen(w.e.seed, 0)
	if !w.wheel {
		gen = tpccGen(w.e.seed)
	}
	n := 1 << 20
	if w.e.quick {
		n = 16 << 10
	}
	t0 := time.Now()
	var acc uint64
	for i := 0; i < n; i++ {
		r, _ := gen.Next()
		acc += r.Addr
	}
	m["workload.gen_ns_per_ref"] = float64(time.Since(t0)) / float64(n)
	sink += acc

	// The captured stream through a fresh board and its inner layers.
	probe := hostProbeFull
	if w.e.quick {
		probe = probeTxQuick
	}
	stream := w.cap.txs
	if len(stream) < 2*probe {
		probe = len(stream) / 2
	}
	split := len(stream) - probe
	warmTx, timed := stream[:split], stream[split:]
	warm := func(emit func([]bus.Transaction)) error {
		for at := 0; at < len(warmTx); at += fullBlockRecs {
			emit(warmTx[at:min(at+fullBlockRecs, len(warmTx))])
		}
		return nil
	}
	fresh, err := isolatedBoard(w.bcfg, warm, timed, fullBlockRecs, w.e.seed, m)
	if err != nil {
		return err
	}

	// Bus.Issue with only the board attached, over the window again at
	// the spacing the host gave it.
	iso := bus.New(bus.DefaultConfig())
	iso.Attach(fresh)
	shift := fresh.LastCycle() + 1 - timed[0].Cycle
	t0 = time.Now()
	for i := range timed {
		tx := timed[i]
		iso.IssueAt(tx.Cycle+shift, &tx)
	}
	fresh.Flush()
	m["bus.issue_ns_per_tx"] = float64(time.Since(t0)) / float64(len(timed))

	genEst := m["workload.gen_ns_per_ref"] * float64(run.Work)
	snoopEst := m["core.snoop_single_ns_per_tx"] * float64(tx)
	m["host.self_share"] = (float64(run.Total) - genEst - snoopEst) / float64(run.Total)
	m["core.share"] = snoopEst / float64(run.Total)
	return nil
}

func (w *hostWL) close() {
	w.h, w.b, w.sess, w.cap = nil, nil, nil, nil
}
