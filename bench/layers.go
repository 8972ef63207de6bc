package main

import (
	"runtime"
	"sort"
	"strings"
	"time"

	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/coherence"
	"memories/internal/core"
	"memories/internal/sdram"
	"memories/internal/stats"
	"memories/internal/workload"
)

// Inner layers that core calls privately — the tag directory, the SDRAM
// timing model, the compiled protocol and the counter bank — cannot be
// wrapped in spans from outside. They are measured by an isolated
// replay instead: the driver works out, with its own small model of a
// node controller, which calls core makes into each layer for a stream
// of transactions, and then times exactly those calls on same-geometry
// instances. What core.snoop_batch costs beyond the sum of these
// replays is core.self_ns_per_tx: filter, global events, glue and the
// hand-off gap.

// Keys starting with "~" are per-transaction stage costs the ledger and
// core.self_ns_per_tx use; they are not metrics and are not printed.
const (
	stageSdram     = "~sdram_ns_per_tx"
	stageCoherence = "~coherence_ns_per_tx"
	stageStats     = "~stats_ns_per_tx"
)

func innerSum(m metrics) float64 {
	return m["cache.replay_ns_per_tx"] + m[stageSdram] + m[stageCoherence] + m[stageStats]
}

const (
	opProbe = iota
	opAccess
	opFill
	opInvalidate
	opSetState
)

// cacheOp is one recorded call into cache.Cache.
type cacheOp struct {
	addr  uint64
	node  uint8
	kind  uint8
	state uint8
}

// lookupKey is one recorded call into coherence.Engine.Lookup.
type lookupKey struct {
	node  uint8
	op    coherence.Op
	state coherence.State
	snoop coherence.SnoopIn
}

type dirNode struct {
	idx  int
	cfg  core.NodeConfig
	eng  *coherence.Engine
	a, b *cache.Cache // a decides; b mirrors a until recording starts
}

// dirModel mirrors core's node-controller logic (board.process,
// node.local/snoop/apply) over the layers' public functions only.
type dirModel struct {
	nodes   []*dirNode
	owners  [core.MaxBusID + 1][]*dirNode
	record  bool
	ops     []cacheOp
	lookups []lookupKey
	txSeen  int
}

func newDirModel(cfg core.Config) (*dirModel, error) {
	d := &dirModel{}
	for _, nc := range cfg.Nodes {
		eng, err := coherence.Compile(nc.Protocol)
		if err != nil {
			return nil, err
		}
		n := &dirNode{idx: len(d.nodes), cfg: nc, eng: eng}
		for _, c := range []**cache.Cache{&n.a, &n.b} {
			if *c, err = cache.New(cache.Config{Geometry: nc.Geometry, Policy: nc.Policy}); err != nil {
				return nil, err
			}
		}
		for _, id := range nc.CPUs {
			d.owners[id] = append(d.owners[id], n)
		}
		d.nodes = append(d.nodes, n)
	}
	return d, nil
}

// do performs one directory call on the deciding cache and either
// mirrors it (warming) or records it (the timed window).
func (d *dirModel) do(ni int, kind uint8, a uint64, st uint8) uint8 {
	n := d.nodes[ni]
	if d.record {
		d.ops = append(d.ops, cacheOp{addr: a, node: uint8(ni), kind: kind, state: st})
	} else {
		execOp(n.b, kind, a, st)
	}
	return execOp(n.a, kind, a, st)
}

func execOp(c *cache.Cache, kind uint8, a uint64, st uint8) uint8 {
	switch kind {
	case opProbe:
		return c.Probe(a)
	case opAccess:
		return c.Access(a)
	case opFill:
		c.Fill(a, st)
	case opInvalidate:
		c.Invalidate(a)
	case opSetState:
		c.SetState(a, st)
	}
	return 0
}

func (d *dirModel) lookup(ni int, op coherence.Op, cur coherence.State, sn coherence.SnoopIn) coherence.Entry {
	if d.record {
		d.lookups = append(d.lookups, lookupKey{uint8(ni), op, cur, sn})
	}
	return d.nodes[ni].eng.Lookup(op, cur, sn)
}

// protoOp classifies a bus command as core.opFor does.
func protoOp(cmd bus.Command, local bool) (coherence.Op, bool) {
	switch cmd {
	case bus.Read:
		if local {
			return coherence.LocalRead, true
		}
		return coherence.SnoopRead, true
	case bus.RWITM, bus.DClaim, bus.Flush:
		if local {
			return coherence.LocalWrite, true
		}
		return coherence.SnoopWrite, true
	case bus.Castout, bus.Clean:
		if local {
			return coherence.LocalCastout, true
		}
		return coherence.SnoopCastout, true
	}
	return 0, false
}

// accepts applies the address filter: memory operations from assigned
// bus IDs reach the directories.
func (d *dirModel) accepts(tx *bus.Transaction) bool {
	return tx.Cmd.IsMemoryOp() && uint(tx.SrcID) < uint(len(d.owners)) && len(d.owners[tx.SrcID]) > 0
}

func (d *dirModel) step(tx *bus.Transaction) {
	if !d.accepts(tx) {
		return
	}
	d.txSeen++
	for _, local := range d.owners[tx.SrcID] {
		li := local.idx
		snoopIn := coherence.SnoopNone
		for pi, peer := range d.nodes {
			if peer == local || peer.cfg.Group != local.cfg.Group {
				continue
			}
			st := coherence.State(d.do(pi, opProbe, tx.Addr, 0))
			switch {
			case st.IsDirty():
				snoopIn = coherence.SnoopModified
			case st.IsValid() && snoopIn == coherence.SnoopNone:
				snoopIn = coherence.SnoopShared
			}
		}
		if op, ok := protoOp(tx.Cmd, true); ok {
			cur := coherence.State(d.do(li, opAccess, tx.Addr, 0))
			d.apply(li, tx.Addr, cur, d.lookup(li, op, cur, snoopIn))
		}
		op, ok := protoOp(tx.Cmd, false)
		if !ok {
			continue
		}
		for pi, peer := range d.nodes {
			if peer == local || peer.cfg.Group != local.cfg.Group {
				continue
			}
			cur := coherence.State(d.do(pi, opProbe, tx.Addr, 0))
			d.apply(pi, tx.Addr, cur, d.lookup(pi, op, cur, coherence.SnoopNone))
		}
	}
}

func (d *dirModel) apply(ni int, a uint64, cur coherence.State, e coherence.Entry) {
	switch {
	case cur == coherence.Invalid && e.Actions.Has(coherence.ActAllocate):
		d.do(ni, opFill, a, uint8(e.Next))
	case cur != coherence.Invalid && e.Next == coherence.Invalid:
		d.do(ni, opInvalidate, a, 0)
	case cur != coherence.Invalid && e.Next != cur:
		d.do(ni, opSetState, a, uint8(e.Next))
	}
}

// sink keeps the timed loops' results alive.
var sink uint64

// layerReplay runs the isolated replays of cache, sdram and coherence
// for a board configuration: warm streams everything the board saw
// before the timed window, timed is the window itself.
func layerReplay(cfg core.Config, warm func(emit func([]bus.Transaction)) error, timed []bus.Transaction, m metrics) error {
	d, err := newDirModel(cfg)
	if err != nil {
		return err
	}
	if err := warm(func(txs []bus.Transaction) {
		for i := range txs {
			d.step(&txs[i])
		}
	}); err != nil {
		return err
	}
	var before []cache.Stats
	for _, n := range d.nodes {
		before = append(before, n.a.Stats())
	}
	d.record, d.txSeen = true, 0
	for i := range timed {
		d.step(&timed[i])
	}
	tx := float64(d.txSeen)
	if tx == 0 {
		return nil
	}

	// cache: the recorded calls, in order, on the mirror directories.
	caches := make([]*cache.Cache, len(d.nodes))
	for i, n := range d.nodes {
		caches[i] = n.b
	}
	t0 := time.Now()
	var acc uint64
	for _, o := range d.ops {
		acc += uint64(execOp(caches[o.node], o.kind, o.addr, o.state))
	}
	m["cache.replay_ns_per_tx"] = float64(time.Since(t0)) / tx
	sink += acc
	var probes, hits, evictions uint64
	for i, n := range d.nodes {
		s := n.a.Stats()
		probes += s.Probes - before[i].Probes
		hits += s.Hits - before[i].Hits
		evictions += s.Evictions - before[i].Evictions
	}
	m["cache.hit_ratio"] = stats.Ratio(hits, probes)
	m["cache.evictions"] = float64(evictions)
	cacheOpCosts(d, m)

	// sdram: every node schedules each accepted transaction in the slot
	// the slowest channel allows, as Board.drain does.
	tags := make([]*sdram.TagStore, len(d.nodes))
	for i, n := range d.nodes {
		sc := n.cfg.SDRAM
		if sc.Banks == 0 {
			sc = sdram.DefaultConfig()
		}
		tags[i] = sdram.New(sc)
	}
	t0 = time.Now()
	for i := range timed {
		t := &timed[i]
		if !d.accepts(t) {
			continue
		}
		start := t.Cycle
		for _, ts := range tags {
			if nf := ts.NextFree(); nf > start {
				start = nf
			}
		}
		for ni, ts := range tags {
			acc += ts.Schedule(start, d.nodes[ni].cfg.Geometry.Index(t.Addr))
		}
	}
	el := float64(time.Since(t0))
	m["sdram.schedule_ns_per_op"] = el / (tx * float64(len(tags)))
	m[stageSdram] = el / tx
	sink += acc

	// coherence: the recorded (op, state, snoop) triples.
	engines := make([]*coherence.Engine, len(d.nodes))
	for i, n := range d.nodes {
		engines[i] = n.eng
	}
	t0 = time.Now()
	for _, k := range d.lookups {
		e := engines[k.node].Lookup(k.op, k.state, k.snoop)
		acc += uint64(e.Next) + uint64(e.Actions)
	}
	el = float64(time.Since(t0))
	if n := len(d.lookups); n > 0 {
		m["coherence.lookup_ns_per_op"] = el / float64(n)
	}
	m["coherence.lookups_per_tx"] = float64(len(d.lookups)) / tx
	m[stageCoherence] = el / tx
	sink += acc
	return nil
}

// cacheOpCosts times each kind of directory call in a loop of its own
// on the warmed mirror directory of node 0, over the window's addresses:
// Access as it comes, Fill on the lines that are absent, Invalidate on
// the lines just filled.
func cacheOpCosts(d *dirModel, m metrics) {
	c := d.nodes[0].b
	var addrs []uint64
	for _, o := range d.ops {
		if o.kind == opAccess || o.kind == opProbe {
			addrs = append(addrs, o.addr)
		}
	}
	if len(addrs) == 0 {
		return
	}
	var acc uint64
	t0 := time.Now()
	for _, a := range addrs {
		acc += uint64(c.Access(a))
	}
	m["cache.access_ns_per_op"] = float64(time.Since(t0)) / float64(len(addrs))

	var absent []uint64
	for _, a := range addrs {
		if c.Probe(a) == cache.StateInvalid {
			absent = append(absent, a)
		}
	}
	if len(absent) == 0 { // everything resident: evict the window, then fill it
		for _, a := range addrs {
			c.Invalidate(a)
		}
		absent = addrs
	}
	t0 = time.Now()
	for _, a := range absent {
		c.Fill(a, uint8(coherence.Shared))
	}
	m["cache.fill_ns_per_op"] = float64(time.Since(t0)) / float64(len(absent))
	t0 = time.Now()
	for _, a := range absent {
		p, _ := c.Invalidate(a)
		acc += uint64(p)
	}
	m["cache.invalidate_ns_per_op"] = float64(time.Since(t0)) / float64(len(absent))
	sink += acc
}

// gaugeCounter reports counters the board sets rather than bumps.
func gaugeCounter(name string) bool {
	return name == "bus.cycles" || name == "buffer.high-water" || strings.Contains(name, ".occupancy.")
}

// statsReplay prices the counter bank: bumps_per_tx is what the board's
// bank absorbed per transaction over the traced run, and the replay
// bumps a bank of the same shape in the same proportions.
func statsReplay(names []string, delta []uint64, tx uint64, seed uint64, m metrics) {
	if tx == 0 || len(names) == 0 || len(delta) != len(names) {
		return
	}
	bank := stats.NewBank()
	ctrs := make([]*stats.Counter, len(names))
	cum := make([]uint64, len(names))
	var total uint64
	for i, name := range names {
		ctrs[i] = bank.Counter(name)
		if !gaugeCounter(name) {
			total += delta[i]
		}
		cum[i] = total
	}
	if total == 0 {
		return
	}
	const n = 1 << 20
	rng := workload.NewRNG(seed)
	idx := make([]uint32, n)
	for i := range idx {
		r := uint64(rng.Intn(int64(total)))
		idx[i] = uint32(sort.Search(len(cum), func(j int) bool { return cum[j] > r }))
	}
	t0 := time.Now()
	for _, i := range idx {
		ctrs[i].Inc()
	}
	perOp := float64(time.Since(t0)) / n
	bumps := float64(total) / float64(tx)
	m["stats.add_ns_per_op"] = perOp
	m["stats.bumps_per_tx"] = bumps
	m[stageStats] = perOp * bumps
	sink += bank.Value(names[0])
}

// boardProbe drives a warmed board through both entry points over the
// timed stream: Snoop one transaction at a time (the path hosts use)
// over the first half, SnoopBatch over the second, where it also
// counts heap allocations.
func boardProbe(b *core.Board, timed []bus.Transaction, batch int) (singleNs, batchNs, allocsPerTx float64) {
	half := len(timed) / 2
	if half == 0 {
		return 0, 0, 0
	}
	t0 := time.Now()
	for i := range timed[:half] {
		b.Snoop(&timed[i])
	}
	b.Flush() // each half pays for the directory work it queued
	singleNs = float64(time.Since(t0)) / float64(half)

	rest := timed[half:]
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	for len(rest) > 0 {
		n := min(batch, len(rest))
		b.SnoopBatch(rest[:n])
		b.Flush()
		rest = rest[n:]
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	n := float64(len(timed) - half)
	return singleNs, float64(el) / n, float64(ms1.Mallocs-ms0.Mallocs) / n
}

// isolatedBoard is the whole set of isolated measurements for a stream
// the benchmark did not feed the board itself (the host made it, or the
// service did): the inner-layer replays, then a fresh board of the same
// configuration warmed on the stream and probed over the timed window.
// It returns that board, warm and flushed.
func isolatedBoard(cfg core.Config, warm func(emit func([]bus.Transaction)) error, timed []bus.Transaction, batch int, seed uint64, m metrics) (*core.Board, error) {
	if err := layerReplay(cfg, warm, timed, m); err != nil {
		return nil, err
	}
	b, err := core.NewBoard(cfg)
	if err != nil {
		return nil, err
	}
	// Flushing after every batch is what a service session and
	// Session.Run do; at the replay workloads' spacing it is a no-op.
	if err := warm(func(txs []bus.Transaction) { b.SnoopBatch(txs); b.Flush() }); err != nil {
		return nil, err
	}
	names, delta := counterValues(b)
	accepted := b.Counters().Value("filter.accepted")
	m["core.snoop_single_ns_per_tx"], m["core.snoop_batch_ns_per_tx"], m["core.allocs_per_tx"] = boardProbe(b, timed, batch)
	_, after := counterValues(b)
	for i := range delta {
		delta[i] = after[i] - delta[i]
	}
	statsReplay(names, delta, b.Counters().Value("filter.accepted")-accepted, seed, m)
	m["core.self_ns_per_tx"] = m["core.snoop_batch_ns_per_tx"] - innerSum(m)
	return b, nil
}

func counterValues(b *core.Board) ([]string, []uint64) {
	names, ctrs := b.Counters().Ordered()
	vals := make([]uint64, len(ctrs))
	for i, c := range ctrs {
		vals[i] = c.Value()
	}
	return names, vals
}

// boardCounters reads the simulated per-layer numbers off a board.
func boardCounters(b *core.Board, m metrics) {
	c := b.Counters()
	rejected := c.Value("filter.rejected.io") + c.Value("filter.rejected.other") + c.Value("filter.unassigned")
	m["core.filtered_frac"] = stats.Ratio(rejected, rejected+c.Value("filter.accepted"))
	m["core.retry_posted"] = float64(c.Value("buffer.retry-posted"))
	m["core.buffer_peak"] = float64(c.Value("buffer.high-water"))
	ts := b.TagStoreStats(0)
	m["sdram.bank_conflict_frac"] = stats.Ratio(ts.BankConflicts, ts.Ops)
	m["sdram.busy_frac"] = stats.Ratio(ts.BusyCycles, b.LastCycle())
}
