package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/checkpoint"
	"memories/internal/coherence"
	"memories/internal/core"
	"memories/internal/obs"
	"memories/internal/simbase"
	"memories/internal/tracefile"
	"memories/internal/workload"
	"memories/protocols"
)

// replayCfg is one trace-replay workload: a Zipf stream and a board.
type replayCfg struct {
	name       string
	footprint  int64
	skew       float64 // 0 = the generator's default 1.2
	writeFrac  float64
	nodes      int // emulated nodes, CPUs split evenly among them
	cpus       int
	cacheBytes int64 // per node
	assoc      int
	proto      string
	// obsProbe adds obs.overhead_frac (replay_l3_64m only);
	// checkpointProbe adds checkpoint.* (replay_l3_2g only).
	obsProbe, checkpointProbe bool
}

// Trace sizes: 8 Mi records in 64 Ki-record blocks at full size, so one
// op (one block from file to counters) is ~64 Ki transactions.
const (
	fullTraceRecs  = 8 << 20
	fullBlockRecs  = 64 << 10
	quickTraceRecs = 16 << 10
	quickBlockRecs = 1 << 10
	validateRecs   = 1 << 20 // records checked against simbase.TraceSim
	probeTxFull    = 1 << 20 // transactions timed by each isolated replay
	probeTxQuick   = 8 << 10
)

var errStop = errors.New("bench: stop replay")

type replay struct {
	e   *env
	cfg replayCfg

	traceRecs, blockRecs int

	path  string
	bcfg  core.Config
	board *core.Board

	txs   []bus.Transaction // rec→tx scratch, one block
	clock busClock          // the board's bus clock
	done  int               // measured ops completed

	setupM metrics // per-layer numbers only set-up can see
	// How far each counter moved over the traced ops, and how many
	// transactions those were, for stats.bumps_per_tx.
	ctrNames []string
	ctrDelta []uint64
	tracedTx uint64
}

func newReplay(e *env, cfg replayCfg) *replay {
	r := &replay{e: e, cfg: cfg, traceRecs: fullTraceRecs, blockRecs: fullBlockRecs}
	if e.quick {
		r.traceRecs, r.blockRecs = quickTraceRecs, quickBlockRecs
		// The miniature checks the plumbing, not the memory system: a
		// 128 MB directory would spend its time zeroing pages.
		r.cfg.cacheBytes = min(r.cfg.cacheBytes, 16*addr.MB)
	}
	return r
}

func (r *replay) blocksPerPass() int { return r.traceRecs / r.blockRecs }

// zipfRecords returns a generator of the workload's records, one block
// at a time, alternating two buffers so a block stays untouched while
// the encoder may still hold it.
func zipfRecords(cfg replayCfg, seed uint64, total, block int, tr *tracer) func() []tracefile.Record {
	gen := workload.NewZipfian(workload.ZipfConfig{
		NumCPUs: cfg.cpus, FootprintByte: cfg.footprint, Skew: cfg.skew,
		WriteFraction: cfg.writeFrac, Seed: seed,
	})
	bufs := [2][]tracefile.Record{make([]tracefile.Record, block), make([]tracefile.Record, block)}
	made, flip := 0, 0
	return func() []tracefile.Record {
		if made >= total {
			return nil
		}
		sp := tr.begin("workload.zipf")
		buf := bufs[flip][:min(block, total-made)]
		flip ^= 1
		for i := range buf {
			ref, _ := gen.Next()
			cmd := bus.Read
			if ref.Write {
				cmd = bus.RWITM
			}
			buf[i] = tracefile.Record{Addr: ref.Addr &^ 127, Cmd: cmd, SrcID: uint8(ref.CPU)}
		}
		made += len(buf)
		tr.end(sp, uint64(len(buf)))
		return buf
	}
}

// boardConfig builds the workload's board from a loaded protocol table.
func (cfg replayCfg) boardConfig(table *coherence.Table) core.Config {
	per := cfg.cpus / cfg.nodes
	var nodes []core.NodeConfig
	for n := 0; n < cfg.nodes; n++ {
		cpus := make([]int, per)
		for c := range cpus {
			cpus[c] = n*per + c
		}
		nodes = append(nodes, core.NodeConfig{
			CPUs:     cpus,
			Geometry: addr.MustGeometry(cfg.cacheBytes, 128, cfg.assoc),
			Policy:   cache.LRU,
			Protocol: table,
		})
	}
	return core.Config{Nodes: nodes}
}

func (r *replay) setup(tr *tracer) error {
	r.close()
	path := r.e.tmpFile(r.cfg.name + ".v2")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.path = path
	sp := tr.begin("tracefile.EncodeV2Blocks")
	n, err := tracefile.EncodeV2Blocks(f, 1, zipfRecords(r.cfg, r.e.seed, r.traceRecs, r.blockRecs, tr))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	tr.end(sp, n)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}

	sp = tr.begin("protocols.Load")
	table, err := protocols.Load(r.cfg.proto)
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	r.bcfg = r.cfg.boardConfig(table)
	sp = tr.begin("core.NewBoard")
	r.board, err = core.NewBoard(r.bcfg)
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	r.txs = make([]bus.Transaction, r.blockRecs)
	r.clock, r.done = busClock{step: busCyclesPerTx}, 0
	r.ctrDelta, r.tracedTx = nil, 0

	if tr != nil {
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		t := totals(tr.spans)
		r.setupM = metrics{
			"workload.gen_ns_per_ref":     perWork(t["workload.zipf"].Total, uint64(r.traceRecs)),
			"tracefile.encode_ns_per_rec": perWork(t["tracefile.EncodeV2Blocks"].Self, uint64(r.traceRecs)),
			"tracefile.bytes_per_rec":     float64(st.Size()) / float64(r.traceRecs),
			"coherence.load_ms":           float64(t["protocols.Load"].Total) / 1e6,
		}
	}
	return nil
}

func perWork(d time.Duration, work uint64) float64 {
	if work == 0 {
		return 0
	}
	return float64(d) / float64(work)
}

func (r *replay) toTx(recs []tracefile.Record) []bus.Transaction {
	return r.clock.stamp(r.txs, recs)
}

// warm replays the whole trace once so the emulated caches hold what
// the trace's footprint lets them hold.
func (r *replay) warm() error {
	_, err := tracefile.ForEachBatchFile(r.path, 1, func(recs []tracefile.Record) error {
		r.board.SnoopBatch(r.toTx(recs))
		return nil
	})
	r.board.Flush()
	return err
}

// snapshot is the pipeline's last stage: read the ordered counter bank
// the way a console or the digest does.
func (r *replay) snapshot(tr *tracer) []uint64 {
	sp := tr.begin("stats.Ordered")
	names, vals := counterValues(r.board)
	r.ctrNames = names
	tr.end(sp, uint64(len(vals)))
	return vals
}

func (r *replay) run(from, to int, tr *tracer) ([]lane, error) {
	if from != r.done {
		return nil, fmt.Errorf("replay: run from op %d, but %d are done", from, r.done)
	}
	var ctrFrom []uint64
	if tr != nil {
		ctrFrom = r.snapshot(nil)
	}
	var l lane
	t0 := time.Now()
	var prev time.Duration
	bpp := r.blocksPerPass()
	for r.done < to {
		skip := r.done % bpp // resume mid-pass: decode and drop what already ran
		blk := 0
		sp := tr.begin("tracefile.ForEachBatchFile")
		skipSpan := 0
		if skip > 0 {
			skipSpan = tr.begin("bench.skip")
		}
		var recs uint64
		_, err := tracefile.ForEachBatchFile(r.path, 1, func(batch []tracefile.Record) error {
			if blk < skip {
				if blk++; blk == skip {
					prev = time.Since(t0) // the dropped blocks are no op's time
					tr.end(skipSpan, 0)
				}
				return nil
			}
			c := tr.begin("bench.rec_to_tx")
			txs := r.toTx(batch)
			tr.end(c, uint64(len(txs)))
			c = tr.begin("core.SnoopBatch")
			r.board.SnoopBatch(txs)
			tr.end(c, uint64(len(txs)))
			now := time.Since(t0)
			n := uint64(len(txs))
			l.add(now, now-prev, n, n*busCyclesPerTx)
			prev = now
			recs += n
			if r.done++; r.done == to {
				return errStop
			}
			return nil
		})
		tr.end(sp, recs)
		if err != nil && !errors.Is(err, errStop) {
			return nil, err
		}
		if r.done%bpp == 0 { // a whole pass ended: flush and read the bank
			sp = tr.begin("core.Flush")
			r.board.Flush()
			tr.end(sp, 1)
			r.snapshot(tr)
		}
	}
	if tr != nil {
		if r.ctrDelta == nil {
			r.ctrDelta = make([]uint64, len(ctrFrom))
		}
		for i, v := range r.snapshot(nil) {
			r.ctrDelta[i] += v - ctrFrom[i]
		}
		for _, n := range l.tx {
			r.tracedTx += n
		}
	}
	return []lane{l}, nil
}

// boardDigest flushes a board and folds its ordered counter bank.
func boardDigest(b *core.Board, d *digester) {
	b.Flush()
	names, ctrs := b.Counters().Ordered()
	for i, name := range names {
		d.add(name, ctrs[i].Value())
	}
	for _, name := range []string{"filter.accepted", "buffer.overflow", "buffer.high-water", "bus.cycles"} {
		d.keep(name, b.Counters().Value(name))
	}
	v := b.Node(0)
	d.keep("nodea.read.hit", v.ReadHit)
	d.keep("nodea.read.miss", v.ReadMiss)
	d.keep("nodea.write.hit", v.WriteHit)
	d.keep("nodea.write.miss", v.WriteMiss)
	d.keep("nodea.evictions", v.Evictions)
}

func (r *replay) sim() (simStats, error) {
	d := newDigester()
	boardDigest(r.board, d)
	return simStats{
		Digest: d.sum(), MissRatio: r.board.Node(0).MissRatio(), Headline: d.headline,
		attempted: int64(r.done), failed: 0,
	}, nil
}

// validate replays the first records of the trace through a fresh board
// and through simbase.TraceSim, the slow obviously-right reference, and
// returns the largest miss-ratio difference on any node.
func (r *replay) validate() (float64, bool, error) {
	b, err := core.NewBoard(r.bcfg)
	if err != nil {
		return 0, false, err
	}
	var nodes []simbase.TraceNodeConfig
	for _, nc := range r.bcfg.Nodes {
		nodes = append(nodes, simbase.TraceNodeConfig{
			CPUs: nc.CPUs, Geometry: nc.Geometry, Policy: nc.Policy, Protocol: nc.Protocol,
		})
	}
	ref, err := simbase.NewTraceSim(nodes)
	if err != nil {
		return 0, false, err
	}
	clock := busClock{step: busCyclesPerTx}
	var seen int
	_, err = tracefile.ForEachBatchFile(r.path, 1, func(recs []tracefile.Record) error {
		b.SnoopBatch(clock.stamp(r.txs, recs))
		ref.ProcessBatch(recs)
		if seen += len(recs); seen >= validateRecs {
			return errStop
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		return 0, false, err
	}
	b.Flush()
	var worst float64
	for i := range r.bcfg.Nodes {
		worst = math.Max(worst, math.Abs(b.Node(i).MissRatio()-ref.NodeStats(i).MissRatio()))
		if b.Node(i).Refs() != ref.NodeStats(i).Refs() {
			return 0, false, fmt.Errorf("node %d: board saw %d refs, reference %d", i, b.Node(i).Refs(), ref.NodeStats(i).Refs())
		}
	}
	return worst, true, nil
}

// probeStream decodes the next n records of the cyclic replay into
// transactions whose cycles continue the board's clock.
func (r *replay) probeStream(n int) ([]bus.Transaction, error) {
	out := make([]bus.Transaction, 0, n)
	for len(out) < n {
		_, err := tracefile.ForEachBatchFile(r.path, 1, func(recs []tracefile.Record) error {
			out = append(out, r.toTx(recs[:min(len(recs), n-len(out))])...)
			if len(out) >= n {
				return errStop
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStop) {
			return nil, err
		}
	}
	return out, nil
}

func (r *replay) probeTx() int {
	if r.e.quick {
		return probeTxQuick
	}
	return probeTxFull
}

func (r *replay) layers(tr *tracer, m metrics) error {
	for k, v := range r.setupM {
		m[k] = v
	}
	t := totals(tr.spans)
	pass := t["tracefile.ForEachBatchFile"]
	snoop := t["core.SnoopBatch"]
	conv := t["bench.rec_to_tx"]
	flush := t["core.Flush"]
	tx := snoop.Work
	m["tracefile.decode_ns_per_rec"] = perWork(pass.Self, tx)
	m["bench.rec_to_tx_ns_per_tx"] = perWork(conv.Total, tx)
	m["core.snoop_batch_ns_per_tx"] = perWork(snoop.Total, tx)
	if flush.Count > 0 {
		m["core.flush_ms"] = float64(flush.Total) / float64(flush.Count) / 1e6
	}
	snap := t["stats.Ordered"]
	if snap.Count > 0 {
		m["stats.snapshot_us"] = float64(snap.Total) / float64(snap.Count) / 1e3
	}
	m[stageFlush] = perWork(flush.Total, tx)
	m[stageSnapshot] = perWork(snap.Total, tx)
	whole := pass.Total + flush.Total + snap.Total
	if whole > 0 {
		m["tracefile.decode_share"] = float64(pass.Self) / float64(whole)
		m["core.share"] = float64(snoop.Total+flush.Total) / float64(whole)
	}
	boardCounters(r.board, m)

	// Inner layers, measured from outside on the same stream: one full
	// pass warms the replay directories as it warmed the board's.
	timed, err := r.probeStream(r.probeTx())
	if err != nil {
		return err
	}
	warm := func(emit func([]bus.Transaction)) error {
		clock := busClock{step: busCyclesPerTx} // the model ignores cycles while it warms
		_, err := tracefile.ForEachBatchFile(r.path, 1, func(recs []tracefile.Record) error {
			emit(clock.stamp(r.txs, recs))
			return nil
		})
		return err
	}
	if err := layerReplay(r.bcfg, warm, timed, m); err != nil {
		return err
	}
	statsReplay(r.ctrNames, r.ctrDelta, r.tracedTx, r.e.seed, m)
	m["core.self_ns_per_tx"] = m["core.snoop_batch_ns_per_tx"] - innerSum(m)

	// The board's other entry point, on the warmed board itself.
	single, _, allocs := boardProbe(r.board, timed, r.blockRecs)
	m["core.snoop_single_ns_per_tx"] = single
	m["core.allocs_per_tx"] = allocs

	if r.cfg.checkpointProbe {
		if err := checkpointProbe(r.board, r.bcfg, m); err != nil {
			return err
		}
	}
	if r.cfg.obsProbe {
		if err := r.obsProbe(m); err != nil {
			return err
		}
	}
	return nil
}

// obsProbe prices Board.Observe: one pass of slice rates without the
// mirror attached, one with. Sessions of the service always observe.
func (r *replay) obsProbe(m metrics) error {
	ops := roundUp(r.blocksPerPass(), rateSlices)
	rate := func() (float64, error) {
		lanes, err := r.run(r.done, r.done+ops, nil)
		if err != nil {
			return 0, err
		}
		return sustained(sliceRates(lanes, rateSlices, laneTx)), nil
	}
	without, err := rate()
	if err != nil {
		return err
	}
	if err := r.board.Observe(obs.NewRegistry(), nil, "board", 0); err != nil {
		return err
	}
	with, err := rate()
	if err != nil {
		return err
	}
	m["obs.overhead_frac"] = 1 - with/without
	return nil
}

// checkpointProbe times Board.WriteCheckpoint and core.RestoreBoard on
// a warmed board, in memory so the disk is not what is measured.
func checkpointProbe(b *core.Board, cfg core.Config, m metrics) error {
	b.Flush()
	var buf bytes.Buffer
	t0 := time.Now()
	if err := b.WriteCheckpoint(&buf); err != nil {
		return err
	}
	mb := float64(buf.Len()) / 1e6
	m["checkpoint.write_mb_per_s"] = mb / time.Since(t0).Seconds()

	fresh, err := core.NewBoard(cfg)
	if err != nil {
		return err
	}
	t0 = time.Now()
	snap, err := checkpoint.Decode(buf.Bytes())
	if err != nil {
		return err
	}
	if _, err := core.RestoreBoard(fresh, snap); err != nil {
		return err
	}
	m["checkpoint.restore_mb_per_s"] = mb / time.Since(t0).Seconds()
	if got, want := fresh.Node(0).Misses(), b.Node(0).Misses(); got != want {
		return fmt.Errorf("checkpoint: restored board has %d misses, source %d", got, want)
	}
	return nil
}

func (r *replay) close() {
	if r.path != "" {
		os.Remove(r.path)
		r.path = ""
	}
	r.board = nil
}
