// Package core implements the MemorIES board itself: the paper's primary
// contribution (§3). The board attaches to a host 6xx bus as a purely
// passive snooper and emulates up to four shared-cache nodes in real time.
//
// The functional decomposition follows the seven-FPGA hardware design
// (Figure 7):
//
//   - the address filter rejects non-memory traffic (I/O register
//     accesses, interrupts, syncs) and transactions from unassigned bus
//     IDs, and owns the transaction buffer whose overflow would force a
//     bus retry (§3.3);
//   - the global events section counts bus-wide statistics and timestamps;
//   - four node controllers, always stepped in lock-step (§3.1), each
//     maintain one emulated cache's tag/state directory in a
//     throughput-limited SDRAM model and run a programmable protocol
//     table (§3.2);
//   - the console port (internal/console) programs cache parameters,
//     loads protocol tables, and extracts the 40-bit counter bank.
//
// The software board's own memory behaviour follows the hardware's tag
// SDRAM (§3.3: one pipelined read-modify-write of one entry per
// transaction per node). The buffer is worked in two steps: drain retires
// the transactions whose lock-step SDRAM slot has come up, and service
// then performs their directory operations, loading the sets of each
// window of lookAhead retired transactions in one burst before processing
// it. A directory larger than the host's caches therefore costs
// overlapped misses rather than one serial miss per transaction, however
// long the transactions waited in the buffer (DESIGN.md §4d). Work that
// depends only on the address and a node's set shape is done once per
// shape: nodes with one line size and set count form a lane, which splits
// each window entry into set index and tag once for all of them, and
// nodes of a lane whose tag-store models are equal share one model, which
// drain steps once. process walks only the requester's snoop-group peers,
// looks each node's set up once and carries the slot through the
// transition, and a peer that misses on a snoop its table ignores only
// has the transition counted. None of this changes a counter, a directory
// word, a replacement rank or a checkpoint byte.
//
// Everything the board reports is derived from the bus transaction stream
// alone: it never injects traffic (the single exception being the
// overflow retry, which the paper reports never firing in months of lab
// use) and never invalidates host caches — which is why, exactly as §3.4
// concedes, the emulated caches are non-inclusive.
package core

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/coherence"
	"memories/internal/obs"
	"memories/internal/sdram"
	"memories/internal/stats"
	"memories/internal/tracefile"
)

// MaxNodes is the number of node-controller FPGAs on the board.
const MaxNodes = 4

// DefaultBufferDepth is the per-node transaction buffer depth (§3.3:
// "the node controller FPGAs contain 512 transaction buffer entries").
const DefaultBufferDepth = 512

// NodeConfig describes one emulated shared-cache node.
type NodeConfig struct {
	// Name labels the node in counter names ("a" through "d" by default).
	Name string
	// CPUs lists the host bus IDs whose traffic is local to this node.
	CPUs []int
	// Geometry is the emulated cache shape (2MB-8GB, 1-8 ways, 128B-16KB
	// lines per Table 2).
	Geometry addr.Geometry
	// Policy is the replacement algorithm.
	Policy cache.Policy
	// Protocol is the coherence lookup table loaded into this controller;
	// different nodes may run different protocols in the same run (§3.2).
	Protocol *coherence.Table
	// Group is the snoop universe. Nodes in the same group emulate nodes
	// of the same target machine and snoop each other; nodes in different
	// groups are independent alternative configurations (§2.2, Figure 4).
	Group int
	// SDRAM overrides the tag-store timing; zero value selects the
	// default 42%-of-bus-bandwidth model.
	SDRAM sdram.Config
}

// Config describes the whole board.
type Config struct {
	// Nodes configures 1 to 4 node controllers.
	Nodes []NodeConfig
	// BufferDepth is the transaction buffer depth (default 512).
	BufferDepth int
	// RetryOnOverflow makes the address filter actually post bus retries
	// when the buffer fills. The hardware has this wired; the paper never
	// saw it fire, and leaving it false (count-only) keeps the board
	// strictly passive even under artificial overload.
	RetryOnOverflow bool
	// ProfileBucketCycles enables per-node miss-ratio time series with
	// the given bucket width in bus cycles (0 disables). This is the
	// Figure 10 profiling mechanism.
	ProfileBucketCycles uint64
	// TraceCapacity enables the trace-collection mode with an on-board
	// memory of this many 8-byte records (0 disables). §2.3 puts the
	// stock board at 128Mi records (1GB), 1Gi with 8GB DRAM.
	TraceCapacity int
	// ECC protects every node's tag-store entries with a SECDED check
	// byte so that injected (or modeled) SDRAM soft errors can be
	// detected and repaired. The hardware board had no such protection;
	// production-length runs need it.
	ECC bool
	// ScrubIntervalCycles runs a background ECC scrub pass over every
	// node directory each time the bus clock advances by this many
	// cycles (0 disables background scrubbing; ScrubNow remains
	// available). Requires ECC.
	ScrubIntervalCycles uint64
}

// MaxBusID is the largest assignable bus ID. The trace format carries
// source IDs in a single byte, and the hardware filter FPGA matches on
// an 8-bit bus tag, so the bound is inherent to the design; it is also
// what lets every per-CPU lookup on the hot path be a dense slice index
// instead of a map probe.
const MaxBusID = 255

// CPURange returns the bus IDs 0..n-1: a node that owns the host's
// first n processors.
func CPURange(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Board is the MemorIES emulator.
type Board struct {
	cfg      Config
	bank     *stats.Bank
	nodes    []*node
	cpuOwner [][]*node // bus ID -> owning node per group (dense, nil holes)
	queue    []pending
	qhead    int // queue[:qhead] retired from the buffer; see drain
	phead    int // queue[:phead] serviced, phead <= qhead; see service
	capture  *tracefile.Capture

	// cached global counters (hot path)
	cAccepted, cRejectedIO, cRejectedOther, cUnassigned *stats.Counter
	cOverflow, cRetryPosted                             *stats.Counter
	cBufferHigh, cCycles                                *stats.Counter
	cTraceCaptured, cTraceDropped                       *stats.Counter
	cRejectedRetried                                    *stats.Counter
	cScrubPasses                                        *stats.Counter
	cByCmd                                              []*stats.Counter
	cPerCPU                                             []*stats.Counter // bus ID indexed, nil holes
	lastCycle                                           uint64
	justEnqueued                                        bool
	nextScrub                                           uint64
	onDrain                                             func(cycle uint64, cmd bus.Command, addr uint64, src int)

	// batchByCmd and batchByCPU are SnoopBatch's per-command and per-bus-ID
	// accumulators, kept on the board so the batch path allocates nothing.
	// busIDs lists the assigned bus IDs, the only batchByCPU entries a
	// batch can move.
	batchByCmd []uint64
	batchByCPU [MaxBusID + 1]uint64
	busIDs     []uint8
	// touchSink receives what touchAhead loaded; it is never read.
	touchSink uint64
	// lanes and timing are the board's set shapes and its distinct
	// tag-store models (see regroup): touchAhead splits each address once
	// per lane, drain steps each model once.
	lanes  []*lane
	timing []timing

	// Observability attachments (see observe.go). Both are nil until
	// Observe; the hot path pays one nil check each when detached and
	// one inlined atomic flag probe when attached.
	mirror *obs.Mirror
	tracer *obs.Tracer
}

// pending is a buffered transaction awaiting directory service: 24 bytes.
// src fits a byte because only transactions from an owned bus ID
// (0..MaxBusID) are admitted.
type pending struct {
	cycle, addr uint64
	cmd         bus.Command
	src         uint8
}

// lane is one set shape — a line size and a set count — and the nodes
// that have it share the address split: set and tag hold, for each entry
// of the service window being processed, its set index and tag in every
// directory of this shape, whatever its associativity.
type lane struct {
	geom addr.Geometry
	set  [lookAhead]int64
	tag  [lookAhead]uint64
}

// timing is one tag-store model and the lane whose set indices bank it.
type timing struct {
	tags *sdram.TagStore
	lane *lane
}

// NewBoard validates the configuration and powers up the board with all
// directories invalid and all counters zero.
func NewBoard(cfg Config) (*Board, error) {
	if len(cfg.Nodes) == 0 || len(cfg.Nodes) > MaxNodes {
		return nil, fmt.Errorf("core: need 1-%d nodes, got %d", MaxNodes, len(cfg.Nodes))
	}
	if cfg.BufferDepth == 0 {
		cfg.BufferDepth = DefaultBufferDepth
	}
	if cfg.BufferDepth < 1 {
		return nil, fmt.Errorf("core: buffer depth %d invalid", cfg.BufferDepth)
	}
	if cfg.ScrubIntervalCycles > 0 && !cfg.ECC {
		return nil, fmt.Errorf("core: scrub interval requires ECC")
	}
	b := &Board{
		cfg:      cfg,
		bank:     stats.NewBank(),
		cpuOwner: make([][]*node, MaxBusID+1),
		cPerCPU:  make([]*stats.Counter, MaxBusID+1),
	}
	names := map[string]bool{}
	for i := range cfg.Nodes {
		nc := &cfg.Nodes[i]
		if nc.Name == "" {
			nc.Name = string(rune('a' + i))
		}
		if names[nc.Name] {
			return nil, fmt.Errorf("core: duplicate node name %q", nc.Name)
		}
		names[nc.Name] = true
		n, err := newNode(b, *nc, cfg.ProfileBucketCycles)
		if err != nil {
			return nil, err
		}
		b.nodes = append(b.nodes, n)
	}
	b.regroup()
	// Validate CPU assignment: within one group, a CPU may belong to at
	// most one node. (newNode has already bounds-checked every ID.)
	for _, n := range b.nodes {
		for _, id := range n.cfg.CPUs {
			for _, owner := range b.cpuOwner[id] {
				if owner.cfg.Group == n.cfg.Group {
					return nil, fmt.Errorf("core: bus ID %d assigned to nodes %q and %q in group %d",
						id, owner.cfg.Name, n.cfg.Name, n.cfg.Group)
				}
			}
			b.cpuOwner[id] = append(b.cpuOwner[id], n)
		}
	}
	if cfg.TraceCapacity > 0 {
		b.capture = tracefile.NewCapture(cfg.TraceCapacity)
	}
	b.initGlobalCounters()
	return b, nil
}

// MustNewBoard is NewBoard for statically known-good configurations.
func MustNewBoard(cfg Config) *Board {
	b, err := NewBoard(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

func (b *Board) initGlobalCounters() {
	b.cAccepted = b.bank.Counter("filter.accepted")
	b.cRejectedIO = b.bank.Counter("filter.rejected.io")
	b.cRejectedOther = b.bank.Counter("filter.rejected.other")
	b.cUnassigned = b.bank.Counter("filter.unassigned")
	b.cRejectedRetried = b.bank.Counter("filter.rejected.retried")
	b.cOverflow = b.bank.Counter("buffer.overflow")
	b.cRetryPosted = b.bank.Counter("buffer.retry-posted")
	b.cBufferHigh = b.bank.Counter("buffer.high-water")
	b.cScrubPasses = b.bank.Counter("scrub.passes")
	for c := 0; c < bus.NumCommands(); c++ {
		b.cByCmd = append(b.cByCmd, b.bank.Counter("bus.ops."+bus.Command(c).String()))
	}
	b.cCycles = b.bank.Counter("bus.cycles")
	b.cTraceCaptured = b.bank.Counter("trace.captured")
	b.cTraceDropped = b.bank.Counter("trace.dropped")
	// Per-CPU global operation counters for every assigned bus ID.
	for id, owners := range b.cpuOwner {
		if len(owners) > 0 {
			b.perCPUCounter(id)
		}
	}
	b.batchByCmd = make([]uint64, len(b.cByCmd))
}

// perCPUCounter registers bus ID id's global operation counter, once.
func (b *Board) perCPUCounter(id int) {
	if b.cPerCPU[id] == nil {
		b.cPerCPU[id] = b.bank.Counter(fmt.Sprintf("bus.cpu%02d.ops", id))
		b.busIDs = append(b.busIDs, uint8(id))
	}
}

// regroup rebuilds what the board derives from its node list: every
// node's peer list (the other nodes of its snoop group, in board order),
// the lanes and the timing classes. A lane is the nodes with one set
// shape (line size and set count); a timing class is the nodes of one
// lane whose tag-store models are equal, which then share the first one's
// model. Equal models fed the same operations stay equal, and drain feeds
// every model of a lane the same operations, so sharing changes no
// timing. NewBoard, Reprogram and a checkpoint restore call it; a model
// that is not equal (a reprogrammed node's fresh one, a restored one with
// its own history) stays apart.
func (b *Board) regroup() {
	b.lanes, b.timing = b.lanes[:0], b.timing[:0]
	for _, n := range b.nodes {
		n.peers = n.peers[:0]
		for _, peer := range b.nodes {
			if peer != n && peer.cfg.Group == n.cfg.Group {
				n.peers = append(n.peers, peer)
			}
		}
		g := n.cfg.Geometry
		n.lane = nil
		for _, l := range b.lanes {
			if l.geom.LineSize == g.LineSize && l.geom.Sets == g.Sets {
				n.lane = l
				break
			}
		}
		if n.lane == nil {
			n.lane = &lane{geom: g}
			b.lanes = append(b.lanes, n.lane)
		}
		shared := false
		for _, m := range b.timing {
			if m.lane == n.lane && m.tags.Equal(n.tags) {
				n.tags, shared = m.tags, true
				break
			}
		}
		if !shared {
			b.timing = append(b.timing, timing{tags: n.tags, lane: n.lane})
		}
	}
}

// owners returns the nodes owning bus ID id (nil for unassigned or
// out-of-range IDs, including the negative IDs of passive observers).
func (b *Board) owners(id int) []*node {
	if uint(id) >= uint(len(b.cpuOwner)) {
		return nil
	}
	return b.cpuOwner[id]
}

// BusID implements bus.Snooper: negative, so the board observes every
// transaction including those from all CPUs.
func (b *Board) BusID() int { return -1 }

// Counters exposes the board's counter bank (the console reads it).
func (b *Board) Counters() *stats.Bank { return b.bank }

// Config returns the board configuration.
func (b *Board) Config() Config { return b.cfg }

// NumNodes returns the number of configured node controllers.
func (b *Board) NumNodes() int { return len(b.nodes) }

// Trace returns the capture memory, or nil when trace mode is off.
func (b *Board) Trace() *tracefile.Capture { return b.capture }

// LastCycle returns the bus cycle of the most recent observed transaction.
func (b *Board) LastCycle() uint64 { return b.lastCycle }

// Snoop implements bus.Snooper: the board's entire observation path.
func (b *Board) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	b.justEnqueued = false
	// Service a pending sampler request at this safe point: the previous
	// transaction is fully accounted, this one not yet begun.
	if m := b.mirror; m != nil && m.Requested() {
		m.Publish()
	}
	b.lastCycle = tx.Cycle
	b.cCycles.Reset()
	b.cCycles.Add(tx.Cycle)
	if int(tx.Cmd) < len(b.cByCmd) {
		b.cByCmd[tx.Cmd].Inc()
	}

	// Address filter: reject non-memory operations outright.
	if !tx.Cmd.IsMemoryOp() {
		if tx.Cmd == bus.IORead || tx.Cmd == bus.IOWrite {
			b.cRejectedIO.Inc()
		} else {
			b.cRejectedOther.Inc()
		}
		return bus.RespNull
	}
	// Reject traffic from bus IDs not assigned to any emulated node.
	if len(b.owners(tx.SrcID)) == 0 {
		b.cUnassigned.Inc()
		return bus.RespNull
	}
	b.cPerCPU[tx.SrcID].Inc()

	// Trace collection mode.
	if b.capture != nil {
		if stored, err := b.capture.Add(tracefile.FromTransaction(tx)); err == nil && stored {
			b.cTraceCaptured.Inc()
		} else {
			b.cTraceDropped.Inc()
		}
	}

	// Background scrub: repair tag-store soft errors on a fixed cadence
	// before they can steer directory transitions.
	if iv := b.cfg.ScrubIntervalCycles; iv > 0 && tx.Cycle >= b.nextScrub {
		b.ScrubNow()
		b.nextScrub = tx.Cycle + iv
	}

	// Retire and service whatever the SDRAMs have finished by now, then
	// admit the new transaction into the lock-step buffer.
	b.drain(tx.Cycle)
	b.service()
	if len(b.queue)-b.qhead >= b.cfg.BufferDepth {
		b.cOverflow.Inc()
		if b.cfg.RetryOnOverflow {
			b.cRetryPosted.Inc()
			return bus.RespRetry
		}
		// Count-only mode still processes the transaction (the model
		// equivalent of the buffer never actually losing work).
	}
	b.cAccepted.Inc()
	if tr := b.tracer; tr != nil && tr.Enabled() {
		tr.Record(tx.Cycle, tx.Addr, uint8(tx.Cmd), uint8(tx.SrcID))
	}
	b.enqueue(pending{cycle: tx.Cycle, addr: tx.Addr, cmd: tx.Cmd, src: uint8(tx.SrcID)})
	b.justEnqueued = true
	if hw := uint64(len(b.queue) - b.qhead); hw > b.cBufferHigh.Value() {
		b.cBufferHigh.Reset()
		b.cBufferHigh.Add(hw)
	}
	// The transaction stays buffered until its combined response is known
	// (ObserveResponse); it is serviced at the next bus event or Flush.
	return bus.RespNull
}

// enqueue admits one pending transaction, recycling the serviced prefix
// of the queue's backing array before growing it: the queue is a ring in
// all but name, so a board in steady state never re-allocates it.
func (b *Board) enqueue(p pending) {
	if len(b.queue) == cap(b.queue) && b.phead > 0 {
		n := copy(b.queue, b.queue[b.phead:])
		b.queue = b.queue[:n]
		b.qhead -= b.phead
		b.phead = 0
	}
	b.queue = append(b.queue, p)
}

// SnoopBatch observes a slice of transactions exactly as consecutive
// Snoop calls would — same filter decisions, same drain timing, same
// counter values — while amortizing the per-transaction bookkeeping:
// the cycle gauge and buffer high-water are folded once per batch, and
// per-command and per-bus-ID counts accumulate in scratch arrays before a
// single saturating Add each. It is bit-identical to the serial path (proven
// by TestSnoopBatchMatchesSerial) but cannot post overflow retries,
// because the combined-response window for each transaction has closed
// by the time a batch is handed over; boards configured with
// RetryOnOverflow must use Snoop.
func (b *Board) SnoopBatch(txs []bus.Transaction) {
	if b.cfg.RetryOnOverflow {
		panic("core: SnoopBatch on a RetryOnOverflow board; responses are asynchronous")
	}
	if len(txs) == 0 {
		return
	}
	b.justEnqueued = false
	byCmd, byCPU := b.batchByCmd, &b.batchByCPU
	var accepted, overflow uint64
	hw := b.cBufferHigh.Value()
	scrubIv := b.cfg.ScrubIntervalCycles
	// Tracing state is sampled once per batch: a tracer enabled mid-batch
	// starts capturing at the next batch boundary. This keeps the per-
	// transaction cost of a disabled tracer at a register test.
	tr := b.tracer
	traceOn := tr != nil && tr.Enabled()
	for i := range txs {
		tx := &txs[i]
		if int(tx.Cmd) < len(byCmd) {
			byCmd[tx.Cmd]++
		}
		if !tx.Cmd.IsMemoryOp() {
			if tx.Cmd == bus.IORead || tx.Cmd == bus.IOWrite {
				b.cRejectedIO.Inc()
			} else {
				b.cRejectedOther.Inc()
			}
			continue
		}
		if len(b.owners(tx.SrcID)) == 0 {
			b.cUnassigned.Inc()
			continue
		}
		byCPU[uint8(tx.SrcID)]++
		if b.capture != nil {
			if stored, err := b.capture.Add(tracefile.FromTransaction(tx)); err == nil && stored {
				b.cTraceCaptured.Inc()
			} else {
				b.cTraceDropped.Inc()
			}
		}
		if scrubIv > 0 && tx.Cycle >= b.nextScrub {
			b.ScrubNow()
			b.nextScrub = tx.Cycle + scrubIv
		}
		b.drain(tx.Cycle)
		if len(b.queue)-b.qhead >= b.cfg.BufferDepth {
			overflow++
		}
		accepted++
		if traceOn {
			tr.Record(tx.Cycle, tx.Addr, uint8(tx.Cmd), uint8(tx.SrcID))
		}
		b.enqueue(pending{cycle: tx.Cycle, addr: tx.Addr, cmd: tx.Cmd, src: uint8(tx.SrcID)})
		if occ := uint64(len(b.queue) - b.qhead); occ > hw {
			hw = occ
		}
	}
	b.service()
	b.lastCycle = txs[len(txs)-1].Cycle
	b.cCycles.Reset()
	b.cCycles.Add(b.lastCycle)
	for cmd, n := range byCmd {
		if n > 0 {
			b.cByCmd[cmd].Add(n)
			byCmd[cmd] = 0
		}
	}
	for _, id := range b.busIDs {
		if n := byCPU[id]; n > 0 {
			b.cPerCPU[id].Add(n)
			byCPU[id] = 0
		}
	}
	b.cAccepted.Add(accepted)
	b.cOverflow.Add(overflow)
	if hw > b.cBufferHigh.Value() {
		b.cBufferHigh.Reset()
		b.cBufferHigh.Add(hw)
	}
	// One sampler probe per batch, at the batch-end safe point.
	if m := b.mirror; m != nil && m.Requested() {
		m.Publish()
	}
}

// lookAhead is the service window: the number of retired transactions
// whose directory sets service loads in one burst before processing them,
// and the length of each lane's set and tag arrays.
// On a directory larger than the host's caches every lookup is a DRAM
// miss, and taken one per transaction the misses serialize behind ~100 ns
// of dependent work each; loaded in a burst, a window's worth are in
// flight together (the software form of the board's pipelined SDRAM,
// where bank recovery overlaps the next op). The burst is issued at
// service, not admission, so it lands however long the transactions
// queued. Measured flat from 16 to 256 on a 128 MB directory and useless
// at whole-batch scale (lines evicted before use), hence a constant
// (DESIGN.md §4d).
const lookAhead = 64

// touchAhead prepares one service window: it splits every entry's address
// into set index and tag once per lane, then issues the look-ahead loads,
// every node's set for each transaction in turn. The loaded words go to a
// sink field so the compiler keeps the loads.
func (b *Board) touchAhead(w []pending) {
	for _, l := range b.lanes {
		for i := range w {
			l.set[i], l.tag[i] = l.geom.Index(w[i].addr), l.geom.Tag(w[i].addr)
		}
	}
	var sink uint64
	for i := range w {
		for _, n := range b.nodes {
			sink ^= n.dir.TouchSet(n.lane.set[i])
		}
	}
	b.touchSink ^= sink
}

// ObserveResponse implements bus.ResponseObserver: §3.3's filter rule —
// a memory operation that another bus device retried never happened, so
// it must not occupy transaction-buffer space or touch the directories.
func (b *Board) ObserveResponse(tx *bus.Transaction, combined bus.SnoopResponse) {
	if combined == bus.RespRetry && b.justEnqueued {
		b.queue = b.queue[:len(b.queue)-1] // pop the entry Snoop just pushed
		if b.qhead == len(b.queue) {
			b.queue = b.queue[:0]
			b.qhead, b.phead = 0, 0
		}
		b.cRejectedRetried.Inc()
		// The accepted counter tracked the enqueue; take it back.
		// (40-bit counters cannot decrement; account the rejection
		// separately and report accepted net of retried in dumps.)
	}
	b.justEnqueued = false
}

// drain retires buffered transactions whose lock-step SDRAM slot starts
// by the given cycle: it books each slot on every distinct timing model
// (regroup) and advances qhead, the buffer's occupancy pointer, leaving
// the directory work to service, which it runs every lookAhead
// retirements. Retired entries advance qhead rather than re-slicing the
// queue, so the backing array is reused (enqueue compacts) instead of
// sliding toward a re-allocation per wrap.
func (b *Board) drain(now uint64) {
	for b.qhead < len(b.queue) {
		p := &b.queue[b.qhead]
		// Lock-step: every node controller performs its directory
		// operation for this transaction in the same service slot, so
		// the op starts when the slowest node's SDRAM channel is free.
		// Bank recovery overlaps with the next op (pipelining), so the
		// sustained rate is one op per channel gap, the 42% figure.
		// Nodes sharing a model are stepped once, through it.
		start := p.cycle
		for _, m := range b.timing {
			if nf := m.tags.NextFree(); nf > start {
				start = nf
			}
		}
		if start > now {
			return
		}
		for _, m := range b.timing {
			m.tags.Schedule(start, m.lane.geom.Index(p.addr))
		}
		b.qhead++
		if b.qhead-b.phead == lookAhead {
			b.service()
		}
	}
}

// service performs the directory operations of the retired transactions
// queue[phead:qhead], in retirement order, one lookAhead window at a
// time: the window's addresses are split and its sets loaded in one
// burst (touchAhead), then each transaction is processed with its index
// in the window, which selects its set and tag in every lane. It runs
// every lookAhead retirements and before anything that reads or rewrites
// the directories — a scrub pass, the return of every Snoop, SnoopBatch
// and Flush — so between calls the board is as if each transaction had
// been processed the moment it retired.
func (b *Board) service() {
	for b.phead < b.qhead {
		w := b.queue[b.phead:min(b.phead+lookAhead, b.qhead)]
		b.touchAhead(w)
		for i := range w {
			p := &w[i]
			b.process(p, i)
			if b.onDrain != nil {
				b.onDrain(p.cycle, p.cmd, p.addr, int(p.src))
			}
		}
		b.phead += len(w)
	}
	if b.phead == len(b.queue) {
		b.queue = b.queue[:0]
		b.qhead, b.phead = 0, 0
	}
}

// Flush services every buffered transaction regardless of timing; callers
// use it at end of run before reading counters.
func (b *Board) Flush() {
	b.drain(^uint64(0))
	b.service()
}

// PendingDepth returns the current transaction-buffer occupancy.
func (b *Board) PendingDepth() int { return len(b.queue) - b.qhead }

// process applies one memory operation to every emulated node, group by
// group: the node owning the requesting CPU performs the local
// transition with the snoop input combined from its peers (the other
// nodes of its group, local.peers); the peers perform the matching snoop
// transition. The operation is classified once per transaction, and a
// command with no directory action (Push) touches no node.
//
// Each peer's directory is looked up once: the (slot, state) found for
// the snoop input is the one its snoop transition then works on. The
// slots stay valid in between because the only code that runs there is
// local.local and the earlier peers' snoops, each of which writes its own
// node's directory and no other; scrub passes, the one thing that rewrites
// every directory, run after service has processed every retired entry,
// never in here. A peer that missed on an op its table answers with
// "stay Invalid, do nothing" (node.idleMiss) only has that transition
// counted; every other snoop goes through node.snoop.
func (b *Board) process(p *pending, i int) {
	localOp, ok := opFor(p.cmd, true)
	if !ok {
		return
	}
	snoopOp, _ := opFor(p.cmd, false)
	var found [MaxNodes - 1]struct {
		slot int64
		st   coherence.State
	}
	for _, local := range b.cpuOwner[p.src] {
		// Combined snoop input from the other nodes of this group.
		snoopIn := coherence.SnoopNone
		for j, peer := range local.peers {
			slot, raw := peer.dir.FindIn(peer.lane.set[i], peer.lane.tag[i])
			st := coherence.State(raw)
			found[j].slot, found[j].st = slot, st
			switch {
			case st.IsDirty():
				snoopIn = coherence.SnoopModified
			case st.IsValid() && snoopIn == coherence.SnoopNone:
				snoopIn = coherence.SnoopShared
			}
		}
		local.local(localOp, p, i, snoopIn)
		for j, peer := range local.peers {
			if c := peer.idleMiss[snoopOp]; c != nil && found[j].slot == cache.NoSlot {
				c.Inc()
				continue
			}
			peer.snoop(snoopOp, i, found[j].slot, found[j].st)
		}
	}
}

// SetDrainObserver registers fn to be called for every transaction the
// moment its directory operation is performed (in drain order). The
// fault-injection layer uses it to keep a golden software shadow in
// perfect step with the board: the shadow sees exactly the stream the
// directories saw, after buffering, retries, and injected faults.
func (b *Board) SetDrainObserver(fn func(cycle uint64, cmd bus.Command, addr uint64, src int)) {
	b.onDrain = fn
}

// ScrubNow runs one ECC scrub pass over every node directory and returns
// the totals. It is a no-op (0, 0) when ECC is disabled. Retired
// transactions are serviced first: the pass sees the directories their
// SDRAM slots have already written.
func (b *Board) ScrubNow() (corrected, invalidated uint64) {
	if !b.cfg.ECC {
		return 0, 0
	}
	b.service()
	for _, n := range b.nodes {
		rep := n.dir.Scrub()
		n.cECCCorrected.Add(uint64(rep.Corrected))
		n.cECCInvalidated.Add(uint64(rep.Invalidated))
		corrected += uint64(rep.Corrected)
		invalidated += uint64(rep.Invalidated)
	}
	b.cScrubPasses.Inc()
	return corrected, invalidated
}

// DirectorySlots returns the number of tag slots in node i's directory;
// fault injectors pick corruption targets from [0, DirectorySlots).
func (b *Board) DirectorySlots(i int) int64 { return b.nodes[i].dir.SlotCount() }

// DirectoryBytes returns the backing-store footprint of node i's
// directory in bytes: the packed tag words plus any replacement-policy
// sidecars. This is the number compared against the board's 1 GB of
// SDRAM when sizing emulated caches (paper §3.3).
func (b *Board) DirectoryBytes(i int) int64 { return b.nodes[i].dir.DirectoryBytes() }

// DirectoryResident returns the number of valid lines in node i's
// directory in O(1) from the directory's resident-line counter. Unlike
// DirectoryOccupancy it does not refresh the per-state occupancy
// counters, which requires a full scan.
func (b *Board) DirectoryResident(i int) int64 { return b.nodes[i].dir.ValidCount() }

// CorruptDirectory XORs the given masks into slot `slot` of node i's
// directory without updating its ECC byte — the model of an SDRAM soft
// error striking the tag store. It reports whether the slot held a valid
// line. The board's own counters do not record the event; the injector
// owns fault accounting.
func (b *Board) CorruptDirectory(i int, slot int64, tagXor uint64, stateXor uint8) bool {
	return b.nodes[i].dir.CorruptSlot(slot, tagXor, stateXor)
}

// StallTagStores freezes every node controller's SDRAM channel for the
// given number of cycles starting at the board's last observed bus cycle,
// modeling a transient controller stall. Buffered transactions keep
// accumulating while the channel is down, which is how injected stalls
// push the transaction buffers toward overflow.
func (b *Board) StallTagStores(cycles uint64) {
	for _, m := range b.timing {
		m.tags.Stall(b.lastCycle, cycles)
	}
}

// TagStoreStats returns the SDRAM timing-model statistics of node i.
func (b *Board) TagStoreStats(i int) sdram.Stats { return b.nodes[i].tags.Stats() }

// Reprogram reconfigures node i at run time (console "cache parameter
// setting"): the directory is cleared, counters are preserved. The new
// configuration must keep the node's name.
func (b *Board) Reprogram(i int, nc NodeConfig) error {
	if i < 0 || i >= len(b.nodes) {
		return fmt.Errorf("core: no node %d", i)
	}
	b.Flush()
	old := b.nodes[i]
	if nc.Name == "" {
		nc.Name = old.cfg.Name
	}
	if nc.Name != old.cfg.Name {
		return fmt.Errorf("core: reprogram cannot rename node %q", old.cfg.Name)
	}
	// Validate first, mutate after: a rejected reprogram leaves the old
	// node in place, still owning its CPUs. (owners tolerates the
	// out-of-range IDs newNode is about to reject.)
	for _, id := range nc.CPUs {
		for _, owner := range b.owners(id) {
			if owner != old && owner.cfg.Group == nc.Group {
				return fmt.Errorf("core: bus ID %d already owned in group %d", id, nc.Group)
			}
		}
	}
	n, err := newNode(b, nc, b.cfg.ProfileBucketCycles)
	if err != nil {
		return err
	}
	// Rebuild CPU ownership for this node.
	for id, owners := range b.cpuOwner {
		keep := owners[:0]
		for _, o := range owners {
			if o != old {
				keep = append(keep, o)
			}
		}
		b.cpuOwner[id] = keep
	}
	b.nodes[i] = n
	b.cfg.Nodes[i] = nc
	b.regroup()
	for _, id := range nc.CPUs {
		b.cpuOwner[id] = append(b.cpuOwner[id], n)
		b.perCPUCounter(id)
	}
	return nil
}
