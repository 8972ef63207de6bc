// Package host models the machine MemorIES plugs into: an S7A-class SMP
// whose processors, private L1/L2 caches, and snooping 6xx bus produce the
// transaction stream the board observes.
//
// The model is deliberately scoped to what the board can see. Processors
// consume a workload.Generator's reference stream; private caches filter
// it; only L2 misses, ownership upgrades, and castouts reach the bus —
// plus the I/O, interrupt, and sync traffic the board's address filter
// must reject. MESI coherence runs between the private caches, including
// cache-to-cache interventions, so the bus stream has the same command mix
// a real 6xx machine would show.
//
// Fidelity note on retries: when a transaction draws a combined Retry
// (only possible from a board configured with RetryOnOverflow), the
// requester backs off and re-issues, but peer caches commit their snoop
// reactions on the first attempt rather than waiting for the combined
// response. The re-issued transaction finds those reactions already
// applied, which is idempotent for every MESI action, so coherence is
// unaffected; only the intervention/invalidation counters can run one
// event high per retry.
//
// Snoop filter: the CPUs sit on the bus behind an exact presence summary
// of their coherence caches (presence.go, DESIGN.md §4e), so a
// transaction is presented only to the peers that may hold its line —
// O(holders) per transaction instead of O(NumCPUs). The summary changes
// which Snoop calls are made, never what any of them answers: statistics,
// the transaction stream and checkpoints are those of the exhaustive
// loop. A retried transaction consults it again on re-issue, as it
// re-probed every cache before. It relies on bus.Attach's contract that a
// device's BusID never changes: CPU i is bus ID i for the host's life.
//
// Timing: one private-cache path serves both host modes. A reference runs
// through its CPU's filter and, when it needs the bus, commit, on that
// CPU's clock. A per-CPU host (NewPerCPU, percpu.go) keeps one clock per
// actor and lets the event wheel interleave them. A merged-stream host
// (New) runs each reference at once, on a clock loaded from the bus and a
// fractional carry shared by every CPU, then moves the bus to where the
// reference left that clock. There each instruction advances the bus by
// CPI * (busClock/cpuClock) / NumCPUs idle cycles, and each L2 miss stalls
// for a memory latency. Together these place bus utilization in the
// paper's observed 2-20% band for ordinary workloads, which is what keeps
// the board's SDRAM (42% throughput) comfortably ahead of the bus.
package host

import (
	"errors"
	"fmt"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/workload"
)

// ErrExhausted is the terminal condition Host.Err reports after the
// workload stream ended normally. A generator that failed (its
// workload.ErrReporter carries a non-nil error) surfaces that error
// instead, so callers can tell "ran out of trace" from "trace broke".
var ErrExhausted = errors.New("host: workload stream exhausted")

// Private-cache line states (cache.Cache state bytes). The host caches use
// a fixed MESI protocol — the *programmable* protocol machinery belongs to
// the board, which emulates caches below these.
const (
	stInvalid   = cache.StateInvalid
	stShared    = 1
	stExclusive = 2
	stModified  = 3
)

// Config describes the host machine.
type Config struct {
	// NumCPUs is the processor count (the S7A tops out at 12; the
	// paper's case studies use 8).
	NumCPUs int
	// CPUClockMHz is the processor clock (262 MHz Northstar).
	CPUClockMHz int
	// CPI is the average cycles per instruction excluding L2-miss stalls;
	// commercial workloads on this class of machine run at CPI 4-8.
	CPI float64
	// MissStallBusCycles is the processor stall per L2 miss, in bus
	// cycles (~600ns loaded memory latency at 100 MHz = 60 cycles).
	MissStallBusCycles float64
	// MissOverlap is how many outstanding misses overlap machine-wide;
	// these in-order processors sustain little memory parallelism, so the
	// default is 2. Lower values mean more of each miss's latency shows
	// up as bus idle time, pushing utilization down toward the 2-20% the
	// paper observed.
	MissOverlap float64
	// LineSize is the cache line size for L1 and L2 (the S7A uses 128B).
	LineSize int64
	// L1Bytes/L1Assoc size the per-CPU L1 (data) cache.
	L1Bytes int64
	L1Assoc int
	// L2Bytes/L2Assoc size the per-CPU L2. The S7A allows reconfiguring
	// at boot from 8MB 4-way down to 1MB direct-mapped — the knob the
	// paper's Table 5 exploits.
	L2Bytes int64
	L2Assoc int
	// L2Enabled false turns the L2 off entirely; the board then emulates
	// an L2 rather than an L3 (paper §1).
	L2Enabled bool
	// IOFraction is the probability of injecting an I/O / interrupt /
	// sync transaction between references, exercising the board's
	// address filter.
	IOFraction float64
	// Bus is the bus configuration.
	Bus bus.Config
	// Seed drives the host's internal randomness (I/O injection).
	Seed uint64
}

// DefaultConfig returns the paper's host: an 8-way S7A with 8MB 4-way L2s.
func DefaultConfig() Config {
	return Config{
		NumCPUs:            8,
		CPUClockMHz:        262,
		CPI:                6,
		MissStallBusCycles: 60,
		MissOverlap:        2,
		LineSize:           128,
		L1Bytes:            64 * addr.KB,
		L1Assoc:            2,
		L2Bytes:            8 * addr.MB,
		L2Assoc:            4,
		L2Enabled:          true,
		IOFraction:         0.002,
		Bus:                bus.DefaultConfig(),
		Seed:               1,
	}
}

// Stats aggregates host activity.
type Stats struct {
	Refs          uint64 // workload references processed
	Instructions  uint64 // instructions executed (sum of Ref.Instrs)
	L1Hits        uint64
	L1Misses      uint64
	L2Hits        uint64 // hits in the coherence (lowest private) cache
	L2Misses      uint64 // misses that went to the bus
	Upgrades      uint64 // DClaim ownership upgrades
	Castouts      uint64 // dirty evictions written back on the bus
	IntervModSup  uint64 // interventions supplied from a Modified line
	IntervShrSup  uint64 // snoop responses supplied Shared
	Invalidations uint64 // lines lost to other CPUs' writes
	IOOps         uint64 // injected non-memory transactions
	Retried       uint64 // transactions re-issued after a bus retry
	// RetryExhausted counts transactions abandoned after retryLimit
	// re-issues. A nonzero value means some device retried the same
	// operation ~1000 times in a row — on real hardware this is a hung
	// bus; in the model it flags a board (or injected fault) stuck in a
	// permanent-retry state, and the affected reference proceeds as if it
	// had completed so the run can finish and be diagnosed from counters.
	RetryExhausted uint64
}

// cpu is one processor with its private hierarchy. The coherence cache is
// the L2 when enabled, otherwise the L1.
//
// Every reference runs on the processor's clock, in bus cycles, and a
// reference that needs the bus records it as the pending event (pend)
// that commit performs. In a per-CPU host (NewPerCPU) the processor is
// also a discrete-event actor: it consumes its own reference stream,
// keeps its clock between references, and always has at most one
// scheduled event — the next point it becomes bus-visible. A
// merged-stream host loads clock and carry from the bus and the host
// before each reference and commits at once; the stream, I/O and
// buffer fields stay zero there.
type cpu struct {
	id   int
	bit  int // column in the bus's presence summary; -1 while off the bus
	host *Host
	l1   *cache.Cache // nil when the L1 is the coherence cache
	coh  *cache.Cache

	clock     uint64   // local time, absolute bus cycles
	carry     float64  // fractional local cycles pending
	pend      pendKind // the one outstanding event
	pendCycle uint64   // absolute cycle pend is due
	pendLine  uint64   // line address of a pending miss/upgrade
	pendWrite bool     // pending miss is a store
	pendFill  bool     // commit must fill the L1 (L2-path refs)

	// Discrete-event actor state (per-CPU mode only).
	gen       workload.Generator // this CPU's private stream (nil = idle)
	rng       *workload.RNG      // per-CPU I/O injection draws
	ioAddr    uint64             // per-CPU I/O register cursor
	pendIOCmd bus.Command        // drawn command of a pending I/O event
	buf       workload.Ref       // reference paused behind a pending I/O
	hasBuf    bool
	done      bool // stream exhausted; never scheduled again
}

// Host is the modeled SMP.
type Host struct {
	cfg   Config
	bus   *bus.Bus
	cpus  []*cpu
	pres  *presence // the bus's snoop filter over the attached CPUs
	gen   workload.Generator
	rng   *workload.RNG
	stats Stats

	// cyclesPerInstr is the compute time of one instruction in bus
	// cycles: one CPU's in per-CPU mode, divided among NumCPUs in a
	// merged-stream host, whose CPUs all run on the bus's clock.
	cyclesPerInstr float64
	idleCarry      float64        // merged mode: the CPUs' shared fractional carry
	ioAddr         uint64         // merged mode: the shared I/O register cursor
	ahead          []workload.Ref // merged mode: Run's window of drawn references
	err            error          // terminal condition; see Err

	// Discrete-event state (per-CPU mode only; see percpu.go).
	perCPU bool
	wheel  *eventWheel // nil in merged mode
	events uint64      // scheduler events dispatched
	live   int         // actors with stream remaining

	// tx is the scratch transaction reused by every bus issue on the
	// step hot path. Safe because no snooper retains the pointer past
	// its Snoop/ObserveResponse call (the board copies the fields it
	// buffers), and the host is single-threaded; it is what makes
	// Host.Step allocation-free.
	tx bus.Transaction
}

// New builds the host.
func New(cfg Config, gen workload.Generator) (*Host, error) {
	h, err := build(cfg, gen)
	if err != nil {
		return nil, err
	}
	h.cyclesPerInstr /= float64(cfg.NumCPUs)
	h.ahead = make([]workload.Ref, 0, aheadWindow)
	h.attach(h.cpus)
	return h, nil
}

// build constructs the host and its CPUs; the caller puts the CPUs that
// will run on the bus with attach.
func build(cfg Config, gen workload.Generator) (*Host, error) {
	if cfg.NumCPUs <= 0 {
		return nil, fmt.Errorf("host: NumCPUs must be positive")
	}
	if cfg.CPUClockMHz <= 0 || cfg.CPI <= 0 {
		return nil, fmt.Errorf("host: invalid clocking")
	}
	if cfg.MissOverlap <= 0 {
		cfg.MissOverlap = 1
	}
	h := &Host{
		cfg: cfg,
		bus: bus.New(cfg.Bus),
		gen: gen,
		rng: workload.NewRNG(cfg.Seed),
	}
	h.cyclesPerInstr = cfg.CPI * float64(cfg.Bus.ClockMHz) / float64(cfg.CPUClockMHz)
	for i := 0; i < cfg.NumCPUs; i++ {
		c := &cpu{id: i, bit: -1, host: h}
		l1geom, err := addr.NewGeometry(cfg.L1Bytes, cfg.LineSize, cfg.L1Assoc)
		if err != nil {
			return nil, fmt.Errorf("host: L1: %v", err)
		}
		l1 := cache.MustNew(cache.Config{Geometry: l1geom, Policy: cache.LRU})
		if cfg.L2Enabled {
			l2geom, err := addr.NewGeometry(cfg.L2Bytes, cfg.LineSize, cfg.L2Assoc)
			if err != nil {
				return nil, fmt.Errorf("host: L2: %v", err)
			}
			c.l1 = l1
			c.coh = cache.MustNew(cache.Config{Geometry: l2geom, Policy: cache.LRU})
		} else {
			c.coh = l1
		}
		h.cpus = append(h.cpus, c)
	}
	return h, nil
}

// attach puts the CPUs that can ever hold a line on the bus, behind a
// presence summary sized for exactly them: a 256-way host with 8 live
// streams pays for 8 columns and 8 possible snoops.
func (h *Host) attach(live []*cpu) {
	h.pres = newPresence(h.cpus, len(live))
	ss := make([]bus.Snooper, len(live))
	for i, c := range live {
		c.bit = i
		ss[i] = c
	}
	h.bus.AttachFiltered(h.pres, ss)
}

// MustNew is New for statically known-good configurations.
func MustNew(cfg Config, gen workload.Generator) *Host {
	h, err := New(cfg, gen)
	if err != nil {
		panic(err)
	}
	return h
}

// Bus returns the host's 6xx bus, where observers (the MemorIES board)
// attach.
func (h *Host) Bus() *bus.Bus { return h.bus }

// Config returns the host configuration.
func (h *Host) Config() Config { return h.cfg }

// Stats returns a copy of the host statistics.
func (h *Host) Stats() Stats { return h.stats }

// Generator returns the current workload generator (nil if unset).
func (h *Host) Generator() workload.Generator { return h.gen }

// Err reports the host's terminal condition: nil while the stream is
// live, ErrExhausted after it ended normally, or the generator's own
// error (wrapped) when the stream failed. In per-CPU mode the first
// failing stream, in deterministic event order, wins.
func (h *Host) Err() error { return h.err }

// Step advances the host by one unit — a workload reference in merged
// mode, a scheduler event in per-CPU mode — returning false when the
// workload stream has ended. Err distinguishes exhaustion from failure.
func (h *Host) Step() bool {
	if h.perCPU {
		return h.stepEvent()
	}
	ref, ok := h.gen.Next()
	if !ok {
		h.ended()
		return false
	}
	h.exec(ref)
	return true
}

// ended records why the merged stream stopped, once: the generator's
// error when it reports one, ErrExhausted otherwise.
func (h *Host) ended() {
	if h.err != nil {
		return
	}
	if h.err = streamFailure(h.gen, fmt.Sprintf("workload %q", h.gen.Name())); h.err == nil {
		h.err = ErrExhausted
	}
}

// streamFailure is the end-of-stream rule both host modes share: an
// ended stream that reports an error (workload.ErrReporter) failed, and
// its error comes back wrapped under what, the stream's name in that
// mode; any other ended stream completed, and streamFailure returns nil.
func streamFailure(g workload.Generator, what string) error {
	if er, ok := g.(workload.ErrReporter); ok && er.Err() != nil {
		return fmt.Errorf("host: %s: %w", what, er.Err())
	}
	return nil
}

// exec runs one merged-stream reference: the per-reference body of Step
// and of Run.
func (h *Host) exec(ref workload.Ref) {
	h.stats.Refs++
	h.stats.Instructions += ref.Instrs

	// The reference's CPU runs it on the bus's clock and the one carry
	// every CPU shares; its compute time is idle bus time.
	c := h.cpus[ref.CPU%len(h.cpus)]
	c.clock, c.carry = h.bus.Cycle(), h.idleCarry
	c.accrue(float64(ref.Instrs) * h.cyclesPerInstr)

	// Occasional non-memory traffic for the address filter to reject.
	if h.cfg.IOFraction > 0 && h.rng.Chance(h.cfg.IOFraction) {
		h.ioAddr += 8
		c.issueIO(ioCommand(h.rng), h.ioAddr&0xffff)
	}

	// Nothing runs between filter and commit here, so commit's re-probe
	// finds the state filter left.
	if c.filter(ref.Addr, ref.Write) {
		c.commit(c.pend)
	}
	h.idleCarry = c.carry
	h.bus.AdvanceTo(c.clock)
}

// The merged-stream Run's look-ahead (DESIGN.md §4e, "Look-ahead with a
// prefetch hint"): it draws up to aheadWindow references at a time and,
// hintAhead references before each runs, hints the two lines that
// reference reads first and that are least likely to be cached — its
// coherence-cache set and its presence rows. On a 2-vCPU x86-64 box the
// 8-way TPC-C host ran 1.32× as fast (median of ten alternating pairs,
// ten of ten won) as running each reference as it is drawn; 4 and 32
// ahead were slower than 12.
const (
	hintAhead   = 12
	aheadWindow = 4 << 10 // 128 KiB of workload.Ref
)

// Run processes up to n references, returning how many were processed.
// A short count means the stream ended; Err tells exhaustion from
// failure. A per-CPU host advances in whole scheduler events, and one
// wakeup may filter several references, so the count can overshoot n by
// a fraction of an event.
//
// A merged-stream host draws up to one window of references from its
// generator before it runs them, so it can hint their cache lines ahead,
// but never draws past the n-th: after Run(n) the generator, the host
// and every statistic and checkpoint byte are what n Steps leave. The
// generator must therefore not observe the host (workload.Generator).
func (h *Host) Run(n uint64) uint64 {
	if h.perCPU {
		start := h.stats.Refs
		for h.live > 0 && h.stats.Refs-start < n {
			h.stepEvent()
		}
		if h.live == 0 {
			h.finish()
		}
		return h.stats.Refs - start
	}
	var ran uint64
	for ran < n {
		want := min(n-ran, aheadWindow)
		refs := h.ahead[:0]
		for uint64(len(refs)) < want {
			ref, ok := h.gen.Next()
			if !ok {
				break
			}
			refs = append(refs, ref)
		}
		for _, ref := range refs[:min(hintAhead, len(refs))] {
			h.hint(ref)
		}
		for i, ref := range refs {
			if j := i + hintAhead; j < len(refs) {
				h.hint(refs[j])
			}
			h.exec(ref)
		}
		ran += uint64(len(refs))
		if uint64(len(refs)) < want {
			h.ended()
			break
		}
	}
	return ran
}

// hint issues prefetch hints for the lines ref will read first: its
// set in its CPU's coherence cache and its presence rows.
func (h *Host) hint(ref workload.Ref) {
	h.cpus[ref.CPU%len(h.cpus)].coh.Hint(ref.Addr)
	h.pres.hint(ref.Addr)
}

// ioCommand draws the command of an injected non-memory transaction.
func ioCommand(rng *workload.RNG) bus.Command {
	return [4]bus.Command{bus.IORead, bus.IOWrite, bus.Interrupt, bus.Sync}[rng.Intn(4)]
}

// issueIO puts an injected I/O, interrupt or sync transaction for I/O
// register reg on the bus at the CPU's clock. Its address lies in I/O
// space, outside memory.
func (c *cpu) issueIO(cmd bus.Command, reg uint64) {
	h := c.host
	h.stats.IOOps++
	h.tx = bus.Transaction{Cmd: cmd, Addr: 1<<52 | reg, Size: 8, SrcID: c.id}
	h.bus.IssueAt(c.clock, &h.tx)
	c.syncClock()
}

// filter runs one reference through the private hierarchy up to the
// coherence point. Hits commit immediately and return false; a reference
// that needs the bus records the pending tenure, schedules its issue at
// the CPU's clock, and returns true. The coherence decision is re-derived
// at issue time (commit), so peer invalidations that land in between are
// honored exactly as on real hardware.
func (c *cpu) filter(a uint64, write bool) bool {
	h := c.host
	line := c.coh.Geometry().LineAddr(a)

	// L1 filter (valid-bit only; coherence state lives in the L2).
	if c.l1 != nil {
		if c.l1.Access(line) != stInvalid {
			h.stats.L1Hits++
			if !write {
				return false
			}
			// Write hits still need ownership at the coherence point.
			slot, st := c.coh.AccessSlot(line)
			switch st {
			case stExclusive:
				c.coh.SetStateAt(slot, stModified)
			case stShared:
				c.pendLine, c.pendWrite, c.pendFill = line, true, false
				c.schedule(pendIssueUpgrade, c.clock)
				return true
			case stInvalid:
				// L1 had the line but L2 lost it (inclusion violation
				// would be a bug; install's eviction path prevents it).
				panic("host: L1 hit without L2 backing (inclusion broken)")
			}
			return false
		}
		h.stats.L1Misses++
	}

	slot, st := c.coh.AccessSlot(line)
	switch {
	case st == stInvalid:
		c.pendLine, c.pendWrite, c.pendFill = line, write, true
		c.schedule(pendIssueMiss, c.clock)
		return true
	case write && st == stShared:
		c.pendLine, c.pendWrite, c.pendFill = line, true, true
		c.schedule(pendIssueUpgrade, c.clock)
		return true
	case write && st == stExclusive:
		h.stats.L2Hits++
		c.coh.SetStateAt(slot, stModified)
	default:
		h.stats.L2Hits++
	}
	if c.l1 != nil {
		c.l1.FillAt(line, cache.NoSlot, 1) // it just missed there
	}
	return false
}

// commit performs the bus-visible half of a pending reference at the
// CPU's clock, re-probing the coherence state first: in a per-CPU host
// other actors may have issued between filter and commit, and a planned
// upgrade whose line was invalidated degrades to a full miss.
func (c *cpu) commit(kind pendKind) {
	h := c.host
	line := c.pendLine
	if kind == pendIssueUpgrade {
		switch slot, st := c.coh.Find(line); st {
		case stShared:
			if c.pendFill {
				h.stats.L2Hits++
			}
			h.stats.Upgrades++
			c.issueAtWithRetry(c.request(bus.DClaim, line))
			c.coh.SetStateAt(slot, stModified)
		case stInvalid:
			c.missAt(line, true)
		default:
			// Raced to E/M (defensive: no current snoop reaction raises
			// a peer's state, so this is unreachable today).
			if c.pendFill {
				h.stats.L2Hits++
			}
			c.coh.SetStateAt(slot, stModified)
		}
	} else {
		// A line Invalid at filter time stays Invalid: only this CPU
		// fills its own cache.
		c.missAt(line, c.pendWrite)
	}
	if c.pendFill && c.l1 != nil {
		// Absent since filter missed it: peers' snoops only remove lines.
		c.l1.FillAt(line, cache.NoSlot, 1)
	}
}

// retryDelayCycles is how long a processor backs off before re-issuing a
// retried transaction; retryLimit bounds livelock in pathological setups
// (a board misconfigured to retry everything).
const (
	retryDelayCycles = 16
	retryLimit       = 1000
)

// issueAtWithRetry puts a transaction on the bus at the CPU's clock,
// honoring the 6xx retry protocol: a combined Retry response means some
// device (in practice only an overflowing MemorIES board) could not
// accept it, and the requester must back off — on its own clock — and
// re-issue. After retryLimit consecutive retries the host gives up on the
// transaction — counting the event in Stats.RetryExhausted — and treats
// it as complete, trading accuracy for forward progress exactly once per
// pathological operation.
func (c *cpu) issueAtWithRetry(tx *bus.Transaction) bus.SnoopResponse {
	h := c.host
	for attempt := 0; ; attempt++ {
		resp := h.bus.IssueAt(c.clock, tx)
		c.syncClock()
		if resp != bus.RespRetry {
			return resp
		}
		if attempt >= retryLimit {
			h.stats.RetryExhausted++
			return resp
		}
		h.stats.Retried++
		c.clock += retryDelayCycles
	}
}

// syncClock pulls the CPU's clock up to the bus: a CPU cannot run ahead
// of its own just-completed tenure (bus contention shows up here — if
// earlier-scheduled actors kept the bus busy past this CPU's timestamp,
// the wait becomes local stall time).
func (c *cpu) syncClock() {
	if cyc := c.host.bus.Cycle(); cyc > c.clock {
		c.clock = cyc
	}
}

// accrue adds cycles of local time, carrying the fraction below a whole
// cycle to the next call.
func (c *cpu) accrue(cycles float64) {
	c.carry += cycles
	if c.carry >= 1 {
		n := uint64(c.carry)
		c.clock += n
		c.carry -= float64(n)
	}
}

// request stages one of this CPU's line transactions in the host's
// scratch transaction.
func (c *cpu) request(cmd bus.Command, line uint64) *bus.Transaction {
	h := c.host
	h.tx = bus.Transaction{Cmd: cmd, Addr: line, SrcID: c.id}
	if cmd.CarriesData() {
		h.tx.Size = int(h.cfg.LineSize)
	}
	return &h.tx
}

// install is what follows a miss's address tenure: fill the line —
// absent since the lookup that missed, because only this CPU fills its
// own cache — in the state the combined response dictates, name this CPU
// in the line's presence bucket and un-name it in the victim's if that
// emptied, keep the L1 inclusive, and stage the castout of a dirty
// victim for the caller to issue (nil when there is none).
func (c *cpu) install(line uint64, write bool, resp bus.SnoopResponse) *bus.Transaction {
	h := c.host
	fill := uint8(stExclusive)
	switch {
	case write:
		fill = stModified
	case resp == bus.RespShared || resp == bus.RespModified:
		fill = stShared
	}
	victim, evicted := c.coh.FillAt(line, cache.NoSlot, fill)
	h.pres.add(c.bit, line)
	if !evicted {
		return nil
	}
	c.left(victim.Addr)
	if c.l1 != nil {
		c.l1.Invalidate(victim.Addr) // inclusion
	}
	if victim.State != stModified {
		return nil
	}
	h.stats.Castouts++
	return c.request(bus.Castout, victim.Addr)
}

// left records that line has just left the coherence cache: the CPU stays
// named in the line's presence bucket only while another of its lines —
// necessarily in the same, just-touched set — still falls there.
func (c *cpu) left(line uint64) {
	if !c.coh.BucketOccupied(line) {
		c.host.pres.drop(c.bit, line)
	}
}

// missAt fetches a line at the CPU's clock, accrues the un-overlapped
// miss stall (only MissOverlap misses hide each other), fills the
// hierarchy, and writes back any dirty victim.
func (c *cpu) missAt(line uint64, write bool) {
	h := c.host
	h.stats.L2Misses++
	cmd := bus.Read
	if write {
		cmd = bus.RWITM
	}
	resp := c.issueAtWithRetry(c.request(cmd, line))
	c.accrue(h.cfg.MissStallBusCycles / h.cfg.MissOverlap)
	if castout := c.install(line, write, resp); castout != nil {
		c.issueAtWithRetry(castout)
	}
}

// BusID implements bus.Snooper.
func (c *cpu) BusID() int { return c.id }

// Snoop implements bus.Snooper: MESI reactions of this CPU's private
// hierarchy to other CPUs' transactions. On the host's own bus the
// presence summary makes the call only for memory transactions whose
// bucket names this CPU.
func (c *cpu) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	if !tx.Cmd.IsMemoryOp() {
		return bus.RespNull
	}
	h := c.host
	h.pres.probed++
	line := c.coh.Geometry().LineAddr(tx.Addr)
	slot, st := c.coh.Find(line)
	if st == stInvalid {
		return bus.RespNull
	}
	switch tx.Cmd {
	case bus.Read:
		switch st {
		case stModified:
			h.stats.IntervModSup++
			c.coh.SetStateAt(slot, stShared)
			return bus.RespModified
		case stExclusive:
			h.stats.IntervShrSup++
			c.coh.SetStateAt(slot, stShared)
			return bus.RespShared
		default:
			return bus.RespShared
		}
	case bus.RWITM, bus.DClaim, bus.Flush:
		h.stats.Invalidations++
		c.coh.InvalidateAt(slot)
		c.left(line)
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
			c.coh.SetStateAt(slot, stShared)
			return bus.RespModified
		}
		return bus.RespNull
	default: // Castout, Push: no reaction
		return bus.RespNull
	}
}

// CheckInclusion verifies L1 ⊆ L2 for every CPU; tests call it after
// random workloads. It returns the first violating address, if any.
func (h *Host) CheckInclusion() (uint64, bool) {
	for _, c := range h.cpus {
		if c.l1 == nil {
			continue
		}
		var bad uint64
		found := false
		c.l1.ForEachValid(func(line uint64, _ uint8) {
			if !found && c.coh.Probe(line) == stInvalid {
				bad, found = line, true
			}
		})
		if found {
			return bad, true
		}
	}
	return 0, false
}

// EstimatedRuntimeSeconds models wall-clock execution time for the work
// processed so far: instruction time plus un-overlapped L2-miss stalls.
// Table 5's runtime comparisons between L2 configurations come from this.
func (h *Host) EstimatedRuntimeSeconds() float64 {
	cpuHz := float64(h.cfg.CPUClockMHz) * 1e6
	instrSec := float64(h.stats.Instructions) * h.cfg.CPI / cpuHz / float64(h.cfg.NumCPUs)
	busHz := float64(h.cfg.Bus.ClockMHz) * 1e6
	stallSec := float64(h.stats.L2Misses) * h.cfg.MissStallBusCycles / busHz / h.cfg.MissOverlap / float64(h.cfg.NumCPUs)
	return instrSec + stallSec
}
