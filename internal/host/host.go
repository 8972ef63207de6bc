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
// Timing: each instruction advances the bus clock by
// CPI * (busClock/cpuClock) / NumCPUs idle cycles, and each L2 miss stalls
// its processor for a memory latency. Together these place bus utilization
// in the paper's observed 2-20% band for ordinary workloads, which is what
// keeps the board's SDRAM (42% throughput) comfortably ahead of the bus.
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
// In a per-CPU host (NewPerCPU) the processor is also a discrete-event
// actor: it consumes its own reference stream, keeps a local clock in
// bus cycles, and always has at most one scheduled event (pend) — the
// next point it becomes bus-visible. The actor fields stay zero in a
// merged-stream host.
type cpu struct {
	id   int
	bit  int // column in the bus's presence summary; -1 while off the bus
	host *Host
	l1   *cache.Cache // nil when the L1 is the coherence cache
	coh  *cache.Cache

	// Discrete-event actor state (per-CPU mode only).
	gen       workload.Generator // this CPU's private stream (nil = idle)
	rng       *workload.RNG      // per-CPU I/O injection draws
	clock     uint64             // local time, absolute bus cycles
	carry     float64            // fractional local cycles pending
	ioAddr    uint64             // per-CPU I/O register cursor
	pend      pendKind           // the one outstanding scheduled event
	pendCycle uint64             // absolute cycle pend is due
	pendLine  uint64             // line address of a pending miss/upgrade
	pendWrite bool               // pending miss is a store
	pendFill  bool               // commit must fill the L1 (L2-path refs)
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

	idleCarry    float64 // fractional idle bus cycles pending
	cyclesPerRef float64 // idle cycles per instruction
	ioAddr       uint64
	err          error // terminal condition; see Err

	// Discrete-event state (per-CPU mode only; see percpu.go).
	perCPU         bool
	engine         Engine
	wheel          *eventWheel // nil on EngineLockStep
	events         uint64      // scheduler events dispatched
	live           int         // actors with stream remaining
	lockCursor     uint64      // lock-step engine's poll cycle
	cyclesPerInstr float64     // per-CPU compute cycles per instruction

	// tx is the scratch transaction reused by every bus issue on the
	// step hot path. Safe because no snooper retains the pointer past
	// its Snoop/ObserveResponse call (the board copies the fields it
	// buffers), and the host is single-threaded; it is what makes
	// Host.Step allocation-free.
	tx bus.Transaction
}

// New builds the host. The workload generator may be nil and set later
// with SetWorkload.
func New(cfg Config, gen workload.Generator) (*Host, error) {
	h, err := build(cfg, gen)
	if err != nil {
		return nil, err
	}
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
	h.cyclesPerRef = cfg.CPI * float64(cfg.Bus.ClockMHz) / float64(cfg.CPUClockMHz) / float64(cfg.NumCPUs)
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

// SetWorkload replaces the workload generator.
func (h *Host) SetWorkload(gen workload.Generator) { h.gen = gen }

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
		if h.err == nil {
			if er, ok := h.gen.(workload.ErrReporter); ok && er.Err() != nil {
				h.err = fmt.Errorf("host: workload %q: %w", h.gen.Name(), er.Err())
			} else {
				h.err = ErrExhausted
			}
		}
		return false
	}
	h.stats.Refs++
	h.stats.Instructions += ref.Instrs

	// Compute time: instructions advance the bus clock as idle cycles.
	h.idleCarry += float64(ref.Instrs) * h.cyclesPerRef
	if h.idleCarry >= 1 {
		n := uint64(h.idleCarry)
		h.bus.Idle(n)
		h.idleCarry -= float64(n)
	}

	// Occasional non-memory traffic for the address filter to reject.
	if h.cfg.IOFraction > 0 && h.rng.Chance(h.cfg.IOFraction) {
		h.injectIO(ref.CPU)
	}

	c := h.cpus[ref.CPU%len(h.cpus)]
	c.access(ref.Addr, ref.Write)
	return true
}

// Run processes up to n references, returning how many were processed.
// A short count means the stream ended; Err tells exhaustion from
// failure. A per-CPU host advances in whole scheduler events, and one
// wakeup may filter several references, so the count can overshoot n by
// a fraction of an event.
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
	var i uint64
	for ; i < n; i++ {
		if !h.Step() {
			break
		}
	}
	return i
}

// injectIO issues one I/O-register, interrupt, or sync transaction.
func (h *Host) injectIO(cpuID int) {
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
		Addr:  (1 << 52) | (h.ioAddr & 0xffff), // I/O space, outside memory
		Size:  8,
		SrcID: cpuID,
	}
	h.bus.Issue(&h.tx)
}

// access runs one reference through the private hierarchy.
func (c *cpu) access(a uint64, write bool) {
	h := c.host
	geom := c.coh.Geometry()
	line := geom.LineAddr(a)

	// L1 filter (valid-bit only; coherence state lives in the L2).
	if c.l1 != nil {
		if c.l1.Access(line) != stInvalid {
			h.stats.L1Hits++
			if !write {
				return
			}
			// Write hits still need ownership at the coherence point.
			slot, st := c.coh.AccessSlot(line)
			switch st {
			case stExclusive:
				c.coh.SetStateAt(slot, stModified)
			case stShared:
				c.upgrade(line, slot)
			case stInvalid:
				// L1 had the line but L2 lost it (inclusion violation
				// would be a bug; the eviction path below prevents it).
				panic("host: L1 hit without L2 backing (inclusion broken)")
			}
			return
		}
		h.stats.L1Misses++
	}

	slot, st := c.coh.AccessSlot(line)
	switch {
	case st == stInvalid:
		c.miss(line, write)
	case write && st == stShared:
		h.stats.L2Hits++
		c.upgrade(line, slot)
	case write && st == stExclusive:
		h.stats.L2Hits++
		c.coh.SetStateAt(slot, stModified)
	default:
		h.stats.L2Hits++
	}
	if c.l1 != nil {
		c.l1.FillAt(line, cache.NoSlot, 1) // it just missed there
	}
}

// retryDelayCycles is how long a processor backs off before re-issuing a
// retried transaction; retryLimit bounds livelock in pathological setups
// (a board misconfigured to retry everything).
const (
	retryDelayCycles = 16
	retryLimit       = 1000
)

// issueWithRetry puts a transaction on the bus, honoring the 6xx retry
// protocol: a combined Retry response means some device (in practice only
// an overflowing MemorIES board) could not accept it, and the requester
// must back off and re-issue. After retryLimit consecutive retries the
// host gives up on the transaction — counting the event in
// Stats.RetryExhausted — and treats it as complete, trading accuracy for
// forward progress exactly once per pathological operation.
func (h *Host) issueWithRetry(tx *bus.Transaction) bus.SnoopResponse {
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
		h.bus.Idle(retryDelayCycles)
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

// claim counts an ownership upgrade of a shared line and stages its
// DClaim; the caller issues it and then owns the line Modified.
func (c *cpu) claim(line uint64) *bus.Transaction {
	c.host.stats.Upgrades++
	return c.request(bus.DClaim, line)
}

// fetch counts an L2 miss and stages its Read or RWITM.
func (c *cpu) fetch(line uint64, write bool) *bus.Transaction {
	c.host.stats.L2Misses++
	if write {
		return c.request(bus.RWITM, line)
	}
	return c.request(bus.Read, line)
}

// install is what follows a miss's address tenure in either host mode:
// fill the line — absent since the lookup that missed, because only this
// CPU fills its own cache — in the state the combined response dictates,
// name this CPU in the line's presence bucket and un-name it in the
// victim's if that emptied, keep the L1 inclusive, and stage the castout
// of a dirty victim for the caller to issue (nil when there is none).
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

// upgrade claims exclusive ownership of the shared line in slot.
func (c *cpu) upgrade(line uint64, slot int64) {
	c.host.issueWithRetry(c.claim(line))
	c.coh.SetStateAt(slot, stModified)
}

// miss fetches a line from the bus with the appropriate command, fills the
// hierarchy, and writes back any dirty victim.
func (c *cpu) miss(line uint64, write bool) {
	h := c.host
	resp := h.issueWithRetry(c.fetch(line, write))

	// Memory-latency stall; only MissOverlap misses hide each other.
	h.idleCarry += h.cfg.MissStallBusCycles / h.cfg.MissOverlap
	if h.idleCarry >= 1 {
		n := uint64(h.idleCarry)
		h.bus.Idle(n)
		h.idleCarry -= float64(n)
	}

	if castout := c.install(line, write, resp); castout != nil {
		h.issueWithRetry(castout)
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
