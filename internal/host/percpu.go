package host

import (
	"fmt"

	"memories/internal/workload"
)

// This file is the discrete-event side of the host: per-CPU actors that
// schedule their next bus-visible event (L2-miss issue, ownership
// upgrade, I/O injection, wakeup after a stall) at an absolute bus-cycle
// timestamp, and the event wheel (wheel.go) that orders those events.
// An actor runs each reference through the same filter and commit
// (host.go) that the merged-stream host runs back to back; what is here
// is what only actors need — their own streams and clocks, wake, and the
// scheduler loop.
//
// The wheel is a binary min-heap that pops events in (cycle, cpuID)
// order. Each live actor keeps exactly one event on it, so it never
// holds more than NumCPUs events. Idle CPUs schedule nothing and cost
// zero, so wall-clock scales with bus events, not machine size. Actors
// only ever schedule their own next event at a cycle >= their current
// one, so that order is also what a poller that visits every CPU each
// bus cycle in ID order would produce. One engine, one test reference:
// lockstep_test.go keeps that poller, and TestPerCPUWheelMatchesLockStep
// holds the wheel to its bus stream, Stats and event count bit for bit.

// Engine selects how a per-CPU host orders its events. The wheel is the
// only one; the type remains so NewPerCPU's signature stays stable.
type Engine int

// EngineWheel is the event wheel: a binary min-heap in (cycle, cpuID)
// order, one entry per live actor.
const EngineWheel Engine = 0

// pendKind is the one outstanding scheduled event an actor keeps.
type pendKind uint8

const (
	pendNone pendKind = iota
	// pendWake: pull and filter references until the next bus-visible
	// event is found.
	pendWake
	// pendIssueMiss: an L2 miss whose Read/RWITM address tenure is due.
	pendIssueMiss
	// pendIssueUpgrade: a DClaim ownership upgrade due; may degrade to a
	// full miss if a peer invalidated the line in the meantime.
	pendIssueUpgrade
	// pendIO: an injected I/O/interrupt/sync transaction is due.
	pendIO
)

// wakeBurst bounds how many references one wakeup may filter before
// yielding the scheduler, so an all-hit stream cannot starve other
// actors' due events within the same cycle.
const wakeBurst = 1024

// NewPerCPU builds a discrete-event host where each CPU consumes its own
// reference stream. streams must have exactly cfg.NumCPUs entries; a nil
// entry leaves that CPU idle — it is never scheduled and costs nothing,
// which is what lets a 256-way host with 8 active streams run at the
// speed of an 8-way. Stream refs are taken as-is except that their CPU
// field is ignored: stream i always executes on CPU i.
//
// Unlike the merged-stream host (New), per-CPU timing does not divide
// compute time by NumCPUs: each actor advances its own clock by
// CPI·(busClock/cpuClock) per instruction plus its own un-overlapped
// miss stalls, and the bus interleaves actors by timestamp.
//
// The Engine argument is ignored: every per-CPU host runs on the wheel.
func NewPerCPU(cfg Config, streams []workload.Generator, _ Engine) (*Host, error) {
	if len(streams) != cfg.NumCPUs {
		return nil, fmt.Errorf("host: %d streams for %d CPUs", len(streams), cfg.NumCPUs)
	}
	h, err := build(cfg, nil)
	if err != nil {
		return nil, err
	}
	h.perCPU = true
	h.wheel = newEventWheel()
	var live []*cpu
	for i, c := range h.cpus {
		if streams[i] == nil {
			// An idle CPU can never hold a cache line (nothing drives its
			// access path), so its snoop is a guaranteed Null: it stays
			// off the bus entirely, and out of the presence summary.
			c.done = true
			continue
		}
		live = append(live, c)
		c.gen = streams[i]
		// Decorrelate per-CPU I/O draws without a shared RNG: golden
		// ratio stride, the same mix the workload RNG zero-seed guard
		// uses.
		c.rng = workload.NewRNG(cfg.Seed + uint64(i)*0x9e3779b97f4a7c15)
		h.live++
		c.schedule(pendWake, 0)
	}
	if h.live == 0 {
		return nil, fmt.Errorf("host: all %d streams are nil", cfg.NumCPUs)
	}
	h.attach(live)
	return h, nil
}

// MustNewPerCPU is NewPerCPU for statically known-good configurations.
func MustNewPerCPU(cfg Config, streams []workload.Generator, engine Engine) *Host {
	h, err := NewPerCPU(cfg, streams, engine)
	if err != nil {
		panic(err)
	}
	return h
}

// Events returns how many scheduler events have been dispatched: the
// total work the wheel did. Comparing it against NumCPUs × cycles (what
// a poller visiting every CPU each cycle would inspect) is the
// algorithmic speedup of the wheel.
func (h *Host) Events() uint64 { return h.events }

// Live returns how many actors still have stream left.
func (h *Host) Live() int { return h.live }

// schedule records the actor's next event and inserts it on the wheel.
// A merged-stream host has no wheel: it commits a pending tenure at once,
// so recording the (kind, cycle) pair is all it needs.
func (c *cpu) schedule(kind pendKind, cycle uint64) {
	c.pend = kind
	c.pendCycle = cycle
	if c.host.wheel != nil {
		c.host.wheel.Schedule(cycle, int32(c.id))
	}
}

// dispatch runs one due event on its actor.
func (h *Host) dispatch(c *cpu) {
	h.events++
	kind := c.pend
	c.pend = pendNone
	switch kind {
	case pendWake:
		c.wake()
	case pendIO:
		// The buffered reference resumes after the I/O.
		c.ioAddr += 8
		c.issueIO(c.pendIOCmd, uint64(c.id)<<20|c.ioAddr&0xffff)
		c.schedule(pendWake, c.clock)
	case pendIssueMiss, pendIssueUpgrade:
		c.commit(kind)
		c.schedule(pendWake, c.clock)
	}
}

// RunCycles advances a per-CPU host until the bus clock reaches target
// cycles, processing every event scheduled before it. It returns the
// number of scheduler events dispatched.
func (h *Host) RunCycles(target uint64) uint64 {
	if !h.perCPU {
		panic("host: RunCycles requires a per-CPU host (NewPerCPU)")
	}
	start := h.events
	for h.live > 0 {
		cycle, _, ok := h.wheel.Peek()
		if !ok || cycle >= target {
			break
		}
		_, cpuID, _ := h.wheel.Pop()
		h.dispatch(h.cpus[cpuID])
	}
	h.finish()
	h.bus.AdvanceTo(target)
	return h.events - start
}

// stepEvent dispatches the single next due event, reporting false when
// every stream is exhausted.
func (h *Host) stepEvent() bool {
	if h.live == 0 {
		h.finish()
		return false
	}
	_, cpuID, ok := h.wheel.Pop()
	if !ok {
		h.finish()
		return false
	}
	h.dispatch(h.cpus[cpuID])
	return true
}

// finish latches the terminal condition once every actor is done.
func (h *Host) finish() {
	if h.live == 0 && h.err == nil {
		h.err = ErrExhausted
	}
}

// wake pulls references from the actor's stream and filters them through
// its private hierarchy until one needs the bus (or an I/O injection
// fires), then schedules that bus event at the actor's local clock.
func (c *cpu) wake() {
	h := c.host
	startClock := c.clock
	for spin := 0; spin < wakeBurst; spin++ {
		var ref workload.Ref
		if c.hasBuf {
			ref = c.buf
			c.hasBuf = false
		} else {
			r, ok := c.gen.Next()
			if !ok {
				c.done = true
				h.live--
				if h.err == nil {
					h.err = streamFailure(c.gen, fmt.Sprintf("cpu %d stream", c.id))
				}
				return // never rescheduled: a drained actor costs zero
			}
			ref = r
			h.stats.Refs++
			h.stats.Instructions += ref.Instrs

			// Compute time accrues on this CPU's own clock.
			c.accrue(float64(ref.Instrs) * h.cyclesPerInstr)

			if h.cfg.IOFraction > 0 && c.rng.Chance(h.cfg.IOFraction) {
				c.buf, c.hasBuf = ref, true
				c.pendIOCmd = ioCommand(c.rng)
				c.schedule(pendIO, c.clock)
				return
			}
		}
		if c.filter(ref.Addr, ref.Write) {
			return
		}
	}
	// Burst cap hit on an all-hit stream: yield to peers with due events
	// at this cycle, forcing progress if the refs carried no instructions.
	if c.clock == startClock {
		c.clock++
	}
	c.schedule(pendWake, c.clock)
}
