package host

import (
	"fmt"

	"memories/internal/bus"
	"memories/internal/checkpoint"
	"memories/internal/workload"
)

// hostSectionVersion is the host checkpoint format. Version 2 added the
// discrete-event state: a mode flag and, for per-CPU hosts, every
// actor's stream position, local clock, and pending scheduled event.
// The wheel itself is not serialized — its heap is rebuilt on restore by
// re-scheduling each actor's pending event, which reproduces the exact
// pop order because each actor keeps at most one event and the heap pops
// in (cycle, cpuID) order whatever order the events went in.
//
// Version-1 snapshots (which began with the generator-name string) fail
// the version check up front with a decode error rather than
// misdecoding.
const hostSectionVersion = 2

// Checkpoint walks the host: format version, mode, generator identity +
// stream position (per actor in per-CPU mode, along with each actor's
// clock and pending event), the accumulated statistics, the bus, and
// every CPU's private caches (the snoop filter over them is rebuilt, not
// stored). A snapshot loads only into an identically
// configured host (same Config, same generator construction, same
// mode); generator names are cross-checked so a snapshot from a
// different workload is rejected rather than silently misapplied.
// Generators must implement workload.Checkpointer (the splash kernels
// do not).
func (h *Host) Checkpoint(k *checkpoint.Codec) error {
	k.FixedU8("host section version", hostSectionVersion)
	k.FixedBool("per-CPU mode", h.perCPU)
	if h.perCPU {
		if err := h.checkpointActors(k); err != nil {
			return err
		}
	} else {
		if h.gen == nil {
			return fmt.Errorf("host: no workload generator to checkpoint")
		}
		k.FixedStr("generator", h.gen.Name())
		if err := workload.CheckpointGenerator(k, h.gen); err != nil {
			return err
		}
		h.rng.Checkpoint(k)
		k.F64(&h.idleCarry)
		k.U64(&h.ioAddr)
	}
	if k.Loading() {
		h.err = nil
	}
	k.U64(&h.stats.Refs)
	k.U64(&h.stats.Instructions)
	k.U64(&h.stats.L1Hits)
	k.U64(&h.stats.L1Misses)
	k.U64(&h.stats.L2Hits)
	k.U64(&h.stats.L2Misses)
	k.U64(&h.stats.Upgrades)
	k.U64(&h.stats.Castouts)
	k.U64(&h.stats.IntervModSup)
	k.U64(&h.stats.IntervShrSup)
	k.U64(&h.stats.Invalidations)
	k.U64(&h.stats.IOOps)
	k.U64(&h.stats.Retried)
	k.U64(&h.stats.RetryExhausted)
	if err := h.bus.Checkpoint(k); err != nil {
		return err
	}
	k.Len("cpu count", len(h.cpus))
	for _, c := range h.cpus {
		k.FixedBool("L1 presence", c.l1 != nil)
		if c.l1 != nil {
			if _, err := c.l1.Checkpoint(k); err != nil {
				return err
			}
		}
		if _, err := c.coh.Checkpoint(k); err != nil {
			return err
		}
	}
	if err := k.Err(); err != nil || !k.Loading() {
		return err
	}
	// The bus's presence summary is derived from the caches just loaded
	// and is not in the snapshot; left as it was it would hide the
	// restored lines from their snoops.
	h.pres.rebuild()
	return nil
}

// checkpointActors walks the per-CPU discrete-event state — each
// actor's stream, RNG, local clock, and the one pending scheduled event —
// and on load rebuilds the wheel from each actor's pending event.
func (h *Host) checkpointActors(k *checkpoint.Codec) error {
	k.U64(&h.events)
	k.Len("actor count", len(h.cpus))
	for _, c := range h.cpus {
		k.FixedBool("stream presence", c.gen != nil)
		if c.gen == nil {
			continue
		}
		k.FixedStr("generator", c.gen.Name())
		if err := workload.CheckpointGenerator(k, c.gen); err != nil {
			return err
		}
		c.rng.Checkpoint(k)
		k.U64(&c.clock)
		k.F64(&c.carry)
		k.U64(&c.ioAddr)
		k.U8((*uint8)(&c.pend))
		k.U64(&c.pendCycle)
		k.U64(&c.pendLine)
		k.Bool(&c.pendWrite)
		k.Bool(&c.pendFill)
		k.U8((*uint8)(&c.pendIOCmd))
		// dispatch drops a kind it does not know, which would leave the
		// actor live but never scheduled again.
		if c.pend > pendIO || int(c.pendIOCmd) >= bus.NumCommands() {
			return k.Failf("cpu %d pending event kind %d or bus command %d outside its enum", c.id, c.pend, uint8(c.pendIOCmd))
		}
		k.Bool(&c.hasBuf)
		if c.hasBuf {
			k.U64(&c.buf.Addr)
			k.Bool(&c.buf.Write)
			cpu := int64(c.buf.CPU)
			k.I64(&cpu)
			c.buf.CPU = int(cpu)
			k.U64(&c.buf.Instrs)
		}
		k.Bool(&c.done)
	}
	if err := k.Err(); err != nil || !k.Loading() {
		return err
	}
	h.live = 0
	h.wheel = newEventWheel()
	for _, c := range h.cpus {
		if c.gen == nil || c.done {
			continue
		}
		h.live++
		if c.pend == pendNone {
			return k.Failf("cpu %d live without a pending event", c.id)
		}
		h.wheel.Schedule(c.pendCycle, int32(c.id))
	}
	return nil
}
