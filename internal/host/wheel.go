package host

import "math/bits"

// eventWheel is a hierarchical timing wheel (Varghese & Lauck) ordering
// per-CPU events by absolute bus cycle. Three levels of 256 slots cover
// the next 2^24 cycles at granularities of 1, 256, and 65536 cycles; an
// unsorted overflow list holds anything further out. Scheduling is O(1);
// popping is O(1) amortized — advancing across an empty region jumps
// directly to the next occupied slot via per-level occupancy bitmaps, so
// idle CPUs (which schedule nothing) cost zero.
//
// Pop order is the total order (cycle, cpu, seq): earliest cycle first,
// ties broken by CPU ID, then by schedule order (seq) for repeated
// schedules of the same CPU at the same cycle. The host proper keeps at
// most one outstanding event per CPU, so (cycle, cpu) is already unique
// there; the seq tiebreak makes the wheel total-ordered for any input,
// which is the property FuzzEventWheel checks.
//
// Scheduling in the past is clamped to the current time: the wheel never
// reorders an event before one already popped.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // 256
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	// wheelSpan is the horizon covered by the leveled slots; cycles at or
	// beyond now's 2^24-cycle epoch boundary go to the overflow list.
	wheelSpan = 1 << (wheelBits * wheelLevels)
)

// wheelEvent is one scheduled wakeup: which CPU, at which absolute cycle.
type wheelEvent struct {
	cycle uint64
	seq   uint64
	cpu   int32
}

type eventWheel struct {
	now      uint64 // all unpopped events have cycle >= now
	seq      uint64 // schedule stamp for same-(cycle,cpu) tie-breaking
	size     int
	level    [wheelLevels][wheelSlots][]wheelEvent
	occ      [wheelLevels][wheelSlots / 64]uint64 // occupancy bitmaps
	overflow []wheelEvent
}

// newEventWheel creates a wheel whose clock starts at cycle start.
func newEventWheel(start uint64) *eventWheel {
	return &eventWheel{now: start}
}

// Len returns the number of scheduled, not-yet-popped events.
func (w *eventWheel) Len() int { return w.size }

// Schedule adds an event for cpu at the given absolute cycle, clamping
// cycles in the past to the current wheel time. It returns the effective
// (possibly clamped) cycle.
func (w *eventWheel) Schedule(cycle uint64, cpu int32) uint64 {
	if cycle < w.now {
		cycle = w.now
	}
	ev := wheelEvent{cycle: cycle, seq: w.seq, cpu: cpu}
	w.seq++
	w.place(ev)
	w.size++
	return cycle
}

// place routes an event to the finest level whose current block contains
// its cycle, or to the overflow list beyond the 2^24 horizon.
func (w *eventWheel) place(ev wheelEvent) {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		shift := uint(wheelBits * (lvl + 1))
		if ev.cycle>>shift == w.now>>shift {
			slot := int(ev.cycle>>(wheelBits*lvl)) & wheelMask
			w.level[lvl][slot] = append(w.level[lvl][slot], ev)
			w.occ[lvl][slot>>6] |= 1 << (slot & 63)
			return
		}
	}
	w.overflow = append(w.overflow, ev)
}

// nextOcc returns the first occupied slot index >= from at level lvl, or
// -1 when the rest of the level is empty.
func (w *eventWheel) nextOcc(lvl, from int) int {
	if from >= wheelSlots {
		return -1
	}
	word := from >> 6
	mask := w.occ[lvl][word] &^ ((1 << (from & 63)) - 1)
	for {
		if mask != 0 {
			return word<<6 + bits.TrailingZeros64(mask)
		}
		word++
		if word >= wheelSlots/64 {
			return -1
		}
		mask = w.occ[lvl][word]
	}
}

// cascade drains one slot at level lvl and re-places its events, which
// now land at a finer level (w.now has advanced into their block).
func (w *eventWheel) cascade(lvl, slot int) {
	evs := w.level[lvl][slot]
	w.level[lvl][slot] = w.level[lvl][slot][:0]
	w.occ[lvl][slot>>6] &^= 1 << (slot & 63)
	for _, ev := range evs {
		w.place(ev)
	}
}

// advance moves w.now forward until the level-0 slot holding the next
// event is reachable, cascading coarser slots and refilling from the
// overflow list as epoch boundaries are crossed. It returns the level-0
// slot index of the earliest event, or -1 when the wheel is empty.
func (w *eventWheel) advance() int {
	if w.size == 0 {
		return -1
	}
	for {
		if slot := w.nextOcc(0, int(w.now)&wheelMask); slot >= 0 {
			return slot
		}
		// Level 0 exhausted for this 256-cycle block: jump to the next
		// occupied coarser slot and cascade it down.
		if slot := w.nextOcc(1, int(w.now>>wheelBits)&wheelMask+1); slot >= 0 {
			w.now = w.now&^uint64(wheelSpan>>wheelBits-1) | uint64(slot)<<wheelBits
			w.cascade(1, slot)
			continue
		}
		if slot := w.nextOcc(2, int(w.now>>(2*wheelBits))&wheelMask+1); slot >= 0 {
			w.now = w.now&^uint64(wheelSpan-1) | uint64(slot)<<(2*wheelBits)
			w.cascade(2, slot)
			continue
		}
		// Every leveled slot is empty; the remaining events live in a
		// future epoch on the overflow list. Jump to the earliest one's
		// epoch and redistribute the events that fall inside it.
		min := w.overflow[0].cycle
		for _, ev := range w.overflow[1:] {
			if ev.cycle < min {
				min = ev.cycle
			}
		}
		w.now = min &^ uint64(wheelSpan-1)
		rest := w.overflow[:0]
		for _, ev := range w.overflow {
			if ev.cycle>>uint(wheelBits*wheelLevels) == w.now>>uint(wheelBits*wheelLevels) {
				w.place(ev)
			} else {
				rest = append(rest, ev)
			}
		}
		w.overflow = rest
	}
}

// Peek reports the (cycle, cpu) of the next event without removing it.
func (w *eventWheel) Peek() (uint64, int32, bool) {
	slot := w.advance()
	if slot < 0 {
		return 0, 0, false
	}
	ev := w.level[0][slot][w.minIdx(slot)]
	return ev.cycle, ev.cpu, true
}

// Pop removes and returns the next event in (cycle, cpu, seq) order.
func (w *eventWheel) Pop() (uint64, int32, bool) {
	slot := w.advance()
	if slot < 0 {
		return 0, 0, false
	}
	evs := w.level[0][slot]
	i := w.minIdx(slot)
	ev := evs[i]
	evs[i] = evs[len(evs)-1]
	w.level[0][slot] = evs[:len(evs)-1]
	if len(evs) == 1 {
		w.occ[0][slot>>6] &^= 1 << (slot & 63)
	}
	w.size--
	w.now = ev.cycle
	return ev.cycle, ev.cpu, true
}

// minIdx returns the index of the (cpu, seq)-minimal event in a level-0
// slot. All events in a level-0 slot share one cycle, so this is the
// head of the total order.
func (w *eventWheel) minIdx(slot int) int {
	evs := w.level[0][slot]
	best := 0
	for i := 1; i < len(evs); i++ {
		if evs[i].cpu < evs[best].cpu ||
			(evs[i].cpu == evs[best].cpu && evs[i].seq < evs[best].seq) {
			best = i
		}
	}
	return best
}
