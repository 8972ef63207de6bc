package host

// eventWheel orders the per-CPU host's scheduled events by absolute bus
// cycle: a binary min-heap of (cycle, cpu) pairs. A live actor keeps
// exactly one event outstanding, so the heap never holds more than
// NumCPUs entries and Schedule and Pop cost O(log NumCPUs); idle CPUs
// schedule nothing and are never in it.
//
// Pop order is (cycle, cpu): earliest cycle first, ties broken by CPU ID.
// Two events with the same pair are indistinguishable to every caller,
// so their relative order does not matter.
//
// Scheduling in the past is clamped to the cycle of the last pop: the
// wheel never reorders an event before one already popped.
type eventWheel struct {
	now  uint64 // cycle of the last pop; every queued event is at or after it
	heap []wheelEvent
}

// wheelEvent is one scheduled wakeup: which CPU, at which absolute cycle.
type wheelEvent struct {
	cycle uint64
	cpu   int32
}

// less is the pop order: (cycle, cpu), lexicographically.
func (a wheelEvent) less(b wheelEvent) bool {
	return a.cycle < b.cycle || a.cycle == b.cycle && a.cpu < b.cpu
}

// newEventWheel creates an empty wheel whose clock starts at cycle 0.
func newEventWheel() *eventWheel { return &eventWheel{} }

// Len returns the number of scheduled, not-yet-popped events.
func (w *eventWheel) Len() int { return len(w.heap) }

// Schedule adds an event for cpu at the given absolute cycle, clamping
// cycles in the past to the current wheel time. It returns the effective
// (possibly clamped) cycle.
func (w *eventWheel) Schedule(cycle uint64, cpu int32) uint64 {
	if cycle < w.now {
		cycle = w.now
	}
	ev := wheelEvent{cycle: cycle, cpu: cpu}
	w.heap = append(w.heap, ev)
	h := w.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	return cycle
}

// Peek reports the (cycle, cpu) of the next event without removing it.
func (w *eventWheel) Peek() (uint64, int32, bool) {
	if len(w.heap) == 0 {
		return 0, 0, false
	}
	return w.heap[0].cycle, w.heap[0].cpu, true
}

// Pop removes and returns the next event in (cycle, cpu) order.
func (w *eventWheel) Pop() (uint64, int32, bool) {
	n := len(w.heap) - 1
	if n < 0 {
		return 0, 0, false
	}
	top, last := w.heap[0], w.heap[n]
	h := w.heap[:n]
	w.heap = h
	// Sift the last event down from the root into the vacated slot.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && h[child+1].less(h[child]) {
			child++
		}
		if !h[child].less(last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = last
	}
	w.now = top.cycle
	return top.cycle, top.cpu, true
}
