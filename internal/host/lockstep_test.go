package host

// lockStep is the wheel's test reference: the pre-wheel host scheduler,
// which polls every CPU each bus cycle in ID order and, within a cycle,
// drains each CPU's due events fully before moving to the next. It costs
// O(NumCPUs) per cycle regardless of activity, which is why production
// runs the wheel; but its order is obviously (cycle, cpuID), so it is
// what the wheel is held bit-identical to. It drives the same actor
// handlers through the same dispatch.
type lockStep struct {
	h      *Host
	cursor uint64 // the cycle being polled
}

// pollWith takes a wheel-built per-CPU host's actors off the wheel and
// returns a poller that drives them instead. The cursor starts at the
// earliest pending event, so a freshly built host starts at cycle 0 and
// a restored one where its snapshot left off.
func pollWith(h *Host) *lockStep {
	h.wheel = nil
	p := &lockStep{h: h}
	first := true
	for _, c := range h.cpus {
		if c.done || c.pend == pendNone {
			continue
		}
		if first || c.pendCycle < p.cursor {
			p.cursor = c.pendCycle
			first = false
		}
	}
	return p
}

// RunCycles is Host.RunCycles on the poller.
func (p *lockStep) RunCycles(target uint64) uint64 {
	h := p.h
	start := h.events
	for cyc := p.cursor; cyc < target; cyc++ {
		p.cursor = cyc
		for _, c := range h.cpus {
			for !c.done && c.pend != pendNone && c.pendCycle <= cyc {
				h.dispatch(c)
			}
		}
		if h.live == 0 {
			h.finish()
			break
		}
	}
	p.cursor = target
	h.bus.AdvanceTo(target)
	return h.events - start
}

// step is Host.stepEvent on the poller.
func (p *lockStep) step() bool {
	h := p.h
	if h.live == 0 {
		h.finish()
		return false
	}
	for {
		for _, c := range h.cpus {
			if !c.done && c.pend != pendNone && c.pendCycle <= p.cursor {
				h.dispatch(c)
				return true
			}
		}
		p.cursor++
	}
}

// Run is Host.Run on the poller.
func (p *lockStep) Run(n uint64) uint64 {
	h := p.h
	start := h.stats.Refs
	for h.live > 0 && h.stats.Refs-start < n {
		p.step()
	}
	h.finish()
	return h.stats.Refs - start
}
