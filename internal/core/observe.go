package core

import "memories/internal/obs"

// This file wires boards into the observability layer (internal/obs).
// The contract on both sides: the board's snoop loop remains the sole
// writer of its counter bank; obs gets a Mirror the loop republishes on
// request, and an optional lock-free Tracer the loop records accepted
// transactions into while enabled. Attachment must happen before the
// board starts observing traffic.

// PublishObs force-publishes the mirror from a quiesce point (after
// Flush, end of run), making the final counter values visible to
// samplers exactly. No-op when no mirror is attached.
func (b *Board) PublishObs() {
	if b.mirror != nil {
		b.mirror.Publish()
	}
}

// Observe attaches the board to a registry under the given name prefix:
// the board's entire counter bank appears as "<prefix>.<counter>". When
// sink != nil it also builds the board's tracer, a ring of traceDepth
// records (0 = obs.DefaultTraceDepth) that drains into sink; Tracer
// returns it. The tracer is the board's trace-collection mode (§2.3); the
// bank's trace.captured and trace.dropped count what it stores and loses.
// Must be called before the board observes traffic.
func (b *Board) Observe(reg *obs.Registry, sink func(obs.Event), prefix string, traceDepth int) error {
	m := obs.NewMirror(b.bank)
	if err := reg.AttachMirror(prefix, m); err != nil {
		return err
	}
	b.mirror = m
	if sink != nil {
		b.tracer = obs.NewTracer(traceDepth, sink)
	}
	return nil
}

// Tracer returns the board's snoop tracer, or nil when Observe built none.
func (b *Board) Tracer() *obs.Tracer { return b.tracer }
