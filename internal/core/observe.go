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

// Observe attaches the board to a registry (and optionally a trace hub)
// under the given name prefix: the board's entire counter bank appears
// as "<prefix>.<counter>", and a tracer of traceDepth records (0 =
// obs.DefaultTraceDepth) is registered with the hub when hub != nil. The
// tracer is the board's trace-collection mode (§2.3); the bank's
// trace.captured and trace.dropped count what it stores and loses. Must
// be called before the board observes traffic.
func (b *Board) Observe(reg *obs.Registry, hub *obs.TraceHub, prefix string, traceDepth int) error {
	m := obs.NewMirror(b.bank)
	if err := reg.AttachMirror(prefix, m); err != nil {
		return err
	}
	b.mirror = m
	if hub != nil {
		t := obs.NewTracer(traceDepth)
		b.tracer = t
		hub.Add(prefix, t)
	}
	return nil
}
