package workload

import (
	"fmt"

	"memories/internal/checkpoint"
)

// SetState restores a checkpointed RNG state. Zero is remapped the same
// way NewRNG remaps a zero seed (xorshift's all-zero fixed point).
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	r.state = s
}

// Checkpoint walks the RNG's state.
func (r *RNG) Checkpoint(c *checkpoint.Codec) {
	s := r.state
	c.U64(&s)
	r.SetState(s)
}

// Checkpointer is implemented by generators whose position in the
// reference stream can be saved and restored. The splash kernels (plain
// per-CPU state machines, see splash/fft.go) do not implement it;
// Host.Checkpoint surfaces that as an error rather than writing a
// partial snapshot.
type Checkpointer interface {
	Checkpoint(c *checkpoint.Codec) error
}

// cursor walks a generator's RNG and its round-robin CPU cursor. Name()
// does not carry the CPU count, so a cursor outside [0, n) is the only
// sign that the snapshot came from a generator built with more CPUs; it
// is corruption, not something to clamp — the stream would silently
// resume at a different point.
func cursor(c *checkpoint.Codec, r *RNG, cpu *int, n int) {
	r.Checkpoint(c)
	v := uint32(*cpu)
	c.U32(&v)
	if int(v) >= n {
		c.Failf("cpu cursor %d, generator has %d CPUs", v, n)
	} else {
		*cpu = int(v)
	}
}

// Checkpoint implements Checkpointer.
func (u *Uniform) Checkpoint(c *checkpoint.Codec) error {
	cursor(c, u.r, &u.cpu, u.cfg.NumCPUs)
	return c.Err()
}

// Checkpoint implements Checkpointer.
func (s *Stride) Checkpoint(c *checkpoint.Codec) error {
	cursor(c, s.r, &s.cpu, s.cfg.NumCPUs)
	checkpoint.Slice64(c, "stride cursor count", s.pos)
	return c.Err()
}

// Checkpoint implements Checkpointer.
func (z *Zipfian) Checkpoint(c *checkpoint.Codec) error {
	cursor(c, z.r, &z.cpu, z.cfg.NumCPUs)
	return c.Err()
}

// Checkpoint implements Checkpointer. The pyramids and Zipf samplers are
// immutable after construction; only the RNG and cursors move.
func (t *TPCC) Checkpoint(c *checkpoint.Codec) error {
	cursor(c, t.r, &t.cpu, t.cfg.NumCPUs)
	c.I64(&t.logPos)
	return c.Err()
}

// Checkpoint implements Checkpointer.
func (t *TPCH) Checkpoint(c *checkpoint.Codec) error {
	cursor(c, t.r, &t.cpu, t.cfg.NumCPUs)
	checkpoint.Slice64(c, "tpch scan cursor count", t.scanPos)
	for cpu, pos := range t.scanPos {
		if pos < 0 || pos >= t.part {
			c.Failf("scan cursor %d of CPU %d outside its %d-byte partition", pos, cpu, t.part)
		}
	}
	return c.Err()
}

// Checkpoint implements Checkpointer.
func (w *Web) Checkpoint(c *checkpoint.Codec) error {
	cursor(c, w.r, &w.cpu, w.cfg.NumCPUs)
	c.I64(&w.logPos)
	c.Len("web per-CPU state count", len(w.st))
	for i := range w.st {
		c.I64(&w.st[i].docBase)
		c.I64(&w.st[i].docLeft)
		c.I64(&w.st[i].conn)
		if conn := w.st[i].conn; conn < 0 || conn >= int64(w.cfg.Connections) {
			c.Failf("connection %d of CPU %d, server has %d", conn, i, w.cfg.Connections)
		}
	}
	return c.Err()
}

// CheckpointGenerator walks g's stream position, or reports by name a
// generator whose position cannot be serialized.
func CheckpointGenerator(c *checkpoint.Codec, g Generator) error {
	if ck, ok := g.(Checkpointer); ok {
		return ck.Checkpoint(c)
	}
	return fmt.Errorf("workload: generator %q is not checkpointable", g.Name())
}

// Checkpoint implements Checkpointer: the remaining-reference budget,
// then the wrapped generator.
func (l *limited) Checkpoint(c *checkpoint.Codec) error {
	c.U64(&l.left)
	return CheckpointGenerator(c, l.g)
}

// Checkpoint implements Checkpointer: burst phase, then the inner stream.
func (dg *disturbed) Checkpoint(c *checkpoint.Codec) error {
	c.U64(&dg.sinceBurst)
	c.U64(&dg.burstLeft)
	c.I64(&dg.journalPos)
	return CheckpointGenerator(c, dg.g)
}
