package workload

// DisturbanceConfig models the OS file-system journaling bug of case
// study 2 (Figure 10): every few minutes the OS sweeps a journal region,
// displacing the workload's working set and spiking the miss ratio at
// every emulated cache size.
type DisturbanceConfig struct {
	// PeriodRefs is the number of workload references between bursts
	// (the paper's spikes recur every ~5 minutes, about 2 billion bus
	// references at that system's rates; presets scale this down).
	PeriodRefs uint64
	// BurstRefs is the length of each journaling sweep.
	BurstRefs uint64
	// JournalBytes is the size of the journal address space; sweeps
	// append through it, so journal lines are always cold.
	JournalBytes int64
	// CPU is the processor running the OS daemon.
	CPU int
}

// WithDisturbance wraps g so that journaling bursts interleave with the
// base workload. Disabling the bug (the paper's "upon fixing the problem
// in the OS the spikes were eliminated") is simply not wrapping.
func WithDisturbance(g Generator, cfg DisturbanceConfig) Generator {
	if cfg.PeriodRefs == 0 || cfg.BurstRefs == 0 || cfg.JournalBytes <= 0 {
		panic("workload: invalid disturbance configuration")
	}
	// The journal must not collide with workload regions, so place it far
	// above any plausible workload footprint (layouts allocate upward from
	// 1MB; no workload approaches 2^50).
	journal := Region{Base: 1 << 50, Size: cfg.JournalBytes}
	return &disturbed{g: g, cfg: cfg, journal: journal}
}

type disturbed struct {
	g       Generator
	cfg     DisturbanceConfig
	journal Region

	sinceBurst uint64
	burstLeft  uint64
	journalPos int64
}

func (d *disturbed) Name() string     { return d.g.Name() + "+journaling" }
func (d *disturbed) Footprint() int64 { return d.g.Footprint() + d.journal.Size }

func (d *disturbed) Next() (Ref, bool) {
	if d.burstLeft > 0 {
		d.burstLeft--
		a := d.journal.At(d.journalPos)
		d.journalPos += 64
		return Ref{Addr: a, Write: true, CPU: d.cfg.CPU, Instrs: 2}, true
	}
	d.sinceBurst++
	if d.sinceBurst >= d.cfg.PeriodRefs {
		d.sinceBurst = 0
		d.burstLeft = d.cfg.BurstRefs
	}
	return d.g.Next()
}

// Err forwards the wrapped stream's failure (ErrReporter).
func (d *disturbed) Err() error { return streamErr(d.g) }
