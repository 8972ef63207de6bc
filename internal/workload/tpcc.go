package workload

import (
	"fmt"

	"memories/internal/addr"
)

// TPCCConfig parameterizes the OLTP (TPC-C-like) generator. The defaults
// model the paper's environment: a 150GB database on an 8-way SMP.
type TPCCConfig struct {
	// NumCPUs is the number of host processors running transactions.
	NumCPUs int
	// DatabaseBytes is the size of the row storage (the paper's runs used
	// a 150GB TPC-C database). Each processor works mostly within its own
	// partition of it ("the processors all access their different data
	// sets. These data sets do not overlap completely" — §5.1).
	DatabaseBytes int64
	// SharedBytes is the commonly accessed table space (item, warehouse,
	// district): rows every processor touches. Zero derives it as
	// DatabaseBytes/16.
	SharedBytes int64
	// IndexBytes is the shared B-tree index working storage.
	IndexBytes int64
	// LogBytes is the circular redo-log region.
	LogBytes int64
	// RecordBytes is the row/popularity granularity.
	RecordBytes int64
	// MinWorkingSet is the smallest (hottest) working-set level of the
	// nested per-processor pyramid; levels grow 4x from here to the full
	// partition, with each larger level accessed half as often.
	MinWorkingSet int64
	// WriteFraction is the store probability for row accesses.
	WriteFraction float64
	// SharedFraction is the probability that a row access goes to the
	// globally shared tables instead of the CPU's own partition.
	SharedFraction float64
	// IndexFraction and LogFraction are the probabilities of an index
	// probe and a log append, respectively.
	IndexFraction float64
	LogFraction   float64
	// Seed makes the stream reproducible.
	Seed uint64
}

// DefaultTPCCConfig returns the paper-scale OLTP model.
func DefaultTPCCConfig() TPCCConfig {
	return TPCCConfig{
		NumCPUs:        8,
		DatabaseBytes:  150 * addr.GB,
		IndexBytes:     2 * addr.GB,
		LogBytes:       256 * addr.MB,
		RecordBytes:    128,
		MinWorkingSet:  512 * addr.KB,
		WriteFraction:  0.30,
		SharedFraction: 0.22,
		IndexFraction:  0.16,
		LogFraction:    0.04,
		Seed:           1,
	}
}

// ScaledTPCCConfig shrinks the footprint by factor (for fast experiment
// presets) while preserving the structure; factor 1 is paper scale.
func ScaledTPCCConfig(factor int64) TPCCConfig {
	cfg := DefaultTPCCConfig()
	if factor > 1 {
		cfg.DatabaseBytes /= factor
		cfg.IndexBytes /= factor
		cfg.LogBytes /= factor
		if cfg.IndexBytes < 2*addr.MB {
			cfg.IndexBytes = 2 * addr.MB
		}
		if cfg.LogBytes < addr.MB {
			cfg.LogBytes = addr.MB
		}
	}
	return cfg
}

// TPCC is the OLTP reference generator: nested per-processor working
// sets over a partitioned row space, a shared hot-table space, a very hot
// index, and a sequential shared log.
type TPCC struct {
	cfg    TPCCConfig
	rows   Region
	shared Region
	index  Region
	log    Region

	r         *RNG
	privPyr   *Pyramid // per-CPU partition working sets
	sharedPyr *Pyramid // shared hot tables
	indexZipf *Zipf    // index page popularity (very hot upper levels)

	part       int64 // bytes of rows per CPU
	indexSlots int64 // RecordBytes-sized slots in index

	cpu    int
	logPos int64
}

// NewTPCC builds the generator.
func NewTPCC(cfg TPCCConfig) *TPCC {
	if cfg.NumCPUs <= 0 {
		panic("workload: NumCPUs must be positive")
	}
	if cfg.RecordBytes <= 0 {
		cfg.RecordBytes = 128
	}
	if cfg.SharedBytes <= 0 {
		cfg.SharedBytes = cfg.DatabaseBytes / 16
		if cfg.SharedBytes < addr.MB {
			cfg.SharedBytes = addr.MB
		}
	}
	if cfg.MinWorkingSet <= 0 {
		cfg.MinWorkingSet = 512 * addr.KB
	}
	l := NewLayout()
	t := &TPCC{
		cfg:    cfg,
		rows:   l.Region(cfg.DatabaseBytes),
		shared: l.Region(cfg.SharedBytes),
		index:  l.Region(cfg.IndexBytes),
		log:    l.Region(cfg.LogBytes),
		r:      NewRNG(cfg.Seed),
	}
	t.part = t.rows.Size / int64(cfg.NumCPUs)
	t.indexSlots = t.index.Slots(cfg.RecordBytes)
	t.privPyr = NewPyramid(t.part, cfg.MinWorkingSet, cfg.RecordBytes, 4, 0.5)
	t.sharedPyr = NewPyramid(t.shared.Size, cfg.MinWorkingSet, cfg.RecordBytes, 4, 0.5)
	t.indexZipf = NewZipf(t.r, 1.6, t.indexSlots)
	return t
}

// Name implements Generator.
func (t *TPCC) Name() string { return fmt.Sprintf("tpcc-%s", addr.FormatSize(t.cfg.DatabaseBytes)) }

// Footprint implements Generator.
func (t *TPCC) Footprint() int64 {
	return t.rows.Size + t.shared.Size + t.index.Size + t.log.Size
}

// Next implements Generator.
func (t *TPCC) Next() (Ref, bool) {
	cpu := nextCPU(&t.cpu, t.cfg.NumCPUs)

	roll := t.r.Float()
	switch {
	case roll < t.cfg.LogFraction:
		// Sequential shared log append: every CPU writes the same tail.
		a := t.log.At(t.logPos)
		t.logPos += 64
		return Ref{Addr: a, Write: true, CPU: cpu, Instrs: 4}, true

	case roll < t.cfg.LogFraction+t.cfg.IndexFraction:
		// Index probe: read-mostly, extremely hot upper levels.
		scattered := wrap(t.indexZipf.Sample()*2654435761, t.indexSlots)
		return Ref{
			Addr:   t.index.Base + uint64(scattered*t.cfg.RecordBytes),
			Write:  t.r.Chance(0.02),
			CPU:    cpu,
			Instrs: 5,
		}, true

	case roll < t.cfg.LogFraction+t.cfg.IndexFraction+t.cfg.SharedFraction:
		// Shared hot tables: nested working sets touched by every CPU.
		// A pyramid's offsets lie inside its span, so no wrap.
		return Ref{
			Addr:   t.shared.Base + uint64(t.sharedPyr.Sample(t.r)),
			Write:  t.r.Chance(t.cfg.WriteFraction),
			CPU:    cpu,
			Instrs: 4,
		}, true

	default:
		// The CPU's own partition: nested transaction working sets.
		off := int64(cpu)*t.part + t.privPyr.Sample(t.r)
		return Ref{
			Addr:   t.rows.Base + uint64(off),
			Write:  t.r.Chance(t.cfg.WriteFraction),
			CPU:    cpu,
			Instrs: 4,
		}, true
	}
}
