package workload

import (
	"fmt"

	"memories/internal/addr"
)

// TPCHConfig parameterizes the decision-support (TPC-H-like) generator:
// table scans over a large fact table, repeated reads of medium dimension
// tables, and random probes of per-query hash-join tables.
type TPCHConfig struct {
	NumCPUs int
	// FactBytes is the scan-dominated fact table (the paper's runs used a
	// 100GB database).
	FactBytes int64
	// DimBytes is the dimension tables re-read by every query.
	DimBytes int64
	// HashBytes is the shared hash-join working storage.
	HashBytes int64
	// ScanFraction, DimFraction: probability mix; the remainder probes
	// the hash tables.
	ScanFraction float64
	DimFraction  float64
	Seed         uint64
}

// DefaultTPCHConfig returns the paper-scale DSS model.
func DefaultTPCHConfig() TPCHConfig {
	return TPCHConfig{
		NumCPUs:      8,
		FactBytes:    100 * addr.GB,
		DimBytes:     1 * addr.GB,
		HashBytes:    512 * addr.MB,
		ScanFraction: 0.70,
		DimFraction:  0.15,
		Seed:         2,
	}
}

// ScaledTPCHConfig shrinks the footprint by factor, preserving structure.
func ScaledTPCHConfig(factor int64) TPCHConfig {
	cfg := DefaultTPCHConfig()
	if factor > 1 {
		cfg.FactBytes /= factor
		cfg.DimBytes /= factor
		cfg.HashBytes /= factor
		if cfg.HashBytes < addr.MB {
			cfg.HashBytes = addr.MB
		}
	}
	return cfg
}

// TPCH is the DSS reference generator.
type TPCH struct {
	cfg  TPCHConfig
	fact Region
	dim  Region
	hash Region

	r         *RNG
	hashZipf  *Zipf
	dimPyr    *Pyramid
	part      int64 // bytes of fact per CPU
	hashSlots int64 // 64-byte slots in hash

	cpu     int
	scanPos []int64 // per-CPU fact-scan cursor, in [0, part)
}

// NewTPCH builds the generator.
func NewTPCH(cfg TPCHConfig) *TPCH {
	if cfg.NumCPUs <= 0 {
		panic("workload: NumCPUs must be positive")
	}
	l := NewLayout()
	t := &TPCH{
		cfg:     cfg,
		fact:    l.Region(cfg.FactBytes),
		dim:     l.Region(cfg.DimBytes),
		hash:    l.Region(cfg.HashBytes),
		r:       NewRNG(cfg.Seed),
		scanPos: make([]int64, cfg.NumCPUs),
	}
	t.part = t.fact.Size / int64(cfg.NumCPUs)
	t.hashSlots = t.hash.Slots(64)
	t.hashZipf = NewZipf(t.r, 1.1, t.hashSlots)
	minLevel := t.dim.Size / 256
	if minLevel < 64<<10 {
		minLevel = 64 << 10
	}
	t.dimPyr = NewPyramid(t.dim.Size, minLevel, 128, 4, 0.5)
	return t
}

// Name implements Generator.
func (t *TPCH) Name() string { return fmt.Sprintf("tpch-%s", addr.FormatSize(t.cfg.FactBytes)) }

// Footprint implements Generator.
func (t *TPCH) Footprint() int64 { return t.fact.Size + t.dim.Size + t.hash.Size }

// Next implements Generator.
func (t *TPCH) Next() (Ref, bool) {
	cpu := nextCPU(&t.cpu, t.cfg.NumCPUs)

	roll := t.r.Float()
	switch {
	case roll < t.cfg.ScanFraction:
		// Parallel partitioned scan of the fact table: pure streaming.
		// The cursor stays inside the partition (Checkpoint refuses one
		// that is not), so the address needs no wrap and the cursor
		// divides only when it passes the partition's end.
		off := int64(cpu)*t.part + t.scanPos[cpu]
		if t.scanPos[cpu] += 64; t.scanPos[cpu] >= t.part {
			t.scanPos[cpu] %= t.part
		}
		return Ref{Addr: t.fact.Base + uint64(off), Write: false, CPU: cpu, Instrs: 3}, true

	case roll < t.cfg.ScanFraction+t.cfg.DimFraction:
		// Dimension tables: nested working sets shared by every query —
		// a cache big enough to retain a level keeps its accesses.
		return Ref{Addr: t.dim.Base + uint64(t.dimPyr.Sample(t.r)), Write: false, CPU: cpu, Instrs: 4}, true

	default:
		// Hash-join build/probe: skewed random access, mixed read/write.
		slot := wrap(t.hashZipf.Sample()*2654435761, t.hashSlots)
		return Ref{
			Addr:   t.hash.Base + uint64(slot*64),
			Write:  t.r.Chance(0.4),
			CPU:    cpu,
			Instrs: 6,
		}, true
	}
}
