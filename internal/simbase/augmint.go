package simbase

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/cache"
	"memories/internal/workload"
)

// Augmint is an execution-driven simulator in the style of the Augmint
// toolkit the paper benchmarks against in Table 4. Where the board (and
// the host it rides on) observe references at bus speed, an
// execution-driven simulator must *interpret every instruction* of the
// workload and run each memory reference through a software cache model.
// That interpretation is exactly where the 100-1000x slowdowns of §4.2
// come from, so this model performs real per-instruction work — its
// measured wall-clock time is the Table 4 baseline.
type Augmint struct {
	cfg   AugmintConfig
	l1    []*cache.Cache
	l2    []*cache.Cache
	stats AugmintStats

	// checksum accumulates per-instruction interpreter work; keeping it
	// as state stops the compiler from discarding the loop.
	checksum uint64
}

// AugmintConfig sizes the simulated target machine.
type AugmintConfig struct {
	NumCPUs int
	// WorkPerInstr is the number of interpreter operations performed per
	// simulated instruction (decode + execute + address translation);
	// higher is slower, as with more detailed simulators.
	WorkPerInstr int
	// L1Bytes/L2Bytes size the simulated caches (direct-mapped here, as
	// the original toolkit's fast mode).
	L1Bytes  int64
	L2Bytes  int64
	LineSize int64
}

// DefaultAugmintConfig simulates the paper's 8-way target.
func DefaultAugmintConfig() AugmintConfig {
	return AugmintConfig{
		NumCPUs:      8,
		WorkPerInstr: 12,
		L1Bytes:      64 * addr.KB,
		L2Bytes:      8 * addr.MB,
		LineSize:     128,
	}
}

// AugmintStats are the simulation results.
type AugmintStats struct {
	Refs         uint64
	Instructions uint64
	L1Misses     uint64
	L2Misses     uint64
}

// NewAugmint builds the simulator.
func NewAugmint(cfg AugmintConfig) (*Augmint, error) {
	if cfg.NumCPUs <= 0 {
		return nil, fmt.Errorf("simbase: NumCPUs must be positive")
	}
	if cfg.WorkPerInstr <= 0 {
		cfg.WorkPerInstr = 12
	}
	a := &Augmint{cfg: cfg}
	for i := 0; i < cfg.NumCPUs; i++ {
		g1, err := addr.NewGeometry(cfg.L1Bytes, cfg.LineSize, 1)
		if err != nil {
			return nil, err
		}
		g2, err := addr.NewGeometry(cfg.L2Bytes, cfg.LineSize, 1)
		if err != nil {
			return nil, err
		}
		a.l1 = append(a.l1, cache.MustNew(cache.Config{Geometry: g1, Policy: cache.LRU}))
		a.l2 = append(a.l2, cache.MustNew(cache.Config{Geometry: g2, Policy: cache.LRU}))
	}
	return a, nil
}

// Run interprets up to n references of the workload, returning how many
// were processed.
func (a *Augmint) Run(gen workload.Generator, n uint64) uint64 {
	var i uint64
	for ; i < n; i++ {
		ref, ok := gen.Next()
		if !ok {
			break
		}
		a.step(ref)
	}
	return i
}

// step interprets one reference: the instructions leading to it, then the
// memory access through the two-level cache model.
func (a *Augmint) step(ref workload.Ref) {
	a.stats.Refs++
	a.stats.Instructions += ref.Instrs

	// Instruction interpretation: decode/dispatch work per instruction.
	work := ref.Instrs * uint64(a.cfg.WorkPerInstr)
	c := a.checksum
	for j := uint64(0); j < work; j++ {
		c = c*6364136223846793005 + 1442695040888963407 // LCG step per op
	}
	a.checksum = c

	cpu := ref.CPU % a.cfg.NumCPUs
	if a.l1[cpu].Access(ref.Addr) == cache.StateInvalid {
		a.stats.L1Misses++
		if a.l2[cpu].Access(ref.Addr) == cache.StateInvalid {
			a.stats.L2Misses++
			a.l2[cpu].Fill(ref.Addr, 1)
		}
		a.l1[cpu].Fill(ref.Addr, 1)
	}
}
