// Package hotspot implements the board's hot-spot identification mode
// (paper §2.3): "The FPGAs can be programmed to treat their private 256MB
// memory as a table of memory read/write frequency counters either on
// cache line basis or page basis. These counters help to identify hot
// spots in cache lines or in memory pages."
package hotspot

import (
	"fmt"
	"sort"

	"memories/internal/addr"
	"memories/internal/bus"
)

// Config parameterizes the profiler.
type Config struct {
	// Granularity is the counting block size: the host line size (128B)
	// for line-level profiling, or the page size (4KB) for page-level.
	Granularity int64
	// MaxBlocks bounds the counter table, modeling the 256MB of private
	// memory per FPGA (256MB / 16B counters = 16Mi blocks). Once full,
	// new blocks count toward the total only, rather than evicting hot
	// entries.
	MaxBlocks int
}

// DefaultConfig profiles at cache-line granularity with the hardware's
// table capacity.
func DefaultConfig() Config {
	return Config{Granularity: 128, MaxBlocks: 16 << 20}
}

// BlockStats are the per-block access counters.
type BlockStats struct {
	Block  uint64 // block base address
	Reads  uint64
	Writes uint64
}

// Total returns reads + writes.
func (b BlockStats) Total() uint64 { return b.Reads + b.Writes }

// Profiler is the hot-spot counter table. It implements bus.Snooper as a
// purely passive observer.
type Profiler struct {
	cfg    Config
	blocks map[uint64]*BlockStats
	total  uint64
}

// New builds a profiler.
func New(cfg Config) (*Profiler, error) {
	if cfg.Granularity <= 0 || !addr.IsPow2(cfg.Granularity) {
		return nil, fmt.Errorf("hotspot: granularity must be a positive power of two")
	}
	if cfg.MaxBlocks <= 0 {
		return nil, fmt.Errorf("hotspot: MaxBlocks must be positive")
	}
	return &Profiler{cfg: cfg, blocks: make(map[uint64]*BlockStats)}, nil
}

// BusID implements bus.Snooper (passive).
func (p *Profiler) BusID() int { return -1 }

// Snoop implements bus.Snooper: counts memory operations per block.
func (p *Profiler) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	if !tx.Cmd.IsMemoryOp() {
		return bus.RespNull
	}
	p.total++
	block := tx.Addr &^ uint64(p.cfg.Granularity-1)
	bs := p.blocks[block]
	if bs == nil {
		if len(p.blocks) >= p.cfg.MaxBlocks {
			return bus.RespNull
		}
		bs = &BlockStats{Block: block}
		p.blocks[block] = bs
	}
	if tx.Cmd.IsWrite() {
		bs.Writes++
	} else {
		bs.Reads++
	}
	return bus.RespNull
}

// Tracked returns the number of distinct blocks observed.
func (p *Profiler) Tracked() int { return len(p.blocks) }

// Total returns all memory operations observed.
func (p *Profiler) Total() uint64 { return p.total }

// Top returns the k hottest blocks by total accesses, descending; ties
// break by ascending address for determinism.
func (p *Profiler) Top(k int) []BlockStats {
	out := make([]BlockStats, 0, len(p.blocks))
	for _, bs := range p.blocks {
		out = append(out, *bs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total() != out[j].Total() {
			return out[i].Total() > out[j].Total()
		}
		return out[i].Block < out[j].Block
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Concentration returns the fraction of all observed operations that hit
// the k hottest blocks — the one-number summary of how spiky the access
// distribution is.
func (p *Profiler) Concentration(k int) float64 {
	if p.total == 0 {
		return 0
	}
	var hot uint64
	for _, bs := range p.Top(k) {
		hot += bs.Total()
	}
	return float64(hot) / float64(p.total)
}

// Reset clears the table for a new measurement window.
func (p *Profiler) Reset() {
	p.blocks = make(map[uint64]*BlockStats)
	p.total = 0
}
