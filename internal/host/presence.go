package host

import (
	"unsafe"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/prefetch"
)

// presence is the host bus's snoop filter (bus.Presence): one bit per
// attached CPU per bucket of the CPUs' common coherence-cache geometry,
// set exactly when that CPU's coherence cache holds at least one line of
// the bucket. The bus reads one row per memory transaction and snoops only
// the CPUs named in it, instead of having every peer scan a set that
// almost never holds the line.
//
// The table is kept exact, not conservative: a bit is set when its CPU
// fills a line (cpu.install) and cleared when a line leaves (the fill's
// victim, a snoop-invalidate) and a rescan of that one set finds the
// bucket empty (cpu.left). It therefore always equals what rebuild
// computes from the caches, which is why it is derived state: never
// checkpointed, rebuilt on restore. See DESIGN.md §4e.
type presence struct {
	geom   addr.Geometry
	stride int64 // bytes per row: one bit per attached CPU, rounded up

	// hint's split of an address: a set's buckets are adjacent, so its
	// rows are the setBytes bytes from (a>>offBits&setMask)*setBytes on.
	offBits  uint
	setMask  uint64
	setBytes int64

	rows []byte // cache.Buckets(geom) rows
	cpus []*cpu // every CPU by bus ID; bit < 0 marks one left off the bus
	live int    // CPUs on the bus

	// Gauges behind Host.SnoopFilter; not simulation state.
	probed     uint64 // snoops made
	exhaustive uint64 // snoops a bus without the summary would have made
}

func newPresence(cpus []*cpu, live int) *presence {
	g := cpus[0].coh.Geometry()
	stride := int64(live+7) / 8
	return &presence{
		geom:     g,
		stride:   stride,
		offBits:  addr.Log2(g.LineSize),
		setMask:  uint64(g.Sets - 1),
		setBytes: int64(g.Assoc) * cache.BucketsPerWay * stride,
		rows:     make([]byte, cache.Buckets(g)*stride),
		cpus:     cpus,
		live:     live,
	}
}

func (p *presence) row(a uint64) []byte {
	i := cache.Bucket(p.geom, a) * p.stride
	return p.rows[i : i+p.stride]
}

// hint issues a prefetch hint for the first line of the rows of a's set,
// ahead of the reference that will read a's row (Host.Run). A set's rows
// are contiguous, and on the paper's host — 8 CPUs, 4-way L2s, 64
// one-byte rows a set — they are one line, so the hint covers a's row;
// hashing a's tag to the exact row would not fit the inlining budget.
func (p *presence) hint(a uint64) {
	prefetch.Line(unsafe.Pointer(&p.rows[int64(a>>p.offBits&p.setMask)*p.setBytes]))
}

func (p *presence) add(bit int, line uint64)  { p.row(line)[bit>>3] |= 1 << (bit & 7) }
func (p *presence) drop(bit int, line uint64) { p.row(line)[bit>>3] &^= 1 << (bit & 7) }

// Holders implements bus.Presence. Non-memory commands name nobody:
// cpu.Snoop answers them Null before it looks at its cache.
func (p *presence) Holders(tx *bus.Transaction) []byte {
	if !tx.Cmd.IsMemoryOp() {
		return nil
	}
	peers := p.live
	if src := tx.SrcID; src >= 0 && src < len(p.cpus) && p.cpus[src].bit >= 0 {
		peers--
	}
	p.exhaustive += uint64(peers)
	return p.row(tx.Addr)
}

// rebuild recomputes the table from the caches it summarises.
func (p *presence) rebuild() {
	clear(p.rows)
	for _, c := range p.cpus {
		if c.bit >= 0 {
			c.coh.ForEachValid(func(line uint64, _ uint8) { p.add(c.bit, line) })
		}
	}
}

// SnoopFilter reports what the bus's presence summary has done so far:
// probed is the peer snoops memory transactions caused, skipped the ones
// an exhaustive snoop loop would have made on top of those. probed over
// memory transactions is the O(holders) figure; skipped/(probed+skipped)
// the filter's hit rate. The counts are gauges — not part of Stats, not
// checkpointed, left as they are by a restore.
func (h *Host) SnoopFilter() (probed, skipped uint64) {
	return h.pres.probed, h.pres.exhaustive - h.pres.probed
}
