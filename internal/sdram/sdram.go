// Package sdram models the SDRAM DIMMs that hold the emulated caches'
// tag/state/LRU tables on the MemorIES board.
//
// Paper §3.3: "The throughput of the SDRAMs implementing state/Tag/LRU
// functions is roughly 42% of the maximum 6xx bus bandwidth. In order to
// handle occasional bursts exceeding 42% bus utilization, MemorIES
// provides transaction buffers between the 6xx bus and the cache control
// logic."
//
// Each directory operation is a read-modify-write of one tag-table entry:
// it occupies the SDRAM channel for a minimum gap and keeps the addressed
// bank busy for a recovery time. With the default parameters the sustained
// random-access throughput is ~1 operation per 23 bus cycles — 42% of the
// peak memory-operation rate of a 100 MHz 6xx bus moving 128-byte lines
// (one op per ~9.6 cycles). The node controllers use the model to pace
// their 512-entry transaction buffers; if a burst overflows them, the
// address filter posts a bus retry (the event the paper reports never
// happening in months of lab use at 2-20% utilization).
package sdram

import "slices"

// Config sets the tag-store timing, all in bus cycles.
type Config struct {
	// Banks is the number of independent SDRAM banks; the tag table is
	// interleaved across them by set index.
	Banks int
	// ChannelGap is the minimum number of cycles between operation starts
	// on the shared channel (command/data bus occupancy).
	ChannelGap uint64
	// BankBusy is how long an operation keeps its bank busy (row cycle
	// time; covers the read-modify-write of the tag entry).
	BankBusy uint64
}

// DefaultConfig returns timing calibrated to the paper's 42% figure for a
// 100 MHz 6xx bus: channel-limited throughput of one directory operation
// per 23 bus cycles.
func DefaultConfig() Config {
	// Four 64MB DIMMs per node controller (paper §3), each with four
	// internal banks: sixteen banks interleaved by set index.
	return Config{Banks: 16, ChannelGap: 23, BankBusy: 46}
}

// Stats counts tag-store activity.
type Stats struct {
	Ops uint64 // operations performed
	// BusyCycles is the cycles the channel was occupied. Every operation
	// holds the channel for exactly ChannelGap, so BusyCycles is always
	// Ops × ChannelGap: Stats derives it rather than Schedule summing it,
	// and a checkpoint that says otherwise is refused as corrupt.
	BusyCycles          uint64
	BankConflicts       uint64 // ops delayed by a busy bank beyond the channel gap
	StallCycles         uint64 // total cycles ops waited beyond their arrival
	InjectedStallCycles uint64 // cycles of externally injected controller stalls
}

// TagStore is the timing model for one node controller's tag/state SDRAM.
// It is a pure scheduler: callers ask when an operation issued "now" for a
// given set would complete, and the store advances its internal busy
// horizon. Not safe for concurrent use.
type TagStore struct {
	gap, busy   uint64   // Config.ChannelGap, Config.BankBusy
	bankMask    int64    // Banks-1 when Banks is a power of two, else -1
	channelFree uint64   // earliest cycle the channel can start a new op
	bankFree    []uint64 // earliest cycle each bank can start a new op
	stats       Stats    // BusyCycles unused: Stats derives it
}

// New creates a tag store with the given timing. Banks must be positive
// and timing nonzero.
func New(cfg Config) *TagStore {
	if cfg.Banks <= 0 || cfg.ChannelGap == 0 || cfg.BankBusy == 0 {
		panic("sdram: invalid configuration")
	}
	mask := int64(cfg.Banks - 1)
	if cfg.Banks&(cfg.Banks-1) != 0 {
		mask = -1
	}
	return &TagStore{gap: cfg.ChannelGap, busy: cfg.BankBusy, bankMask: mask, bankFree: make([]uint64, cfg.Banks)}
}

// Stats returns a copy of the accumulated statistics.
func (t *TagStore) Stats() Stats {
	st := t.stats
	st.BusyCycles = t.busyCycles()
	return st
}

// busyCycles is the channel occupancy the operations so far imply.
func (t *TagStore) busyCycles() uint64 { return t.stats.Ops * t.gap }

// NextFree returns the earliest cycle at which a new operation could start
// on the channel (ignoring bank state, which depends on the set).
func (t *TagStore) NextFree() uint64 { return t.channelFree }

// Stall pushes the channel-free horizon forward by the given number of
// cycles from now, modeling a transient node-controller stall (a hung
// refresh, a re-calibration, an injected fault). Buffered transactions
// keep queueing while the channel is stalled, which is how fault
// injection drives the transaction buffers toward overflow.
func (t *TagStore) Stall(now, cycles uint64) {
	if t.channelFree < now {
		t.channelFree = now
	}
	t.channelFree += cycles
	t.stats.InjectedStallCycles += cycles
}

// Equal reports whether u has t's timing and t's state: fed the same
// operations from here on, the two stay equal, so one can stand for both.
func (t *TagStore) Equal(u *TagStore) bool {
	return t.gap == u.gap && t.busy == u.busy && t.bankMask == u.bankMask &&
		t.channelFree == u.channelFree && t.stats == u.stats && slices.Equal(t.bankFree, u.bankFree)
}

// Schedule issues a directory operation for the given set at cycle now and
// returns the cycle at which it completes. Operations are serviced in call
// order (the node controller drains its transaction buffer FIFO).
func (t *TagStore) Schedule(now uint64, set int64) uint64 {
	bank := set & t.bankMask
	if t.bankMask < 0 {
		bank = set % int64(len(t.bankFree))
	}
	bf := &t.bankFree[bank]
	start := max(now, t.channelFree)
	if *bf > start {
		start = *bf
		t.stats.BankConflicts++
	}
	t.stats.StallCycles += start - now
	t.stats.Ops++
	t.channelFree = start + t.gap
	*bf = start + t.busy
	return *bf
}
