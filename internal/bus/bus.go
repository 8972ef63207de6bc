// Package bus models the 6xx SMP memory bus that the MemorIES board plugs
// into: split address/data tenures, per-CPU source IDs, snoop responses
// with a combined-response resolution, and retry semantics.
//
// The model is transaction-level, not signal-level. Devices attach as
// Snoopers; for every address tenure the bus presents the transaction to
// every snooper (except the source) and combines their responses with the
// 6xx priority rule (Retry > Modified > Shared > Null). The host's CPUs
// attach behind a Presence summary of their caches — a snoop filter — and
// are presented only the transactions it cannot rule out for them, which
// leaves every combined response what the exhaustive loop would have
// computed (a skipped snooper is one that would have answered Null).
// Each device's BusID is sampled once, when it attaches. Passive devices —
// MemorIES above all — snoop every transaction but normally answer Null;
// the only active behaviour the board is permitted is posting Retry when
// its transaction buffers are full (paper §3.3), which this model
// faithfully allows.
package bus

import (
	"fmt"
	"math/bits"
)

// Command enumerates 6xx bus transaction types. The set covers what the
// paper's address filter must distinguish: cacheable memory operations
// (kept), and I/O register accesses, interrupts, and sync traffic
// (filtered out before they reach the emulated node controllers).
type Command uint8

const (
	// Read is a cacheable read miss (load or instruction fetch).
	Read Command = iota
	// RWITM (read-with-intent-to-modify) is a store miss: fetch the line
	// and claim exclusive ownership.
	RWITM
	// DClaim claims ownership of a line already held shared (store hit on
	// shared data); no data transfer.
	DClaim
	// Castout writes a modified line back to memory on replacement.
	Castout
	// Push is a cache-to-cache intervention data transfer: a snooper that
	// held the line modified supplies it to the requester.
	Push
	// Clean forces write-back of a modified line without invalidation.
	Clean
	// Flush forces write-back and invalidation.
	Flush
	// IORead and IOWrite are non-cacheable I/O register accesses.
	IORead
	IOWrite
	// Interrupt is an interrupt delivery transaction.
	Interrupt
	// Sync is a memory-barrier completion transaction.
	Sync
	// TLBSync is TLB-shootdown completion traffic.
	TLBSync

	numCommands = int(TLBSync) + 1
)

var commandNames = [...]string{
	Read:      "read",
	RWITM:     "rwitm",
	DClaim:    "dclaim",
	Castout:   "castout",
	Push:      "push",
	Clean:     "clean",
	Flush:     "flush",
	IORead:    "io-read",
	IOWrite:   "io-write",
	Interrupt: "interrupt",
	Sync:      "sync",
	TLBSync:   "tlbsync",
}

// String returns the lower-case mnemonic for the command.
func (c Command) String() string {
	if int(c) < len(commandNames) {
		return commandNames[c]
	}
	return fmt.Sprintf("command(%d)", uint8(c))
}

// NumCommands is the number of distinct bus commands; counter banks size
// per-command counters with it.
func NumCommands() int { return numCommands }

// IsMemoryOp reports whether the command addresses cacheable memory and is
// therefore relevant to cache emulation. The address filter FPGA forwards
// exactly these (paper §3.1).
func (c Command) IsMemoryOp() bool {
	switch c {
	case Read, RWITM, DClaim, Castout, Push, Clean, Flush:
		return true
	}
	return false
}

// CarriesData reports whether the transaction has a data tenure (occupies
// data-bus beats) in addition to its address tenure.
func (c Command) CarriesData() bool {
	switch c {
	case Read, RWITM, Castout, Push, Clean, Flush, IORead, IOWrite:
		return true
	}
	return false
}

// IsWrite reports whether the command is a write-class operation from the
// memory system's point of view (modifies or claims the line).
func (c Command) IsWrite() bool {
	switch c {
	case RWITM, DClaim, Castout, IOWrite:
		return true
	}
	return false
}

// Transaction is one bus operation as observed during its address tenure.
type Transaction struct {
	Seq   uint64  // monotonically increasing issue sequence number
	Cycle uint64  // bus cycle of the address tenure
	Cmd   Command // transaction type
	Addr  uint64  // physical address
	Size  int     // bytes transferred in the data tenure (line size; 8 for I/O)
	SrcID int     // bus ID of the requesting processor or device
}

// SnoopResponse is a device's reply during the snoop window. Responses
// combine across devices by priority.
type SnoopResponse uint8

const (
	// RespNull: the snooper holds no copy and has nothing to say.
	RespNull SnoopResponse = iota
	// RespShared: the snooper holds a clean copy; the requester must load
	// the line in a shared state.
	RespShared
	// RespModified: the snooper holds the line modified and will intervene
	// (cache-to-cache transfer).
	RespModified
	// RespRetry: the snooper cannot process the transaction now; the
	// requester must re-issue it later.
	RespRetry
)

// String returns the response mnemonic.
func (r SnoopResponse) String() string {
	switch r {
	case RespNull:
		return "null"
	case RespShared:
		return "shared"
	case RespModified:
		return "modified"
	case RespRetry:
		return "retry"
	}
	return fmt.Sprintf("resp(%d)", uint8(r))
}

// Combine merges two snoop responses using 6xx priority:
// Retry > Modified > Shared > Null.
func Combine(a, b SnoopResponse) SnoopResponse {
	if b > a {
		return b
	}
	return a
}

// Snooper is a device attached to the bus. Snoop is called for every
// transaction whose SrcID differs from the device's own ID.
type Snooper interface {
	// BusID returns the device's bus ID; the bus suppresses self-snoops.
	// Purely passive observers (like the MemorIES board) return a negative
	// ID so that they see every transaction including those from any CPU.
	BusID() int
	// Snoop observes tx and returns this device's snoop response.
	Snoop(tx *Transaction) SnoopResponse
}

// ResponseObserver is an optional extension: devices implementing it are
// told the combined snoop response after every transaction they snooped.
// The MemorIES board uses it to drop operations that another device
// retried — §3.3: "memory operations that are rejected by other system
// bus devices are filtered out and do not take up any transaction buffer
// space".
type ResponseObserver interface {
	ObserveResponse(tx *Transaction, combined SnoopResponse)
}

// Stats aggregates bus activity. BusyCycles counts address+data tenure
// cycles; utilization is BusyCycles over total elapsed cycles, the number
// the paper reports as "2% to 20% across 2 platforms, 2 OSes, and 2
// benchmarks".
type Stats struct {
	Transactions uint64
	Retries      uint64 // transactions that received a combined Retry
	BusyCycles   uint64
	ByCommand    [numCommands]uint64
}

// Config sets the physical bus parameters.
type Config struct {
	// ClockMHz is the bus clock; the S7A's 6xx bus runs at 100 MHz.
	ClockMHz int
	// WidthBytes is the data path width per beat; the 6xx data bus is
	// 16 bytes (128 bits) wide.
	WidthBytes int
}

// DefaultConfig returns the host bus as used in the paper's case studies.
func DefaultConfig() Config { return Config{ClockMHz: 100, WidthBytes: 16} }

// Presence is an exact-negative summary of what the snoopers attached with
// AttachFiltered hold: the software twin of the snoop filter real 6xx
// machines put in front of the processors' L2 tags.
type Presence interface {
	// Holders returns one bit per filtered snooper, in AttachFiltered order
	// (snooper i is bit i%8 of byte i/8; a short or nil slice is all
	// zeros). A clear bit is a promise that the snooper's Snoop(tx) would
	// answer RespNull and change nothing, so the bus does not make the
	// call. A set bit promises nothing. The bus reads each byte before it
	// calls the snoopers in it, and a Snoop may rewrite only its own bit.
	Holders(tx *Transaction) []byte
}

// Bus is the shared 6xx memory bus. It is single-threaded by design: the
// host model issues transactions in program order per cycle, matching the
// single physical address tenure per bus clock.
type Bus struct {
	cfg   Config
	cycle uint64
	seq   uint64
	// snoopers are presented every transaction, in attach order; filtered
	// only those whose presence bit is set. Each entry carries the bus ID
	// sampled at attach, so Issue makes no BusID call.
	snoopers []device
	filtered []device
	presence Presence
	// observers caches the snoopers that implement ResponseObserver
	// (with their bus IDs) so Issue's combined-response phase is a plain
	// slice walk instead of a per-transaction interface type assertion.
	observers []observerEntry
	stats     Stats
}

type device struct {
	s  Snooper
	id int
}

// own reports whether a transaction from src is the device's own, which
// the bus does not present back to it. Negative IDs own nothing.
func (d device) own(src int) bool { return d.id >= 0 && d.id == src }

type observerEntry struct {
	ro ResponseObserver
	id int
}

// New creates a bus with the given configuration.
func New(cfg Config) *Bus {
	if cfg.ClockMHz <= 0 || cfg.WidthBytes <= 0 {
		panic("bus: invalid configuration")
	}
	return &Bus{cfg: cfg}
}

// Attach registers a snooper. Attach order determines snoop order, which
// is observable only through identical-priority response ties and thus
// does not affect results. The device's BusID is sampled here and never
// asked for again, so it must be stable for the device's lifetime (true
// of every device in this codebase: CPUs are numbered at construction,
// passive observers are fixed at -1).
func (b *Bus) Attach(s Snooper) {
	d := device{s, s.BusID()}
	b.snoopers = append(b.snoopers, d)
	b.observe(d)
}

// AttachFiltered registers snoopers behind a presence summary: each is
// presented only the transactions for which p sets its bit (position in
// ss), and none of its own; one that is a ResponseObserver is still told
// every combined response. Everything Attach says holds otherwise. A bus
// carries at most one summary, and filtered snoopers stay for its
// lifetime — their positions are the summary's columns.
func (b *Bus) AttachFiltered(p Presence, ss []Snooper) {
	if b.presence != nil {
		panic("bus: a presence summary is already installed")
	}
	b.presence = p
	for _, s := range ss {
		d := device{s, s.BusID()}
		b.filtered = append(b.filtered, d)
		b.observe(d)
	}
}

func (b *Bus) observe(d device) {
	if ro, ok := d.s.(ResponseObserver); ok {
		b.observers = append(b.observers, observerEntry{ro: ro, id: d.id})
	}
}

// Cycle returns the current bus cycle.
func (b *Bus) Cycle() uint64 { return b.cycle }

// AdvanceTo moves the bus clock forward to cycle c (idle time between
// transactions); it never moves the clock backwards.
func (b *Bus) AdvanceTo(c uint64) {
	if c > b.cycle {
		b.cycle = c
	}
}

// Stats returns a copy of the accumulated bus statistics.
func (b *Bus) Stats() Stats { return b.stats }

// Utilization returns busy cycles over total cycles so far.
func (b *Bus) Utilization() float64 {
	if b.cycle == 0 {
		return 0
	}
	return float64(b.stats.BusyCycles) / float64(b.cycle)
}

// dataBeats returns the number of data-bus beats for a transfer of size
// bytes, rounding up to whole beats.
func (b *Bus) dataBeats(size int) uint64 {
	if size <= 0 {
		return 0
	}
	return uint64((size + b.cfg.WidthBytes - 1) / b.cfg.WidthBytes)
}

// Issue places a transaction on the bus: it stamps the cycle and sequence
// number, presents the address tenure to every snooper that may react —
// the filtered ones the presence summary names, then all the others —
// combines their responses, and advances the clock over the address and
// (unless retried) data tenures. The caller owns re-issue on RespRetry; a
// re-issue consults the summary again, as it re-probed every cache before.
func (b *Bus) Issue(tx *Transaction) SnoopResponse {
	tx.Seq = b.seq
	b.seq++
	tx.Cycle = b.cycle

	resp := RespNull
	if b.presence != nil {
		for i, m := range b.presence.Holders(tx) {
			for ; m != 0; m &= m - 1 {
				if d := b.filtered[i<<3|bits.TrailingZeros8(m)]; !d.own(tx.SrcID) {
					resp = Combine(resp, d.s.Snoop(tx))
				}
			}
		}
	}
	for _, d := range b.snoopers {
		if !d.own(tx.SrcID) {
			resp = Combine(resp, d.s.Snoop(tx))
		}
	}
	// Combined-response phase: every participating device sees the
	// outcome.
	for _, o := range b.observers {
		if o.id >= 0 && o.id == tx.SrcID {
			continue
		}
		o.ro.ObserveResponse(tx, resp)
	}

	b.stats.Transactions++
	b.stats.ByCommand[tx.Cmd]++

	// Address tenure always costs one cycle.
	busy := uint64(1)
	if resp == RespRetry {
		b.stats.Retries++
	} else if tx.Cmd.CarriesData() {
		busy += b.dataBeats(tx.Size)
	}
	b.stats.BusyCycles += busy
	b.cycle += busy
	return resp
}

// IssueAt advances the bus clock to cycle (if it is ahead of the current
// clock) and issues tx. It is the event-ordered arbitration entry point
// for the discrete-event host: actors compute the absolute bus cycle of
// their next bus-visible event and the scheduler calls IssueAt in
// (cycle, cpuID) pop order, so the clock only moves forward. An actor
// whose scheduled cycle has already passed — the bus was busy with an
// earlier tenure — contends and issues at the current, later cycle,
// which is exactly bus arbitration.
func (b *Bus) IssueAt(cycle uint64, tx *Transaction) SnoopResponse {
	b.AdvanceTo(cycle)
	return b.Issue(tx)
}
