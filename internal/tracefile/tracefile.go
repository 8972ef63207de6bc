// Package tracefile implements the bus-trace format used by the MemorIES
// board's trace-collection mode. Paper §2.3: "The current revision of the
// MemorIES board is capable of collecting traces containing up to 1
// billion 8-byte wide bus references at a time", later dumped to disk on
// the console machine for off-line analysis.
//
// In memory, and in the original fixed-width file format, each reference
// is packed into exactly 8 bytes:
//
//	bits 63..16  physical address >> 3 (8-byte aligned; 48 bits => 2 PB)
//	bits 15..8   bus command
//	bits  7..0   source bus ID
//
// Files are the block-framed, delta-compressed version 2 (v2.go), which
// every writer produces. A version-1 file (the magic "MIES0001", then
// little-endian packed records) is read by ConvertV1 alone, behind
// `tracegen convert`; every other reader refuses it with an error naming
// that command.
package tracefile

import (
	"errors"
	"fmt"
	"io"

	"memories/internal/bus"
)

// Magic identifies a version-1 trace file, which only ConvertV1 reads.
const Magic = "MIES0001"

// RecordSize is the packed size of one bus reference.
const RecordSize = 8

// MaxAddr is the largest encodable address (exclusive bound).
const MaxAddr = uint64(1) << 51

// ErrUnaligned is returned when an address' low 3 bits are nonzero; the
// 6xx bus carries nothing narrower than a doubleword.
var ErrUnaligned = errors.New("tracefile: address not 8-byte aligned")

// ErrAddrRange is returned when an address exceeds the 48-bit packed field.
var ErrAddrRange = errors.New("tracefile: address out of encodable range")

// Record is one bus reference.
type Record struct {
	Addr  uint64
	Cmd   bus.Command
	SrcID uint8
}

// Pack encodes the record into its 8-byte representation.
func (r Record) Pack() (uint64, error) {
	if r.Addr&7 != 0 {
		return 0, fmt.Errorf("%w: %#x", ErrUnaligned, r.Addr)
	}
	if r.Addr >= MaxAddr {
		return 0, fmt.Errorf("%w: %#x", ErrAddrRange, r.Addr)
	}
	return (r.Addr>>3)<<16 | uint64(r.Cmd)<<8 | uint64(r.SrcID), nil
}

// Unpack decodes an 8-byte representation.
func Unpack(v uint64) Record {
	return Record{
		Addr:  (v >> 16) << 3,
		Cmd:   bus.Command(v >> 8),
		SrcID: uint8(v),
	}
}

// FromTransaction converts a bus transaction to a trace record.
func FromTransaction(tx *bus.Transaction) Record {
	src := tx.SrcID
	if src < 0 {
		src = 0
	}
	return Record{Addr: tx.Addr &^ 7, Cmd: tx.Cmd, SrcID: uint8(src)}
}

// Capture models the board's on-board trace memory: a bounded in-memory
// record buffer. Once full, further records are dropped and counted, like
// the hardware running out of its 1GB (up to 8GB) of DRAM.
type Capture struct {
	limit   int
	records []uint64
	dropped uint64
}

// NewCapture creates a capture buffer holding at most limit records.
// The board's stock configuration (1GB of SDRAM) holds 128Mi records;
// callers pick the limit that matches the emulated memory population.
func NewCapture(limit int) *Capture {
	if limit <= 0 {
		panic("tracefile: capture limit must be positive")
	}
	return &Capture{limit: limit}
}

// Add appends a record if space remains, reporting whether it was stored.
func (c *Capture) Add(r Record) (bool, error) {
	if len(c.records) >= c.limit {
		c.dropped++
		return false, nil
	}
	v, err := r.Pack()
	if err != nil {
		return false, err
	}
	c.records = append(c.records, v)
	return true, nil
}

// Len returns the number of stored records.
func (c *Capture) Len() int { return len(c.records) }

// Dropped returns how many records arrived after the buffer filled.
func (c *Capture) Dropped() uint64 { return c.dropped }

// Full reports whether the capture memory is exhausted.
func (c *Capture) Full() bool { return len(c.records) >= c.limit }

// Record returns the i-th stored record.
func (c *Capture) Record(i int) Record { return Unpack(c.records[i]) }

// Dump writes the captured trace as a version-2 file (the "dump to a
// disk in the console machine" step).
func (c *Capture) Dump(w io.Writer) error {
	tw, err := NewV2Writer(w)
	if err != nil {
		return err
	}
	for _, v := range c.records {
		if err := tw.Write(Unpack(v)); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Reset clears the capture buffer for a new collection window.
func (c *Capture) Reset() {
	c.records = c.records[:0]
	c.dropped = 0
}
