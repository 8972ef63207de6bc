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
// A version-1 file is the 8-byte magic "MIES0001" followed by
// little-endian records. It is read-only here: every reader accepts it
// (Open, ForEachBatch, AppendRecords), every writer produces the
// block-framed, delta-compressed version 2 (v2.go), and `tracegen
// convert` rewrites an old file.
package tracefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"memories/internal/bus"
)

// Magic identifies a MemorIES trace file (format version 1).
const Magic = "MIES0001"

// RecordSize is the on-disk size of one bus reference.
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

// Reader streams version-1 trace records from an io.Reader.
type Reader struct {
	br    *bufio.Reader
	count uint64
	buf   [RecordSize]byte
}

// Next returns the next record, or io.EOF after the last one. A torn final
// record yields io.ErrUnexpectedEOF.
func (r *Reader) Next() (Record, error) {
	if _, err := io.ReadFull(r.br, r.buf[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("tracefile: torn record after %d: %w", r.count, err)
	}
	r.count++
	return Unpack(binary.LittleEndian.Uint64(r.buf[:])), nil
}

// appendV1 unpacks the whole v1 records in raw onto dst. A torn tail
// (fewer than RecordSize bytes) is left for the caller to report.
func appendV1(dst []Record, raw []byte) []Record {
	dst = slices.Grow(dst, len(raw)/RecordSize)
	for ; len(raw) >= RecordSize; raw = raw[RecordSize:] {
		dst = append(dst, Unpack(binary.LittleEndian.Uint64(raw)))
	}
	return dst
}

// errTornV1 reports a v1 stream that ends inside the record after the
// first n.
func errTornV1(n uint64) error {
	return fmt.Errorf("tracefile: torn record after %d: %w", n, io.ErrUnexpectedEOF)
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
