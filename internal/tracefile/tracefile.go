// Package tracefile implements the bus-trace format used by the MemorIES
// board's trace-collection mode. Paper §2.3: "The current revision of the
// MemorIES board is capable of collecting traces containing up to 1
// billion 8-byte wide bus references at a time", later dumped to disk on
// the console machine for off-line analysis; cmd/tracegen streams the
// board's snoop tracer into a file instead.
//
// In the original fixed-width file format each reference is packed into
// exactly 8 bytes:
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
