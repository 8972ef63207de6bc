package tracefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// errV1 is what every reader but ConvertV1 answers a version-1 trace
// with, wherever the trace comes from.
var errV1 = errors.New("tracefile: MIES0001 is the retired version-1 trace format; " +
	"rewrite it with go run ./cmd/tracegen convert OLD NEW")

// checkMagic is the one test of a trace's 8-byte magic: nil for
// MIES0002, errV1 for MIES0001, a bad-magic error for anything else.
func checkMagic(magic []byte) error {
	switch string(magic) {
	case MagicV2:
		return nil
	case Magic:
		return errV1
	}
	return fmt.Errorf("tracefile: bad magic %q", string(magic))
}

// readMagic consumes the file magic from br and checks it.
func readMagic(br *bufio.Reader) error {
	var head [len(MagicV2)]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return fmt.Errorf("tracefile: reading magic: %w", err)
	}
	return checkMagic(head[:])
}

// Open checks the v2 magic and returns a streaming reader for the
// blocks after it: the one way to construct a reader.
func Open(r io.Reader) (*V2Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if err := readMagic(br); err != nil {
		return nil, err
	}
	return &V2Reader{br: br}, nil
}

// appendBlock is the step of AppendRecords' walk: it checks and decodes
// the block at the head of data (bytes past the magic, at a block
// boundary) in place, its payload a slice of data rather than a copy,
// appends the block's records to dst, and returns the bytes after the
// block. On error dst comes back as it came in.
func appendBlock(dst []Record, data []byte) ([]Record, []byte, error) {
	if len(data) < blockHeaderSize {
		return dst, data, errTornHeader
	}
	count, plen, crc, err := parseBlockHeader(data)
	if err != nil {
		return dst, data, err
	}
	data = data[blockHeaderSize:]
	if len(data) < plen {
		return dst, data, errTornPayload
	}
	dst, err = decodeChecked(data[:plen], count, crc, dst)
	return dst, data[plen:], err
}

// AppendRecords decodes a whole in-memory v2 trace, magic included, and
// appends its records to dst: Open's counterpart for bytes already in
// memory, such as a request body. Blocks are walked in place
// (appendBlock), so decoding into a dst with room for the records
// allocates nothing, and the records do not alias body. On error it
// returns dst extended by only the whole blocks before the bad one,
// which are the records ForEachBatch delivers before it fails on the
// same bytes.
func AppendRecords(dst []Record, body []byte) ([]Record, error) {
	if len(body) < len(MagicV2) {
		return dst, fmt.Errorf("tracefile: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if err := checkMagic(body[:len(MagicV2)]); err != nil {
		return dst, err
	}
	for data := body[len(MagicV2):]; len(data) > 0; {
		var err error
		if dst, data, err = appendBlock(dst, data); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// ConvertV1 streams a version-1 trace from r into w in constant memory,
// returning how many records it wrote. It is the only reader of that
// format: the magic "MIES0001", then each record Packed into 8
// little-endian bytes. A torn final record is an error after every
// whole record before it has been written. It does not Flush w; the
// caller owns finalization.
func ConvertV1(w *V2Writer, r io.Reader) (uint64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	switch err := readMagic(br); {
	case err == nil:
		return 0, errors.New("tracefile: already a version-2 (MIES0002) trace")
	case !errors.Is(err, errV1):
		return 0, err
	}
	var n uint64
	var word [RecordSize]byte
	for {
		if _, err := io.ReadFull(br, word[:]); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, fmt.Errorf("tracefile: torn record after %d: %w", n, err)
		}
		if err := w.Write(Unpack(binary.LittleEndian.Uint64(word[:]))); err != nil {
			return n, err
		}
		n++
	}
}
