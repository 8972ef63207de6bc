package tracefile

import (
	"bufio"
	"fmt"
	"io"
)

// RecordReader is the streaming side shared by both format readers.
type RecordReader interface {
	// Next returns the next record, or io.EOF after the last one.
	Next() (Record, error)
}

// readMagic consumes and returns the 8-byte file magic.
func readMagic(br *bufio.Reader) (string, error) {
	head := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return "", fmt.Errorf("tracefile: reading magic: %w", err)
	}
	return string(head), nil
}

// Open auto-detects the trace format from the file magic and returns a
// streaming reader for it: the one way to construct a reader.
func Open(r io.Reader) (RecordReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := readMagic(br)
	if err != nil {
		return nil, err
	}
	switch magic {
	case Magic:
		return &Reader{br: br}, nil
	case MagicV2:
		return &V2Reader{br: br}, nil
	}
	return nil, fmt.Errorf("tracefile: bad magic %q", magic)
}

// AppendRecords decodes a whole in-memory trace of either format, magic
// included, and appends its records to dst: Open's counterpart for bytes
// already in memory, such as a request body. V2 blocks are walked in
// place (appendBlock), so decoding into a dst with room
// for the records allocates nothing, and the records do not alias body.
// On error it returns dst extended by only the whole blocks before the
// bad one — a v1 record is its own block — which are the records
// ForEachBatch delivers before it fails on the same bytes.
func AppendRecords(dst []Record, body []byte) ([]Record, error) {
	if len(body) < len(Magic) {
		return dst, fmt.Errorf("tracefile: reading magic: %w", io.ErrUnexpectedEOF)
	}
	magic, data := body[:len(Magic)], body[len(Magic):]
	switch string(magic) {
	case Magic:
		dst = appendV1(dst, data)
		if len(data)%RecordSize != 0 {
			return dst, errTornV1(uint64(len(data) / RecordSize))
		}
		return dst, nil
	case MagicV2:
		for len(data) > 0 {
			var err error
			if dst, data, err = appendBlock(dst, data); err != nil {
				return dst, err
			}
		}
		return dst, nil
	}
	return dst, fmt.Errorf("tracefile: bad magic %q", magic)
}

// CopyRecords streams every record from r into w, returning how many
// were copied. It does not Flush w; the caller owns finalization.
func CopyRecords(w *V2Writer, r RecordReader) (uint64, error) {
	var n uint64
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := w.Write(rec); err != nil {
			return n, err
		}
		n++
	}
}
