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
