package tracefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"memories/internal/bus"
)

// fuzzRecords deterministically maps arbitrary fuzz bytes onto a valid
// record stream: 10 bytes per record — 8 address bytes (masked aligned
// and in range), one command, one source ID. Both escape paths (cmd >
// 14, src > 15) are reachable.
func fuzzRecords(data []byte) []Record {
	var recs []Record
	for len(data) >= 10 {
		addr := binary.LittleEndian.Uint64(data) % MaxAddr &^ 7
		recs = append(recs, Record{
			Addr:  addr,
			Cmd:   bus.Command(data[8]),
			SrcID: data[9],
		})
		data = data[10:]
	}
	return recs
}

// FuzzRoundTripV2 exercises the v2 block codec from both directions:
// any record stream derived from the input must survive an encode/
// decode round trip bit-identically (and match what v1 says about the
// same records), and the raw input bytes themselves, framed as a v2
// file body, must never panic the reader — only return an error.
func FuzzRoundTripV2(f *testing.F) {
	// Seed corpus: empty, single record, a sequential burst, escape
	// commands/sources, max-address and zero-address edges, and raw
	// garbage for the decoder direction.
	f.Add([]byte{})
	f.Add([]byte{8, 0, 0, 0, 0, 0, 0, 0, 1, 2})
	seq := make([]byte, 0, 100)
	for i := 0; i < 10; i++ {
		var rec [10]byte
		binary.LittleEndian.PutUint64(rec[:8], uint64(0x1000+i*64))
		rec[8], rec[9] = 0, 3
		seq = append(seq, rec[:]...)
	}
	f.Add(seq)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255}) // both escapes
	maxRec := make([]byte, 10)
	binary.LittleEndian.PutUint64(maxRec, MaxAddr-8)
	f.Add(maxRec)
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("MIES0002 not a real block"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: encode/decode round trip over derived records,
		// with a small block size so multi-block paths are hot.
		recs := fuzzRecords(data)
		var buf bytes.Buffer
		w, err := NewV2WriterBlock(&buf, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			// Cross-check against the v1 packer: any record v2 accepts,
			// v1 must accept, and vice versa.
			_, v1err := r.Pack()
			if err := w.Write(r); (err == nil) != (v1err == nil) {
				t.Fatalf("v1/v2 accept disagree for %+v: v1=%v v2=%v", r, v1err, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range recs {
			got, err := r.Next()
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if got != want {
				t.Fatalf("record %d = %+v, want %+v", i, got, want)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("after %d records: %v, want EOF", len(recs), err)
		}

		// Direction 2: the raw fuzz input as an untrusted v2 body must
		// never panic — torn, corrupt, or implausible blocks are errors.
		body := append([]byte(MagicV2), data...)
		ur, err := Open(bytes.NewReader(body))
		if err != nil {
			return
		}
		for {
			if _, err := ur.Next(); err != nil {
				break
			}
		}
		// Same body through the batch path.
		_, _ = ForEachBatch(bytes.NewReader(body), 0, func([]Record) error { return nil })
	})
}

// FuzzConvertV1 feeds arbitrary bytes behind the v1 magic to ConvertV1,
// the one v1 reader left. It must never panic. Every whole 8-byte word
// becomes one record, equal to Unpack of the word, and reads back
// through AppendRecords; a torn tail is an error after those records.
func FuzzConvertV1(f *testing.F) {
	f.Add([]byte{})
	words := packV1(f, testRecords(50, 9))[len(Magic):]
	f.Add(words)
	f.Add(words[:len(words)-5])
	f.Add(bytes.Repeat([]byte{0xFF}, 24))

	f.Fuzz(func(t *testing.T, data []byte) {
		v2, n, err := convertV1(t, append([]byte(Magic), data...))
		whole := len(data) / RecordSize
		if torn := len(data)%RecordSize != 0; torn != errors.Is(err, io.ErrUnexpectedEOF) || (!torn && err != nil) {
			t.Fatalf("%d bytes of records: error %v", len(data), err)
		}
		if n != uint64(whole) {
			t.Fatalf("%d bytes of records: converted %d, want %d", len(data), n, whole)
		}
		got, err := AppendRecords(nil, v2)
		if err != nil || len(got) != whole {
			t.Fatalf("read back %d records, %v; want %d", len(got), err, whole)
		}
		for i := range got {
			if want := Unpack(binary.LittleEndian.Uint64(data[i*RecordSize:])); got[i] != want {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], want)
			}
		}
	})
}
