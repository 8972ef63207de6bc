package tracefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"memories/internal/bus"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(addr uint64, cmd, src uint8) bool {
		r := Record{
			Addr:  (addr % (MaxAddr >> 3)) << 3, // aligned, in range
			Cmd:   bus.Command(cmd % uint8(bus.NumCommands())),
			SrcID: src,
		}
		v, err := r.Pack()
		if err != nil {
			return false
		}
		return Unpack(v) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestPackRejectsUnaligned(t *testing.T) {
	_, err := Record{Addr: 0x1001}.Pack()
	if !errors.Is(err, ErrUnaligned) {
		t.Fatalf("err = %v, want ErrUnaligned", err)
	}
}

func TestPackRejectsHugeAddr(t *testing.T) {
	_, err := Record{Addr: MaxAddr}.Pack()
	if !errors.Is(err, ErrAddrRange) {
		t.Fatalf("err = %v, want ErrAddrRange", err)
	}
	// Largest encodable address round-trips.
	r := Record{Addr: MaxAddr - 8}
	v, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if Unpack(v).Addr != MaxAddr-8 {
		t.Fatal("max address did not round-trip")
	}
}

// packV1 hand-packs recs as a version-1 file: the magic, then each
// record's 8 little-endian bytes. Nothing writes v1 any more, so the
// tests of ConvertV1 and of every other reader's refusal build their
// bytes here.
func packV1(t testing.TB, recs []Record) []byte {
	t.Helper()
	data := []byte(Magic)
	for _, r := range recs {
		v, err := r.Pack()
		if err != nil {
			t.Fatal(err)
		}
		data = binary.LittleEndian.AppendUint64(data, v)
	}
	return data
}

// convertV1 runs data through ConvertV1 into a fresh v2 file, returning
// the flushed v2 bytes, the record count and ConvertV1's error.
func convertV1(t testing.TB, data []byte) ([]byte, uint64, error) {
	t.Helper()
	var out bytes.Buffer
	w, err := NewV2Writer(&out)
	if err != nil {
		t.Fatal(err)
	}
	n, cerr := ConvertV1(w, bytes.NewReader(data))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), n, cerr
}

// TestWriteReadFile: a hand-packed v1 file of 1 000 records is 8 bytes a
// record after the magic, and converted, it reads back record for record.
func TestWriteReadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var want []Record
	for i := 0; i < 1000; i++ {
		want = append(want, Record{
			Addr:  uint64(rng.Intn(1<<30)) &^ 7,
			Cmd:   bus.Command(rng.Intn(bus.NumCommands())),
			SrcID: uint8(rng.Intn(12)),
		})
	}
	data := packV1(t, want)
	if len(data) != len(Magic)+1000*RecordSize {
		t.Fatalf("file size = %d", len(data))
	}

	v2, n, err := convertV1(t, data)
	if err != nil || n != 1000 {
		t.Fatalf("ConvertV1: %d records, %v", n, err)
	}
	r, err := Open(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	for i, wantRec := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != wantRec {
			t.Fatalf("record %d = %+v, want %+v", i, got, wantRec)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := Open(bytes.NewReader([]byte("NOTMIES0"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Open(bytes.NewReader([]byte("MI"))); err == nil {
		t.Fatal("truncated magic accepted")
	}
}

// TestReaderTornRecord: ConvertV1, the one v1 reader left, reports a torn
// final record after writing every whole record before it.
func TestReaderTornRecord(t *testing.T) {
	data := packV1(t, []Record{{Addr: 8}, {Addr: 16, Cmd: bus.RWITM}})
	data = data[:len(data)-3] // tear the second record
	v2, n, err := convertV1(t, data)
	if !errors.Is(err, io.ErrUnexpectedEOF) || n != 1 {
		t.Fatalf("torn record: %d records, error %v; want 1 and ErrUnexpectedEOF", n, err)
	}
	if got, err := AppendRecords(nil, v2); err != nil || len(got) != 1 || got[0] != (Record{Addr: 8}) {
		t.Fatalf("records written before the tear = %+v, %v", got, err)
	}
}
