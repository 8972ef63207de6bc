package tracefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"memories/internal/bus"
)

// collect appends emitted batches into one flat slice (copying, since
// batch slices are reused between emit calls).
func collect(out *[]Record) func([]Record) error {
	return func(batch []Record) error {
		*out = append(*out, batch...)
		return nil
	}
}

// writeTempTrace writes raw trace bytes to a file in t.TempDir.
func writeTempTrace(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.mies")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestForEachBatchFileMatchesReader: the mapped path and the streaming
// reader deliver the identical record stream for a v2 file, at several
// block sizes.
func TestForEachBatchFileMatchesReader(t *testing.T) {
	recs := testRecords(10_000, 42)
	for _, blockRecords := range []int{16, 512, 4096} {
		data := writeV2(t, recs, blockRecords)
		path := writeTempTrace(t, data)
		var viaReader, viaFile []Record
		rn, err := ForEachBatch(bytes.NewReader(data), 0, collect(&viaReader))
		if err != nil {
			t.Fatal(err)
		}
		fn, err := ForEachBatchFile(path, 0, collect(&viaFile))
		if err != nil {
			t.Fatalf("block=%d: %v", blockRecords, err)
		}
		if rn != fn || len(viaReader) != len(viaFile) {
			t.Fatalf("block=%d: reader %d recs, mapped %d", blockRecords, rn, fn)
		}
		for i := range viaReader {
			if viaReader[i] != viaFile[i] {
				t.Fatalf("block=%d: record %d = %+v, reader %+v", blockRecords, i, viaFile[i], viaReader[i])
			}
		}
	}
}

// TestForEachBatchFileV1Fallback: a hand-packed v1 file through
// ForEachBatchFile takes the reader path (wrong magic for in-place
// decode) and still yields the full stream.
func TestForEachBatchFileV1Fallback(t *testing.T) {
	recs := []Record{
		{Addr: 0x1000, Cmd: bus.Read, SrcID: 1},
		{Addr: 0x2000, Cmd: bus.RWITM, SrcID: 2},
		{Addr: 0x3000, Cmd: bus.Castout, SrcID: 3},
	}
	path := writeTempTrace(t, packV1(t, recs))
	var got []Record
	n, err := ForEachBatchFile(path, 0, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != len(recs) || len(got) != len(recs) {
		t.Fatalf("delivered %d records, want %d", n, len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestForEachBatchFileForcedFallback is the forced-fallback proof: with
// the mmap path disabled (emulating an mmap-less platform or a failed
// map), ForEachBatchFile must deliver the identical stream through the
// streaming reader.
func TestForEachBatchFileForcedFallback(t *testing.T) {
	recs := testRecords(5_000, 99)
	data := writeV2(t, recs, 256)
	path := writeTempTrace(t, data)

	var mapped []Record
	if _, err := ForEachBatchFile(path, 0, collect(&mapped)); err != nil {
		t.Fatal(err)
	}

	mmapForceFallback = true
	defer func() { mmapForceFallback = false }()
	var fallback []Record
	n, err := ForEachBatchFile(path, 0, collect(&fallback))
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != len(recs) || len(fallback) != len(mapped) {
		t.Fatalf("fallback delivered %d records, mapped path %d", len(fallback), len(mapped))
	}
	for i := range mapped {
		if fallback[i] != mapped[i] {
			t.Fatalf("record %d = %+v via fallback, %+v via mmap", i, fallback[i], mapped[i])
		}
	}
}

// TestV2MappedCorruptionParity: a CRC flip, a torn header, a torn
// payload or an implausible header in block k of n must look the same
// from all four readers — V2Reader, ForEachBatch, ForEachBatchFile,
// AppendRecords:
// exactly the records of blocks < k, then the same class of error. No
// reader hands out part of the bad block, and nothing else (a window, a
// flag) decides how much precedes the error.
func TestV2MappedCorruptionParity(t *testing.T) {
	const block, n = 128, 16
	recs := testRecords(block*n, 7)
	good := writeV2(t, recs, block)
	// starts[k] is the file offset of block k's header.
	var starts []int
	for off := len(MagicV2); off < len(good); {
		starts = append(starts, off)
		off += blockHeaderSize + int(binary.LittleEndian.Uint32(good[off+4:]))
	}
	if len(starts) != n {
		t.Fatalf("fixture has %d blocks, want %d", len(starts), n)
	}
	mutations := []struct {
		name string
		want error
		mut  func(b []byte, k int) []byte
	}{
		{"CRC flip", ErrCorrupt, func(b []byte, k int) []byte {
			b[starts[k]+blockHeaderSize+7] ^= 0x40
			return b
		}},
		{"torn header", io.ErrUnexpectedEOF, func(b []byte, k int) []byte {
			return b[:starts[k]+5]
		}},
		{"torn payload", io.ErrUnexpectedEOF, func(b []byte, k int) []byte {
			return b[:starts[k]+blockHeaderSize+20]
		}},
		{"implausible header", ErrCorrupt, func(b []byte, k int) []byte {
			binary.LittleEndian.PutUint32(b[starts[k]:], maxBlockRecords+1)
			return b
		}},
	}
	sides := []struct {
		name string
		read func(data []byte, out *[]Record) error
	}{
		{"V2Reader", func(data []byte, out *[]Record) error {
			r, err := Open(bytes.NewReader(data))
			for err == nil {
				var rec Record
				if rec, err = r.Next(); err == nil {
					*out = append(*out, rec)
				}
			}
			return err
		}},
		{"ForEachBatch", func(data []byte, out *[]Record) error {
			_, err := ForEachBatch(bytes.NewReader(data), 0, collect(out))
			return err
		}},
		{"ForEachBatchFile", func(data []byte, out *[]Record) error {
			_, err := ForEachBatchFile(writeTempTrace(t, data), 0, collect(out))
			return err
		}},
		{"AppendRecords", func(data []byte, out *[]Record) error {
			var err error
			*out, err = AppendRecords(*out, data)
			return err
		}},
	}
	for _, m := range mutations {
		for _, k := range []int{0, 5, n - 1} {
			data := m.mut(append([]byte(nil), good...), k)
			for _, side := range sides {
				var got []Record
				err := side.read(data, &got)
				if !errors.Is(err, m.want) {
					t.Fatalf("%s in block %d, %s: error %v, want %v", m.name, k, side.name, err, m.want)
				}
				if len(got) != k*block {
					t.Fatalf("%s in block %d, %s: %d records delivered, want %d", m.name, k, side.name, len(got), k*block)
				}
				for i := range got {
					if got[i] != recs[i] {
						t.Fatalf("%s in block %d, %s: record %d = %+v, want %+v", m.name, k, side.name, i, got[i], recs[i])
					}
				}
			}
		}
	}
}

// FuzzV2MmapDecode feeds arbitrary bytes behind either magic (v2 when
// the bool is set, v1 otherwise) to the three walkers of an untrusted
// trace: the mapped file (ForEachBatchFile, which falls back to the
// stream for v1), the stream (ForEachBatch) and the in-memory body
// (AppendRecords). None may panic; all three must agree on success vs
// failure and on the records delivered, including any prefix before an
// error.
func FuzzV2MmapDecode(f *testing.F) {
	f.Add(true, []byte{})
	var valid bytes.Buffer
	if w, err := NewV2WriterBlock(&valid, 16); err == nil {
		for _, r := range testRecords(100, 3) {
			if err := w.Write(r); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(true, valid.Bytes()[len(MagicV2):])
	f.Add(true, []byte("\x01\x00\x00\x00\x02\x00\x00\x00\xff\xff\xff\xff\x13\x00"))
	f.Add(true, bytes.Repeat([]byte{0xFF}, 40))
	f.Add(true, []byte("short"))
	v1 := packV1(f, testRecords(20, 5))[len(Magic):]
	f.Add(false, []byte{})
	f.Add(false, v1)
	f.Add(false, v1[:len(v1)-3])

	f.Fuzz(func(t *testing.T, v2 bool, data []byte) {
		magic := Magic
		if v2 {
			magic = MagicV2
		}
		body := append([]byte(magic), data...)
		var mapped, streamed []Record
		mn, merr := ForEachBatchFile(writeTempTrace(t, body), 0, collect(&mapped))
		sn, serr := ForEachBatch(bytes.NewReader(body), 0, collect(&streamed))
		appended, aerr := AppendRecords(nil, body)
		if (merr == nil) != (serr == nil) || (aerr == nil) != (serr == nil) {
			t.Fatalf("mapped err %v, reader err %v, AppendRecords err %v", merr, serr, aerr)
		}
		if mn != sn || len(mapped) != len(streamed) || len(appended) != len(streamed) {
			t.Fatalf("mapped %d records, reader %d, AppendRecords %d", mn, sn, len(appended))
		}
		for i := range streamed {
			if mapped[i] != streamed[i] || appended[i] != streamed[i] {
				t.Fatalf("record %d = %+v mapped, %+v reader, %+v appended", i, mapped[i], streamed[i], appended[i])
			}
		}
	})
}
