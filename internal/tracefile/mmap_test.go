package tracefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestEveryReaderRefusesV1: every reader but ConvertV1 answers a
// v1 file — empty, whole or torn — with the one error that names
// `tracegen convert`, and delivers no record: Open, ForEachBatch,
// ForEachBatchFile on the mapped and the forced-fallback path, and
// AppendRecords.
func TestEveryReaderRefusesV1(t *testing.T) {
	whole := packV1(t, testRecords(20, 5))
	for _, data := range [][]byte{whole[:len(Magic)], whole, whole[:len(whole)-3]} {
		path := writeTempTrace(t, data)
		var got []Record
		sides := map[string]func() error{
			"Open": func() error {
				_, err := Open(bytes.NewReader(data))
				return err
			},
			"ForEachBatch": func() error {
				_, err := ForEachBatch(bytes.NewReader(data), 0, collect(&got))
				return err
			},
			"ForEachBatchFile": func() error {
				_, err := ForEachBatchFile(path, 0, collect(&got))
				return err
			},
			"ForEachBatchFile, forced fallback": func() error {
				mmapForceFallback = true
				defer func() { mmapForceFallback = false }()
				_, err := ForEachBatchFile(path, 0, collect(&got))
				return err
			},
			"AppendRecords": func() error {
				var err error
				got, err = AppendRecords(got, data)
				return err
			},
		}
		for name, read := range sides {
			if err := read(); !errors.Is(err, errV1) || len(got) != 0 {
				t.Errorf("%s, %d-byte v1 file: %d records, error %v; want none and %v", name, len(data), len(got), err, errV1)
			}
		}
	}
	if !strings.Contains(errV1.Error(), "go run ./cmd/tracegen convert OLD NEW") {
		t.Fatalf("v1 refusal %q does not name the convert command", errV1)
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

// FuzzV2MmapDecode feeds arbitrary bytes behind the v2 magic to the
// three walkers of an untrusted trace: the mapped file
// (ForEachBatchFile), the stream (ForEachBatch) and the in-memory body
// (AppendRecords). None may panic; all three must agree on success vs
// failure and on the records delivered, including any prefix before an
// error.
func FuzzV2MmapDecode(f *testing.F) {
	f.Add([]byte{})
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
	blocks := valid.Bytes()[len(MagicV2):]
	f.Add(blocks)
	f.Add([]byte("\x01\x00\x00\x00\x02\x00\x00\x00\xff\xff\xff\xff\x13\x00"))
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	f.Add([]byte("short"))
	// Packed v1 words where blocks belong, whole and torn, and a torn
	// last block.
	words := packV1(f, testRecords(20, 5))[len(Magic):]
	f.Add(words)
	f.Add(words[:len(words)-3])
	f.Add(blocks[:len(blocks)-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		body := append([]byte(MagicV2), data...)
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
