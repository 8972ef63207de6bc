package tracefile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memories/internal/bus"
)

// testRecords builds a trace mixing bursty spatial locality (small
// deltas, the case v2 compresses) with far jumps, backward deltas, and
// escape-path records (cmd > 14 or src > 15).
func testRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, 0, n)
	addr := uint64(1) << 20
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0: // far jump
			addr = uint64(rng.Int63n(int64(MaxAddr>>3))) << 3
		case 1: // backward step
			if addr >= 4096 {
				addr -= uint64(rng.Intn(512)) * 8
			}
		default: // sequential-ish burst
			addr += uint64(rng.Intn(16)) * 8
		}
		if addr >= MaxAddr {
			addr = MaxAddr - 8
		}
		r := Record{
			Addr:  addr &^ 7,
			Cmd:   bus.Command(rng.Intn(bus.NumCommands())),
			SrcID: uint8(rng.Intn(12)),
		}
		if rng.Intn(20) == 0 { // escape path: src out of packed range
			r.SrcID = uint8(16 + rng.Intn(240))
		}
		if rng.Intn(20) == 0 { // escape path: cmd out of packed range
			r.Cmd = bus.Command(15 + rng.Intn(241))
		}
		recs = append(recs, r)
	}
	return recs
}

func writeV2(t *testing.T, recs []Record, blockRecords int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewV2WriterBlock(&buf, blockRecords)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readAll(t *testing.T, r *V2Reader) []Record {
	t.Helper()
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

func TestV2RoundTrip(t *testing.T) {
	want := testRecords(10000, 7)
	data := writeV2(t, want, 512)
	r, err := Open(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r)
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestV2MatchesV1 proves conversion is lossless: the same record stream
// hand-packed as v1 and converted reads back equal, record for record,
// and the v2 file is under half the v1 file's size.
func TestV2MatchesV1(t *testing.T) {
	recs := testRecords(5000, 13)
	v1data := packV1(t, recs)
	v2data, n, err := convertV1(t, v1data)
	if err != nil || n != uint64(len(recs)) {
		t.Fatalf("ConvertV1: %d records, %v", n, err)
	}
	r, err := Open(bytes.NewReader(v2data))
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r)
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: converted %+v, v1 %+v", i, got[i], recs[i])
		}
	}

	// The compression claim: on this bursty trace, v2 should beat v1's
	// fixed 8 bytes/record by a wide margin.
	if len(v2data)*2 > len(v1data) {
		t.Fatalf("v2 size %d not < half of v1 size %d", len(v2data), len(v1data))
	}
}

func TestV2WriterRejectsBadRecords(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewV2Writer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{Addr: 0x1001}); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned: err = %v", err)
	}
	if err := w.Write(Record{Addr: MaxAddr}); !errors.Is(err, ErrAddrRange) {
		t.Fatalf("out of range: err = %v", err)
	}
	if _, err := NewV2WriterBlock(&buf, 0); err == nil {
		t.Fatal("block size 0 accepted")
	}
	if _, err := NewV2WriterBlock(&buf, maxBlockRecords+1); err == nil {
		t.Fatal("oversized block accepted")
	}
}

func TestV2TruncatedBlock(t *testing.T) {
	data := writeV2(t, testRecords(100, 3), 64)

	// Torn payload: cut mid-block.
	r, err := Open(bytes.NewReader(data[:len(data)-5]))
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for {
		if _, lastErr = r.Next(); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, io.ErrUnexpectedEOF) {
		t.Fatalf("torn payload error = %v, want ErrUnexpectedEOF", lastErr)
	}

	// Torn header: cut inside the second block's 12-byte header.
	hdrEnd := len(MagicV2) + blockHeaderSize
	r, err = Open(bytes.NewReader(data[:hdrEnd-4]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn header error = %v, want ErrUnexpectedEOF", err)
	}

	// Clean EOF at a block boundary is NOT an error.
	r, err = Open(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r); len(got) != 100 {
		t.Fatalf("clean read got %d records", len(got))
	}
}

func TestV2CorruptCRC(t *testing.T) {
	data := writeV2(t, testRecords(100, 5), 64)

	// Flip one payload bit: CRC catches it.
	mut := append([]byte(nil), data...)
	mut[len(MagicV2)+blockHeaderSize+3] ^= 0x40
	r, err := Open(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped bit error = %v, want ErrCorrupt", err)
	}

	// Implausible header (count way beyond payload) is rejected before
	// any allocation.
	mut = append([]byte(nil), data...)
	mut[len(MagicV2)] = 0xFF
	mut[len(MagicV2)+1] = 0xFF
	mut[len(MagicV2)+2] = 0xFF
	r, err = Open(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("implausible header error = %v, want ErrCorrupt", err)
	}
}

func TestOpenRejectsBadMagic(t *testing.T) {
	if _, err := Open(bytes.NewReader([]byte("MIES9999"))); err == nil {
		t.Fatal("unknown magic accepted")
	}
	if _, err := Open(bytes.NewReader([]byte("MI"))); err == nil {
		t.Fatal("truncated magic accepted")
	}
}

// TestConvertV1MatchesWriter drives the tracegen-convert path: a v1 file
// through ConvertV1 into a V2Writer yields the file the same records
// written directly would, and the writer's count agrees. A v2 input is
// refused as already converted, and a foreign one by its magic.
func TestConvertV1MatchesWriter(t *testing.T) {
	recs := testRecords(3000, 29)
	v2data, n, err := convertV1(t, packV1(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(recs)) {
		t.Fatalf("converted %d, want %d", n, len(recs))
	}
	if !bytes.Equal(v2data, writeV2(t, recs, DefaultBlockRecords)) {
		t.Fatal("converted file differs from the same records written directly")
	}

	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"v2 input", "already a version-2", v2data},
		{"foreign magic", "bad magic", []byte("MIES9999\x00\x00\x00\x00\x00\x00\x00\x00")},
		{"torn magic", "reading magic", []byte("MIES")},
	} {
		out, n, err := convertV1(t, tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) || n != 0 || len(out) != len(MagicV2) {
			t.Errorf("%s: %d records, %d bytes out, error %v; want none and %q", tc.name, n, len(out), err, tc.want)
		}
	}
}

// TestForEachBatchMatchesSerial proves batch delivery is in file order
// and record-identical to the written stream.
func TestForEachBatchMatchesSerial(t *testing.T) {
	want := testRecords(9000, 17)
	data := writeV2(t, want, 700) // odd block size: the final block is partial
	var got []Record
	n, err := ForEachBatch(bytes.NewReader(data), 0, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(want)) || len(got) != len(want) {
		t.Fatalf("delivered %d/%d records", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestForEachBatchPropagatesErrors(t *testing.T) {
	data := writeV2(t, testRecords(100, 23), 32)
	sentinel := errors.New("stop")
	_, err := ForEachBatch(bytes.NewReader(data), 0, func([]Record) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("emit error = %v", err)
	}
	mut := append([]byte(nil), data...)
	mut[len(MagicV2)+blockHeaderSize] ^= 1
	_, err = ForEachBatch(bytes.NewReader(mut), 0, func([]Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt block error = %v", err)
	}
	if _, err := ForEachBatch(bytes.NewReader([]byte("MIESXXXX")), 0, nil); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// encodeV2 runs recs through EncodeV2Blocks, one batch (so one block)
// per `block` records.
func encodeV2(t *testing.T, recs []Record, block int) []byte {
	t.Helper()
	total := uint64(len(recs))
	var buf bytes.Buffer
	n, err := EncodeV2Blocks(&buf, 0, func() []Record {
		if len(recs) == 0 {
			return nil
		}
		b := recs[:min(block, len(recs))]
		recs = recs[len(b):]
		return b
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("EncodeV2Blocks wrote %d of %d records", n, total)
	}
	return buf.Bytes()
}

// TestEncodeV2BlocksDeterministic proves the batch encoder's output is
// byte-identical to the V2Writer's at the same block size: both frame
// through V2Writer.seal, and a partial final block is no exception.
func TestEncodeV2BlocksDeterministic(t *testing.T) {
	recs := testRecords(5000, 29)
	const block = 512
	if !bytes.Equal(encodeV2(t, recs, block), writeV2(t, recs, block)) {
		t.Fatal("EncodeV2Blocks output differs from V2Writer")
	}
}

// TestV2EncodingPins freezes the on-disk v2 format: one seeded 200 k
// record stream through both encoders, hashed. The digests were
// recorded on the parent commit, before the block framer was unified,
// so a change here moves every stored trace and bench's
// tracefile.bytes_per_rec.
func TestV2EncodingPins(t *testing.T) {
	recs := testRecords(200_000, 23)
	for _, tc := range []struct {
		name string
		data []byte
		sha  string
	}{
		{"V2Writer/block=4096", writeV2(t, recs, DefaultBlockRecords),
			"ffdb3e0a16801de8cbce20b642a562db01c4cca2251d112003c9b5f20639c994"},
		{"EncodeV2Blocks/batch=65536", encodeV2(t, recs, 1<<16),
			"57f765d6cd526b1f5a64f6278d164cb3dc0d053fc99e5b4926f276708f255ccb"},
	} {
		sum := sha256.Sum256(tc.data)
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%s: sha256 = %s, want %s", tc.name, got, tc.sha)
		}
	}
}

func TestEncodeV2BlocksRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	big := make([]Record, maxBlockRecords+1)
	done := false
	_, err := EncodeV2Blocks(&buf, 0, func() []Record {
		if done {
			return nil
		}
		done = true
		return big
	})
	if err == nil {
		t.Fatal("oversized batch accepted")
	}
	done = false
	_, err = EncodeV2Blocks(&buf, 0, func() []Record {
		if done {
			return nil
		}
		done = true
		return []Record{{Addr: 3}}
	})
	if !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned record error = %v", err)
	}
}

// TestV2WriteAllocFree asserts the v2 hot write path is allocation-free
// at steady state (ISSUE 3 acceptance criterion), record by record
// through V2Writer and batch by batch through EncodeV2Blocks.
func TestV2WriteAllocFree(t *testing.T) {
	w, err := NewV2WriterBlock(io.Discard, 256)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Addr: 0x1000, Cmd: bus.Read, SrcID: 3}
	// Warm up past buffer growth: several full blocks.
	for i := 0; i < 2048; i++ {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		rec.Addr += 64
	}
	// One run is one whole block, so the seal is inside every run and a
	// single allocation per block cannot round down to zero.
	allocs := testing.AllocsPerRun(64, func() {
		for i := 0; i < 256; i++ {
			rec.Addr += 64
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("V2Writer allocates %.2f per block, want 0", allocs)
	}

	// EncodeV2Blocks: what one call allocates may not grow with the number
	// of batches it frames.
	recs := strideRecords(1 << 16)
	perCall := func(batches int) float64 {
		return testing.AllocsPerRun(5, func() {
			i := 0
			_, err := EncodeV2Blocks(io.Discard, 0, func() []Record {
				if i == batches {
					return nil
				}
				i++
				return recs[(i-1)*256 : i*256]
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := perCall(32), perCall(256); few != many {
		t.Fatalf("EncodeV2Blocks: %.0f allocs for 32 batches, %.0f for 256; want equal", few, many)
	}
}

// strideRecords returns n records at a constant 64-byte stride: every
// record encodes to the same width, so every block payload has the same
// size and reused frame and record slabs never regrow mid-stream.
func strideRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Addr: uint64(i) * 64, Cmd: bus.Read, SrcID: 3}
	}
	return recs
}

// TestV2ReadAllocFree asserts the v2 hot read path is allocation-free at
// steady state: per record through V2Reader.Next, per body through
// AppendRecords, and per block through ForEachBatch and ForEachBatchFile.
func TestV2ReadAllocFree(t *testing.T) {
	recs := strideRecords(1 << 16)
	data := writeV2(t, recs, 256)
	r, err := Open(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: a few blocks settle the slab capacities.
	for i := 0; i < 2048; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	// One run is one whole block, so loadBlock is inside every run.
	allocs := testing.AllocsPerRun(64, func() {
		for i := 0; i < 256; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("V2Reader allocates %.2f per block, want 0", allocs)
	}

	// The in-memory body decoder, into a slab already grown to the body:
	// what the session service does with every trace POST.
	dst := make([]Record, 0, len(recs))
	allocs = testing.AllocsPerRun(16, func() {
		var err error
		if dst, err = AppendRecords(dst[:0], data); err != nil || len(dst) != len(recs) {
			t.Fatalf("AppendRecords: %d records, %v", len(dst), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendRecords allocates %.2f per body, want 0", allocs)
	}

	// The batch walkers: what one call allocates (reader, frame, slab) may
	// not grow with the number of blocks it delivers.
	short, long := writeV2(t, recs[:32*256], 256), data
	drop := func([]Record) error { return nil }
	for _, side := range []struct {
		name string
		walk func(data []byte, path string) (uint64, error)
	}{
		{"ForEachBatch", func(data []byte, _ string) (uint64, error) {
			return ForEachBatch(bytes.NewReader(data), 0, drop)
		}},
		{"ForEachBatchFile", func(_ []byte, path string) (uint64, error) {
			return ForEachBatchFile(path, 0, drop)
		}},
	} {
		perCall := func(data []byte) float64 {
			path := writeTempTrace(t, data)
			return testing.AllocsPerRun(5, func() {
				if _, err := side.walk(data, path); err != nil {
					t.Fatal(err)
				}
			})
		}
		if few, many := perCall(short), perCall(long); few != many {
			t.Fatalf("%s: %.0f allocs for 32 blocks, %.0f for 256; want equal", side.name, few, many)
		}
	}
}

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

// TestForEachBatchFileMatchesReader: a v2 file read by name and the same
// bytes streamed from memory deliver the identical record stream, at
// several block sizes.
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
			t.Fatalf("block=%d: reader %d recs, file %d", blockRecords, rn, fn)
		}
		for i := range viaReader {
			if viaReader[i] != viaFile[i] {
				t.Fatalf("block=%d: record %d = %+v, reader %+v", blockRecords, i, viaFile[i], viaReader[i])
			}
		}
	}
}

// TestForEachBatchFileTruncatedWhileRead: a trace file cut short while
// ForEachBatchFile is inside its first emit ends in a torn-block error
// (io.ErrUnexpectedEOF) after exactly the whole blocks emitted before
// the cut, whether the cut leaves nothing or ends mid-way through the
// third of four blocks. Blocks of 64 Ki records are larger than half the
// reader's buffer, so the second block is never whole in memory when the
// file is cut.
func TestForEachBatchFileTruncatedWhileRead(t *testing.T) {
	const block = 1 << 16
	recs := testRecords(4*block, 11)
	data := writeV2(t, recs, block)
	third := len(MagicV2) // block 2's header: whole blocks 0 and 1 precede it
	for k := 0; k < 2; k++ {
		third += blockHeaderSize + int(binary.LittleEndian.Uint32(data[third+4:]))
	}
	for _, c := range []struct {
		cut    int64
		blocks int
	}{{0, 1}, {int64(third + blockHeaderSize + 1000), 2}} {
		cut := c.cut
		path := writeTempTrace(t, data)
		var got []Record
		n, err := ForEachBatchFile(path, 0, func(batch []Record) error {
			if len(got) == 0 {
				if err := os.Truncate(path, cut); err != nil {
					t.Fatal(err)
				}
			}
			if len(batch) != block {
				t.Fatalf("cut to %d: a batch of %d records, want whole blocks of %d", cut, len(batch), block)
			}
			got = append(got, batch...)
			return nil
		})
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut to %d: error %v, want %v", cut, err, io.ErrUnexpectedEOF)
		}
		if len(got) != c.blocks*block || n != uint64(len(got)) {
			t.Fatalf("cut to %d: %d records delivered, %d counted; want %d", cut, len(got), n, c.blocks*block)
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("cut to %d: record %d = %+v, want %+v", cut, i, got[i], recs[i])
			}
		}
	}
}

// TestEveryReaderRefusesV1: every reader but ConvertV1 answers a
// v1 file — empty, whole or torn — with the one error that names
// `tracegen convert`, and delivers no record: Open, ForEachBatch,
// ForEachBatchFile and AppendRecords.
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

// TestV2CorruptionParity: a CRC flip, a torn header, a torn
// payload or an implausible header in block k of n must look the same
// from all four readers — V2Reader, ForEachBatch, ForEachBatchFile,
// AppendRecords:
// exactly the records of blocks < k, then the same class of error. No
// reader hands out part of the bad block, and nothing else (a window, a
// flag) decides how much precedes the error.
func TestV2CorruptionParity(t *testing.T) {
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

// FuzzV2Decode feeds arbitrary bytes behind the v2 magic to the three
// walkers of an untrusted trace: the file (ForEachBatchFile), the stream
// (ForEachBatch) and the in-memory body (AppendRecords). None may panic;
// all three must agree on success vs failure and on the records
// delivered, including any prefix before an error.
func FuzzV2Decode(f *testing.F) {
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
		var filed, streamed []Record
		fn, ferr := ForEachBatchFile(writeTempTrace(t, body), 0, collect(&filed))
		sn, serr := ForEachBatch(bytes.NewReader(body), 0, collect(&streamed))
		appended, aerr := AppendRecords(nil, body)
		if (ferr == nil) != (serr == nil) || (aerr == nil) != (serr == nil) {
			t.Fatalf("file err %v, reader err %v, AppendRecords err %v", ferr, serr, aerr)
		}
		if fn != sn || len(filed) != len(streamed) || len(appended) != len(streamed) {
			t.Fatalf("file %d records, reader %d, AppendRecords %d", fn, sn, len(appended))
		}
		for i := range streamed {
			if filed[i] != streamed[i] || appended[i] != streamed[i] {
				t.Fatalf("record %d = %+v file, %+v reader, %+v appended", i, filed[i], streamed[i], appended[i])
			}
		}
	})
}
