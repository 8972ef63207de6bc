// Trace format version 2 ("MIES0002"): block-framed varint delta
// encoding. Version 1 spends a fixed 8 bytes per bus reference; almost
// all of that is address entropy that successive references do not have
// — bus traffic is bursty and spatially local, so the doubleword-granular
// address deltas between consecutive records are small. V2 exploits that:
//
//	file    := "MIES0002" block*
//	block   := count:u32le  payloadLen:u32le  crc32(payload):u32le  payload
//	payload := record*                            (exactly count records)
//	record  := tag [cmd src]? zigzag-uvarint(Δ(addr>>3))
//
// The tag byte packs command and source bus ID into one byte for the
// common case (cmd <= 14, src <= 15: tag = cmd<<4 | src); rarer values
// escape with tag 0xF0 followed by the full cmd and src bytes. The
// address is carried as the zigzag-encoded delta of the doubleword
// index (addr>>3) from the previous record in the same block; the first
// record of a block deltas from zero. A typical record is therefore 2-4
// bytes instead of 8.
//
// Deltas reset at every block boundary, so a block decodes from its own
// bytes alone: that is what keeps a single flipped bit from poisoning
// more than one block (each block carries a CRC-32 of its payload).
package tracefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"slices"

	"memories/internal/bus"
)

// MagicV2 identifies a version-2 MemorIES trace file.
const MagicV2 = "MIES0002"

// DefaultBlockRecords is the number of records per block sealed by a
// V2Writer: large enough to amortize the 12-byte header, small enough
// that a corrupt block loses little and the decoded slab stays
// cache-resident.
const DefaultBlockRecords = 4096

const (
	blockHeaderSize = 12
	// maxBlockRecords bounds the per-block record count a reader will
	// accept, so a corrupt header cannot demand an absurd allocation.
	maxBlockRecords = 1 << 20
	// maxRecordBytes is the worst-case encoded record: escape tag (3
	// bytes) plus a maximal 10-byte varint.
	maxRecordBytes = 13
	// minRecordBytes is the best case: packed tag plus a 1-byte varint.
	minRecordBytes = 2
)

// ErrCorrupt is returned when a v2 block fails its CRC or its payload
// does not decode to exactly the advertised record count.
var ErrCorrupt = errors.New("tracefile: corrupt v2 block")

// appendRecordV2 appends one encoded record to dst, returning the
// extended slice and the new previous-doubleword value.
func appendRecordV2(dst []byte, prev uint64, r Record) ([]byte, uint64, error) {
	if r.Addr&7 != 0 {
		return dst, prev, fmt.Errorf("%w: %#x", ErrUnaligned, r.Addr)
	}
	if r.Addr >= MaxAddr {
		return dst, prev, fmt.Errorf("%w: %#x", ErrAddrRange, r.Addr)
	}
	if r.Cmd <= 14 && r.SrcID <= 15 {
		dst = append(dst, byte(r.Cmd)<<4|r.SrcID)
	} else {
		dst = append(dst, 0xF0, byte(r.Cmd), r.SrcID)
	}
	word := r.Addr >> 3
	d := int64(word - prev)
	dst = binary.AppendUvarint(dst, uint64(d<<1)^uint64(d>>63))
	return dst, word, nil
}

// decodeBlockV2 decodes a block payload holding count records, appending
// them to dst (typically recs[:0] of a reused slab). The payload must be
// consumed exactly.
//
// This is the inner loop of the streaming trace pipeline, so it is
// written for speed: dst is pre-sized and stored by index, and while at
// least maxRecordBytes remain the varint is extracted from a single
// 8-byte little-endian load instead of a byte-at-a-time loop. That load
// is always sufficient for well-formed data — deltas are doubleword
// indices below MaxAddr>>3 (2^48), so their zigzag encoding fits 7
// varint bytes; anything needing more is corrupt and takes the slow
// path, which rejects it.
func decodeBlockV2(payload []byte, count int, dst []Record) ([]Record, error) {
	base := len(dst)
	if cap(dst) < base+count {
		dst = append(dst, make([]Record, count)...)
	} else {
		dst = dst[:base+count]
	}
	var prev uint64
	i := 0
	n := 0
	for ; n < count && len(payload)-i >= maxRecordBytes; n++ {
		recStart := i
		tag := payload[i]
		i++
		var cmd, src uint8
		if tag < 0xF0 {
			cmd, src = tag>>4, tag&0xF
		} else {
			if tag != 0xF0 {
				return dst[:base+n], ErrCorrupt
			}
			cmd, src = payload[i], payload[i+1]
			i += 2
		}
		x := binary.LittleEndian.Uint64(payload[i:])
		// Varint length from the continuation bits, then a branch-free
		// 8→7-bit fold: delta lengths vary record to record, so a
		// byte-at-a-time loop pays a branch misprediction per record.
		nb := bits.TrailingZeros64(^x&0x8080808080808080) >> 3
		if nb >= 8 {
			// A 9- or 10-byte varint: legal varint64 space but out of
			// range for any valid delta here — defer the whole record to
			// the checked slow path, which rejects or accepts it byte by
			// byte.
			i = recStart
			break
		}
		x &= 1<<(8*uint(nb)+8) - 1 // keep the nb+1 participating bytes
		x &= 0x7F7F7F7F7F7F7F7F    // drop the continuation bits
		x = (x & 0x007F007F007F007F) | ((x & 0x7F007F007F007F00) >> 1)
		x = (x & 0x00003FFF00003FFF) | ((x & 0x3FFF00003FFF0000) >> 2)
		u := (x & 0x000000000FFFFFFF) | ((x & 0x0FFFFFFF00000000) >> 4)
		i += nb + 1
		d := int64(u>>1) ^ -int64(u&1)
		prev += uint64(d)
		if prev >= MaxAddr>>3 {
			return dst[:base+n], ErrCorrupt
		}
		dst[base+n] = Record{Addr: prev << 3, Cmd: bus.Command(cmd), SrcID: src}
	}
	// Checked tail: the last few records of the block (and any escape to
	// the >8-byte varint case above).
	for ; n < count; n++ {
		if i >= len(payload) {
			return dst[:base+n], ErrCorrupt
		}
		tag := payload[i]
		i++
		var cmd, src uint8
		if tag >= 0xF0 {
			if tag != 0xF0 || i+2 > len(payload) {
				return dst[:base+n], ErrCorrupt
			}
			cmd, src = payload[i], payload[i+1]
			i += 2
		} else {
			cmd, src = tag>>4, tag&0xF
		}
		u, n2 := binary.Uvarint(payload[i:])
		if n2 <= 0 {
			return dst[:base+n], ErrCorrupt
		}
		i += n2
		d := int64(u>>1) ^ -int64(u&1)
		prev += uint64(d)
		if prev >= MaxAddr>>3 {
			return dst[:base+n], ErrCorrupt
		}
		dst[base+n] = Record{Addr: prev << 3, Cmd: bus.Command(cmd), SrcID: src}
	}
	if i != len(payload) {
		return dst[:base+n], ErrCorrupt
	}
	return dst, nil
}

// parseBlockHeader decodes a block header from the first
// blockHeaderSize bytes of hdr. A record count or payload length that no
// well-formed block could carry is rejected here, before the caller
// sizes a buffer from it.
func parseBlockHeader(hdr []byte) (count, plen int, crc uint32, err error) {
	count = int(binary.LittleEndian.Uint32(hdr[0:]))
	plen = int(binary.LittleEndian.Uint32(hdr[4:]))
	crc = binary.LittleEndian.Uint32(hdr[8:])
	if count < 1 || count > maxBlockRecords ||
		plen < count*minRecordBytes || plen > count*maxRecordBytes {
		return 0, 0, 0, fmt.Errorf("%w: implausible header (count=%d, payload=%d)", ErrCorrupt, count, plen)
	}
	return count, plen, crc, nil
}

// decodeChecked verifies a block payload against its header CRC, then
// appends its count records to dst. On any error it returns dst as it
// came in: a consumer never sees part of a bad block.
func decodeChecked(payload []byte, count int, crc uint32, dst []Record) ([]Record, error) {
	if crc32.ChecksumIEEE(payload) != crc {
		return dst, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	recs, err := decodeBlockV2(payload, count, dst)
	if err != nil {
		return dst, err
	}
	return recs, nil
}

// A block that ends before its header or payload does. io.EOF is
// reserved for a clean block boundary.
var (
	errTornHeader  = fmt.Errorf("tracefile: torn v2 block header: %w", io.ErrUnexpectedEOF)
	errTornPayload = fmt.Errorf("tracefile: torn v2 block payload: %w", io.ErrUnexpectedEOF)
)

// V2Writer streams records as version-2 blocks. Not safe for concurrent
// use.
type V2Writer struct {
	bw           *bufio.Writer
	payload      []byte // the open block's records, encoded
	n            int    // records in the open block
	prev         uint64
	blockRecords int
	count        uint64
	hdr          [blockHeaderSize]byte
}

// NewV2Writer writes the v2 magic and returns a block writer sealing
// blocks of DefaultBlockRecords records.
func NewV2Writer(w io.Writer) (*V2Writer, error) {
	return NewV2WriterBlock(w, DefaultBlockRecords)
}

// NewV2WriterBlock is NewV2Writer with an explicit block size.
func NewV2WriterBlock(w io.Writer, blockRecords int) (*V2Writer, error) {
	if blockRecords <= 0 || blockRecords > maxBlockRecords {
		return nil, fmt.Errorf("tracefile: block size %d out of range (1..%d)", blockRecords, maxBlockRecords)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(MagicV2); err != nil {
		return nil, err
	}
	return &V2Writer{bw: bw, blockRecords: blockRecords}, nil
}

// Write appends one record, sealing a block when it fills. The hot path
// is allocation-free once the payload buffer has grown to steady state.
func (w *V2Writer) Write(r Record) error {
	payload, prev, err := appendRecordV2(w.payload, w.prev, r)
	if err != nil {
		return err
	}
	w.payload, w.prev = payload, prev
	w.n++
	w.count++
	if w.n >= w.blockRecords {
		return w.seal()
	}
	return nil
}

// seal frames and writes the open block, if any: the 12-byte header
// (record count, payload length, CRC-32 of the payload), then the
// payload. It is the only place a block is framed for writing — Flush
// and EncodeV2Blocks both end a block here — and parseBlockHeader and
// decodeChecked are its inverse.
func (w *V2Writer) seal() error {
	if w.n == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(w.hdr[0:], uint32(w.n))
	binary.LittleEndian.PutUint32(w.hdr[4:], uint32(len(w.payload)))
	binary.LittleEndian.PutUint32(w.hdr[8:], crc32.ChecksumIEEE(w.payload))
	if _, err := w.bw.Write(w.hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(w.payload); err != nil {
		return err
	}
	w.payload = w.payload[:0]
	w.n = 0
	w.prev = 0
	return nil
}

// Flush seals the partial block and drains the buffered writer. The
// writer remains usable; a subsequent Write starts a new block.
func (w *V2Writer) Flush() error {
	if err := w.seal(); err != nil {
		return err
	}
	return w.bw.Flush()
}

// V2Reader streams records from a version-2 trace: it decodes a block at
// a time into a reused slab and serves records from it.
type V2Reader struct {
	br    *bufio.Reader
	frame []byte
	recs  []Record
	pos   int
	hdr   [blockHeaderSize]byte
}

// loadBlock reads, checks and decodes the next block into the record
// slab. It returns io.EOF only at a clean block boundary; on any error
// the slab is left empty.
func (r *V2Reader) loadBlock() error {
	r.recs, r.pos = r.recs[:0], 0
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return errTornHeader
	}
	count, plen, crc, err := parseBlockHeader(r.hdr[:])
	if err != nil {
		return err
	}
	if cap(r.frame) < plen {
		r.frame = make([]byte, plen)
	}
	r.frame = r.frame[:plen]
	if _, err := io.ReadFull(r.br, r.frame); err != nil {
		return errTornPayload
	}
	r.recs, err = decodeChecked(r.frame, count, crc, r.recs[:0])
	return err
}

// Next returns the next record, or io.EOF after the last block. A torn
// or corrupt block yields a wrapped io.ErrUnexpectedEOF or ErrCorrupt.
func (r *V2Reader) Next() (Record, error) {
	if r.pos >= len(r.recs) {
		if err := r.loadBlock(); err != nil {
			return Record{}, err
		}
	}
	rec := r.recs[r.pos]
	r.pos++
	return rec, nil
}

// ForEachBatch streams a v2 trace to emit as decoded record batches,
// one block per batch, decoded on the calling goroutine (DESIGN.md §5,
// "why it is serial"). The batch slice is reused between calls: emit
// must finish with it before returning. It returns the number of
// records delivered.
//
// The unnamed int (once a decode workers count) is dead; ROADMAP 1(e) drops it.
func ForEachBatch(r io.Reader, _ int, emit func([]Record) error) (uint64, error) {
	vr := V2Reader{br: bufio.NewReaderSize(r, 1<<18)}
	if err := readMagic(vr.br); err != nil {
		return 0, err
	}
	var total uint64
	for {
		if err := vr.loadBlock(); err != nil {
			if err == io.EOF {
				return total, nil
			}
			return total, err
		}
		total += uint64(len(vr.recs))
		if err := emit(vr.recs); err != nil {
			return total, err
		}
	}
}

// ForEachBatchFile is ForEachBatch over the named trace file. Every
// file, regular or not, is read through the same buffered stream, so a
// file truncated while it is read ends in a torn-block error after the
// whole blocks before it. The int is dead; see ForEachBatch.
func ForEachBatchFile(path string, _ int, emit func([]Record) error) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return ForEachBatch(f, 0, emit)
}

// EncodeV2Blocks writes a v2 trace from successive record batches
// returned by next (nil ends the stream): a V2Writer sealed after every
// non-empty batch, so each batch becomes exactly one block. A batch is
// encoded in full before next is called again, so next may reuse its
// slice. Returns the records written. The int is dead; see ForEachBatch.
func EncodeV2Blocks(w io.Writer, _ int, next func() []Record) (uint64, error) {
	vw, err := NewV2WriterBlock(w, maxBlockRecords) // batches, not the size, end blocks
	if err != nil {
		return 0, err
	}
	for batch := next(); batch != nil; batch = next() {
		if len(batch) > maxBlockRecords {
			return vw.count, fmt.Errorf("tracefile: batch of %d exceeds block limit %d", len(batch), maxBlockRecords)
		}
		// Write's append without its per-record block-full test: the
		// batch is the block. A typical record is under 4 bytes; sizing
		// the first payload for that spares a dozen regrowth copies.
		vw.payload = slices.Grow(vw.payload, 4*len(batch))
		for _, r := range batch {
			if vw.payload, vw.prev, err = appendRecordV2(vw.payload, vw.prev, r); err != nil {
				return vw.count, err
			}
		}
		vw.n = len(batch)
		if err := vw.seal(); err != nil {
			return vw.count, err
		}
		vw.count += uint64(len(batch))
	}
	return vw.count, vw.Flush()
}
