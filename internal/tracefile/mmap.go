package tracefile

import "os"

// Zero-copy v2 ingest: when the trace is a regular file on a platform
// with mmap, the whole file is mapped read-only and MIES0002 blocks are
// decoded in place — header parsing walks the mapping and each payload
// slice aliases it, eliminating the read+copy per block that the bufio
// path pays (V2Reader.loadBlock's io.ReadFull into a frame buffer). A
// request body already in memory (AppendRecords) takes the same walker.
// The header parse and everything after it are shared with the streaming
// reader (parseBlockHeader, decodeChecked), so the paths cannot drift:
// same plausibility checks, same CRC, same record stream, same errors at
// the same byte offsets.
//
// The fallback ladder is total — non-regular sources (pipes, sockets),
// platforms without mmap, and any map failure all land on the existing
// ForEachBatch reader with the file untouched at offset 0. Both paths
// check the magic the same way (checkMagic), so a v1 or foreign file gets
// the same error from either.

// mmapForceFallback forces ForEachBatchFile onto the streaming-reader
// path; the forced-fallback test uses it to prove the ladder yields
// identical results.
var mmapForceFallback bool

// ForEachBatchFile is ForEachBatch for a named trace file. On
// mmap-capable platforms it decodes zero-copy from the mapped region;
// map failures and mmap-less platforms fall back to the streaming reader
// transparently. The emitted batches, the returned record count and any
// error are identical on both paths. The int is dead; see ForEachBatch.
func ForEachBatchFile(path string, _ int, emit func([]Record) error) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if !mmapForceFallback {
		if st, serr := f.Stat(); serr == nil && st.Mode().IsRegular() && st.Size() > int64(len(MagicV2)) {
			if data, unmap, merr := mmapFile(f, st.Size()); merr == nil {
				total, derr := v2BatchesMapped(data, emit)
				if uerr := unmap(); derr == nil {
					derr = uerr
				}
				return total, derr
			}
		}
	}
	return ForEachBatch(f, 0, emit)
}

// appendBlock is the step of the one in-memory v2 walker, under both a
// mapped file (v2BatchesMapped) and a request body (AppendRecords): it
// checks and decodes the block at the head of data (bytes past the
// magic, at a block boundary) in place, its payload a slice of data
// rather than a copy, appends the block's records to dst, and returns
// the bytes after the block. On error dst comes back as it came in.
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

// v2BatchesMapped is ForEachBatch over the mapped file: the magic
// checked, then each block decoded in place into the one reused record
// slab and emitted, so steady state allocates nothing.
func v2BatchesMapped(data []byte, emit func([]Record) error) (uint64, error) {
	if err := checkMagic(data[:len(MagicV2)]); err != nil {
		return 0, err
	}
	var recs []Record
	var total uint64
	for data = data[len(MagicV2):]; len(data) > 0; {
		var err error
		if recs, data, err = appendBlock(recs[:0], data); err != nil {
			return total, err
		}
		total += uint64(len(recs))
		if err := emit(recs); err != nil {
			return total, err
		}
	}
	return total, nil
}
