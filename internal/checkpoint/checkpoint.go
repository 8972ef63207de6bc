// Package checkpoint implements the MemorIES snapshot container: a
// versioned, section-framed format that serializes the full emulation
// state (packed cache words, counter banks, RNG cursors) so a crashed
// or interrupted run can resume from its last quiescent point instead
// of repeating the Fig. 8 warm-up.
//
// The container is deliberately dumb: a magic + version header, then a
// sequence of named sections each carrying its own length and CRC-32,
// then a trailer with the section count and a whole-file digest. Every
// consumer of a section owns its payload encoding (one Codec walk per
// struct, used in both directions through an Archive); the container
// only guarantees that what comes out is byte-identical to
// what went in, or that the failure is reported as a *CorruptError
// naming the section and file offset.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Magic opens every checkpoint file.
const Magic = "MIESCKPT"

// FormatVersion is the container version this build writes. Readers
// reject anything newer; older versions are upgraded in place if the
// format ever changes incompatibly.
const FormatVersion = 1

// maxSectionName bounds section names (they fit a u8 length prefix).
const maxSectionName = 255

// CorruptError reports a checkpoint that cannot be decoded or applied.
// Offset is the byte offset of the failing structure within the file
// (-1 when unknown, e.g. a semantic mismatch detected after framing).
type CorruptError struct {
	Path    string // file path, when known
	Section string // section name, when the failure is section-local
	Offset  int64  // byte offset of the failing frame, -1 if unknown
	Reason  string
}

// Error implements error.
func (e *CorruptError) Error() string {
	s := "checkpoint: corrupt"
	if e.Path != "" {
		s += " " + e.Path
	}
	if e.Section != "" {
		s += fmt.Sprintf(" section %q", e.Section)
	}
	if e.Offset >= 0 {
		s += fmt.Sprintf(" at offset %d", e.Offset)
	}
	return s + ": " + e.Reason
}

// corruptf builds a CorruptError with formatting.
func corruptf(section string, offset int64, format string, args ...any) *CorruptError {
	return &CorruptError{Section: section, Offset: offset, Reason: fmt.Sprintf(format, args...)}
}

// Writer streams a checkpoint: header, then Section calls, then Close
// for the trailer. It keeps a running CRC-32 of everything written so
// the trailer can seal the whole file.
type Writer struct {
	w        io.Writer
	fileCRC  uint32
	sections uint32
	names    map[string]bool
	closed   bool
	err      error
}

// NewWriter writes the header and returns a section writer.
func NewWriter(w io.Writer) (*Writer, error) {
	cw := &Writer{w: w, names: make(map[string]bool)}
	var hdr [12]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:], FormatVersion)
	if err := cw.writeCRC(hdr[:]); err != nil {
		return nil, err
	}
	return cw, nil
}

// writeCRC writes b and folds it into the running file digest.
func (w *Writer) writeCRC(b []byte) error {
	if w.err != nil {
		return w.err
	}
	if _, err := w.w.Write(b); err != nil {
		w.err = err
		return err
	}
	w.fileCRC = crc32.Update(w.fileCRC, crc32.IEEETable, b)
	return nil
}

// Section frames one named payload. Names must be unique within a file
// and non-empty (a zero length byte is the trailer sentinel).
func (w *Writer) Section(name string, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("checkpoint: Section %q after Close", name)
	}
	if name == "" || len(name) > maxSectionName {
		return fmt.Errorf("checkpoint: section name %q length out of range (1..%d)", name, maxSectionName)
	}
	if w.names[name] {
		return fmt.Errorf("checkpoint: duplicate section %q", name)
	}
	w.names[name] = true
	var hdr [1 + maxSectionName + 8 + 4]byte
	hdr[0] = byte(len(name))
	n := 1 + copy(hdr[1:], name)
	binary.LittleEndian.PutUint64(hdr[n:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n+8:], crc32.ChecksumIEEE(payload))
	if err := w.writeCRC(hdr[:n+12]); err != nil {
		return err
	}
	if err := w.writeCRC(payload); err != nil {
		return err
	}
	w.sections++
	return nil
}

// Close writes the trailer: the zero sentinel, the section count, and
// the whole-file CRC (which covers everything before it).
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	var tr [5]byte
	binary.LittleEndian.PutUint32(tr[1:], w.sections)
	if err := w.writeCRC(tr[:]); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], w.fileCRC)
	if _, err := w.w.Write(crc[:]); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Section is one decoded frame of a snapshot.
type Section struct {
	Name    string
	Offset  int64 // byte offset of the section header in the file
	Payload []byte
}

// Snapshot is a fully verified, decoded checkpoint.
type Snapshot struct {
	Version  uint32
	sections []Section
	byName   map[string]*Section
}

// Sections returns the sections in file order.
func (s *Snapshot) Sections() []Section { return s.sections }

// Section returns the named section, or a CorruptError if absent —
// a missing section means the file does not carry the state the caller
// needs, which is a form of corruption from the restorer's view.
func (s *Snapshot) Section(name string) (*Section, error) {
	if sec, ok := s.byName[name]; ok {
		return sec, nil
	}
	return nil, corruptf(name, -1, "section missing")
}

// Archive is the two-way view of a container, so an object lists its
// sections once: over a Writer, Section frames what the walk appends;
// over a Snapshot, it finds the section, runs the same walk in the
// loading direction and requires that every payload byte was read.
type Archive struct {
	w    *Writer
	snap *Snapshot
}

// SaveTo returns the archive that writes sections to w.
func SaveTo(w *Writer) *Archive { return &Archive{w: w} }

// LoadFrom returns the archive that restores sections from s.
func LoadFrom(s *Snapshot) *Archive { return &Archive{snap: s} }

// Loading reports the direction.
func (a *Archive) Loading() bool { return a.snap != nil }

// Section walks one named section. Every failure while loading — the
// section missing, a field mismatch, unread bytes — is a *CorruptError
// naming the section.
func (a *Archive) Section(name string, walk func(*Codec) error) error {
	if a.snap == nil {
		payload, err := Marshal(walk)
		if err != nil {
			return err
		}
		return a.w.Section(name, payload)
	}
	sec, err := a.snap.Section(name)
	if err != nil {
		return err
	}
	return unmarshal(sec.Name, sec.Offset, sec.Payload, walk)
}

// FixedStr walks a section holding one string the restorer already
// knows: the configuration fingerprint that ties a snapshot to the
// object it was taken from.
func (a *Archive) FixedStr(section, what, want string) error {
	return a.Section(section, func(c *Codec) error {
		c.FixedStr(what, want)
		return c.Err()
	})
}

// Decode parses and verifies a whole checkpoint image. Every framing
// or digest failure is a *CorruptError carrying the byte offset of the
// failing structure.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < 12 {
		return nil, corruptf("", 0, "file too short (%d bytes) for header", len(b))
	}
	if string(b[:8]) != Magic {
		return nil, corruptf("", 0, "bad magic %q", string(b[:8]))
	}
	version := binary.LittleEndian.Uint32(b[8:])
	if version == 0 || version > FormatVersion {
		return nil, corruptf("", 8, "unsupported format version %d (this build reads <= %d)", version, FormatVersion)
	}
	snap := &Snapshot{Version: version, byName: make(map[string]*Section)}
	off := int64(12)
	for {
		if off >= int64(len(b)) {
			return nil, corruptf("", off, "truncated: no trailer")
		}
		nameLen := int(b[off])
		if nameLen == 0 {
			break // trailer sentinel
		}
		secOff := off
		if off+1+int64(nameLen)+12 > int64(len(b)) {
			return nil, corruptf("", secOff, "truncated section header")
		}
		name := string(b[off+1 : off+1+int64(nameLen)])
		off += 1 + int64(nameLen)
		payloadLen := binary.LittleEndian.Uint64(b[off:])
		crc := binary.LittleEndian.Uint32(b[off+8:])
		off += 12
		if payloadLen > uint64(int64(len(b))-off) {
			return nil, corruptf(name, secOff, "payload length %d exceeds remaining file (%d bytes)", payloadLen, int64(len(b))-off)
		}
		payload := b[off : off+int64(payloadLen)]
		off += int64(payloadLen)
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, corruptf(name, secOff, "payload CRC mismatch: stored %08x, computed %08x", crc, got)
		}
		if _, dup := snap.byName[name]; dup {
			return nil, corruptf(name, secOff, "duplicate section")
		}
		snap.sections = append(snap.sections, Section{Name: name, Offset: secOff, Payload: payload})
		snap.byName[name] = &snap.sections[len(snap.sections)-1]
	}
	// Trailer: sentinel already consumed-checked; need count + file CRC.
	if off+9 > int64(len(b)) {
		return nil, corruptf("", off, "truncated trailer")
	}
	count := binary.LittleEndian.Uint32(b[off+1:])
	if count != uint32(len(snap.sections)) {
		return nil, corruptf("", off, "trailer section count %d != %d sections read", count, len(snap.sections))
	}
	fileCRC := binary.LittleEndian.Uint32(b[off+5:])
	if got := crc32.ChecksumIEEE(b[:off+5]); got != fileCRC {
		return nil, corruptf("", off+5, "file CRC mismatch: stored %08x, computed %08x", fileCRC, got)
	}
	if off+9 != int64(len(b)) {
		return nil, corruptf("", off+9, "%d trailing bytes after trailer", int64(len(b))-(off+9))
	}
	return snap, nil
}

// ReadFile loads and verifies a checkpoint file. CorruptErrors carry
// the path.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(b)
	if err != nil {
		if ce, ok := err.(*CorruptError); ok {
			ce.Path = path
		}
		return nil, err
	}
	return snap, nil
}

// LoadFile reads the checkpoint at path and hands it to apply. A
// *CorruptError from either step carries the path.
func LoadFile(path string, apply func(*Snapshot) error) error {
	snap, err := ReadFile(path)
	if err != nil {
		return err
	}
	err = apply(snap)
	var ce *CorruptError
	if errors.As(err, &ce) && ce.Path == "" {
		ce.Path = path
	}
	return err
}

// WriteFileAtomic writes a checkpoint crash-safely: the sections are
// built into a temp file in the target directory, synced to stable
// storage, and renamed over the destination. A crash at any point
// leaves either the old file or the new one, never a torn mix.
func WriteFileAtomic(path string, build func(*Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w, err := NewWriter(f)
	if err != nil {
		return err
	}
	if err := build(w); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	tmp = "" // renamed; nothing to clean up
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss. Best
// effort: some filesystems (and platforms) reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
