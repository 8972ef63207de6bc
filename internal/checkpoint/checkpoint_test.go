package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// twoSections is a representative two-section checkpoint, walked in
// both directions.
type twoSections struct {
	u    uint64
	s    string
	ints []int64
	b    bool
	f    float64
	raw  []byte
}

func (v *twoSections) sections(a *Archive) error {
	err := a.Section("alpha", func(c *Codec) error {
		c.U64(&v.u)
		c.Str(&v.s)
		Slice64(c, "ints", v.ints)
		return c.Err()
	})
	if err != nil {
		return err
	}
	return a.Section("beta", func(c *Codec) error {
		c.Bool(&v.b)
		c.F64(&v.f)
		c.Bytes("raw", v.raw)
		return c.Err()
	})
}

func buildTwoSections(w *Writer) error {
	v := twoSections{0xdeadbeef, "hello", []int64{-1, 0, 7}, true, 3.25, []byte{1, 2, 3}}
	return v.sections(SaveTo(w))
}

func encodeTwoSections(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := buildTwoSections(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	snap, err := Decode(encodeTwoSections(t))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != FormatVersion {
		t.Fatalf("version = %d, want %d", snap.Version, FormatVersion)
	}
	if len(snap.Sections()) != 2 {
		t.Fatalf("sections = %d, want 2", len(snap.Sections()))
	}
	got := twoSections{ints: make([]int64, 3), raw: make([]byte, 3)}
	if err := got.sections(LoadFrom(snap)); err != nil {
		t.Fatal(err)
	}
	want := twoSections{0xdeadbeef, "hello", []int64{-1, 0, 7}, true, 3.25, []byte{1, 2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %+v, want %+v", got, want)
	}
	// A walk that reads less than the writer wrote is corruption,
	// attributed to the section.
	err = LoadFrom(snap).Section("beta", func(c *Codec) error { c.Bool(new(bool)); return nil })
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Section != "beta" || !strings.Contains(ce.Reason, "unread") {
		t.Fatalf("short walk: err = %v, want unread-bytes CorruptError in beta", err)
	}
}

func TestMissingSection(t *testing.T) {
	snap, err := Decode(encodeTwoSections(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = snap.Section("gamma")
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Section != "gamma" {
		t.Fatalf("missing section: err = %v", err)
	}
}

// TestCorruptSectionReported flips a payload byte and requires the
// error to name the section and its file offset.
func TestCorruptSectionReported(t *testing.T) {
	b := encodeTwoSections(t)
	good, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	beta, err := good.Section("beta")
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside beta's payload: beta's frame starts at
	// beta.Offset; the payload begins after nameLen(1)+name+len(8)+crc(4).
	mut := append([]byte(nil), b...)
	payloadStart := beta.Offset + 1 + int64(len("beta")) + 12
	mut[payloadStart] ^= 0xff
	_, err = Decode(mut)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
	if ce.Section != "beta" {
		t.Errorf("Section = %q, want beta", ce.Section)
	}
	if ce.Offset != beta.Offset {
		t.Errorf("Offset = %d, want %d", ce.Offset, beta.Offset)
	}
	if !strings.Contains(ce.Reason, "CRC") {
		t.Errorf("Reason = %q, want CRC mismatch", ce.Reason)
	}
}

func TestTruncation(t *testing.T) {
	b := encodeTwoSections(t)
	for _, cut := range []int{0, 5, 12, len(b) / 2, len(b) - 1} {
		_, err := Decode(b[:cut])
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("Decode(b[:%d]) err = %v, want *CorruptError", cut, err)
		}
	}
	// Trailing garbage is also corruption.
	_, err := Decode(append(append([]byte(nil), b...), 0x55))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Errorf("trailing byte: err = %v, want *CorruptError", err)
	}
}

func TestUnsupportedVersion(t *testing.T) {
	b := encodeTwoSections(t)
	mut := append([]byte(nil), b...)
	mut[8] = 0x99
	_, err := Decode(mut)
	var ce *CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "version") {
		t.Fatalf("err = %v, want version CorruptError", err)
	}
}

func TestWriterRejectsDuplicates(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section("x", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("x", nil); err == nil {
		t.Fatal("duplicate section accepted")
	}
	if err := w.Section("", nil); err == nil {
		t.Fatal("empty section name accepted")
	}
}

func TestDecStickyErrors(t *testing.T) {
	c := Codec{loading: true, section: "s", b: []byte{1, 2}}
	u64, u32, str, words := uint64(5), uint32(6), "kept", []uint64{7}
	c.U64(&u64) // past end: latches
	if c.Err() == nil {
		t.Fatal("no error after reading past end")
	}
	// Subsequent reads leave their variables alone without panicking.
	c.U32(&u32)
	c.Str(&str)
	Slice64(&c, "words", words)
	if u64 != 5 || u32 != 6 || str != "kept" || words[0] != 7 {
		t.Error("accessor wrote its variable after a latched error")
	}
	// An oversized string length must not allocate or panic.
	c2 := Codec{loading: true, section: "s", b: []byte{0, 0, 0, 0x40}}
	if c2.Str(&str); c2.Err() == nil || str != "kept" {
		t.Errorf("oversized string: got %q, err %v", str, c2.Err())
	}
	// Unread bytes at the end are corruption.
	err := Unmarshal([]byte{1, 2, 3}, func(c *Codec) error { c.U8(new(uint8)); return nil })
	if err == nil {
		t.Error("Unmarshal accepted unread bytes")
	}
}

// TestWriteFileAtomicPreservesOld crashes the build mid-way and checks
// the previous checkpoint survives untouched.
func TestWriteFileAtomicPreservesOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := WriteFileAtomic(path, buildTwoSections); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err = WriteFileAtomic(path, func(w *Writer) error {
		_ = w.Section("partial", []byte("junk"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, now) {
		t.Fatal("failed write clobbered the previous checkpoint")
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 {
		t.Fatalf("temp file left behind: %v", des)
	}
}

// LoadFile (LoadAny until it lost its rotation fallback; the test keeps
// that name) reads exactly the named file: a good one reaches apply, and
// a missing one is the OS error, not a search for neighbours.
func TestLoadAny(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "one.ckpt")
	if err := WriteFileAtomic(path, buildTwoSections); err != nil {
		t.Fatal(err)
	}
	applied := 0
	err := LoadFile(path, func(s *Snapshot) error {
		applied++
		_, err := s.Section("alpha")
		return err
	})
	if err != nil || applied != 1 {
		t.Fatalf("LoadFile: err=%v, apply ran %d times", err, applied)
	}
	err = LoadFile(filepath.Join(dir, "one"), func(*Snapshot) error { return nil })
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want os.ErrNotExist", err)
	}
}

// TestLoadAnyExactFileCorrupt: corrupt bytes and a snapshot that decodes
// but fails apply's semantic check (wrong fingerprint) both come back
// from LoadFile as a *CorruptError naming the file.
func TestLoadAnyExactFileCorrupt(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "solo.ckpt")
	if err := os.WriteFile(garbage, []byte("MIESCKPTgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.ckpt")
	if err := WriteFileAtomic(good, buildTwoSections); err != nil {
		t.Fatal(err)
	}
	for path, apply := range map[string]func(*Snapshot) error{
		garbage: func(*Snapshot) error { return nil },
		good:    func(*Snapshot) error { return corruptf("meta", -1, "config fingerprint mismatch") },
	} {
		err := LoadFile(path, apply)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Path != path {
			t.Errorf("%s: err = %v, want *CorruptError with Path set", path, err)
		}
	}
}
