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

func TestRotationSavePrune(t *testing.T) {
	rot := &Rotation{Dir: t.TempDir(), Base: "board", Keep: 2}
	var paths []string
	for i := 0; i < 4; i++ {
		p, err := rot.Save(buildTwoSections)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	// Only the newest 2 remain.
	for i, p := range paths {
		_, err := os.Stat(p)
		if i < 2 && err == nil {
			t.Errorf("old entry %s not pruned", p)
		}
		if i >= 2 && err != nil {
			t.Errorf("entry %s missing: %v", p, err)
		}
	}
	latest, err := rot.Latest()
	if err != nil || latest != paths[3] {
		t.Fatalf("Latest = %q, %v; want %q", latest, err, paths[3])
	}
}

// TestRotationFallback corrupts the newest entry and requires
// LoadLatest to fall back to the previous one, reporting the skip.
func TestRotationFallback(t *testing.T) {
	rot := &Rotation{Dir: t.TempDir(), Base: "board", Keep: 3}
	if _, err := rot.Save(buildTwoSections); err != nil {
		t.Fatal(err)
	}
	newest, err := rot.Save(buildTwoSections)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest file's mid-section bytes.
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var applied int
	path, skipped, err := rot.LoadLatest(func(s *Snapshot) error {
		applied++
		_, err := s.Section("alpha")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if path == newest {
		t.Fatal("restored the corrupt newest entry")
	}
	if len(skipped) != 1 {
		t.Fatalf("skipped = %v, want 1 entry", skipped)
	}
	var ce *CorruptError
	if !errors.As(skipped[0], &ce) || ce.Path != newest {
		t.Errorf("skipped[0] = %v, want CorruptError for %s", skipped[0], newest)
	}
	if applied != 1 {
		t.Errorf("apply ran %d times, want 1", applied)
	}
}

// TestRotationFallbackOnApplyReject: an entry that decodes but fails a
// semantic check (wrong fingerprint) also falls back.
func TestRotationFallbackOnApplyReject(t *testing.T) {
	rot := &Rotation{Dir: t.TempDir(), Base: "board"}
	if _, err := rot.Save(buildTwoSections); err != nil {
		t.Fatal(err)
	}
	if _, err := rot.Save(buildTwoSections); err != nil {
		t.Fatal(err)
	}
	first := true
	path, skipped, err := rot.LoadLatest(func(s *Snapshot) error {
		if first {
			first = false
			return corruptf("meta", -1, "config fingerprint mismatch")
		}
		return nil
	})
	if err != nil || len(skipped) != 1 {
		t.Fatalf("path=%q skipped=%v err=%v", path, skipped, err)
	}
}

func TestLoadAny(t *testing.T) {
	dir := t.TempDir()
	exact := filepath.Join(dir, "one.ckpt")
	if err := WriteFileAtomic(exact, buildTwoSections); err != nil {
		t.Fatal(err)
	}
	actual, skipped, err := LoadAny(exact, func(*Snapshot) error { return nil })
	if err != nil || actual != exact || len(skipped) != 0 {
		t.Fatalf("exact: actual=%q skipped=%v err=%v", actual, skipped, err)
	}
	// Rotation-base fallback: no file named "board", but board-*.ckpt.
	rot := &Rotation{Dir: dir, Base: "board"}
	p, err := rot.Save(buildTwoSections)
	if err != nil {
		t.Fatal(err)
	}
	actual, _, err = LoadAny(filepath.Join(dir, "board"), func(*Snapshot) error { return nil })
	if err != nil || actual != p {
		t.Fatalf("rotation: actual=%q err=%v, want %q", actual, err, p)
	}
	if _, _, err := LoadAny(filepath.Join(dir, "absent"), func(*Snapshot) error { return nil }); err == nil {
		t.Fatal("absent path restored")
	}
}
