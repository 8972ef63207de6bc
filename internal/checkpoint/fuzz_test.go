package checkpoint

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSnapshotDecode feeds arbitrary bytes to the container parser:
// every input must either decode cleanly or fail with a *CorruptError.
// Panics and unbounded allocations are the bugs being hunted.
func FuzzSnapshotDecode(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	if err := buildTwoSections(w); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add([]byte(Magic))
	f.Add([]byte{})
	for _, cut := range []int{8, 12, 13, len(good) - 4} {
		f.Add(append([]byte(nil), good[:cut]...))
	}
	mut := append([]byte(nil), good...)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Decode error is %T (%v), want *CorruptError", err, err)
			}
			return
		}
		// A valid decode must survive field-level reads without panics.
		for _, sec := range snap.Sections() {
			err := LoadFrom(snap).Section(sec.Name, func(c *Codec) error {
				var b uint8
				for range sec.Payload {
					c.U8(&b)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("section %q: %v", sec.Name, err)
			}
		}
	})
}
