package checkpoint

import (
	"encoding/binary"
	"math"
	"slices"
)

// Codec walks one section payload in either direction, so a struct lists
// its checkpointed fields once: c.U64(&x) appends x when saving and
// reads into x when loading. All integers are little-endian; strings and
// slices carry a u32 length prefix.
//
// Loading has sticky-error semantics: the first failure (read past the
// end, a Fixed value that differs from the restorer's, a Failf) latches
// a *CorruptError naming the section, and every later accessor leaves
// its variable untouched, so a walker checks Err once at the end rather
// than after every field. Fields decode in place, which means a restore
// that fails half-way leaves its object part old, part new; the
// guarantee walkers must keep is that a following successful restore
// into the same object overwrites everything, including state derived
// under Loading.
type Codec struct {
	loading bool
	section string
	base    int64 // file offset of the section, for error reporting
	b       []byte
	off     int
	err     *CorruptError
}

// Marshal runs walk in the saving direction and returns the payload.
func Marshal(walk func(*Codec) error) ([]byte, error) {
	var c Codec
	if err := walk(&c); err != nil {
		return nil, err
	}
	return c.b, c.Err()
}

// Unmarshal runs walk over payload in the loading direction and then
// requires that every byte was read.
func Unmarshal(payload []byte, walk func(*Codec) error) error {
	return unmarshal("", -1, payload, walk)
}

func unmarshal(section string, base int64, payload []byte, walk func(*Codec) error) error {
	c := Codec{loading: true, section: section, base: base, b: payload}
	if err := walk(&c); err != nil {
		return err
	}
	return c.close()
}

// Loading reports the direction, for restore-only fix-ups (recomputing
// derived state, rebuilding a scheduler) after the fields are in.
func (c *Codec) Loading() bool { return c.loading }

// Err returns the latched corruption error, if any.
func (c *Codec) Err() error {
	if c.err != nil {
		return c.err
	}
	return nil
}

// Failf latches a caller-detected mismatch (value out of range, unknown
// name) as a CorruptError attributed to this section.
func (c *Codec) Failf(format string, args ...any) *CorruptError {
	if c.err == nil {
		c.err = corruptf(c.section, c.base, format, args...)
	}
	return c.err
}

// close verifies the payload was fully consumed. Unread bytes mean the
// writer and reader disagree about the section layout — corruption from
// the restorer's point of view.
func (c *Codec) close() error {
	if c.err == nil && c.off != len(c.b) {
		c.Failf("%d unread bytes at end of section", len(c.b)-c.off)
	}
	return c.Err()
}

// take returns the next n payload bytes, or latches truncation and
// returns nil (which a successful take of n > 0 bytes never is).
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b)-c.off {
		c.Failf("payload truncated: need %d bytes at payload offset %d, have %d", n, c.off, len(c.b)-c.off)
		return nil
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b
}

// U8 walks one byte.
func (c *Codec) U8(v *uint8) {
	if !c.loading {
		c.b = append(c.b, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

// Bool walks a 0/1 byte; anything else is corruption.
func (c *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.U8(&b)
	if b > 1 {
		c.Failf("invalid bool byte %d", b)
	} else if c.err == nil {
		*v = b == 1
	}
}

// U32 walks a little-endian uint32.
func (c *Codec) U32(v *uint32) {
	if !c.loading {
		c.b = binary.LittleEndian.AppendUint32(c.b, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

// U64 walks a little-endian uint64.
func (c *Codec) U64(v *uint64) {
	if !c.loading {
		c.b = binary.LittleEndian.AppendUint64(c.b, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// I64 walks an int64 as its two's-complement bits.
func (c *Codec) I64(v *int64) {
	u := uint64(*v)
	c.U64(&u)
	*v = int64(u)
}

// F64 walks a float64 as its IEEE-754 bits (bit-exact round trip).
func (c *Codec) F64(v *float64) {
	u := math.Float64bits(*v)
	c.U64(&u)
	*v = math.Float64frombits(u)
}

// Str walks a length-prefixed string.
func (c *Codec) Str(v *string) {
	n := uint32(len(*v))
	c.U32(&n)
	if !c.loading {
		c.b = append(c.b, *v...)
	} else if b := c.take(int(n)); c.err == nil {
		*v = string(b)
	}
}

// fixed walks a value the restorer already knows (a version byte, a
// geometry field, a slice length): written when saving, compared when
// loading, where a difference means the snapshot belongs to a
// differently built object.
func fixed[T comparable](c *Codec, field func(*Codec, *T), what string, want T) {
	got := want
	field(c, &got)
	if c.err == nil && got != want {
		c.Failf("%s %v != configured %v", what, got, want)
	}
}

// FixedU8 is U8 for a value the restorer already knows.
func (c *Codec) FixedU8(what string, want uint8) { fixed(c, (*Codec).U8, what, want) }

// FixedBool is Bool for a value the restorer already knows.
func (c *Codec) FixedBool(what string, want bool) { fixed(c, (*Codec).Bool, what, want) }

// FixedI64 is I64 for a value the restorer already knows.
func (c *Codec) FixedI64(what string, want int64) { fixed(c, (*Codec).I64, what, want) }

// Len is the fixed form of a u32 count or length the restorer already
// holds.
func (c *Codec) Len(what string, n int) { fixed(c, (*Codec).U32, what, uint32(n)) }

// FixedStr is Str for a value the restorer already knows (a generator
// name, a configuration fingerprint).
func (c *Codec) FixedStr(what, want string) {
	got := want
	c.Str(&got)
	if c.err == nil && got != want {
		c.Failf("%s %q != configured %q", what, got, want)
	}
}

// Bytes walks a length-prefixed []uint8 of fixed length in place; what
// names the length, as for Len.
func (c *Codec) Bytes(what string, v []uint8) {
	c.Len(what, len(v))
	if !c.loading {
		c.b = append(c.b, v...)
	} else if b := c.take(len(v)); b != nil {
		copy(v, b)
	}
}

// Slice64 walks a length-prefixed slice of 64-bit words of fixed length
// in place; what names the length, as for Len. It is the bulk path for
// directory images: the payload grows once when saving, and loading
// decodes straight into v — a 2 GB board's directory is 16 M words, too
// many for one U64 call each.
func Slice64[T ~uint64 | ~int64](c *Codec, what string, v []T) {
	c.Len(what, len(v))
	if !c.loading {
		off := len(c.b)
		c.b = slices.Grow(c.b, 8*len(v))[:off+8*len(v)]
		for i, x := range v {
			binary.LittleEndian.PutUint64(c.b[off+8*i:], uint64(x))
		}
	} else if b := c.take(8 * len(v)); b != nil {
		for i := range v {
			v[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}
