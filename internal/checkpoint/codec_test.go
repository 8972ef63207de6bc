package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// codecFields is one value of every kind a Codec walks.
type codecFields struct {
	u8         uint8
	t, f       bool
	u32        uint32
	u64        uint64
	i64        int64
	pi, inf    float64
	str, empty string
	words      []uint64
	none       []uint64
	ints       []int64
	bytes      []uint8
}

func (v *codecFields) walk(c *Codec) error {
	c.U8(&v.u8)
	c.Bool(&v.t)
	c.Bool(&v.f)
	c.U32(&v.u32)
	c.U64(&v.u64)
	c.I64(&v.i64)
	c.F64(&v.pi)
	c.F64(&v.inf)
	c.Str(&v.str)
	c.Str(&v.empty)
	Slice64(c, "words", v.words)
	Slice64(c, "none", v.none)
	Slice64(c, "ints", v.ints)
	c.Bytes("bytes", v.bytes)
	c.FixedU8("version", 2)
	c.FixedBool("flag", true)
	c.FixedI64("size", -7)
	c.Len("count", 3)
	c.FixedStr("name", "tpcc")
	return c.Err()
}

// Every codec type round trips bit-exactly through one walk used in
// both directions, and the bytes are the documented layout.
func TestCodecRoundTrip(t *testing.T) {
	in := codecFields{
		u8: 0xAB, t: true, u32: 0xDEADBEEF, u64: 1 << 63, i64: -42,
		pi: math.Pi, inf: math.Inf(-1), str: "hello, 世界",
		words: []uint64{1, 1 << 40, 0}, ints: []int64{-1, 0, 1 << 50}, bytes: []byte{9, 8, 7},
	}
	payload, err := Marshal(in.walk)
	if err != nil {
		t.Fatal(err)
	}
	// Little-endian integers, u32 length prefixes.
	wantHead := []byte{0xAB, 1, 0, 0xEF, 0xBE, 0xAD, 0xDE, 0, 0, 0, 0, 0, 0, 0, 0x80}
	if !bytes.HasPrefix(payload, wantHead) {
		t.Fatalf("payload starts % x, want % x", payload[:len(wantHead)], wantHead)
	}
	out := codecFields{
		t: false, f: true, str: "stale", empty: "stale",
		words: make([]uint64, 3), ints: make([]int64, 3), bytes: make([]byte, 3),
	}
	if err := Unmarshal(payload, out.walk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
	// A second save of the loaded copy is byte-identical.
	again, err := Marshal(out.walk)
	if err != nil || !bytes.Equal(again, payload) {
		t.Fatalf("re-save differs (err %v)", err)
	}
	// Every strict prefix is corruption, never a panic.
	for n := range payload {
		var ce *CorruptError
		if err := Unmarshal(payload[:n], out.walk); !errors.As(err, &ce) {
			t.Fatalf("prefix %d: err = %v, want *CorruptError", n, err)
		}
	}
}

// The fixed forms reject a value or length that differs from the
// restorer's, naming what differed.
func TestCodecFixedMismatch(t *testing.T) {
	for what, save := range map[string]func(c *Codec){
		"version": func(c *Codec) { c.FixedU8("version", 1) },
		"flag":    func(c *Codec) { c.FixedBool("flag", false) },
		"size":    func(c *Codec) { c.FixedI64("size", 64) },
		"count":   func(c *Codec) { c.Len("count", 4) },
		"name":    func(c *Codec) { c.FixedStr("name", "tpch") },
		"words":   func(c *Codec) { Slice64(c, "words", make([]uint64, 2)) },
		"bytes":   func(c *Codec) { c.Bytes("bytes", make([]byte, 5)) },
	} {
		payload, err := Marshal(func(c *Codec) error { save(c); return nil })
		if err != nil {
			t.Fatal(err)
		}
		words, raw := []uint64{7, 7, 7}, []byte{7, 7, 7}
		err = Unmarshal(payload, func(c *Codec) error {
			c.FixedU8("version", 2)
			c.FixedBool("flag", true)
			c.FixedI64("size", -7)
			c.Len("count", 3)
			c.FixedStr("name", "tpcc")
			Slice64(c, "words", words)
			c.Bytes("bytes", raw)
			return c.Err()
		})
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want *CorruptError", what, err)
		}
		if words[0] != 7 || raw[0] != 7 {
			t.Fatalf("%s: a mismatching slice was decoded anyway", what)
		}
	}
}

// CorruptError reports the section name, file offset, and reason — the
// three things a postmortem needs.
func TestCorruptErrorMessage(t *testing.T) {
	c := Codec{loading: true, section: "node0.cache", base: 4096}
	err := c.Failf("bad tag word %d", 7)
	msg := err.Error()
	for _, want := range []string{"node0.cache", "4096", "bad tag word 7"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
	if err.Section != "node0.cache" || err.Offset != 4096 {
		t.Fatalf("fields not populated: %+v", err)
	}
}
