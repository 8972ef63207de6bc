package addr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	for _, v := range []int64{1, 2, 4, 128, 1 << 30, 1 << 40} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false, want true", v)
		}
	}
	for _, v := range []int64{0, -1, -2, 3, 6, 100, (1 << 30) + 1} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true, want false", v)
		}
	}
}

func TestLog2(t *testing.T) {
	for i := uint(0); i < 62; i++ {
		if got := Log2(1 << i); got != i {
			t.Errorf("Log2(1<<%d) = %d", i, got)
		}
	}
}

func TestLog2PanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log2(3) did not panic")
		}
	}()
	Log2(3)
}

func TestNewGeometryValid(t *testing.T) {
	cases := []struct {
		size, line int64
		assoc      int
		wantSets   int64
	}{
		{2 * MB, 128, 1, 16384},
		{8 * GB, 16 * KB, 8, 65536},
		{64 * MB, 128, 4, 131072},
		{1 * MB, 128, 8, 1024},
		{32 * KB, 64, 2, 256},
		{128, 128, 1, 1},
	}
	for _, c := range cases {
		g, err := NewGeometry(c.size, c.line, c.assoc)
		if err != nil {
			t.Errorf("NewGeometry(%d,%d,%d): %v", c.size, c.line, c.assoc, err)
			continue
		}
		if g.Sets != c.wantSets {
			t.Errorf("NewGeometry(%d,%d,%d).Sets = %d, want %d", c.size, c.line, c.assoc, g.Sets, c.wantSets)
		}
		if g.Lines() != c.size/c.line {
			t.Errorf("Lines() = %d, want %d", g.Lines(), c.size/c.line)
		}
	}
}

func TestNewGeometryInvalid(t *testing.T) {
	cases := []struct {
		size, line int64
		assoc      int
	}{
		{3 * MB, 128, 1},    // size not pow2
		{2 * MB, 100, 1},    // line not pow2
		{2 * MB, 128, 0},    // assoc < 1
		{2 * MB, 128, -4},   // negative assoc
		{64, 128, 1},        // size < line
		{256, 128, 3},       // lines not divisible (also sets non-pow2)
		{2 * MB, 128, 1000}, // sets not pow2 after division
	}
	for _, c := range cases {
		if _, err := NewGeometry(c.size, c.line, c.assoc); err == nil {
			t.Errorf("NewGeometry(%d,%d,%d) accepted invalid geometry", c.size, c.line, c.assoc)
		}
	}
}

func TestGeometrySplitRoundTrip(t *testing.T) {
	g := MustGeometry(64*MB, 128, 4)
	f := func(a uint64) bool {
		tag, idx := g.Tag(a), g.Index(a)
		return g.Rebuild(tag, idx) == g.LineAddr(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestGeometryIndexRange(t *testing.T) {
	g := MustGeometry(16*MB, 1024, 8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a := rng.Uint64()
		if idx := g.Index(a); idx < 0 || idx >= g.Sets {
			t.Fatalf("Index(%#x) = %d out of [0,%d)", a, idx, g.Sets)
		}
	}
}

func TestGeometryAdjacentLinesDifferentIndex(t *testing.T) {
	g := MustGeometry(1*MB, 128, 1)
	for a := uint64(0); a < uint64(g.Sets)*uint64(g.LineSize); a += uint64(g.LineSize) {
		next := a + uint64(g.LineSize)
		if g.Tag(a) == g.Tag(next) && g.Index(a) == g.Index(next) {
			t.Fatalf("adjacent lines %#x,%#x map to same (tag,index)", a, next)
		}
	}
}

func TestGeometryString(t *testing.T) {
	cases := []struct {
		g    Geometry
		want string
	}{
		{MustGeometry(64*MB, 128, 4), "64MB 4-way, 128B lines"},
		{MustGeometry(16*MB, 1*KB, 1), "16MB direct-mapped, 1KB lines"},
		{MustGeometry(1*GB, 16*KB, 8), "1GB 8-way, 16KB lines"},
	}
	for _, c := range cases {
		if got := c.g.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestFormatSize(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{128, "128B"},
		{64 * KB, "64KB"},
		{8 * MB, "8MB"},
		{1 * GB, "1GB"},
		{8 * GB, "8GB"},
		{1536, "1536B"}, // not a whole KB multiple... actually 1536 = 1.5KB; falls to B
	}
	for _, c := range cases {
		if got := FormatSize(c.in); got != c.want {
			t.Errorf("FormatSize(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"128B", 128},
		{"128", 128},
		{"64KB", 64 * KB},
		{"64kb", 64 * KB},
		{"8MB", 8 * MB},
		{"8MiB", 8 * MB},
		{"1GB", GB},
		{"2G", 2 * GB},
		{" 512 KB ", 512 * KB},
		{"0", 0},
		{"8589934591G", 8589934591 * GB}, // the largest whole G in an int64
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "abc", "12XB", "-5MB", "1.5MB", "8589934592G", "9999999999G", "17179869184G"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) succeeded, want error", bad)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	f := func(exp uint8) bool {
		e := exp % 34 // up to 8GB
		v := int64(1) << e
		got, err := ParseSize(FormatSize(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
