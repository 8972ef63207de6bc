package byname

import (
	"strings"
	"testing"

	"memories/internal/addr"
	"memories/internal/workload/splash"
)

func TestNew(t *testing.T) {
	for _, name := range append([]string{"tpcc", "tpch", "web", "uniform"}, splash.Names()...) {
		g, err := New(name, 4096, 7, 4, "test", 0, 0.3)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if ref, ok := g.Next(); !ok || ref.CPU >= 4 {
			t.Errorf("%s: first ref %+v ok=%v on a 4-CPU host", name, ref, ok)
		}
	}
	for _, c := range []struct {
		name  string
		scale int64
		size  string
		want  string
	}{
		{"doom", 1, "test", "unknown workload"},
		{"fft", 1, "jumbo", "unknown splash size"},
		// A scale that divides a table down to nothing is refused, not
		// handed to a constructor that panics on an empty region.
		{"tpcc", 1 << 40, "test", "scale 1099511627776 leaves tpcc no database"},
		{"tpch", 1 << 40, "test", "scale 1099511627776 leaves tpch no fact or dimension tables"},
		{"tpch", 2 << 30, "test", "leaves tpch no fact or dimension tables"},
	} {
		if _, err := New(c.name, c.scale, 1, 8, c.size, 0, 0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("New(%s, scale %d, %s) = %v, want %q", c.name, c.scale, c.size, err, c.want)
		}
	}
	// The largest scales that still leave every table a byte, and web,
	// whose store has a floor, build.
	for _, c := range []struct {
		name  string
		scale int64
	}{{"tpcc", 150 * addr.GB}, {"tpch", 1 * addr.GB}, {"web", 1 << 40}} {
		if _, err := New(c.name, c.scale, 1, 8, "test", 0, 0); err != nil {
			t.Errorf("New(%s, scale %d): %v", c.name, c.scale, err)
		}
	}
}

// Uniform's footprint: explicit, else the database scale rule with its
// 1 MB floor (and no division by a zero scale).
func TestUniformFootprint(t *testing.T) {
	for _, c := range []struct {
		scale, footprint, want int64
	}{
		{2048, 0, 150 * addr.GB / 2048},
		{1 << 40, 0, addr.MB},
		{0, 0, 150 * addr.GB},
		{2048, 16 * addr.MB, 16 * addr.MB},
		{1, maxFootprint, maxFootprint},
	} {
		g, err := New("uniform", c.scale, 1, 8, "", c.footprint, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		// Regions round up to 1 MB.
		if got := g.Footprint(); got < c.want || got >= c.want+addr.MB {
			t.Errorf("scale %d footprint %d: generator covers %d, want %d", c.scale, c.footprint, got, c.want)
		}
		if ref, _ := g.Next(); ref.Addr >= uint64(c.want)+2*uint64(addr.MB) {
			t.Errorf("footprint %d: first address %#x beyond the region", c.footprint, ref.Addr)
		}
	}
	// A footprint no region can hold (a size string that overflowed used
	// to arrive here negative) is an error, not Layout.Region's panic.
	for _, foot := range []int64{-1, -1 << 63, maxFootprint + 1, 1<<63 - 1} {
		if _, err := New("uniform", 1, 1, 8, "", foot, 0.3); err == nil || !strings.Contains(err.Error(), "uniform footprint") {
			t.Errorf("footprint %d: %v, want an error naming it", foot, err)
		}
	}
}
