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
	for _, c := range []struct{ name, size, want string }{
		{"doom", "test", "unknown workload"},
		{"fft", "jumbo", "unknown splash size"},
	} {
		if _, err := New(c.name, 1, 1, 8, c.size, 0, 0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("New(%s, %s) = %v, want %q", c.name, c.size, err, c.want)
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
	} {
		g, err := New("uniform", c.scale, 1, 8, "", c.footprint, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		// Regions round up to 1 MB.
		if got := g.Footprint(); got < c.want || got >= c.want+addr.MB {
			t.Errorf("scale %d footprint %d: generator covers %d, want %d", c.scale, c.footprint, got, c.want)
		}
	}
}
