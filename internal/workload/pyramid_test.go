package workload

import (
	"testing"

	"memories/internal/addr"
)

func TestPyramidLevels(t *testing.T) {
	p := NewPyramid(64*addr.MB, addr.MB, 128, 4, 0.5)
	levels := p.sizes
	want := []int64{addr.MB, 4 * addr.MB, 16 * addr.MB, 64 * addr.MB}
	if len(levels) != len(want) {
		t.Fatalf("levels = %v", levels)
	}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("levels = %v, want %v", levels, want)
		}
	}
}

func TestPyramidTopLevelAlwaysFullSpan(t *testing.T) {
	p := NewPyramid(100*addr.MB, addr.MB, 128, 4, 0.5) // 100MB not a power of 4 multiple
	levels := p.sizes
	if levels[len(levels)-1] != 100*addr.MB {
		t.Fatalf("top level = %d, want full span", levels[len(levels)-1])
	}
}

func TestPyramidMinLevelClamped(t *testing.T) {
	p := NewPyramid(addr.MB, 16*addr.MB, 128, 4, 0.5)
	if len(p.sizes) != 1 || p.sizes[0] != addr.MB {
		t.Fatalf("levels = %v", p.sizes)
	}
}

func TestPyramidSampleBoundsAndAlignment(t *testing.T) {
	p := NewPyramid(8*addr.MB, 256*addr.KB, 128, 4, 0.5)
	r := NewRNG(3)
	for i := 0; i < 100000; i++ {
		off := p.Sample(r)
		if off < 0 || off >= 8*addr.MB {
			t.Fatalf("offset %d out of span", off)
		}
		if off%128 != 0 {
			t.Fatalf("offset %d not slot aligned", off)
		}
	}
}

func TestPyramidConcentratesOnSmallLevels(t *testing.T) {
	p := NewPyramid(64*addr.MB, addr.MB, 128, 4, 0.5)
	r := NewRNG(4)
	const n = 200000
	inHot := 0
	for i := 0; i < n; i++ {
		if p.Sample(r) < addr.MB {
			inHot++
		}
	}
	// The 1MB level gets ~8/15 of the probability mass directly, plus its
	// share of the bigger uniform levels.
	frac := float64(inHot) / n
	if frac < 0.45 || frac > 0.70 {
		t.Fatalf("hot-level fraction = %.3f, want ~0.55", frac)
	}
}

func TestPyramidInvalidParamsPanic(t *testing.T) {
	cases := []func(){
		func() { NewPyramid(0, 1, 128, 4, 0.5) },
		func() { NewPyramid(addr.MB, 0, 128, 4, 0.5) },
		func() { NewPyramid(addr.MB, addr.KB, 0, 4, 0.5) },
		func() { NewPyramid(addr.MB, addr.KB, 128, 1, 0.5) },
		func() { NewPyramid(addr.MB, addr.KB, 128, 4, 0) },
		func() { NewPyramid(addr.MB, addr.KB, 128, 4, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
