package experiments

import (
	"fmt"
	"time"

	"memories/internal/host"
	"memories/internal/simbase"
	"memories/internal/stats"
	"memories/internal/workload/splash"
)

// runTable4 reproduces Table 4: execution time of the Augmint-style
// execution-driven simulator versus MemorIES (whose "execution time" is
// simply the host machine's run time, since the board emulates in real
// time) for FFT at growing problem sizes.
//
// The Augmint cost is measured on a sample of the reference stream and
// extrapolated to a full transform — running 2^26-point transforms
// through an interpreter at full length is exactly the "several days"
// problem the paper is about.
func runTable4(p Preset) (*Result, error) {
	t := stats.NewTable(
		"TABLE 4. Execution Time of Augmint vs. MemorIES (FFT)",
		"FFT size m", "References/transform", "Augmint (extrapolated)", "MemorIES (host run time)", "Slowdown")

	// The MemorIES column runs on the paper's host, the 8-way 262 MHz S7A.
	s7a := host.DefaultConfig()
	cpuHz := float64(s7a.CPUClockMHz) * 1e6
	augTimes := make([]time.Duration, len(p.Table4Ms))
	memTimes := make([]time.Duration, len(p.Table4Ms))
	for i, m := range p.Table4Ms {
		fft := splash.NewFFT(splash.FFTConfig{NumCPUs: 8, M: m, Seed: splashSeed})
		refs := fft.RefsPerTransform()
		instrs := fft.InstrsPerTransform()

		// Measure the execution-driven simulator on a sample. The
		// detailed interpreter performs per-instruction decode/execute
		// work plus a two-level cache model per reference.
		cfg := simbase.DefaultAugmintConfig()
		cfg.WorkPerInstr = 400
		aug, err := simbase.NewAugmint(cfg)
		if err != nil {
			return nil, err
		}
		sample := p.Table4SampleRefs
		if sample > refs {
			sample = refs
		}
		start := time.Now()
		aug.Run(fft, sample)
		perRef := float64(time.Since(start)) / float64(sample)
		augTimes[i] = time.Duration(perRef * float64(refs))

		// MemorIES time: the host executes the transform in real time;
		// the board keeps up by construction (§3.3).
		memTimes[i] = time.Duration(float64(instrs) * s7a.CPI / cpuHz / float64(s7a.NumCPUs) * float64(time.Second))

		t.AddRow(m, refs, fmtDuration(augTimes[i]), fmtDuration(memTimes[i]),
			fmt.Sprintf("%.0fx", float64(augTimes[i])/float64(memTimes[i])))
	}

	res := &Result{
		Tables: []*stats.Table{t},
		Notes: []string{
			"Augmint column measured on a sampled prefix and scaled to one full transform",
			"MemorIES column models the 8-way 262MHz host executing the transform; the board adds no slowdown",
			"paper-scale sizes (m=20..26) available with -scale paper",
		},
	}

	// Shape: the execution-driven simulator is at least an order of
	// magnitude slower at every size, and both times grow with m.
	for i := range p.Table4Ms {
		if float64(augTimes[i]) < 10*float64(memTimes[i]) {
			return nil, fmt.Errorf("table4: m=%d slowdown only %.1fx, want >= 10x",
				p.Table4Ms[i], float64(augTimes[i])/float64(memTimes[i]))
		}
	}
	for i := 1; i < len(augTimes); i++ {
		if augTimes[i] <= augTimes[i-1] || memTimes[i] <= memTimes[i-1] {
			return nil, fmt.Errorf("table4: times did not grow with m")
		}
	}
	return res, nil
}
