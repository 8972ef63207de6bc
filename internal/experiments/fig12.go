package experiments

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/core"
	"memories/internal/host"
	"memories/internal/stats"
	"memories/internal/workload"
	"memories/internal/workload/splash"
)

// fig12Breakdown is the Figure 12 classification: where an L2 miss was
// satisfied, as fractions of all L2 misses.
type fig12Breakdown struct {
	L3, ModInt, ShrInt, Memory float64
}

func (b fig12Breakdown) interventions() float64 { return b.ModInt + b.ShrInt }

// fig12Classify sums where a board's nodes satisfied their L2 misses.
func fig12Classify(b *core.Board) (fig12Breakdown, error) {
	var l3, mod, shr, mem uint64
	for i := 0; i < b.NumNodes(); i++ {
		v := b.Node(i)
		l3 += v.SatL3
		mod += v.SatModInt
		shr += v.SatShrInt
		mem += v.SatMemory
	}
	tot := l3 + mod + shr + mem
	if tot == 0 {
		return fig12Breakdown{}, fmt.Errorf("no L2 misses observed")
	}
	f := float64(tot)
	return fig12Breakdown{
		L3:     float64(l3) / f,
		ModInt: float64(mod) / f,
		ShrInt: float64(shr) / f,
		Memory: float64(mem) / f,
	}, nil
}

// runFig12 reproduces Figure 12: for FFT, Ocean, and FMM in two NUMA-ish
// configurations (2 nodes x 4 processors and 4 nodes x 2 processors),
// where is an L2 miss satisfied — the local L3, another node's modified
// copy (mod-int), another node's shared copy (shr-int), or memory.
func runFig12(p Preset) (*Result, error) {
	hcfg := host.DefaultConfig()
	apps := []string{splash.NameFFT, splash.NameOcean, splash.NameFMM}
	shapes := [][2]int{{2, 4}, {4, 2}} // nodes x procs-per-node

	t := stats.NewTable(
		fmt.Sprintf("FIGURE 12. Where an L2 Miss is Satisfied (%s per-node L3, %dB L3 lines)",
			addr.FormatSize(p.Fig12CacheMB*addr.MB), p.Fig12LineB),
		"Application", "Config", "L3", "mod-int", "shr-int", "memory")

	// One stream per application, with one board per node shape on its
	// bus.
	results := map[string]map[string]fig12Breakdown{}
	for _, name := range apps {
		var labels []string
		var bcfgs []core.Config
		for _, sh := range shapes {
			labels = append(labels, fmt.Sprintf("%s.%dx%d", name, sh[0], sh[1]))
			bcfgs = append(bcfgs, core.Config{Nodes: splitNodes(p, sh[0], sh[1], p.Fig12CacheMB*addr.MB, p.Fig12LineB, 4)})
		}
		newGen := func() workload.Generator { return splash.New(name, p.Fig12Size, hcfg.NumCPUs, p.SplashSeed) }
		boards, err := streamRun(p, labels, hcfg, newGen, bcfgs, p.Fig12Refs)
		if err != nil {
			return nil, err
		}
		results[name] = map[string]fig12Breakdown{}
		for si, sh := range shapes {
			bd, err := fig12Classify(boards[si])
			if err != nil {
				return nil, fmt.Errorf("fig12 %s: %w", name, err)
			}
			label := fmt.Sprintf("%dx%d", sh[0], sh[1])
			results[name][label] = bd
			t.AddRow(name, label, bd.L3, bd.ModInt, bd.ShrInt, bd.Memory)
		}
	}
	res := &Result{Tables: []*stats.Table{t}}

	// Shape 1: FMM has markedly more intervention traffic than FFT and
	// Ocean ("FMM has a significant amount of modified and shared
	// intervention traffic relative to the other applications").
	for _, label := range []string{"2x4", "4x2"} {
		fmm := results[splash.NameFMM][label].interventions()
		fft := results[splash.NameFFT][label].interventions()
		ocean := results[splash.NameOcean][label].interventions()
		if fmm < fft*1.5 || fmm < ocean+0.02 {
			return nil, fmt.Errorf("fig12 %s: FMM interventions %.3f not dominant (fft %.3f, ocean %.3f)",
				label, fmm, fft, ocean)
		}
		if ocean > 0.05 {
			return nil, fmt.Errorf("fig12 %s: Ocean interventions %.3f too high for a nearest-neighbor code", label, ocean)
		}
	}
	// Shape 2: more processors per node satisfy more misses in the local
	// L3 (shared prefetch within the node).
	for _, name := range apps {
		if results[name]["2x4"].L3+0.005 < results[name]["4x2"].L3 {
			return nil, fmt.Errorf("fig12 %s: L3 share with 4 procs/node (%.3f) below 2 procs/node (%.3f)",
				name, results[name]["2x4"].L3, results[name]["4x2"].L3)
		}
	}
	res.Notes = append(res.Notes,
		"shape: FFT and Ocean show small intervention shares (little sharing); FMM shows heavy intervention traffic — the paper's guidance that FMM-like codes need efficient cache-to-cache transfers",
		"shape: more processors per L3 raise the locally satisfied share",
	)
	return res, nil
}
