package experiments

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/parallel"
	"memories/internal/stats"
	"memories/internal/workload"
)

// runFig9 reproduces Figure 9: L3 miss ratio as a function of how many of
// the 8 processors share each fixed-size L3 cache, for a short and a long
// trace. The paper's key result is the trend reversal: with a short trace
// more sharing looks better (processors prefetch shared data for each
// other, and cold misses dominate), while the long trace's steady state
// shows more sharing is worse (the cache must hold the union of the
// sharers' working sets).
func runFig9(p Preset) (*Result, error) {
	hcfg := dbHostConfig(p)
	newGen := func() workload.Generator {
		return workload.NewTPCC(workload.ScaledTPCCConfig(p.TPCCFactor))
	}
	procCounts := []int{1, 2, 4, 8}
	cacheBytes := p.Fig9CacheMB * addr.MB

	// Two streams, long and short, each carrying every processors-per-L3
	// configuration at once.
	traces, err := parallel.Map(p.Parallel, 2, func(i int) ([]float64, error) {
		refs, trace := p.Fig9Long, "long"
		if i == 1 {
			refs, trace = p.Fig9Short, "short"
		}
		return procSweep(p, trace, hcfg, newGen, cacheBytes, 128, 8, refs, procCounts)
	})
	if err != nil {
		return nil, err
	}
	long, short := traces[0], traces[1]

	t := stats.NewTable(
		fmt.Sprintf("FIGURE 9. L3 Miss Ratio vs. Processors per %s L3", addr.FormatSize(cacheBytes)),
		"Processors per L3", "long trace", "short trace")
	for i, procs := range procCounts {
		t.AddRow(procs, long[i], short[i])
	}
	res := &Result{
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("TPC-C, 8 processors total; long %d refs, short %d refs", p.Fig9Long, p.Fig9Short),
			"configurations with more than four L3s run as several boards on one bus (the board has four node controllers)",
		},
	}

	// Shape: the long trace worsens with sharing; the short trace
	// improves — the trend must reverse.
	if long[len(long)-1] < long[0]*1.05 {
		return nil, fmt.Errorf("fig9: long trace does not worsen with sharing (1 proc %.4f vs 8 procs %.4f)",
			long[0], long[len(long)-1])
	}
	if short[0] < short[len(short)-1]*1.05 {
		return nil, fmt.Errorf("fig9: short trace does not improve with sharing (1 proc %.4f vs 8 procs %.4f)",
			short[0], short[len(short)-1])
	}
	for i := 1; i < len(procCounts); i++ {
		if long[i] < long[i-1]*0.98 {
			return nil, fmt.Errorf("fig9: long trace not monotone rising at %d procs (%.4f -> %.4f)",
				procCounts[i], long[i-1], long[i])
		}
		if short[i] > short[i-1]*1.02 {
			return nil, fmt.Errorf("fig9: short trace not monotone falling at %d procs (%.4f -> %.4f)",
				procCounts[i], short[i-1], short[i])
		}
	}
	res.Notes = append(res.Notes,
		"shape: trend reversal reproduced — short traces say share more, steady state says share less")
	return res, nil
}
