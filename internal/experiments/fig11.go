package experiments

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/host"
	"memories/internal/parallel"
	"memories/internal/stats"
	"memories/internal/workload"
	"memories/internal/workload/splash"
)

// runFig11 reproduces Figure 11: L3 miss ratio versus L3 size for the
// five SPLASH2 applications, with all 8 processors sharing one L3. The
// paper's claim: "the miss ratios and miss rates are monotonically
// decreasing, further suggesting an incentive for large L3 caches", and
// "for no L3 cache size do we see performance degradation".
func runFig11(p Preset) (*Result, error) {
	hcfg := host.DefaultConfig()
	hcfg.L1Bytes = p.Fig11L1Bytes
	hcfg.L2Bytes = p.Fig11L2Bytes
	hcfg.L2Assoc = 4

	sizes := make([]int64, len(p.Fig11SizesKB))
	for i, kb := range p.Fig11SizesKB {
		sizes[i] = kb * addr.KB
	}

	t := stats.NewTable(
		fmt.Sprintf("FIGURE 11. L3 Miss Ratio vs. L3 Size (%s sizes, %s L2)",
			p.Fig11Size, addr.FormatSize(p.Fig11L2Bytes)),
		append([]string{"Application"}, sizeLabels(sizes)...)...)

	res := &Result{}
	names := splash.Names()
	// One stream per application, run concurrently; rows are added
	// afterwards in the registry's order.
	perApp, err := parallel.Map(p.Parallel, len(names), func(ai int) ([]float64, error) {
		name := names[ai]
		newGen := func() workload.Generator { return splash.New(name, p.Fig11Size, hcfg.NumCPUs, p.SplashSeed) }
		views, err := cacheSweep(p, name, hcfg, newGen, sizes, 128, 4, p.Fig11Refs)
		if err != nil {
			return nil, err
		}
		miss := make([]float64, len(views))
		for i, v := range views {
			miss[i] = v.MissRatio()
		}
		return miss, nil
	})
	if err != nil {
		return nil, err
	}
	for ai, name := range names {
		miss := perApp[ai]
		cells := make([]interface{}, 0, len(miss)+1)
		cells = append(cells, name)
		for _, m := range miss {
			cells = append(cells, m)
		}
		t.AddRow(cells...)

		if err := monotoneNonincreasing(sizes, miss, 0.01, "fig11 "+name); err != nil {
			return nil, err
		}
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"shape: miss ratio monotonically nonincreasing in L3 size for every application — no size degrades performance (paper §5.3)",
		"paper-scale sizes (32MB-512MB L3, full problem sizes) available with -scale paper",
	)
	return res, nil
}

func sizeLabels(sizes []int64) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = addr.FormatSize(s)
	}
	return out
}
