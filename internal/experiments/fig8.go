package experiments

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/parallel"
	"memories/internal/stats"
	"memories/internal/workload"
)

// runFig8 reproduces Figure 8: L3 miss ratio versus cache size for short
// and long traces, for TPC-C and TPC-H. The short-trace curves must
// overstate the miss ratio at large caches and flatten early ("using too
// small a trace may suggest that larger caches have no impact"), while
// the long-trace curves keep improving.
func runFig8(p Preset) (*Result, error) {
	hcfg := dbHostConfig(p)
	sizes := make([]int64, len(p.Fig8SizesMB))
	for i, mb := range p.Fig8SizesMB {
		sizes[i] = mb * addr.MB
	}

	type series struct {
		workload string
		label    string
		refs     uint64
		miss     []float64
	}
	// The four workload x trace-length series are four independent
	// streams; the rig runs them concurrently up to p.Parallel, with
	// results landing in fixed index order.
	combos := []series{
		{workload: "tpcc", label: "long", refs: p.Fig8Long},
		{workload: "tpcc", label: "short", refs: p.Fig8Short},
		{workload: "tpch", label: "long", refs: p.Fig8Long},
		{workload: "tpch", label: "short", refs: p.Fig8Short},
	}
	all, err := parallel.Map(p.Parallel, len(combos), func(i int) (series, error) {
		s := combos[i]
		newGen := func() workload.Generator { return workload.NewTPCC(workload.ScaledTPCCConfig(p.TPCCFactor)) }
		if s.workload == "tpch" {
			newGen = func() workload.Generator { return workload.NewTPCH(workload.ScaledTPCHConfig(p.TPCHFactor)) }
		}
		views, err := cacheSweep(p, s.workload+"."+s.label, hcfg, newGen, sizes, 128, 8, s.refs)
		if err != nil {
			return series{}, err
		}
		for _, v := range views {
			s.miss = append(s.miss, v.MissRatio())
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{}
	for w := 0; w < 2; w++ {
		long, short := all[2*w], all[2*w+1]
		t := stats.NewTable(
			fmt.Sprintf("FIGURE 8 (%s). L3 Miss Ratio for Different Trace Lengths", long.workload),
			"L3 size", "long trace", "short trace")
		for i, size := range sizes {
			t.AddRow(addr.FormatSize(size), long.miss[i], short.miss[i])
		}
		res.Tables = append(res.Tables, t)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: long trace %d refs, short trace %d refs (host workload references)",
			long.workload, long.refs, short.refs))
	}

	// Shape checks per workload.
	for w := 0; w < 2; w++ {
		long, short := all[2*w], all[2*w+1]
		name := long.workload
		last := len(sizes) - 1

		if err := monotoneNonincreasing(p.Fig8SizesMB, long.miss, 0.02, name+" long trace"); err != nil {
			return nil, err
		}
		// Long trace: clear overall improvement from smallest to largest.
		if long.miss[last] > long.miss[0]*0.90 {
			return nil, fmt.Errorf("fig8 %s: long trace barely improves with cache size (%.4f -> %.4f)",
				name, long.miss[0], long.miss[last])
		}
		// Short trace overstates the miss ratio at the largest cache.
		minFactor := 1.25
		if name == "tpch" {
			// TPC-H's scan-dominated stream shows a smaller (but still
			// directional) trace-length effect, as in the paper's right
			// panel.
			minFactor = 1.02
		}
		if short.miss[last] < long.miss[last]*minFactor {
			return nil, fmt.Errorf("fig8 %s: short trace does not overstate the miss ratio at %s (short %.4f vs long %.4f)",
				name, addr.FormatSize(sizes[last]), short.miss[last], long.miss[last])
		}
		// Short trace flattens: its relative improvement over the top
		// size step is smaller than the long trace's.
		longGain := 1 - long.miss[last]/long.miss[last-1]
		shortGain := 1 - short.miss[last]/short.miss[last-1]
		if shortGain >= longGain {
			return nil, fmt.Errorf("fig8 %s: short trace did not flatten (top-step gain short %.3f vs long %.3f)",
				name, shortGain, longGain)
		}
	}
	res.Notes = append(res.Notes,
		"shape: long-trace curves keep falling; short-trace curves flatten and overstate the large-cache miss ratio (the paper's 'off by 100% or more')")
	return res, nil
}
