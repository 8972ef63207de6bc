package experiments

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/core"
	"memories/internal/stats"
	"memories/internal/workload"
)

// runFig10 reproduces Figure 10 / case study 2: the TPC-C miss-ratio
// profile over a long run shows periodic spikes — at every emulated cache
// size — caused by an OS file-system journaling bug; fixing the bug (here:
// not injecting the disturbance) removes them.
func runFig10(p Preset) (*Result, error) {
	hcfg := dbHostConfig(p)
	disturb := workload.DisturbanceConfig{
		PeriodRefs:   p.Fig10PeriodRefs,
		BurstRefs:    p.Fig10BurstRefs,
		JournalBytes: 64 * addr.MB,
	}
	nodes := []core.NodeConfig{
		stdNode(p, "small", core.CPURange(hcfg.NumCPUs), p.Fig10SmallMB*addr.MB, 128, 1, 0),
		stdNode(p, "big", core.CPURange(hcfg.NumCPUs), p.Fig10BigMB*addr.MB, 128, 8, 1),
	}
	bcfg := core.Config{Nodes: nodes, ProfileBucketCycles: p.Fig10BucketCyc}

	// Two streams: with the journaling bug (the disturbance), then fixed.
	var boards [2]*core.Board
	for i, label := range []string{"buggy", "fixed"} {
		newGen := func() workload.Generator {
			g := workload.Generator(workload.NewTPCC(workload.ScaledTPCCConfig(p.TPCCFactor)))
			if i == 0 {
				g = workload.WithDisturbance(g, disturb)
			}
			return g
		}
		b, err := streamRun(p, []string{label}, hcfg, newGen, []core.Config{bcfg}, p.Fig10Refs)
		if err != nil {
			return nil, err
		}
		boards[i] = b[0]
	}
	buggy, fixed := boards[0], boards[1]

	res := &Result{}
	const spikeFactor = 1.3
	labels := []string{
		fmt.Sprintf("%dMB direct-mapped", p.Fig10SmallMB),
		fmt.Sprintf("%dMB 8-way", p.Fig10BigMB),
	}
	var periods [2]int
	for i := 0; i < 2; i++ {
		prof := buggy.Profile(i)
		fixedProf := fixed.Profile(i)
		// Analyze the trailing 60% of the run: the cold-start ramp would
		// otherwise register as spurious spikes.
		tail, fixedTail := prof.Tail(0.6), fixedProf.Tail(0.6)
		t := stats.NewTable(
			fmt.Sprintf("FIGURE 10. TPC-C Miss Ratio Profile, %s L3", labels[i]),
			"Profile", "mean miss ratio", "spikes (steady state)", "period (buckets)", "sparkline")
		t.AddRow("with OS journaling bug", prof.Mean(),
			len(tail.Spikes(spikeFactor)), tail.DominantPeriod(spikeFactor), prof.Sparkline())
		t.AddRow("after OS fix", fixedProf.Mean(),
			len(fixedTail.Spikes(spikeFactor)), fixedTail.DominantPeriod(spikeFactor), fixedProf.Sparkline())
		res.Tables = append(res.Tables, t)
		periods[i] = tail.DominantPeriod(spikeFactor)

		if len(tail.Spikes(spikeFactor)) < 3 {
			return nil, fmt.Errorf("fig10 %s: journaling bug produced only %d spikes",
				labels[i], len(tail.Spikes(spikeFactor)))
		}
		if got := len(fixedTail.Spikes(spikeFactor)); got > len(tail.Spikes(spikeFactor))/3 {
			return nil, fmt.Errorf("fig10 %s: OS fix left %d spikes (buggy run had %d)",
				labels[i], got, len(tail.Spikes(spikeFactor)))
		}
	}

	// The spike period must be consistent across cache sizes (the
	// paper's tell that the cause is software, not cache design).
	if periods[0] > 0 && periods[1] > 0 {
		lo, hi := periods[0], periods[1]
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi > lo*2 {
			return nil, fmt.Errorf("fig10: spike periods disagree across cache sizes (%d vs %d buckets)",
				periods[0], periods[1])
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("journaling disturbance: burst of %d refs every %d refs over a 64MB journal",
			disturb.BurstRefs, disturb.PeriodRefs),
		"shape: periodic spikes at every cache size with a common period; eliminated by the OS fix",
	)
	return res, nil
}
