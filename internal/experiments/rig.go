package experiments

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/cache"
	"memories/internal/core"
	"memories/internal/host"
	"memories/internal/parallel"
	"memories/internal/workload"
)

// stdNode builds a standard LRU node configuration running the
// preset's coherence protocol (MESI unless -protocol overrode it).
func stdNode(p Preset, name string, cpus []int, sizeBytes, lineBytes int64, assoc, group int) core.NodeConfig {
	return core.NodeConfig{
		Name:     name,
		CPUs:     cpus,
		Geometry: addr.MustGeometry(sizeBytes, lineBytes, assoc),
		Policy:   cache.LRU,
		Protocol: p.protocol(),
		Group:    group,
	}
}

// dbHostConfig is the host used for the database case studies at the
// preset's scale.
func dbHostConfig(p Preset) host.Config {
	cfg := host.DefaultConfig()
	cfg.L2Bytes = p.DBHostL2Bytes
	cfg.L2Assoc = p.DBHostL2Assoc
	if p.NumCPUs > 0 {
		cfg.NumCPUs = p.NumCPUs
	}
	return cfg
}

// boardRun wires a fresh host (from cfg and generator factory) to a fresh
// board and runs refs references, flushing the board at the end. When the
// preset carries a registry, the board's counters appear under
// "<ObsScope>.<label>.*" for the duration of the run; label must be
// unique within the experiment.
func boardRun(p Preset, label string, hcfg host.Config, newGen func() workload.Generator, bcfg core.Config, refs uint64) (*core.Board, *host.Host, error) {
	b, err := core.NewBoard(bcfg)
	if err != nil {
		return nil, nil, err
	}
	if p.Obs != nil {
		prefix := p.ObsScope
		if prefix == "" {
			prefix = "experiment"
		}
		if label != "" {
			prefix += "." + label
		}
		if err := b.Observe(p.Obs, nil, prefix, 0); err != nil {
			return nil, nil, err
		}
	}
	h, err := host.New(hcfg, newGen())
	if err != nil {
		return nil, nil, err
	}
	h.Bus().Attach(b)
	h.Run(refs)
	b.Flush()
	// Publish the exact post-flush counters so a sampler's final snapshot
	// matches the end-of-run tables.
	b.PublishObs()
	return b, h, nil
}

// cacheSweep measures one emulated-cache configuration per size, all
// observing the same workload stream. Sizes run in batches of four —
// one per node controller, each in its own snoop group (the board's
// multiple-configuration mode, §2.2) — so every batch needs only one
// host run, and the deterministic generators guarantee every batch sees
// an identical stream. Batches are fully independent (fresh board, host,
// and seeded generator each), so up to par of them run concurrently;
// results are bit-identical at every par.
func cacheSweep(p Preset, scope string, hcfg host.Config, newGen func() workload.Generator, sizes []int64, lineBytes int64, assoc int, refs uint64, par int) ([]core.NodeView, error) {
	nBatches := (len(sizes) + core.MaxNodes - 1) / core.MaxNodes
	batches, err := parallel.Map(par, nBatches, func(bi int) ([]core.NodeView, error) {
		start := bi * core.MaxNodes
		end := min(start+core.MaxNodes, len(sizes))
		var nodes []core.NodeConfig
		for i, size := range sizes[start:end] {
			nodes = append(nodes, stdNode(p, fmt.Sprintf("s%d", start+i), core.CPURange(hcfg.NumCPUs), size, lineBytes, assoc, i))
		}
		b, _, err := boardRun(p, sweepLabel(scope, bi), hcfg, newGen, core.Config{Nodes: nodes}, refs)
		if err != nil {
			return nil, err
		}
		out := make([]core.NodeView, len(nodes))
		for i := range nodes {
			out[i] = b.Node(i)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	views := make([]core.NodeView, 0, len(sizes))
	for _, b := range batches {
		views = append(views, b...)
	}
	return views, nil
}

// procSweep measures the aggregate miss ratio when the host's CPUs are
// split into nodes of `procs` processors, each with its own cache of
// cacheBytes. More than four nodes take multiple board runs (the paper's
// board has four controllers); results aggregate across runs.
func procSweep(p Preset, scope string, hcfg host.Config, newGen func() workload.Generator, cacheBytes, lineBytes int64, assoc int, refs uint64, procs, par int) (float64, error) {
	if hcfg.NumCPUs%procs != 0 {
		return 0, fmt.Errorf("experiments: %d CPUs not divisible by %d per node", hcfg.NumCPUs, procs)
	}
	nodesNeeded := hcfg.NumCPUs / procs
	nBatches := (nodesNeeded + core.MaxNodes - 1) / core.MaxNodes
	type tally struct{ miss, refs uint64 }
	tallies, err := parallel.Map(par, nBatches, func(batch int) (tally, error) {
		var nodes []core.NodeConfig
		for n := batch * core.MaxNodes; n < nodesNeeded && n < (batch+1)*core.MaxNodes; n++ {
			cpus := make([]int, procs)
			for j := range cpus {
				cpus[j] = n*procs + j
			}
			nodes = append(nodes, stdNode(p, fmt.Sprintf("n%d", n), cpus, cacheBytes, lineBytes, assoc, 0))
		}
		b, _, err := boardRun(p, sweepLabel(scope, batch), hcfg, newGen, core.Config{Nodes: nodes}, refs)
		if err != nil {
			return tally{}, err
		}
		var t tally
		for i := range nodes {
			v := b.Node(i)
			t.miss += v.Misses()
			t.refs += v.Refs()
		}
		return t, nil
	})
	if err != nil {
		return 0, err
	}
	var missSum, refSum uint64
	for _, t := range tallies {
		missSum += t.miss
		refSum += t.refs
	}
	if refSum == 0 {
		return 0, fmt.Errorf("experiments: proc sweep saw no references")
	}
	return float64(missSum) / float64(refSum), nil
}

// sweepLabel names one sweep batch's board in the metrics registry.
func sweepLabel(scope string, batch int) string {
	if scope == "" {
		return fmt.Sprintf("batch%d", batch)
	}
	return fmt.Sprintf("%s.batch%d", scope, batch)
}

// monotoneNonincreasing checks a curve falls (within a relative
// tolerance) as the x axis grows.
func monotoneNonincreasing(xs []int64, ys []float64, tol float64, what string) error {
	for i := 1; i < len(ys); i++ {
		if ys[i] > ys[i-1]*(1+tol) {
			return fmt.Errorf("%s: not monotone at %d (%.4f -> %.4f)", what, xs[i], ys[i-1], ys[i])
		}
	}
	return nil
}
