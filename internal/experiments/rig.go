package experiments

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/cache"
	"memories/internal/core"
	"memories/internal/host"
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

// streamRun runs one reference stream — a fresh host from hcfg driving
// newGen's generator for refs references — with one board per config
// attached to its bus, then flushes every board. A board without
// RetryOnOverflow answers every transaction Null, so the host cannot
// tell how many boards snoop it and each board sees exactly the stream
// it would see alone (the paper's several configurations in one pass,
// §2.2); a config that may post Retry is refused. When the preset
// carries a registry, board i's counters appear under
// "<ObsScope>.<labels[i]>.*"; labels must be unique within the
// experiment.
func streamRun(p Preset, labels []string, hcfg host.Config, newGen func() workload.Generator, bcfgs []core.Config, refs uint64) ([]*core.Board, error) {
	for i, bcfg := range bcfgs {
		if bcfg.RetryOnOverflow {
			return nil, fmt.Errorf("experiments: board %q posts retries, which would change the stream of every board on its bus", labels[i])
		}
	}
	h, err := host.New(hcfg, newGen())
	if err != nil {
		return nil, err
	}
	boards := make([]*core.Board, len(bcfgs))
	for i, bcfg := range bcfgs {
		if boards[i], err = core.NewBoard(bcfg); err != nil {
			return nil, err
		}
		if p.Obs != nil {
			if err := boards[i].Observe(p.Obs, nil, p.ObsScope+"."+labels[i], 0); err != nil {
				return nil, err
			}
		}
		h.Bus().Attach(boards[i])
	}
	h.Run(refs)
	for _, b := range boards {
		b.Flush()
		// Publish the exact post-flush counters so a sampler's final
		// snapshot matches the end-of-run tables.
		b.PublishObs()
	}
	return boards, nil
}

// splitNodes builds n standard nodes n0, n1, … in snoop group 0, node i
// serving CPUs i*per … i*per+per-1.
func splitNodes(p Preset, n, per int, cacheBytes, lineBytes int64, assoc int) []core.NodeConfig {
	nodes := make([]core.NodeConfig, n)
	for i := range nodes {
		cpus := make([]int, per)
		for j := range cpus {
			cpus[j] = i*per + j
		}
		nodes[i] = stdNode(p, fmt.Sprintf("n%d", i), cpus, cacheBytes, lineBytes, assoc, 0)
	}
	return nodes
}

// boardsOf packs nodes, in order, onto boards of at most core.MaxNodes
// node controllers (the paper's board has four) and labels board b
// "<scope>.batch<b>".
func boardsOf(scope string, nodes []core.NodeConfig) (labels []string, bcfgs []core.Config) {
	for start := 0; start < len(nodes); start += core.MaxNodes {
		labels = append(labels, fmt.Sprintf("%s.batch%d", scope, len(bcfgs)))
		bcfgs = append(bcfgs, core.Config{Nodes: nodes[start:min(start+core.MaxNodes, len(nodes))]})
	}
	return labels, bcfgs
}

// cacheSweep measures one emulated-cache configuration per size, all
// observing one run of the workload stream. Each size is a node over
// every CPU in its own snoop group (the board's multiple-configuration
// mode, §2.2), four to a board, and every board rides the same bus.
func cacheSweep(p Preset, scope string, hcfg host.Config, newGen func() workload.Generator, sizes []int64, lineBytes int64, assoc int, refs uint64) ([]core.NodeView, error) {
	nodes := make([]core.NodeConfig, len(sizes))
	for i, size := range sizes {
		nodes[i] = stdNode(p, fmt.Sprintf("s%d", i), core.CPURange(hcfg.NumCPUs), size, lineBytes, assoc, i%core.MaxNodes)
	}
	labels, bcfgs := boardsOf(scope, nodes)
	boards, err := streamRun(p, labels, hcfg, newGen, bcfgs, refs)
	if err != nil {
		return nil, err
	}
	views := make([]core.NodeView, 0, len(sizes))
	for _, b := range boards {
		for i := 0; i < b.NumNodes(); i++ {
			views = append(views, b.Node(i))
		}
	}
	return views, nil
}

// procSweep measures, for each entry of procs, the aggregate miss ratio
// when the host's CPUs are split into nodes of that many processors,
// each with its own cache of cacheBytes. Every board of every entry
// rides one run of the stream.
func procSweep(p Preset, scope string, hcfg host.Config, newGen func() workload.Generator, cacheBytes, lineBytes int64, assoc int, refs uint64, procs []int) ([]float64, error) {
	var labels []string
	var bcfgs []core.Config
	var owner []int // owner[b]: the procs entry board b measures
	for pi, per := range procs {
		if hcfg.NumCPUs%per != 0 {
			return nil, fmt.Errorf("experiments: %d CPUs not divisible by %d per node", hcfg.NumCPUs, per)
		}
		l, c := boardsOf(fmt.Sprintf("procs%d.%s", per, scope), splitNodes(p, hcfg.NumCPUs/per, per, cacheBytes, lineBytes, assoc))
		labels, bcfgs = append(labels, l...), append(bcfgs, c...)
		for range c {
			owner = append(owner, pi)
		}
	}
	boards, err := streamRun(p, labels, hcfg, newGen, bcfgs, refs)
	if err != nil {
		return nil, err
	}
	miss, total := make([]uint64, len(procs)), make([]uint64, len(procs))
	for bi, b := range boards {
		for i := 0; i < b.NumNodes(); i++ {
			miss[owner[bi]] += b.Node(i).Misses()
			total[owner[bi]] += b.Node(i).Refs()
		}
	}
	out := make([]float64, len(procs))
	for i := range procs {
		if total[i] == 0 {
			return nil, fmt.Errorf("experiments: proc sweep saw no references")
		}
		out[i] = float64(miss[i]) / float64(total[i])
	}
	return out, nil
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
