package experiments

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/host"
	"memories/internal/parallel"
	"memories/internal/stats"
	"memories/internal/workload"
)

// hostScaleConfig is the per-CPU host used by the scaling sweep: small
// private caches so megabyte streams generate dense coherence traffic,
// and the default's little I/O so DMA events ride the wheel too.
func hostScaleConfig(ncpu int) host.Config {
	cfg := host.DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.L1Bytes = 8 * addr.KB
	cfg.L2Bytes = 64 * addr.KB
	return cfg
}

// hostScaleActive is the number of busy streams at every sweep point;
// the rest of the machine's CPUs idle.
const hostScaleActive = 8

// hostScaleStreams builds `active` single-CPU Zipf streams over a shared
// region (remaining CPUs idle), so the busy actors conflict and exercise
// upgrades, invalidations, and interventions.
func hostScaleStreams(ncpu, active int, seed uint64) []workload.Generator {
	streams := make([]workload.Generator, ncpu)
	for i := 0; i < active; i++ {
		streams[i] = workload.NewZipfian(workload.ZipfConfig{
			NumCPUs:       1,
			FootprintByte: addr.MB,
			WriteFraction: 0.3,
			Seed:          seed + uint64(i),
		})
	}
	return streams
}

// runHostScale demonstrates the discrete-event host's scaling claim: the
// work per emulated bus cycle is proportional to *bus events*, not to the
// machine size. Each sweep point runs the same 8 busy streams inside a
// progressively larger SMP and reports the events the wheel dispatched
// against the per-cycle polls a lock-step loop would have evaluated
// (cycles x CPUs). The wheel row stays flat as CPUs grow; the poll count
// explodes - that ratio is the emulation-speed headroom.
func runHostScale(p Preset) (*Result, error) {
	sweep := p.HostScaleCPUs
	if p.NumCPUs > 0 {
		sweep = []int{p.NumCPUs}
	}
	cycles := p.HostScaleCycles
	const seed = 21

	type point struct {
		ncpu   int
		active int
		events uint64
		st     host.Stats
		bst    busStatsLike
		busPct float64
		probes float64 // peer snoops per memory transaction
	}
	pts, err := parallel.Map(p.Parallel, len(sweep), func(i int) (point, error) {
		ncpu := sweep[i]
		active := min(hostScaleActive, ncpu)
		h, err := host.NewPerCPU(hostScaleConfig(ncpu), hostScaleStreams(ncpu, active, seed), host.EngineWheel)
		if err != nil {
			return point{}, err
		}
		h.RunCycles(cycles)
		bs := h.Bus().Stats()
		probed, _ := h.SnoopFilter()
		return point{
			ncpu:   ncpu,
			active: active,
			events: h.Events(),
			st:     h.Stats(),
			bst:    busStatsLike{Transactions: bs.Transactions, BusyCycles: bs.BusyCycles},
			busPct: 100 * float64(bs.BusyCycles) / float64(h.Bus().Cycle()),
			probes: float64(probed) / float64(bs.Transactions-h.Stats().IOOps),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	t := stats.NewTable(
		fmt.Sprintf("HOST SCALING. Event-wheel dispatches vs. lock-step polls over %d bus cycles", cycles),
		"CPUs", "busy", "refs", "bus txns", "bus busy%", "events", "lock-step polls", "polls/event", "probes/txn")
	for _, pt := range pts {
		polls := cycles * uint64(pt.ncpu)
		t.AddRow(pt.ncpu, pt.active, pt.st.Refs, pt.bst.Transactions,
			fmt.Sprintf("%.1f%%", pt.busPct), pt.events, polls,
			float64(polls)/float64(pt.events), pt.probes)
	}
	res := &Result{
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("%d conflicting Zipf streams (seed %d) inside machines of growing size; idle CPUs are never scheduled", pts[0].active, seed),
			fmt.Sprintf("probes/txn: peer caches the bus's snoop filter presented each memory transaction to, of the %d busy peers a bus without it snoops", pts[0].active-1),
		},
	}

	// Shape: the busy work is size-invariant — every sweep point with the
	// same busy-stream count dispatches the same events and bus traffic —
	// while the lock-step poll count grows with the machine.
	for _, pt := range pts {
		if pt.st.L2Misses == 0 || pt.st.Invalidations == 0 {
			return nil, fmt.Errorf("hostscale: degenerate run at %d CPUs (stats %+v); streams must conflict",
				pt.ncpu, pt.st)
		}
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].active != pts[0].active {
			continue // a narrowed sweep can clamp the busy count
		}
		if pts[i].events != pts[0].events || pts[i].st != pts[0].st {
			return nil, fmt.Errorf("hostscale: events/stats changed with machine size (%d CPUs: %d events, %d CPUs: %d events) — idle CPUs must cost zero",
				pts[0].ncpu, pts[0].events, pts[i].ncpu, pts[i].events)
		}
	}
	if n := len(pts); n > 1 {
		first := float64(cycles*uint64(pts[0].ncpu)) / float64(pts[0].events)
		last := float64(cycles*uint64(pts[n-1].ncpu)) / float64(pts[n-1].events)
		if last <= first {
			return nil, fmt.Errorf("hostscale: polls/event did not grow with machine size (%.1f -> %.1f)", first, last)
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"shape: polls/event grows %.1fx from %d to %d CPUs while dispatched events stay constant",
			last/first, pts[0].ncpu, pts[n-1].ncpu))
	}
	return res, nil
}

// busStatsLike keeps only the bus columns the table reports, so the
// sweep's result type stays comparable.
type busStatsLike struct {
	Transactions uint64
	BusyCycles   uint64
}
