package experiments

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/core"
	"memories/internal/faults"
	"memories/internal/host"
	"memories/internal/parallel"
	"memories/internal/stats"
	"memories/internal/workload"
)

// runFaults is the one experiment with no counterpart in the paper: it
// measures what §3.3 only asserts. Three questions, one table each:
//
//  1. Soft errors: with tag-store bit flips injected at a swept rate, how
//     far does the board's miss ratio drift from a fault-free run, with
//     and without the ECC scrub? (Scrub on: drift must stay under 0.1%.
//     Scrub off: the golden-shadow divergence counter must catch it.)
//  2. Stream faults: drops, duplicates, and stalls must never cause
//     divergence between the board and the golden shadow fed from the
//     drain hook — the shadow sees the post-fault stream by construction.
//  3. Forced overflow: an injected transaction burst must fill the
//     512-entry buffer and drive the combined-Retry path end to end —
//     while the fault-free run preserves the paper's "retry never fired"
//     observation at nominal utilization.
func runFaults(p Preset) (*Result, error) {
	hcfg := dbHostConfig(p)
	newGen := func() workload.Generator {
		return workload.NewTPCC(workload.ScaledTPCCConfig(p.TPCCFactor))
	}
	const cacheBytes = 1 * addr.MB

	type runOut struct {
		view core.NodeView
		div  faults.DivergenceReport
		inj  *faults.Injector
		h    *host.Host
	}
	// faultRun wires host -> injector -> board and runs the workload.
	faultRun := func(bcfg core.Config, fcfg faults.Config) (runOut, error) {
		bcfg.Nodes = []core.NodeConfig{stdNode(p, "f", core.CPURange(hcfg.NumCPUs), cacheBytes, 128, 8, 0)}
		b, err := core.NewBoard(bcfg)
		if err != nil {
			return runOut{}, err
		}
		fcfg.Shadow = true
		inj, err := faults.New(b, fcfg)
		if err != nil {
			return runOut{}, err
		}
		h, err := host.New(hcfg, newGen())
		if err != nil {
			return runOut{}, err
		}
		h.Bus().Attach(inj)
		h.Run(p.FaultsRefs)
		b.Flush()
		return runOut{view: b.Node(0), div: inj.CheckDivergence(), inj: inj, h: h}, nil
	}

	res := &Result{}

	// Fault-free baseline (through a zero-rate injector, so the shadow
	// machinery itself is under differential test).
	clean, err := faultRun(core.Config{}, faults.Config{Seed: 7})
	if err != nil {
		return nil, err
	}
	if clean.div.Delta != 0 {
		return nil, fmt.Errorf("faults: golden shadow diverges on a fault-free run (delta %d)", clean.div.Delta)
	}
	cleanMiss := clean.view.MissRatio()

	// 1. Bit-flip sweep, scrub on vs off: 2*len(rates) independent runs
	// (each builds its own board, injector, and host), executed up to
	// p.Parallel at a time; rows and shape checks happen afterwards in
	// sweep order. Even tasks are scrub-on, odd scrub-off, for rate i/2.
	t1 := stats.NewTable(
		"FAULTS. Tag-store bit flips: miss-ratio drift vs fault-free run",
		"flip rate", "scrub", "flips", "miss ratio", "drift", "divergence")
	sweep, err := parallel.Map(p.Parallel, 2*len(p.FaultsRates), func(i int) (runOut, error) {
		bcfg := core.Config{}
		if i%2 == 0 {
			bcfg.ECC = true
			bcfg.ScrubIntervalCycles = p.FaultsScrubCycles
		}
		return faultRun(bcfg, faults.Config{Seed: 7, BitFlipProb: p.FaultsRates[i/2]})
	})
	if err != nil {
		return nil, err
	}
	for i, out := range sweep {
		rate, scrub := p.FaultsRates[i/2], i%2 == 0
		miss := out.view.MissRatio()
		drift := miss - cleanMiss
		if drift < 0 {
			drift = -drift
		}
		label := "off"
		if scrub {
			label = "on"
		}
		flips := out.inj.Board().Counters().Counter("faults.bitflips").Value()
		t1.AddRow(fmt.Sprintf("%.0e", rate), label, flips, miss, drift, out.div.Delta)
		if scrub {
			if drift >= 0.001 {
				return nil, fmt.Errorf("faults: scrub-on drift %.5f at rate %.0e exceeds 0.1%%", drift, rate)
			}
		} else if rate >= p.FaultsRates[len(p.FaultsRates)-1] && out.div.Delta == 0 {
			return nil, fmt.Errorf("faults: scrub-off run at rate %.0e not detected by divergence counter", rate)
		}
	}
	res.Tables = append(res.Tables, t1)

	// 2. Stream faults: drops, duplicates, stalls. The board and the
	// shadow must agree exactly — the shadow is defined over the stream
	// the directories actually processed.
	stream, err := faultRun(core.Config{}, faults.Config{
		Seed: 11, DropProb: 0.01, DupProb: 0.01, StallProb: 1e-4, StallCycles: 2000,
	})
	if err != nil {
		return nil, err
	}
	if stream.div.Delta != 0 {
		return nil, fmt.Errorf("faults: stream faults caused board/shadow divergence (delta %d)", stream.div.Delta)
	}
	bank := stream.inj.Board().Counters()
	t2 := stats.NewTable(
		"FAULTS. Stream faults (drop/dup/stall): board vs golden shadow",
		"dropped", "duplicated", "stalls", "stall cycles", "divergence")
	t2.AddRow(
		bank.Counter("faults.dropped").Value(),
		bank.Counter("faults.duplicated").Value(),
		bank.Counter("faults.stalls").Value(),
		stream.inj.Board().TagStoreStats(0).InjectedStallCycles,
		stream.div.Delta)
	res.Tables = append(res.Tables, t2)

	// 3. Forced overflow: nominal run must keep the paper's zero-retry
	// record; the burst run must fill the buffer and exercise the retry
	// protocol end to end.
	t3 := stats.NewTable(
		"FAULTS. Forced buffer overflow and the 6xx retry path",
		"run", "bursts", "high-water", "retries posted", "host re-issues", "exhausted")
	nominal, err := faultRun(core.Config{RetryOnOverflow: true}, faults.Config{Seed: 13})
	if err != nil {
		return nil, err
	}
	nb := nominal.inj.Board().Counters()
	t3.AddRow("nominal",
		nb.Counter("faults.bursts").Value(),
		nb.Counter("buffer.high-water").Value(),
		nb.Counter("buffer.retry-posted").Value(),
		nominal.h.Stats().Retried,
		nominal.h.Stats().RetryExhausted)
	if nominal.h.Stats().Retried != 0 {
		return nil, fmt.Errorf("faults: nominal run posted %d retries; the paper's zero-retry observation must hold",
			nominal.h.Stats().Retried)
	}
	burst, err := faultRun(core.Config{RetryOnOverflow: true},
		faults.Config{Seed: 13, BurstProb: p.FaultsBurstProb})
	if err != nil {
		return nil, err
	}
	bb := burst.inj.Board().Counters()
	t3.AddRow("burst",
		bb.Counter("faults.bursts").Value(),
		bb.Counter("buffer.high-water").Value(),
		bb.Counter("buffer.retry-posted").Value(),
		burst.h.Stats().Retried,
		burst.h.Stats().RetryExhausted)
	res.Tables = append(res.Tables, t3)
	if bb.Counter("faults.bursts").Value() == 0 {
		return nil, fmt.Errorf("faults: burst run injected no bursts; raise FaultsBurstProb")
	}
	if hw, depth := bb.Counter("buffer.high-water").Value(), uint64(core.DefaultBufferDepth); hw < depth {
		return nil, fmt.Errorf("faults: burst high-water %d never filled the %d-entry buffer", hw, depth)
	}
	if bb.Counter("buffer.retry-posted").Value() == 0 || burst.h.Stats().Retried == 0 {
		return nil, fmt.Errorf("faults: forced overflow produced no observed retries (posted %d, host %d)",
			bb.Counter("buffer.retry-posted").Value(), burst.h.Stats().Retried)
	}

	res.Notes = append(res.Notes,
		fmt.Sprintf("fault-free miss ratio %.4f over %d refs; scrub interval %d cycles",
			cleanMiss, p.FaultsRefs, p.FaultsScrubCycles),
		"shape: scrub-on drift < 0.1% at every flip rate; scrub-off corruption detected by the divergence counter; stream faults never diverge; forced overflow fills the buffer and drives host re-issues while the nominal run keeps the paper's zero-retry record")
	return res, nil
}
