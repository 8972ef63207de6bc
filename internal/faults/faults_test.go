package faults

import (
	"bytes"
	"strings"
	"testing"

	"memories/internal/addr"
	"memories/internal/cache"
	"memories/internal/console"
	"memories/internal/core"
	"memories/internal/host"
	"memories/internal/stats"
	"memories/internal/workload"
	"memories/protocols"
)

func testBoardConfig() core.Config {
	return core.Config{Nodes: []core.NodeConfig{{
		Name:     "a",
		CPUs:     []int{0, 1, 2, 3, 4, 5, 6, 7},
		Geometry: addr.MustGeometry(1*addr.MB, 128, 8),
		Policy:   cache.LRU,
		Protocol: protocols.MustLoad("mesi"),
	}}}
}

// run wires host -> injector -> board over refs TPC-C references and
// returns both for inspection.
func run(t *testing.T, bcfg core.Config, fcfg Config, refs uint64) (*core.Board, *Injector, *host.Host) {
	t.Helper()
	b, err := core.NewBoard(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := New(b, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := host.New(host.DefaultConfig(), workload.NewTPCC(workload.ScaledTPCCConfig(4096)))
	if err != nil {
		t.Fatal(err)
	}
	h.Bus().Attach(inj)
	h.Run(refs)
	b.Flush()
	return b, inj, h
}

func TestConfigValidation(t *testing.T) {
	b, err := core.NewBoard(testBoardConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{DropProb: -0.1}, {DropProb: 1.5}, {DupProb: 2}, {BurstProb: -1},
		{BitFlipProb: 1.01}, {StallProb: -0.001},
	} {
		if _, err := New(b, bad); err == nil {
			t.Fatalf("accepted config %+v", bad)
		}
	}
}

func TestShadowRequiresSingleGroup(t *testing.T) {
	cfg := testBoardConfig()
	cfg.Nodes = append(cfg.Nodes, core.NodeConfig{
		Name:     "b",
		CPUs:     []int{0, 1, 2, 3, 4, 5, 6, 7},
		Geometry: addr.MustGeometry(1*addr.MB, 128, 8),
		Policy:   cache.LRU,
		Protocol: protocols.MustLoad("mesi"),
		Group:    1,
	})
	b, err := core.NewBoard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(b, Config{Shadow: true}); err == nil {
		t.Fatal("shadow accepted a multi-group board")
	}
}

// TestDeterminism: identical seeds must reproduce the exact same fault
// schedule and therefore identical counters.
func TestDeterminism(t *testing.T) {
	fcfg := Config{Seed: 42, DropProb: 0.02, DupProb: 0.02, BitFlipProb: 0.01, StallProb: 0.001}
	b1, _, _ := run(t, testBoardConfig(), fcfg, 50_000)
	b2, _, _ := run(t, testBoardConfig(), fcfg, 50_000)
	s1, s2 := b1.Counters().Snapshot(), b2.Counters().Snapshot()
	if len(s1) != len(s2) {
		t.Fatalf("counter sets differ: %d vs %d", len(s1), len(s2))
	}
	for name, v := range s1 {
		if s2[name] != v {
			t.Fatalf("counter %s differs: %d vs %d", name, v, s2[name])
		}
	}
}

func TestDropEverything(t *testing.T) {
	b, _, _ := run(t, testBoardConfig(), Config{Seed: 1, DropProb: 1}, 20_000)
	if got := b.Counters().Value("filter.accepted"); got != 0 {
		t.Fatalf("board accepted %d transactions through a 100%% drop fault", got)
	}
	if b.Counters().Value("faults.dropped") == 0 {
		t.Fatal("drops not counted")
	}
}

// TestStreamFaultsNeverDiverge: the golden shadow is defined over the
// post-fault stream, so drops, duplicates, and stalls must never cause
// board/shadow divergence — only tag corruption can.
func TestStreamFaultsNeverDiverge(t *testing.T) {
	_, inj, _ := run(t, testBoardConfig(), Config{
		Seed: 5, DropProb: 0.05, DupProb: 0.05, StallProb: 0.001, StallCycles: 3000, Shadow: true,
	}, 60_000)
	if rep := inj.CheckDivergence(); rep.Delta != 0 {
		t.Fatalf("stream faults diverged: %+v", rep)
	}
}

// TestScrubHealsBitFlips: with ECC and background scrub on, injected
// flips are found and repaired, and the shadow stays near the board.
func TestScrubHealsBitFlips(t *testing.T) {
	bcfg := testBoardConfig()
	bcfg.ECC = true
	bcfg.ScrubIntervalCycles = 10_000
	b, inj, _ := run(t, bcfg, Config{Seed: 3, BitFlipProb: 0.02, Shadow: true}, 60_000)
	if b.Counters().Value("faults.bitflips") == 0 {
		t.Fatal("no flips injected")
	}
	healed := b.Counters().Value("nodea.ecc.corrected") + b.Counters().Value("nodea.ecc.invalidated")
	if healed == 0 {
		t.Fatal("scrub repaired nothing")
	}
	if b.Counters().Value("scrub.passes") == 0 {
		t.Fatal("background scrub never ran")
	}
	rep := inj.CheckDivergence()
	refs := b.Node(0).Refs()
	if float64(rep.Delta) > 0.001*float64(refs) {
		t.Fatalf("scrubbed board drifted %d counts over %d refs", rep.Delta, refs)
	}
}

// TestUnscrubbedFlipsAreDetected: the same corruption without scrub must
// be visible to the divergence detector — silent drift is the one
// unacceptable outcome.
func TestUnscrubbedFlipsAreDetected(t *testing.T) {
	b, inj, _ := run(t, testBoardConfig(), Config{Seed: 3, BitFlipProb: 0.02, Shadow: true}, 60_000)
	if b.Counters().Value("faults.bitflips.valid") == 0 {
		t.Fatal("no flip hit a valid entry; raise the rate or refs")
	}
	if rep := inj.CheckDivergence(); rep.Delta == 0 {
		t.Fatal("corruption without scrub went undetected")
	}
	if b.Counters().Value("faults.divergence") == 0 {
		t.Fatal("divergence counter not surfaced")
	}
}

// TestCounterSaturationUnderSustainedInjection: a 40-bit counter driven
// past its ceiling by fault events must saturate (never wrap) and report
// it through the console dump.
func TestCounterSaturationUnderSustainedInjection(t *testing.T) {
	b, err := core.NewBoard(testBoardConfig())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := New(b, Config{Seed: 2, BitFlipProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-age the flip counter to just below the 40-bit ceiling, as if
	// injection had been running for weeks.
	flips := b.Counters().Counter("faults.bitflips")
	flips.Add(stats.CounterMax - 3)

	h, err := host.New(host.DefaultConfig(), workload.NewTPCC(workload.ScaledTPCCConfig(4096)))
	if err != nil {
		t.Fatal(err)
	}
	h.Bus().Attach(inj)
	h.Run(1_000)
	b.Flush()

	if v := flips.Value(); v != stats.CounterMax {
		t.Fatalf("counter wrapped or stalled: %d (max %d)", v, stats.CounterMax)
	}
	var out bytes.Buffer
	if err := console.New(b, &out).Execute("stats faults.bitflips"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(saturated)") {
		t.Fatalf("console dump hides saturation:\n%s", out.String())
	}
}
