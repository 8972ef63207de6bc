package host

import (
	"errors"
	"fmt"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/workload"
)

// perCPUTestConfig is a geometry small enough to generate dense
// coherence traffic from megabyte streams.
func perCPUTestConfig(ncpu int) Config {
	cfg := DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.L1Bytes = 8 * addr.KB
	cfg.L2Bytes = 64 * addr.KB
	cfg.IOFraction = 0
	return cfg
}

// perCPUStreams builds `active` single-CPU Zipf streams (remaining CPUs
// idle). Every stream draws over the same region (each fresh Layout
// allocates from the same base), so the streams conflict and exercise
// upgrades, invalidations, and interventions across actors.
func perCPUStreams(ncpu, active int, seed uint64) []workload.Generator {
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

// TestPerCPUWheelMatchesLockStep is the wheel's equivalence oracle: the
// event heap and the lock-step poller of lockstep_test.go must dispatch
// the same events in the same order, producing bit-identical bus
// transaction streams, Stats, and event counts. The 256-CPU row is the
// hostscale experiment's largest machine; the 64-CPU row is shaped like
// the host_wheel_64 benchmark, a 64-deep heap with many same-cycle ties.
func TestPerCPUWheelMatchesLockStep(t *testing.T) {
	const cycles = 120000
	for _, tc := range []struct {
		name   string
		ncpu   int
		active int
		iofrac float64
	}{
		{"8cpu-8active", 8, 8, 0},
		{"16cpu-4active", 16, 4, 0},
		{"12cpu-3active-io", 12, 3, 0.01},
		{"256cpu-8active-io", 256, 8, 0.002},
		{"64cpu-64active-io", 64, 64, 0.002},
	} {
		for _, seed := range []uint64{1, 41} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				cfg := perCPUTestConfig(tc.ncpu)
				cfg.IOFraction = tc.iofrac
				cfg.Seed = seed

				wheelHost := MustNewPerCPU(cfg, perCPUStreams(tc.ncpu, tc.active, seed), EngineWheel)
				wheelSpy := &streamSpy{}
				wheelHost.Bus().Attach(wheelSpy)

				lockHost := MustNewPerCPU(cfg, perCPUStreams(tc.ncpu, tc.active, seed), EngineWheel)
				lockSpy := &streamSpy{}
				lockHost.Bus().Attach(lockSpy)

				wheelHost.RunCycles(cycles)
				pollWith(lockHost).RunCycles(cycles)

				if got, want := wheelHost.Events(), lockHost.Events(); got != want {
					t.Fatalf("wheel dispatched %d events, lock-step %d", got, want)
				}
				if got, want := wheelHost.Stats(), lockHost.Stats(); got != want {
					t.Fatalf("stats diverged:\n wheel %+v\n lock  %+v", got, want)
				}
				if got, want := wheelHost.Bus().Stats(), lockHost.Bus().Stats(); got != want {
					t.Fatalf("bus stats diverged:\n wheel %+v\n lock  %+v", got, want)
				}
				if len(wheelSpy.txs) != len(lockSpy.txs) {
					t.Fatalf("wheel issued %d transactions, lock-step %d",
						len(wheelSpy.txs), len(lockSpy.txs))
				}
				for i := range wheelSpy.txs {
					if wheelSpy.txs[i] != lockSpy.txs[i] {
						t.Fatalf("tx %d diverged:\n wheel %+v\n lock  %+v",
							i, wheelSpy.txs[i], lockSpy.txs[i])
					}
				}
				if wheelHost.Stats().L2Misses == 0 || wheelHost.Stats().Invalidations == 0 {
					t.Fatalf("degenerate run (stats %+v); streams must conflict", wheelHost.Stats())
				}
			})
		}
	}
}

// TestPerCPUIdleCPUsCostZero pins the tentpole property: growing the
// machine with idle CPUs changes neither the event count nor the bus
// stream — an idle CPU is never scheduled, so it costs nothing.
func TestPerCPUIdleCPUsCostZero(t *testing.T) {
	const cycles, active = 100000, 4
	type result struct {
		events uint64
		stats  Stats
		txs    []bus.Transaction
	}
	run := func(ncpu int) result {
		h := MustNewPerCPU(perCPUTestConfig(ncpu), perCPUStreams(ncpu, active, 7), EngineWheel)
		spy := &streamSpy{}
		h.Bus().Attach(spy)
		h.RunCycles(cycles)
		return result{events: h.Events(), stats: h.Stats(), txs: spy.txs}
	}
	base := run(8)
	if base.events == 0 {
		t.Fatal("no events dispatched")
	}
	for _, ncpu := range []int{64, 256} {
		got := run(ncpu)
		if got.events != base.events {
			t.Errorf("%d CPUs dispatched %d events, 8 CPUs %d — idle CPUs must cost zero",
				ncpu, got.events, base.events)
		}
		if got.stats != base.stats {
			t.Errorf("%d CPUs stats diverged from 8 CPUs:\n %+v\n %+v", ncpu, got.stats, base.stats)
		}
		if len(got.txs) != len(base.txs) {
			t.Fatalf("%d CPUs issued %d transactions, 8 CPUs %d", ncpu, len(got.txs), len(base.txs))
		}
		for i := range got.txs {
			if got.txs[i] != base.txs[i] {
				t.Fatalf("%d CPUs tx %d diverged: %+v vs %+v", ncpu, i, got.txs[i], base.txs[i])
			}
		}
	}
}

// TestPerCPURunCountsRefs checks the reference-based Run contract in
// per-CPU mode and that Step keeps dispatching single events.
func TestPerCPURunCountsRefs(t *testing.T) {
	h := MustNewPerCPU(perCPUTestConfig(8), perCPUStreams(8, 4, 3), EngineWheel)
	got := h.Run(5000)
	// Whole-event granularity: one wakeup may filter a few refs past n.
	if got < 5000 || got > 5000+wakeBurst {
		t.Fatalf("Run(5000) = %d, want [5000, 5000+burst]", got)
	}
	if refs := h.Stats().Refs; refs != got {
		t.Fatalf("Refs = %d, Run returned %d", refs, got)
	}
	if h.Err() != nil {
		t.Fatalf("Err = %v on a live stream", h.Err())
	}
	if !h.Step() {
		t.Fatal("Step = false on a live stream")
	}
}

// TestPerCPUExhaustion runs finite streams dry: Run must stop short,
// Err must report ErrExhausted, and further Steps must refuse.
func TestPerCPUExhaustion(t *testing.T) {
	streams := perCPUStreams(8, 2, 9)
	for i, s := range streams {
		if s != nil {
			streams[i] = workload.Limit(s, 1000)
		}
	}
	h := MustNewPerCPU(perCPUTestConfig(8), streams, EngineWheel)
	if n := h.Run(10000); n != 2000 {
		t.Fatalf("Run processed %d refs, want 2000", n)
	}
	if err := h.Err(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("Err = %v, want ErrExhausted", err)
	}
	if h.Live() != 0 {
		t.Fatalf("Live = %d after exhaustion", h.Live())
	}
	if h.Step() {
		t.Fatal("Step = true after exhaustion")
	}
}

// TestPerCPUValidation covers constructor rejection paths.
func TestPerCPUValidation(t *testing.T) {
	cfg := perCPUTestConfig(4)
	if _, err := NewPerCPU(cfg, make([]workload.Generator, 3), EngineWheel); err == nil {
		t.Fatal("stream/CPU count mismatch accepted")
	}
	if _, err := NewPerCPU(cfg, make([]workload.Generator, 4), EngineWheel); err == nil {
		t.Fatal("all-nil streams accepted")
	}
}

// TestPerCPURunCyclesRequiresPerCPU pins the merged-host guard.
func TestPerCPURunCyclesRequiresPerCPU(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunCycles on a merged host did not panic")
		}
	}()
	h := MustNew(perCPUTestConfig(4), workload.NewUniform(workload.UniformConfig{
		NumCPUs: 4, FootprintByte: addr.MB, Seed: 1,
	}))
	h.RunCycles(100)
}

// TestPerCPUInclusionHolds runs conflicting streams at a non-default
// geometry and verifies L1 ⊆ L2 inclusion afterwards.
func TestPerCPUInclusionHolds(t *testing.T) {
	cfg := perCPUTestConfig(16)
	cfg.L2Assoc = 1 // direct-mapped L2 maximizes eviction pressure
	h := MustNewPerCPU(cfg, perCPUStreams(16, 8, 5), EngineWheel)
	h.RunCycles(150000)
	if bad, violated := h.CheckInclusion(); violated {
		t.Fatalf("inclusion violated at line %#x", bad)
	}
}
