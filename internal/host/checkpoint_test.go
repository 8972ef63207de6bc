package host

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"memories/internal/bus"
	"memories/internal/checkpoint"
	"memories/internal/workload"
)

// Save mid-run, restore into a freshly constructed twin, and run both
// forward: every statistic, the bus clock, and the private caches must
// stay bit-identical — the resume-equivalence oracle at host scope.
//
// This test and its per-CPU twin are also what holds restore to
// rebuilding the bus's snoop filter, which the snapshot does not carry:
// without Checkpoint's rebuild the twin's empty table hides every
// restored line from its snoops and the resumed statistics diverge.
func TestHostCheckpointContinuation(t *testing.T) {
	mk := func() *Host {
		return MustNew(DefaultConfig(), workload.NewTPCC(workload.ScaledTPCCConfig(4096)))
	}
	h := mk()
	h.Run(20_000)

	payload, err := checkpoint.Marshal(h.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	h2 := mk()
	if err := checkpoint.Unmarshal(payload, h2.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if h2.Stats() != h.Stats() {
		t.Fatalf("stats diverge immediately after restore:\n%+v\n%+v", h2.Stats(), h.Stats())
	}

	h.Run(20_000)
	h2.Run(20_000)
	if h2.Stats() != h.Stats() {
		t.Fatalf("stats diverge after resumed run:\n%+v\n%+v", h2.Stats(), h.Stats())
	}
}

// Per-CPU resume equivalence: snapshot a discrete-event host mid-run —
// with actors parked at different local clocks and pending events — and
// the restored twin must replay the identical event order, on the wheel
// and on the lock-step poller (lockstep_test.go), whose cursor must pick
// up from the restored actors' pending events. The uninterrupted run is
// the oracle.
func TestHostCheckpointContinuationPerCPU(t *testing.T) {
	for _, leg := range []struct {
		name string
		run  func(*Host) func(uint64) uint64
	}{
		{"wheel", func(h *Host) func(uint64) uint64 { return h.RunCycles }},
		{"lockstep", func(h *Host) func(uint64) uint64 { return pollWith(h).RunCycles }},
	} {
		t.Run(leg.name, func(t *testing.T) {
			cfg := perCPUTestConfig(16)
			cfg.IOFraction = 0.01 // park some actors on pending I/O events
			mk := func() *Host {
				return MustNewPerCPU(cfg, perCPUStreams(16, 6, 11), EngineWheel)
			}
			const half = 60_000
			oracle := mk()
			leg.run(oracle)(2 * half)

			h := mk()
			leg.run(h)(half)
			payload, err := checkpoint.Marshal(h.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			// The on-disk layout is pinned (digest computed with the
			// Enc-based writer of b889b55; both legs write the same
			// bytes): host sections written before the two-way codec
			// must still load.
			const want = "4098464f3ab29e2c7f1a5ac655ccb92202ffe9a4e84ac0227f94b75567364521"
			if got := fmt.Sprintf("%x", sha256.Sum256(payload)); got != want || len(payload) != 77098 {
				t.Fatalf("host section digest %s (%d B), want %s (77098 B)", got, len(payload), want)
			}
			h2 := mk()
			if err := checkpoint.Unmarshal(payload, h2.Checkpoint); err != nil {
				t.Fatal(err)
			}
			if h2.Stats() != h.Stats() {
				t.Fatalf("stats diverge immediately after restore:\n%+v\n%+v", h2.Stats(), h.Stats())
			}
			if h2.Events() != h.Events() {
				t.Fatalf("events %d after restore, want %d", h2.Events(), h.Events())
			}
			if !bytes.Equal(h2.pres.rows, h.pres.rows) {
				t.Fatal("snoop filter rebuilt on restore differs from the source host's")
			}
			leg.run(h2)(2 * half)
			if h2.Stats() != oracle.Stats() {
				t.Fatalf("stats diverge from uninterrupted run:\n%+v\n%+v", h2.Stats(), oracle.Stats())
			}
			if h2.Events() != oracle.Events() {
				t.Fatalf("events %d after resume, oracle %d", h2.Events(), oracle.Events())
			}
			if h2.Bus().Stats() != oracle.Bus().Stats() {
				t.Fatalf("bus stats diverge from uninterrupted run:\n%+v\n%+v",
					h2.Bus().Stats(), oracle.Bus().Stats())
			}
		})
	}
}

// A per-CPU snapshot must not restore into a merged-stream host (or
// vice versa): the mode byte is part of the fingerprint.
func TestHostRestoreRejectsModeMismatch(t *testing.T) {
	src := MustNewPerCPU(perCPUTestConfig(8), perCPUStreams(8, 4, 3), EngineWheel)
	src.RunCycles(10_000)
	payload, err := checkpoint.Marshal(src.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	dst := MustNew(DefaultConfig(), workload.NewTPCC(workload.ScaledTPCCConfig(4096)))
	err = checkpoint.Unmarshal(payload, dst.Checkpoint)
	var ce *checkpoint.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *checkpoint.CorruptError", err)
	}
}

// A version-1 snapshot (no leading version byte; it began with the
// generator-name string) must be rejected by the version check, not
// misdecoded.
func TestHostRestoreRejectsV1Snapshot(t *testing.T) {
	payload, _ := checkpoint.Marshal(func(c *checkpoint.Codec) error {
		name, pos := "tpcc-oltp", uint64(42) // how a v1 host section began
		c.Str(&name)
		c.U64(&pos)
		return nil
	})
	dst := MustNew(DefaultConfig(), workload.NewTPCC(workload.ScaledTPCCConfig(4096)))
	err := checkpoint.Unmarshal(payload, dst.Checkpoint)
	var ce *checkpoint.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *checkpoint.CorruptError", err)
	}
}

// A snapshot from one workload must not restore into a host driving
// another: the generator name is the fingerprint.
func TestHostRestoreRejectsWrongGenerator(t *testing.T) {
	src := MustNew(DefaultConfig(), workload.NewTPCC(workload.ScaledTPCCConfig(4096)))
	src.Run(1000)
	payload, err := checkpoint.Marshal(src.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	dst := MustNew(DefaultConfig(), workload.NewTPCH(workload.ScaledTPCHConfig(4096)))
	err = checkpoint.Unmarshal(payload, dst.Checkpoint)
	var ce *checkpoint.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *checkpoint.CorruptError", err)
	}
}

// stackGen stands in for the splash kernels: a generator that does not
// implement workload.Checkpointer and therefore cannot be checkpointed.
type stackGen struct{}

func (stackGen) Name() string               { return "stack-resident" }
func (stackGen) Next() (workload.Ref, bool) { return workload.Ref{Addr: 128, Instrs: 1}, true }
func (stackGen) Footprint() int64           { return 1 << 20 }

func TestHostSaveRejectsNonCheckpointableGenerator(t *testing.T) {
	h := MustNew(DefaultConfig(), stackGen{})
	h.Run(100)
	if _, err := checkpoint.Marshal(h.Checkpoint); err == nil {
		t.Fatal("save accepted a non-checkpointable generator")
	}
	if err := checkpoint.Unmarshal(nil, h.Checkpoint); err == nil {
		t.Fatal("restore accepted a non-checkpointable generator")
	}
}

// A pending-event kind or I/O bus command outside its enum restores an
// actor that is live but that dispatch never reschedules: the wheel
// stops early with live > 0 (and a poller would spin). Both bytes are
// checked on the way in.
func TestHostRestoreRejectsUnknownPendingEvent(t *testing.T) {
	cfg := perCPUTestConfig(2)
	mk := func() *Host { return MustNewPerCPU(cfg, perCPUStreams(2, 2, 5), EngineWheel) }
	src := mk()
	src.RunCycles(5_000)
	good, err := checkpoint.Marshal(src.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	// Locate actor 0's two enum bytes by saving a twin that differs from
	// src in exactly that byte.
	offsetOf := func(mutate func(*cpu)) int {
		twin := mk()
		if err := checkpoint.Unmarshal(good, twin.Checkpoint); err != nil {
			t.Fatal(err)
		}
		mutate(twin.cpus[0])
		b, err := checkpoint.Marshal(twin.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		for i := range good {
			if b[i] != good[i] {
				return i
			}
		}
		t.Fatal("mutation did not change the payload")
		return -1
	}
	for _, tc := range []struct {
		name string
		off  int
		val  uint8
	}{
		{"pend", offsetOf(func(c *cpu) { c.pend ^= 1 }), uint8(pendIO) + 1},
		{"pendIOCmd", offsetOf(func(c *cpu) { c.pendIOCmd ^= 1 }), uint8(bus.NumCommands())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), good...)
			bad[tc.off] = tc.val
			err := checkpoint.Unmarshal(bad, mk().Checkpoint)
			var ce *checkpoint.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("%s = %d: err = %v, want *checkpoint.CorruptError", tc.name, tc.val, err)
			}
		})
	}
}
