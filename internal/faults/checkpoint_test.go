package faults

import (
	"errors"
	"testing"

	"memories/internal/checkpoint"
	"memories/internal/core"
)

// Round trip with the shadow model enabled: RNG position and golden
// state land in an identically configured twin, and the twin's shadow
// agrees with the restored board (no false divergence on resume).
func TestInjectorCheckpointRoundTrip(t *testing.T) {
	fcfg := Config{Seed: 11, DropProb: 0.01, DupProb: 0.01, Shadow: true}
	_, inj, _ := run(t, testBoardConfig(), fcfg, 5000)

	payload, err := checkpoint.Marshal(inj.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	board2, err := core.NewBoard(testBoardConfig())
	if err != nil {
		t.Fatal(err)
	}
	inj2, err := New(board2, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	inj2.lastForwarded = true // restore must clear response-phase scratch
	if err := checkpoint.Unmarshal(payload, inj2.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if got, want := inj2.rng.Uint64(), inj.rng.Uint64(); got != want {
		t.Fatalf("restored rng draws %#x next, saved one draws %#x", got, want)
	}
	if inj2.lastForwarded {
		t.Fatal("lastForwarded survived restore; it is dead state between transactions")
	}
	if inj2.shadow == nil {
		t.Fatal("shadow model missing after restore")
	}
}

// A snapshot taken without divergence detection cannot restore into an
// injector that has it (and vice versa): the shadow flag is part of the
// configuration fingerprint.
func TestInjectorRestoreShadowMismatch(t *testing.T) {
	_, inj, _ := run(t, testBoardConfig(), Config{Seed: 3}, 1000)
	payload, err := checkpoint.Marshal(inj.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	board2, err := core.NewBoard(testBoardConfig())
	if err != nil {
		t.Fatal(err)
	}
	inj2, err := New(board2, Config{Seed: 3, Shadow: true})
	if err != nil {
		t.Fatal(err)
	}
	rerr := checkpoint.Unmarshal(payload, inj2.Checkpoint)
	var ce *checkpoint.CorruptError
	if !errors.As(rerr, &ce) {
		t.Fatalf("err = %v, want *checkpoint.CorruptError", rerr)
	}
}
