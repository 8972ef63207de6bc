package sdram

import (
	"errors"
	"testing"

	"memories/internal/checkpoint"
)

// The per-bank horizon slice length cross-checks the configuration: a
// snapshot from a store with a different bank count is corruption.
func TestTagStoreRestoreBankMismatch(t *testing.T) {
	payload, err := checkpoint.Marshal(New(DefaultConfig()).Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	small := DefaultConfig()
	small.Banks = 4
	err = checkpoint.Unmarshal(payload, New(small).Checkpoint)
	var ce *checkpoint.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *checkpoint.CorruptError", err)
	}
}
