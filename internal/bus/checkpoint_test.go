package bus

import (
	"errors"
	"testing"

	"memories/internal/checkpoint"
)

// A histogram of the wrong width means the snapshot came from a
// different command-set revision; it must be rejected, not truncated.
func TestBusRestoreBadHistogram(t *testing.T) {
	payload, err := checkpoint.Marshal(func(c *checkpoint.Codec) error {
		for i := uint64(0); i < 5; i++ {
			c.U64(&i)
		}
		checkpoint.Slice64(c, "short histogram", make([]uint64, numCommands-1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = checkpoint.Unmarshal(payload, New(DefaultConfig()).Checkpoint)
	var ce *checkpoint.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *checkpoint.CorruptError", err)
	}
}
