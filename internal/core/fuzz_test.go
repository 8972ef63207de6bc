package core

import (
	"bytes"
	"errors"
	"testing"

	"memories/internal/checkpoint"
)

// FuzzCheckpointRestore mutates full board snapshots: restoring any
// byte soup must never panic, and must either succeed or fail with a
// typed *checkpoint.CorruptError, which is what -resume reports.
func FuzzCheckpointRestore(f *testing.F) {
	mkBoard := func() (*Board, error) {
		return NewBoard(Config{
			ECC:   true,
			Nodes: []NodeConfig{nodeCfg("a", []int{0, 1}, 64, 4, 0)},
		})
	}
	seed, err := mkBoard()
	if err != nil {
		f.Fatal(err)
	}
	fd := &feeder{board: seed}
	for i := 0; i < 300; i++ {
		fd.issue(0, uint64(i*128), i%2)
	}
	seed.Flush()
	var buf bytes.Buffer
	if err := seed.WriteCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good, 0, byte(0))
	f.Add(good, len(good)/2, byte(0xff))
	f.Add(good, len(good)-5, byte(0x01))
	f.Add([]byte("MIESCKPT"), 0, byte(0))

	f.Fuzz(func(t *testing.T, data []byte, pos int, xor byte) {
		mut := append([]byte(nil), data...)
		if len(mut) > 0 {
			mut[((pos%len(mut))+len(mut))%len(mut)] ^= xor
		}
		snap, err := checkpoint.Decode(mut)
		if err != nil {
			var ce *checkpoint.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Decode error is %T (%v), want *CorruptError", err, err)
			}
			return
		}
		b, err := mkBoard()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreBoard(b, snap); err != nil {
			var ce *checkpoint.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("RestoreBoard error is %T (%v), want *CorruptError", err, err)
			}
		}
	})
}
