package core

import (
	"bytes"
	"errors"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/checkpoint"
	"memories/internal/workload"
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

// FuzzSnoopBatchSplits draws random batch splits over a seeded stream and
// holds the board fed that way to one fed by serial Snoop: counters at
// every call boundary, node views and the checkpoint digest at the end.
// step is the bus-cycle spacing of the stream (1 runs the buffer deep, 48
// lets the SDRAM keep up), depth the buffer depth (0: the default 512),
// and scrub turns on ECC with a scrub pass every 500 transactions, with
// tag bits flipped ahead of each one (see lockstep).
func FuzzSnoopBatchSplits(f *testing.F) {
	seed := uint64(1)
	for _, step := range []uint8{1, 23, 48} {
		for _, depth := range []uint16{2, 512} {
			for _, scrub := range []bool{false, true} {
				f.Add(seed, step, depth, scrub)
				seed++
			}
		}
	}
	for i, step := range []uint8{1, 23, 48, 5, 1, 23, 48, 200} {
		f.Add(uint64(100+i), step, []uint16{0, 64, 2, 512}[i%4], i%2 == 0)
	}

	f.Fuzz(func(t *testing.T, seed uint64, step uint8, depth uint16, scrub bool) {
		const n = 4000
		cyc := uint64(max(step, 1))
		mkCfg := func() Config {
			cfg := fourNodeConfig()
			cfg.BufferDepth = int(depth)
			if scrub {
				cfg.ECC = true
				cfg.ScrubIntervalCycles = 500 * cyc
			}
			return cfg
		}
		rng := workload.NewRNG(seed)
		cmds := []bus.Command{bus.Read, bus.Read, bus.Read, bus.RWITM, bus.DClaim, bus.Castout, bus.Flush, bus.IORead, bus.Sync}
		txs := make([]bus.Transaction, n)
		for i := range txs {
			// Half the traffic on a 256 KB hot region (hits, sharing,
			// upgrades), half over 32 MB (misses, evictions); source 8 is
			// unassigned and filtered.
			span := int64(32 * addr.MB)
			if rng.Intn(2) == 0 {
				span = 256 * addr.KB
			}
			txs[i] = bus.Transaction{
				Seq: uint64(i), Cycle: uint64(i+1) * cyc,
				Cmd:  cmds[rng.Intn(int64(len(cmds)))],
				Addr: uint64(rng.Intn(span)) &^ 127, Size: 128,
				SrcID: int(rng.Intn(9)),
			}
		}
		serial, batched := MustNewBoard(mkCfg()), MustNewBoard(mkCfg())
		lockstep(t, "fuzz", serial, batched, txs, func(int) split {
			s := split{n: 1 + int(rng.Intn(160)), snoop: rng.Intn(8) == 0, flush: rng.Intn(12) == 0}
			if rng.Intn(16) == 0 {
				s.n = 1 + int(rng.Intn(n))
			}
			return s
		})
		checkSameBoard(t, "fuzz", serial, batched)
	})
}
