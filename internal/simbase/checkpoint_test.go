package simbase

import (
	"errors"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/checkpoint"
	"memories/internal/tracefile"
	"memories/protocols"
)

func ckptNodeConfig() []TraceNodeConfig {
	return []TraceNodeConfig{{
		CPUs:     []int{0, 1, 2, 3},
		Geometry: addr.MustGeometry(256*addr.KB, 128, 4),
		Policy:   cache.LRU,
		Protocol: protocols.MustLoad("mesi"),
	}}
}

// feed drives n deterministic records (mixed reads and stores from all
// four CPUs) through the simulator.
func feed(s *TraceSim, seed uint64, n int) {
	a := seed
	for i := 0; i < n; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		rec := tracefile.Record{
			Addr:  ((a >> 16) % (1 << 22)) &^ 7,
			Cmd:   bus.Read,
			SrcID: uint8(i % 4),
		}
		if i%3 == 0 {
			rec.Cmd = bus.RWITM
		}
		s.Process(rec)
	}
}

// Save mid-replay, restore into a twin, continue both on the same tail:
// the per-node results and global counts must stay identical — the
// resume guarantee cmd/tracesim depends on.
func TestTraceSimCheckpointContinuation(t *testing.T) {
	s := MustNewTraceSim(ckptNodeConfig())
	feed(s, 42, 10_000)

	payload, err := checkpoint.Marshal(s.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	s2 := MustNewTraceSim(ckptNodeConfig())
	if err := checkpoint.Unmarshal(payload, s2.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if s2.Processed != s.Processed || s2.Filtered != s.Filtered {
		t.Fatalf("counts (%d,%d) != saved (%d,%d)", s2.Processed, s2.Filtered, s.Processed, s.Filtered)
	}

	feed(s, 7, 5_000)
	feed(s2, 7, 5_000)
	if s2.NodeStats(0) != s.NodeStats(0) {
		t.Fatalf("node stats diverge after resume:\n%+v\n%+v", s2.NodeStats(0), s.NodeStats(0))
	}
	if s2.Processed != s.Processed || s2.Filtered != s.Filtered {
		t.Fatalf("counts diverge after resume: (%d,%d) vs (%d,%d)",
			s2.Processed, s2.Filtered, s.Processed, s.Filtered)
	}
}

// A snapshot from a different node topology is rejected as corruption.
func TestTraceSimRestoreNodeCountMismatch(t *testing.T) {
	s := MustNewTraceSim(ckptNodeConfig())
	feed(s, 1, 100)
	payload, err := checkpoint.Marshal(s.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	two := append(ckptNodeConfig(), ckptNodeConfig()...)
	two[1].CPUs = []int{4, 5, 6, 7}
	err = checkpoint.Unmarshal(payload, MustNewTraceSim(two).Checkpoint)
	var ce *checkpoint.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *checkpoint.CorruptError", err)
	}
}
