package core

import (
	"testing"

	"memories/internal/addr"
	"memories/internal/checkpoint"
	"memories/internal/sdram"
	"memories/protocols"
)

// moesiFourNode is one snoop group of four 2 MB/4-way MOESI nodes, two
// CPUs each.
func moesiFourNode() Config {
	cfg := mixedProtocolConfig()
	for i := range cfg.Nodes {
		cfg.Nodes[i].Protocol = protocols.MustLoad("moesi")
	}
	return cfg
}

// TestReprogramCheckpointResumes reprograms one node of a running board
// with its own configuration, which clears its directory and gives it a
// fresh SDRAM timing model while the other three keep their history. A
// checkpoint taken afterwards must restore into a fresh board as exactly
// that board: continuing both through the same stream gives equal
// counters and an equal checkpoint.
func TestReprogramCheckpointResumes(t *testing.T) {
	txs := writeHeavyStream(24_000, 1, 0.6)
	orig := MustNewBoard(moesiFourNode())
	orig.SnoopBatch(txs[:8000])
	if err := orig.Reprogram(0, orig.Config().Nodes[0]); err != nil {
		t.Fatal(err)
	}
	orig.SnoopBatch(txs[8000:16_000])
	orig.Flush()
	if a, d := orig.TagStoreStats(0).Ops, orig.TagStoreStats(3).Ops; a >= d {
		t.Fatalf("reprogrammed node's timing model has %d ops, the others %d: the reprogram kept its history", a, d)
	}
	snap, err := checkpoint.Decode(checkpointBytes(t, orig))
	if err != nil {
		t.Fatal(err)
	}
	fresh := MustNewBoard(moesiFourNode())
	if _, err := RestoreBoard(fresh, snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < orig.NumNodes(); i++ {
		if got, want := fresh.TagStoreStats(i), orig.TagStoreStats(i); got != want {
			t.Errorf("restored node %d tag store %+v, want %+v", i, got, want)
		}
	}
	orig.SnoopBatch(txs[16_000:])
	fresh.SnoopBatch(txs[16_000:])
	orig.Flush()
	fresh.Flush()
	diffSnapshots(t, orig.Counters().Snapshot(), fresh.Counters().Snapshot(), "after resume")
	if checkpointDigest(t, fresh) != checkpointDigest(t, orig) {
		t.Error("checkpoints differ after both boards continue the same stream")
	}
}

// distinctModels counts the distinct tag-store models b's nodes point at.
func distinctModels(b *Board) int {
	seen := map[*sdram.TagStore]bool{}
	for _, n := range b.nodes {
		seen[n.tags] = true
	}
	return len(seen)
}

// TestTimingModelsShared holds the sharing rule: nodes of one set shape
// whose tag-store models are equal share one, drain and stalls step it
// once, every node still reports it as its own, and a checkpoint whose
// node sections differ restores each node's model from its own section.
func TestTimingModelsShared(t *testing.T) {
	sixteen := func() Config {
		cfg := moesiFourNode()
		for i := range cfg.Nodes {
			cfg.Nodes[i].Geometry = addr.MustGeometry(16*addr.MB, 128, 8)
		}
		return cfg
	}
	multi := pinBoards()["multiconfig-4"].cfg
	twoShapes := pinBoards()["two-shapes-one-group"].cfg
	for _, tc := range []struct {
		name          string
		cfg           func() Config
		lanes, models int
	}{
		{"four 16 MB nodes", sixteen, 1, 1},
		{"multi-config 1/2/4/8 MB", multi, 4, 4},
		{"two set shapes in one group", twoShapes, 2, 2},
		{"12-bank stall board, two groups", pinBoards()["sdram-12bank-stall"].cfg, 3, 3},
	} {
		b := MustNewBoard(tc.cfg())
		if len(b.lanes) != tc.lanes || len(b.timing) != tc.models || distinctModels(b) != tc.models {
			t.Errorf("%s: %d lanes, %d timing classes over %d models, want %d lanes and %d models",
				tc.name, len(b.lanes), len(b.timing), distinctModels(b), tc.lanes, tc.models)
		}
	}

	b := MustNewBoard(sixteen())
	txs := writeHeavyStream(12_000, 1, 0.6)
	b.SnoopBatch(txs[:6000])
	const stall = 4000
	before := b.TagStoreStats(0).InjectedStallCycles
	b.StallTagStores(stall)
	b.SnoopBatch(txs[6000:])
	b.Flush()
	for i := 0; i < b.NumNodes(); i++ {
		st := b.TagStoreStats(i)
		if st != b.TagStoreStats(0) {
			t.Errorf("node %d tag store %+v, node 0 %+v", i, st, b.TagStoreStats(0))
		}
		if got := st.InjectedStallCycles - before; got != stall {
			t.Errorf("node %d: StallTagStores(%d) added %d injected stall cycles", i, stall, got)
		}
	}
	if st := b.TagStoreStats(0); st.Ops != uint64(len(txs)) {
		t.Errorf("shared model ran %d ops for %d transactions", st.Ops, len(txs))
	}

	// Reprogramming node 0 gives it a fresh model of its own; the other
	// three keep sharing theirs, and a stall reaches both once.
	if err := b.Reprogram(0, b.Config().Nodes[0]); err != nil {
		t.Fatal(err)
	}
	if got := distinctModels(b); got != 2 || b.nodes[1].tags != b.nodes[3].tags {
		t.Fatalf("after reprogramming node 0: %d models, nodes 1 and 3 sharing %v; want 2, true",
			got, b.nodes[1].tags == b.nodes[3].tags)
	}
	b.SnoopBatch(txs[:6000])
	b.StallTagStores(stall)
	b.Flush()
	if a, d := b.TagStoreStats(0).InjectedStallCycles, b.TagStoreStats(3).InjectedStallCycles; a != stall || d != 2*stall {
		t.Errorf("injected stall cycles: node 0 %d, node 3 %d; want %d and %d", a, d, stall, 2*stall)
	}

	// Restoring that board's checkpoint into a fresh one, whose four nodes
	// start out sharing one model, gives every node its own section back.
	snap, err := checkpoint.Decode(checkpointBytes(t, b))
	if err != nil {
		t.Fatal(err)
	}
	fresh := MustNewBoard(sixteen())
	if distinctModels(fresh) != 1 {
		t.Fatalf("fresh board has %d models, want 1", distinctModels(fresh))
	}
	if _, err := RestoreBoard(fresh, snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.NumNodes(); i++ {
		if got, want := fresh.TagStoreStats(i), b.TagStoreStats(i); got != want {
			t.Errorf("restored node %d tag store %+v, want %+v", i, got, want)
		}
	}
	if got := distinctModels(fresh); got != 2 || len(fresh.timing) != 2 {
		t.Errorf("restored board has %d models in %d classes, want 2", got, len(fresh.timing))
	}
}
