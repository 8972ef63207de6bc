package numa

import (
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
)

func mkConfig(nodes int, remote bool) Config {
	cfg := Config{
		HomeInterleaveBytes: 4 * addr.KB,
		Directory:           addr.MustGeometry(16*addr.KB, 128, 4), // 128 sparse entries
	}
	for i := 0; i < nodes; i++ {
		nc := NodeConfig{
			CPUs:   []int{i * 2, i*2 + 1},
			L3:     addr.MustGeometry(32*addr.KB, 128, 4),
			Policy: cache.LRU,
		}
		if remote {
			nc.Remote = addr.MustGeometry(16*addr.KB, 128, 2)
		}
		cfg.Nodes = append(cfg.Nodes, nc)
	}
	return cfg
}

func issue(e *Emulator, cmd bus.Command, a uint64, src int) {
	e.Snoop(&bus.Transaction{Cmd: cmd, Addr: a, Size: 128, SrcID: src})
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("accepted empty config")
	}
	cfg := mkConfig(2, false)
	cfg.HomeInterleaveBytes = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted zero interleave")
	}
	cfg = mkConfig(2, false)
	cfg.Directory = addr.Geometry{}
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted missing directory")
	}
	cfg = mkConfig(2, false)
	cfg.Nodes[1].CPUs = cfg.Nodes[0].CPUs
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted duplicate CPUs")
	}
	if _, err := New(mkConfig(8, false)); err == nil {
		t.Fatal("accepted 8 nodes (sharer mask is 7 wide)")
	}
}

func TestHomeInterleaving(t *testing.T) {
	e := MustNew(mkConfig(4, false))
	if e.HomeOf(0) != 0 || e.HomeOf(4096) != 1 || e.HomeOf(3*4096) != 3 || e.HomeOf(4*4096) != 0 {
		t.Fatal("home interleaving wrong")
	}
}

func TestLocalVsRemoteClassification(t *testing.T) {
	e := MustNew(mkConfig(4, false))
	issue(e, bus.Read, 0, 0)    // home 0, cpu0 -> node0: local
	issue(e, bus.Read, 4096, 0) // home 1: remote
	issue(e, bus.Read, 8192, 2) // home 2, cpu2 -> node1: remote
	issue(e, bus.Read, 4096, 2) // home 1, node1: local
	v0, v1 := e.Node(0), e.Node(1)
	if v0.Local != 1 || v0.Remote != 1 {
		t.Fatalf("node0 = %+v", v0)
	}
	if v1.Local != 1 || v1.Remote != 1 {
		t.Fatalf("node1 = %+v", v1)
	}
}

func TestL3HitAfterFill(t *testing.T) {
	e := MustNew(mkConfig(2, false))
	issue(e, bus.Read, 0, 0)
	issue(e, bus.Read, 0, 0)
	v := e.Node(0)
	if v.L3Miss != 1 || v.L3Hit != 1 {
		t.Fatalf("node0 = %+v", v)
	}
}

func TestRemoteCacheHoldsRemoteLines(t *testing.T) {
	e := MustNew(mkConfig(2, true))
	issue(e, bus.Read, 4096, 0) // home 1, read by node 0: remote-cache fill
	issue(e, bus.Read, 4096, 0) // L3 miss path... remote cache hit
	v := e.Node(0)
	if v.RemMiss != 1 {
		t.Fatalf("remote cache misses = %d, want 1: %+v", v.RemMiss, v)
	}
	if v.RemHit+v.L3Hit != 1 {
		t.Fatalf("second access should hit somewhere: %+v", v)
	}
}

func TestWriteInvalidatesOtherSharers(t *testing.T) {
	e := MustNew(mkConfig(2, false))
	issue(e, bus.Read, 0, 0)  // node0 caches line (home 0)
	issue(e, bus.Read, 0, 2)  // node1 caches it too
	issue(e, bus.RWITM, 0, 2) // node1 writes: node0 must be invalidated
	if got := e.Node(0).InvalidationsSent; got != 1 {
		t.Fatalf("invalidations sent by home 0 = %d, want 1", got)
	}
	// node0 rereads: must miss in its L3.
	before := e.Node(0).L3Miss
	issue(e, bus.Read, 0, 0)
	if e.Node(0).L3Miss != before+1 {
		t.Fatal("invalidation did not remove node0's copy")
	}
}

func TestDirtyReadSuppliesIntervention(t *testing.T) {
	e := MustNew(mkConfig(2, false))
	issue(e, bus.RWITM, 0, 0) // node0 dirty owner
	issue(e, bus.Read, 0, 2)  // node1 reads: node0 intervenes + writes back
	bank := e.Counters()
	if bank.Value("numa0.intervention.supplied") != 1 {
		t.Fatalf("interventions: %s", bank.Dump("numa0"))
	}
	if bank.Value("numa0.writebacks") != 1 {
		t.Fatal("owner must write back on read of dirty line")
	}
}

func TestSparseDirectoryEvictionNotifiesSharers(t *testing.T) {
	cfg := mkConfig(2, false)
	// Tiny directory: 2 sets x 1 way of 128B coherence units.
	cfg.Directory = addr.MustGeometry(256, 128, 1)
	e := MustNew(cfg)
	// Fill entry for line 0 (home 0, set 0), cached by node 0.
	issue(e, bus.Read, 0, 0)
	// A conflicting line (same directory set on home 0): 8KB stride
	// keeps home 0 (interleave 4KB x 2 nodes) and maps to set 0.
	issue(e, bus.Read, 8192, 0)
	v := e.Node(0)
	if v.DirEvictions != 1 {
		t.Fatalf("directory evictions = %d, want 1", v.DirEvictions)
	}
	if v.InvalidationsSent != 1 {
		t.Fatalf("eviction notifications = %d, want 1", v.InvalidationsSent)
	}
	// The original line must be gone from node 0's L3.
	before := e.Node(0).L3Miss
	issue(e, bus.Read, 0, 0)
	if e.Node(0).L3Miss != before+1 {
		t.Fatal("evicted directory entry left a stale cached copy")
	}
}

func TestCastoutMarksDirty(t *testing.T) {
	e := MustNew(mkConfig(2, false))
	issue(e, bus.Read, 0, 0)
	issue(e, bus.Castout, 0, 0)
	// A read from the other node must now trigger an intervention.
	issue(e, bus.Read, 0, 2)
	if e.Counters().Value("numa0.intervention.supplied") != 1 {
		t.Fatal("castout did not mark the directory entry dirty")
	}
}

func TestNonMemoryAndUnassignedIgnored(t *testing.T) {
	e := MustNew(mkConfig(2, false))
	issue(e, bus.IORead, 0, 0)
	issue(e, bus.Read, 0, 11) // unassigned CPU
	v := e.Node(0)
	if v.Local+v.Remote != 0 {
		t.Fatalf("filtered traffic processed: %+v", v)
	}
}

func TestDirectoryStateEncoding(t *testing.T) {
	st := dirState(0b0101, true)
	if dirSharers(st) != 0b0101 || !dirDirty(st) {
		t.Fatalf("encode/decode mismatch: %b", st)
	}
	st = dirState(0b0010, false)
	if dirSharers(st) != 0b0010 || dirDirty(st) {
		t.Fatalf("encode/decode mismatch: %b", st)
	}
	if dirState(0b0001, false) == cache.StateInvalid {
		t.Fatal("present entry encodes as invalid")
	}
}

// TestDirectoryBytesIsPackedWordPerSlot pins the NUMA node footprint:
// with LRU everywhere, L3 + sparse directory + remote cache cost
// exactly one 8-byte packed word per slot.
func TestDirectoryBytesIsPackedWordPerSlot(t *testing.T) {
	e, err := New(mkConfig(2, true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		n := e.nodes[i]
		slots := n.l3.SlotCount() + n.dir.SlotCount() + n.remote.SlotCount()
		if got := n.l3.DirectoryBytes() + n.dir.DirectoryBytes() + n.remote.DirectoryBytes(); got != 8*slots {
			t.Fatalf("node %d directories = %d bytes, want %d (8 B x %d slots)", i, got, 8*slots, slots)
		}
	}
}
