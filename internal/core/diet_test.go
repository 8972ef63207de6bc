package core

import (
	"bytes"
	"strings"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/checkpoint"
	"memories/internal/coherence"
	"memories/protocols"
)

// dirBytes is the checkpoint image of n's directory: every word, rank and
// structural statistic.
func dirBytes(t *testing.T, n *node) []byte {
	t.Helper()
	img, err := checkpoint.Marshal(func(c *checkpoint.Codec) error {
		_, err := n.dir.Checkpoint(c)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// snoopMissIsIdle takes the full snoop path for op on a line absent from
// the peer node of a two-node group running table, and reports whether it
// moved exactly one counter — the (op, Invalid, SnoopNone) transition —
// and no directory word.
func snoopMissIsIdle(t *testing.T, table *coherence.Table, op coherence.Op) bool {
	t.Helper()
	a, peer := nodeCfg("a", []int{0}, 64, 4, 0), nodeCfg("b", []int{1}, 64, 4, 0)
	a.Protocol, peer.Protocol = table, table
	b := MustNewBoard(Config{Nodes: []NodeConfig{a, peer}})
	n := b.nodes[1]
	before, img := b.Counters().Snapshot(), dirBytes(t, n)
	b.touchAhead([]pending{{addr: 0x4000}})
	n.snoop(op, 0, cache.NoSlot, coherence.Invalid)
	moved := 0
	for name, v := range b.Counters().Snapshot() {
		if v != before[name] {
			moved++
		}
	}
	return moved == 1 && n.cTransition[op][coherence.Invalid][coherence.SnoopNone].Value() == 1 &&
		bytes.Equal(dirBytes(t, n), img)
}

// TestIdleMissMatchesFullSnoop holds each node's idleMiss flags to brute
// force: for every shipped protocol and every operation, the flag is set
// exactly when the full snoop path on a missing line changes nothing but
// one transition counter. A table whose missing snoop does act (here a
// MESI variant that answers "shared" for a line it does not hold) must
// keep the full path for that op.
func TestIdleMissMatchesFullSnoop(t *testing.T) {
	tables := map[string]*coherence.Table{}
	for _, name := range protocols.Names() {
		tables[name] = protocols.MustLoad(name)
	}
	src, err := protocols.Source("mesi")
	if err != nil {
		t.Fatal(err)
	}
	const idle = "snoop-read I * -> I -"
	if !strings.Contains(src, idle) {
		t.Fatalf("mesi.map has no %q rule", idle)
	}
	loud, err := coherence.ParseMapFileString(strings.Replace(src, idle, "snoop-read I * -> I respond-shared", 1))
	if err != nil {
		t.Fatal(err)
	}
	loud.Name = "mesi-loud-miss"
	tables[loud.Name] = loud

	for name, table := range tables {
		eng, err := coherence.Compile(table)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, err := newNode(MustNewBoard(Config{Nodes: []NodeConfig{nodeCfg("x", []int{0}, 64, 4, 0)}}),
			NodeConfig{Name: "y", CPUs: []int{1}, Geometry: addr.MustGeometry(64*addr.KB, 128, 4), Protocol: table}, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		idleOps := 0
		for op := coherence.Op(0); int(op) < coherence.NumOps; op++ {
			flag := n.idleMiss[op] != nil
			if flag {
				idleOps++
			}
			if op < coherence.SnoopRead {
				if flag {
					t.Errorf("%s: local op %s has an idle-miss counter", name, op)
				}
				continue
			}
			if want := snoopMissIsIdle(t, table, op); flag != want {
				t.Errorf("%s: %s idleMiss %v, full snoop path idle %v (cell %+v)",
					name, op, flag, want, eng.Lookup(op, coherence.Invalid, coherence.SnoopNone))
			}
		}
		if name == loud.Name {
			if n.idleMiss[coherence.SnoopRead] != nil {
				t.Errorf("%s: snoop-read miss responds, yet takes the idle path", name)
			}
		} else if idleOps != 3 {
			t.Errorf("%s: %d of 3 snoop ops take the idle path on a miss, want all", name, idleOps)
		}
	}
}

// eventSum totals every counter under prefix.
func eventSum(b *Board, prefix string) uint64 {
	var sum uint64
	for name, v := range b.Counters().Snapshot() {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}

// TestReprogramRegroupsPeers moves a node to another snoop group at run
// time and checks the cached peer lists followed: the moved node neither
// snoops nor is snooped by its old group, and its new group snoops it and
// is snooped by it.
func TestReprogramRegroupsPeers(t *testing.T) {
	b := MustNewBoard(Config{Nodes: []NodeConfig{
		nodeCfg("a", []int{0, 1}, 64, 4, 0),
		nodeCfg("b", []int{2, 3}, 64, 4, 0),
		nodeCfg("c", []int{4, 5}, 64, 4, 1),
	}})
	f := &feeder{board: b}
	if err := b.Reprogram(1, nodeCfg("b", []int{2, 3}, 64, 4, 1)); err != nil {
		t.Fatal(err)
	}
	const x, y = 0x10000, 0x20000

	// Old group: a writes x, then b reads it.
	snoopedB, snoopedA := eventSum(b, "nodeb.event.snoop-"), eventSum(b, "nodea.event.snoop-")
	f.issue(bus.RWITM, x, 0)
	f.issue(bus.Read, x, 2)
	b.Flush()
	if got := eventSum(b, "nodeb.event.snoop-"); got != snoopedB {
		t.Errorf("b still snoops its old group: %d snoop events, want %d", got, snoopedB)
	}
	if got := eventSum(b, "nodea.event.snoop-"); got != snoopedA {
		t.Errorf("a still snoops b: %d snoop events, want %d", got, snoopedA)
	}
	if got := b.Counters().Value("nodeb.satisfied.mod-int"); got != 0 {
		t.Errorf("b's read was satisfied by its old group's modified copy (%d)", got)
	}

	// New group: c writes y, then b reads it and finds c's modified copy.
	snoopedC := eventSum(b, "nodec.event.snoop-")
	f.issue(bus.RWITM, y, 4)
	f.issue(bus.Read, y, 2)
	b.Flush()
	if got := b.Counters().Value("nodeb.satisfied.mod-int"); got != 1 {
		t.Errorf("b's read of c's modified line: mod-int %d, want 1", got)
	}
	if got := eventSum(b, "nodec.event.snoop-"); got != snoopedC+1 {
		t.Errorf("c snooped b %d times, want 1", got-snoopedC)
	}
	if got := b.Counters().Value("nodeb.event.snoop-write.I.none"); got != 1 {
		t.Errorf("b saw c's write %d times, want 1", got)
	}
}
