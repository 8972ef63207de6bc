package core

import (
	"testing"
	"testing/quick"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/coherence"
	"memories/internal/host"
	"memories/internal/workload"
	"memories/protocols"
)

// checkSingleDirtyOwner verifies that within each snoop group, no line is
// dirty in more than one node's directory — the fundamental coherence
// invariant of an invalidation protocol.
func checkSingleDirtyOwner(t *testing.T, b *Board) {
	t.Helper()
	type key struct {
		group int
		line  uint64
	}
	dirtyOwner := map[key]int{}
	for i := 0; i < b.NumNodes(); i++ {
		group := b.nodes[i].cfg.Group
		b.nodes[i].dir.ForEachValid(func(line uint64, s uint8) {
			if !coherence.State(s).IsDirty() {
				return
			}
			k := key{group, line}
			if prev, dup := dirtyOwner[k]; dup {
				t.Fatalf("line %#x dirty in nodes %d and %d of group %d", line, prev, i, group)
			}
			dirtyOwner[k] = i
		})
	}
}

// checkDirtySharedExclusion verifies no line is simultaneously dirty in
// one node and valid in another of the same group after a write — i.e.
// writes really did invalidate peers. (Reads of a dirty line legitimately
// leave S copies beside an O owner under MOESI, so this check runs with
// MESI only.)
func checkMESIDirtyExclusive(t *testing.T, b *Board) {
	t.Helper()
	type key struct {
		group int
		line  uint64
	}
	holders := map[key][]coherence.State{}
	for i := 0; i < b.NumNodes(); i++ {
		group := b.nodes[i].cfg.Group
		b.nodes[i].dir.ForEachValid(func(line uint64, s uint8) {
			k := key{group, line}
			holders[k] = append(holders[k], coherence.State(s))
		})
	}
	for k, states := range holders {
		dirty := 0
		for _, st := range states {
			if st.IsDirty() {
				dirty++
			}
		}
		if dirty > 0 && len(states) > 1 {
			t.Fatalf("line %#x in group %d held by %d nodes with a dirty copy: %v",
				k.line, k.group, len(states), states)
		}
	}
}

// hostDrivenBoard runs a board against a real (coherent) host-generated
// bus stream. Raw random command streams can violate bus preconditions
// that a coherent machine never produces (e.g. a CPU casting out a line
// another node's CPU owns dirty), so invariants are only meaningful over
// host traffic.
func hostDrivenBoard(t *testing.T, protocol string, refs uint64) *Board {
	t.Helper()
	mkNode := func(name string, cpus []int, kb int64, assoc, group int) NodeConfig {
		return NodeConfig{
			Name:     name,
			CPUs:     cpus,
			Geometry: addr.MustGeometry(kb*addr.KB, 128, assoc),
			Policy:   cache.LRU,
			Protocol: protocols.MustLoad(protocol),
			Group:    group,
		}
	}
	b := MustNewBoard(Config{Nodes: []NodeConfig{
		mkNode("a", []int{0, 1, 2, 3}, 256, 4, 0),
		mkNode("b", []int{4, 5, 6, 7}, 128, 2, 0),
		mkNode("c", []int{0, 1, 2, 3, 4, 5, 6, 7}, 512, 8, 1),
	}})
	hcfg := host.DefaultConfig()
	hcfg.L2Bytes = 64 * addr.KB // small L2: plenty of bus traffic
	gen := workload.NewZipfian(workload.ZipfConfig{
		NumCPUs: 8, FootprintByte: 8 * addr.MB, WriteFraction: 0.4, Seed: 77,
	})
	h := host.MustNew(hcfg, gen)
	h.Bus().Attach(b)
	h.Run(refs)
	b.Flush()
	return b
}

func TestCoherenceInvariantsUnderHostTraffic(t *testing.T) {
	b := hostDrivenBoard(t, "mesi", 200_000)
	checkSingleDirtyOwner(t, b)
	checkMESIDirtyExclusive(t, b)
}

func TestMSIInvariantsUnderHostTraffic(t *testing.T) {
	b := hostDrivenBoard(t, "msi", 150_000)
	checkSingleDirtyOwner(t, b)
	checkMESIDirtyExclusive(t, b)
}

func TestMOESISingleDirtyOwnerInvariant(t *testing.T) {
	// MOESI allows S copies beside an Owned line, but never two dirty
	// owners.
	b := hostDrivenBoard(t, "moesi", 150_000)
	checkSingleDirtyOwner(t, b)
}

// TestBoardCountersConsistency property: read.hit + read.miss equals the
// satisfied-* total for reads+writes, for random command streams.
func TestBoardCountersConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		b := MustNewBoard(Config{Nodes: []NodeConfig{
			nodeCfg("a", []int{0, 1, 2, 3}, 64, 4, 0),
		}})
		rng := workload.NewRNG(seed)
		cmds := []bus.Command{bus.Read, bus.RWITM, bus.DClaim, bus.Castout, bus.IORead}
		cycle := uint64(0)
		for i := 0; i < 5000; i++ {
			cycle += 1 + uint64(rng.Intn(100))
			b.Snoop(&bus.Transaction{
				Cmd:   cmds[rng.Intn(int64(len(cmds)))],
				Addr:  uint64(rng.Intn(1<<20)) &^ 127,
				Size:  128,
				SrcID: int(rng.Intn(4)),
				Cycle: cycle,
			})
		}
		b.Flush()
		v := b.Node(0)
		return v.Refs() == v.SatL3+v.SatModInt+v.SatShrInt+v.SatMemory &&
			v.SatL3 == v.ReadHit+v.WriteHit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
