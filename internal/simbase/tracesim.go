// Package simbase implements the two software baselines the paper
// compares MemorIES against in §4: a trace-driven cache simulator (the
// "C simulator" of Table 3, which was also used to validate the board
// design — a role it keeps here, as the differential-testing oracle for
// internal/core) and an Augmint-like execution-driven simulator
// (Table 4).
package simbase

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/coherence"
	"memories/internal/tracefile"
)

// TraceNodeConfig mirrors core.NodeConfig for the software simulator.
type TraceNodeConfig struct {
	CPUs     []int
	Geometry addr.Geometry
	Policy   cache.Policy
	Protocol *coherence.Table
}

// TraceNodeStats are the per-node results, directly comparable with
// core.NodeView.
type TraceNodeStats struct {
	ReadHit   uint64
	ReadMiss  uint64
	WriteHit  uint64
	WriteMiss uint64
	SatL3     uint64
	SatModInt uint64
	SatShrInt uint64
	SatMemory uint64
	Castouts  uint64
	Evictions uint64
}

// Refs returns local references (reads + writes).
func (s TraceNodeStats) Refs() uint64 {
	return s.ReadHit + s.ReadMiss + s.WriteHit + s.WriteMiss
}

// Misses returns read + write misses.
func (s TraceNodeStats) Misses() uint64 { return s.ReadMiss + s.WriteMiss }

// MissRatio returns misses over references.
func (s TraceNodeStats) MissRatio() float64 {
	if s.Refs() == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Refs())
}

// TraceSim is the trace-driven simulator: functionally identical cache
// emulation to the board, with no timing model, no transaction buffers,
// and no SDRAM pacing — it just grinds through records one at a time the
// way the paper's C simulator did.
type TraceSim struct {
	nodes    []*traceNode
	cpuOwner map[int]*traceNode
	// Filtered counts non-memory or unassigned records skipped.
	Filtered uint64
	// Processed counts records applied to the caches.
	Processed uint64
}

type traceNode struct {
	cfg   TraceNodeConfig
	eng   *coherence.Engine // compiled protocol; lookups are branch-free
	dir   *cache.Cache
	stats TraceNodeStats
}

// NewTraceSim builds a simulator over one or more emulated nodes, all in
// a single snoop domain (the common single-group configuration).
func NewTraceSim(nodes []TraceNodeConfig) (*TraceSim, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("simbase: need at least one node")
	}
	s := &TraceSim{cpuOwner: make(map[int]*traceNode)}
	for i, nc := range nodes {
		if nc.Protocol == nil {
			return nil, fmt.Errorf("simbase: node %d has no protocol", i)
		}
		eng, err := coherence.Compile(nc.Protocol)
		if err != nil {
			return nil, fmt.Errorf("simbase: node %d: %w", i, err)
		}
		dir, err := cache.New(cache.Config{Geometry: nc.Geometry, Policy: nc.Policy})
		if err != nil {
			return nil, fmt.Errorf("simbase: node %d: %v", i, err)
		}
		n := &traceNode{cfg: nc, eng: eng, dir: dir}
		for _, id := range nc.CPUs {
			if s.cpuOwner[id] != nil {
				return nil, fmt.Errorf("simbase: CPU %d assigned twice", id)
			}
			s.cpuOwner[id] = n
		}
		s.nodes = append(s.nodes, n)
	}
	return s, nil
}

// MustNewTraceSim is NewTraceSim for known-good configurations.
func MustNewTraceSim(nodes []TraceNodeConfig) *TraceSim {
	s, err := NewTraceSim(nodes)
	if err != nil {
		panic(err)
	}
	return s
}

// NodeStats returns the statistics of node i.
func (s *TraceSim) NodeStats(i int) TraceNodeStats { return s.nodes[i].stats }

// Process applies one trace record.
func (s *TraceSim) Process(rec tracefile.Record) {
	if !rec.Cmd.IsMemoryOp() {
		s.Filtered++
		return
	}
	local := s.cpuOwner[int(rec.SrcID)]
	if local == nil {
		s.Filtered++
		return
	}
	s.Processed++

	// Combined snoop input from the peers.
	snoopIn := coherence.SnoopNone
	for _, peer := range s.nodes {
		if peer == local {
			continue
		}
		st := coherence.State(peer.dir.Probe(rec.Addr))
		switch {
		case st.IsDirty():
			snoopIn = coherence.SnoopModified
		case st.IsValid() && snoopIn == coherence.SnoopNone:
			snoopIn = coherence.SnoopShared
		}
	}
	local.local(rec, snoopIn)
	for _, peer := range s.nodes {
		if peer != local {
			peer.snoop(rec)
		}
	}
}

// ProcessBatch applies a decoded batch of records in order; it is the
// slab-oriented counterpart of Process used by the streaming v2 pipeline.
func (s *TraceSim) ProcessBatch(recs []tracefile.Record) {
	for i := range recs {
		s.Process(recs[i])
	}
}

func traceOpFor(cmd bus.Command, local bool) (coherence.Op, bool) {
	switch cmd {
	case bus.Read:
		if local {
			return coherence.LocalRead, true
		}
		return coherence.SnoopRead, true
	case bus.RWITM, bus.DClaim, bus.Flush:
		if local {
			return coherence.LocalWrite, true
		}
		return coherence.SnoopWrite, true
	case bus.Castout, bus.Clean:
		if local {
			return coherence.LocalCastout, true
		}
		return coherence.SnoopCastout, true
	default:
		return 0, false
	}
}

func (n *traceNode) local(rec tracefile.Record, snoopIn coherence.SnoopIn) {
	op, ok := traceOpFor(rec.Cmd, true)
	if !ok {
		return
	}
	cur := coherence.State(n.dir.Access(rec.Addr))
	e := n.eng.Lookup(op, cur, snoopIn)
	hit := cur.IsValid()
	switch op {
	case coherence.LocalRead:
		if hit {
			n.stats.ReadHit++
		} else {
			n.stats.ReadMiss++
		}
	case coherence.LocalWrite:
		if hit {
			n.stats.WriteHit++
		} else {
			n.stats.WriteMiss++
		}
	case coherence.LocalCastout:
		n.stats.Castouts++
	}
	if op == coherence.LocalRead || op == coherence.LocalWrite {
		switch {
		case hit:
			n.stats.SatL3++
		case snoopIn == coherence.SnoopModified:
			n.stats.SatModInt++
		case snoopIn == coherence.SnoopShared:
			n.stats.SatShrInt++
		default:
			n.stats.SatMemory++
		}
	}
	n.apply(rec.Addr, cur, e)
}

func (n *traceNode) snoop(rec tracefile.Record) {
	op, ok := traceOpFor(rec.Cmd, false)
	if !ok {
		return
	}
	cur := coherence.State(n.dir.Probe(rec.Addr))
	e := n.eng.Lookup(op, cur, coherence.SnoopNone)
	n.apply(rec.Addr, cur, e)
}

func (n *traceNode) apply(a uint64, cur coherence.State, e coherence.Entry) {
	switch {
	case cur == coherence.Invalid && e.Actions.Has(coherence.ActAllocate):
		_, evicted := n.dir.Fill(a, uint8(e.Next))
		if evicted {
			n.stats.Evictions++
		}
	case cur != coherence.Invalid && e.Next == coherence.Invalid:
		n.dir.Invalidate(a)
	case cur != coherence.Invalid && e.Next != cur:
		n.dir.SetState(a, uint8(e.Next))
	}
}
