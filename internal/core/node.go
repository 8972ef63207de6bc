package core

import (
	"fmt"

	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/coherence"
	"memories/internal/sdram"
	"memories/internal/stats"
)

// node is one emulated shared-cache node controller (one FPGA plus its
// four SDRAM DIMMs).
type node struct {
	board *Board
	cfg   NodeConfig
	// eng is the compiled protocol — the dense transition array the
	// controller indexes directly, standing in for the map file loaded
	// into the node controller FPGA (paper §3.2). Compile has proven
	// every reachable cell defined, so lookups are branch-free.
	eng *coherence.Engine
	dir *cache.Cache // tag/state directory; states are coherence.State
	// tags is the timing model pacing directory operations, shared with
	// every node of its timing class (Board.regroup).
	tags *sdram.TagStore
	// lane holds this node's set index and tag for each entry of the
	// service window (Board.touchAhead).
	lane *lane
	prof *stats.TimeSeries
	// peers are the other nodes of this node's snoop group, in board
	// order. Board.regroup rebuilds them whenever a group changes.
	peers []*node
	// idleMiss[op] is, for a snoop op whose (op, Invalid, SnoopNone) cell
	// neither leaves Invalid nor acts, that cell's transition counter: a
	// peer snoop that misses then changes nothing but the count. It is nil
	// for every other op, so a table whose missing snoop does something
	// takes the full snoop path.
	idleMiss [coherence.NumOps]*stats.Counter

	// Cached counters (hot path).
	cReadHit, cReadMiss   *stats.Counter
	cWriteHit, cWriteMiss *stats.Counter
	cCastIn, cCastAlloc   *stats.Counter
	cSatL3, cSatModInt    *stats.Counter
	cSatShrInt, cSatMem   *stats.Counter
	cInvalidations        *stats.Counter
	cWritebacks           *stats.Counter
	cEvictions            *stats.Counter
	cEvictDirty           *stats.Counter
	cSnoopReadHit         *stats.Counter
	cSnoopWriteHit        *stats.Counter
	cIntervModSup         *stats.Counter
	cIntervShrSup         *stats.Counter
	cUpgrades             *stats.Counter
	cECCCorrected         *stats.Counter
	cECCInvalidated       *stats.Counter
	cWildState            *stats.Counter
	// perCPUHit/perCPUMiss are bus-ID-indexed dense slices (nil holes
	// for IDs this node does not own); the hot path indexes, never maps.
	perCPUHit  []*stats.Counter
	perCPUMiss []*stats.Counter
	// cTransition counts every (operation, prior state, snoop input)
	// lookup the controller performs — the fine-grained event counters
	// that put the hardware board above 400 counters in total. Snoop-side
	// operations index SnoopNone.
	cTransition [coherence.NumOps][coherence.NumStates][coherence.NumSnoopIns]*stats.Counter
}

func newNode(b *Board, nc NodeConfig, profileBucket uint64) (*node, error) {
	if nc.Protocol == nil {
		return nil, fmt.Errorf("core: node %q has no protocol table", nc.Name)
	}
	eng, err := coherence.Compile(nc.Protocol)
	if err != nil {
		return nil, fmt.Errorf("core: node %q: %w", nc.Name, err)
	}
	if len(nc.CPUs) == 0 {
		return nil, fmt.Errorf("core: node %q owns no CPUs", nc.Name)
	}
	for _, id := range nc.CPUs {
		if id < 0 || id > MaxBusID {
			return nil, fmt.Errorf("core: node %q bus ID %d outside 0..%d", nc.Name, id, MaxBusID)
		}
	}
	dir, err := cache.New(cache.Config{Geometry: nc.Geometry, Policy: nc.Policy, ECC: b.cfg.ECC})
	if err != nil {
		return nil, fmt.Errorf("core: node %q: %v", nc.Name, err)
	}
	n := &node{
		board: b,
		cfg:   nc,
		eng:   eng,
		dir:   dir,
		tags:  newTagStore(nc),
	}
	if profileBucket > 0 {
		n.prof = stats.NewTimeSeries(profileBucket)
	}
	n.initCounters(b.bank)
	for _, op := range []coherence.Op{coherence.SnoopRead, coherence.SnoopWrite, coherence.SnoopCastout} {
		if e := eng.Lookup(op, coherence.Invalid, coherence.SnoopNone); e.Next == coherence.Invalid && e.Actions == 0 {
			n.idleMiss[op] = n.cTransition[op][coherence.Invalid][coherence.SnoopNone]
		}
	}
	return n, nil
}

func (n *node) initCounters(bank *stats.Bank) {
	p := "node" + n.cfg.Name + "."
	n.cReadHit = bank.Counter(p + "read.hit")
	n.cReadMiss = bank.Counter(p + "read.miss")
	n.cWriteHit = bank.Counter(p + "write.hit")
	n.cWriteMiss = bank.Counter(p + "write.miss")
	n.cCastIn = bank.Counter(p + "castout.absorbed")
	n.cCastAlloc = bank.Counter(p + "castout.allocated")
	n.cSatL3 = bank.Counter(p + "satisfied.l3")
	n.cSatModInt = bank.Counter(p + "satisfied.mod-int")
	n.cSatShrInt = bank.Counter(p + "satisfied.shr-int")
	n.cSatMem = bank.Counter(p + "satisfied.memory")
	n.cInvalidations = bank.Counter(p + "snoop.invalidated")
	n.cWritebacks = bank.Counter(p + "writeback")
	n.cEvictions = bank.Counter(p + "evictions")
	n.cEvictDirty = bank.Counter(p + "evictions.dirty")
	n.cSnoopReadHit = bank.Counter(p + "snoop.read.hit")
	n.cSnoopWriteHit = bank.Counter(p + "snoop.write.hit")
	n.cIntervModSup = bank.Counter(p + "intervention.supplied.mod")
	n.cIntervShrSup = bank.Counter(p + "intervention.supplied.shr")
	n.cUpgrades = bank.Counter(p + "upgrades")
	n.cECCCorrected = bank.Counter(p + "ecc.corrected")
	n.cECCInvalidated = bank.Counter(p + "ecc.invalidated")
	n.cWildState = bank.Counter(p + "ecc.wild-state")
	maxID := 0
	for _, id := range n.cfg.CPUs {
		if id > maxID {
			maxID = id
		}
	}
	n.perCPUHit = make([]*stats.Counter, maxID+1)
	n.perCPUMiss = make([]*stats.Counter, maxID+1)
	for _, id := range n.cfg.CPUs {
		n.perCPUHit[id] = bank.Counter(fmt.Sprintf("%scpu%02d.hit", p, id))
		n.perCPUMiss[id] = bank.Counter(fmt.Sprintf("%scpu%02d.miss", p, id))
	}
	// Per-state occupancy counters exist for console dumps even though
	// they are computed on demand.
	for st := 1; st < coherence.NumStates; st++ {
		bank.Counter(p + "occupancy." + coherence.State(st).String())
	}
	for op := 0; op < coherence.NumOps; op++ {
		for st := 0; st < coherence.NumStates; st++ {
			for sn := 0; sn < coherence.NumSnoopIns; sn++ {
				name := fmt.Sprintf("%sevent.%s.%s.%s",
					p, coherence.Op(op), coherence.State(st), coherence.SnoopIn(sn))
				n.cTransition[op][st][sn] = bank.Counter(name)
			}
		}
	}
}

// newTagStore builds a fresh tag-store model for node configuration nc.
func newTagStore(nc NodeConfig) *sdram.TagStore {
	sc := nc.SDRAM
	if sc.Banks == 0 {
		sc = sdram.DefaultConfig()
	}
	return sdram.New(sc)
}

// sanitize guards the protocol lookup against corrupted directory states:
// an injected (or real) soft error can leave a state byte outside the
// compiled protocol's reachable state space — including states that are
// legal for some other protocol (Owned under MESI, Exclusive under MSI)
// but that this table can never produce. A wild state means the entry is
// garbage, so the controller drops the line — the same repair the scrub
// pass applies to uncorrectable entries — counts the event, and proceeds
// as a miss. It takes and returns the (slot, state) a lookup of the line
// with the given set index and tag found; after a drop the set is looked
// up again, so the slot handed to apply is what a fresh lookup would
// return.
func (n *node) sanitize(set int64, tag uint64, slot int64, cur coherence.State) (int64, coherence.State) {
	if n.eng.Uses(cur) || cur == coherence.Invalid {
		return slot, cur
	}
	n.cWildState.Inc()
	n.dir.InvalidateAt(slot)
	slot, _ = n.dir.FindIn(set, tag)
	return slot, coherence.Invalid
}

// opFor classifies a bus command as a protocol operation.
func opFor(cmd bus.Command, local bool) (coherence.Op, bool) {
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
	default: // Push and anything else carries no directory action
		return 0, false
	}
}

// local processes a transaction from one of this node's own CPUs; op is
// its local operation and i its index in the service window.
func (n *node) local(op coherence.Op, p *pending, i int, snoopIn coherence.SnoopIn) {
	set, tag := n.lane.set[i], n.lane.tag[i]
	slot, st := n.dir.AccessSlotIn(set, tag)
	slot, cur := n.sanitize(set, tag, slot, coherence.State(st))
	entry := n.eng.Lookup(op, cur, snoopIn)
	n.cTransition[op][cur][snoopIn].Inc()

	// Classification counters.
	isRef := op == coherence.LocalRead || op == coherence.LocalWrite
	hit := cur.IsValid()
	switch op {
	case coherence.LocalRead:
		if hit {
			n.cReadHit.Inc()
		} else {
			n.cReadMiss.Inc()
		}
	case coherence.LocalWrite:
		if hit {
			n.cWriteHit.Inc()
			if cur == coherence.Shared || cur == coherence.Owned {
				n.cUpgrades.Inc()
			}
		} else {
			n.cWriteMiss.Inc()
		}
	case coherence.LocalCastout:
		if hit {
			n.cCastIn.Inc()
		} else {
			n.cCastAlloc.Inc()
		}
	}
	if isRef {
		if hit {
			if c := n.perCPUHit[p.src]; c != nil {
				c.Inc()
			}
		} else if c := n.perCPUMiss[p.src]; c != nil {
			c.Inc()
		}
		// Where was this reference satisfied? (Figure 12 breakdown.)
		switch {
		case hit:
			n.cSatL3.Inc()
		case snoopIn == coherence.SnoopModified:
			n.cSatModInt.Inc()
		case snoopIn == coherence.SnoopShared:
			n.cSatShrInt.Inc()
		default:
			n.cSatMem.Inc()
		}
		if n.prof != nil {
			miss := uint64(0)
			if !hit {
				miss = 1
			}
			n.prof.Observe(p.cycle, miss, 1)
		}
	}

	// Apply the transition.
	n.apply(set, tag, slot, cur, entry)
}

// snoop processes a transaction from another node in the same group; op
// is its snoop operation and i its index in the service window. (slot,
// st) is what Board.process found when it looked the line up in this
// node's directory for the combined snoop input. Board.process answers a
// miss on an idleMiss op itself and never calls snoop for it.
func (n *node) snoop(op coherence.Op, i int, slot int64, st coherence.State) {
	set, tag := n.lane.set[i], n.lane.tag[i]
	slot, cur := n.sanitize(set, tag, slot, st)
	entry := n.eng.Lookup(op, cur, coherence.SnoopNone)
	n.cTransition[op][cur][coherence.SnoopNone].Inc()

	if cur.IsValid() {
		switch op {
		case coherence.SnoopRead:
			n.cSnoopReadHit.Inc()
		case coherence.SnoopWrite:
			n.cSnoopWriteHit.Inc()
		}
	}
	if entry.Actions.Has(coherence.ActRespondModified) {
		n.cIntervModSup.Inc()
	} else if entry.Actions.Has(coherence.ActRespondShared) {
		n.cIntervShrSup.Inc()
	}
	if op == coherence.SnoopWrite && cur.IsValid() && entry.Next == coherence.Invalid {
		n.cInvalidations.Inc()
	}
	n.apply(set, tag, slot, cur, entry)
}

// apply commits a protocol transition to the directory, handling
// allocation, eviction, writeback, and invalidation. slot is where the
// lookup that produced cur found the line with the given set index and
// tag (cache.NoSlot on a miss).
func (n *node) apply(set int64, tag uint64, slot int64, cur coherence.State, e coherence.Entry) {
	if e.Actions.Has(coherence.ActWriteback) {
		n.cWritebacks.Inc()
	}
	switch {
	case cur == coherence.Invalid && e.Actions.Has(coherence.ActAllocate):
		victim, evicted := n.dir.FillIn(set, tag, slot, uint8(e.Next))
		if evicted {
			n.cEvictions.Inc()
			if coherence.State(victim.State).IsDirty() {
				// The emulated cache writes the dirty victim back to
				// memory. Being passive, the board cannot invalidate the
				// line in the host's L1/L2 (§3.4's non-inclusive
				// limitation) — it only accounts for the traffic.
				n.cEvictDirty.Inc()
				n.cWritebacks.Inc()
			}
		}
	case cur != coherence.Invalid && e.Next == coherence.Invalid:
		n.dir.InvalidateAt(slot)
	case cur != coherence.Invalid && e.Next != cur:
		n.dir.SetStateAt(slot, uint8(e.Next))
	}
}

// NodeView is a read-only summary of one emulated node, assembled from
// the counter bank for reports and tests.
type NodeView struct {
	Name      string
	Geometry  string
	Protocol  string
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

// Node returns the view of node i.
func (b *Board) Node(i int) NodeView {
	n := b.nodes[i]
	return NodeView{
		Name:      n.cfg.Name,
		Geometry:  n.cfg.Geometry.String(),
		Protocol:  n.cfg.Protocol.Name,
		ReadHit:   n.cReadHit.Value(),
		ReadMiss:  n.cReadMiss.Value(),
		WriteHit:  n.cWriteHit.Value(),
		WriteMiss: n.cWriteMiss.Value(),
		SatL3:     n.cSatL3.Value(),
		SatModInt: n.cSatModInt.Value(),
		SatShrInt: n.cSatShrInt.Value(),
		SatMemory: n.cSatMem.Value(),
		Castouts:  n.cCastIn.Value() + n.cCastAlloc.Value(),
		Evictions: n.cEvictions.Value(),
	}
}

// Refs returns the number of local cache references (reads + writes) node
// i has emulated.
func (v NodeView) Refs() uint64 {
	return v.ReadHit + v.ReadMiss + v.WriteHit + v.WriteMiss
}

// Misses returns read + write misses.
func (v NodeView) Misses() uint64 { return v.ReadMiss + v.WriteMiss }

// MissRatio returns misses over references, the paper's primary metric.
func (v NodeView) MissRatio() float64 { return stats.Ratio(v.Misses(), v.Refs()) }

// Profile returns node i's miss-ratio time series (nil if profiling off).
func (b *Board) Profile(i int) *stats.TimeSeries { return b.nodes[i].prof }

// DirectoryOccupancy returns the number of valid lines in node i's
// directory, refreshing the occupancy counters as a side effect.
func (b *Board) DirectoryOccupancy(i int) int64 {
	n := b.nodes[i]
	var counts [coherence.NumStates]int64
	n.dir.ForEachValid(func(_ uint64, st uint8) {
		if int(st) < len(counts) {
			counts[st]++
		}
	})
	p := "node" + n.cfg.Name + ".occupancy."
	var total int64
	for st := 1; st < coherence.NumStates; st++ {
		c := b.bank.Counter(p + coherence.State(st).String())
		c.Reset()
		c.Add(uint64(counts[st]))
		total += counts[st]
	}
	return total
}
