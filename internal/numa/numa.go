// Package numa implements the board's NUMA emulation modes (paper §2.3):
// partitioning the memory address space across emulated NUMA nodes, using
// each node controller's private memory to hold both an L3 tag directory
// and the sparse directory [WEB93] for its home partition, and optionally
// a remote-cache tag directory.
//
// As with the main cache-emulation mode, the emulator is a passive bus
// observer: it can invalidate entries in its *own* emulated structures
// when a sparse-directory entry is displaced, but it cannot touch the
// host's L1/L2 caches — the approximation the paper calls out ("the L2
// cache can be turned off or reduced to a smaller size to get a good
// approximation").
package numa

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/stats"
)

// L3 line states used by the NUMA emulator's per-node L3 directories.
const (
	l3Invalid = cache.StateInvalid
	l3Clean   = 1
	l3Dirty   = 2
)

// Directory entry state encoding: bit 0 marks dirty (single owner), bits
// 1..5 are the sharer mask shifted left by one so any present entry is
// nonzero.
func dirState(sharers uint8, dirty bool) uint8 {
	s := sharers << 1
	if dirty {
		s |= 1
	}
	return s
}

func dirSharers(st uint8) uint8 { return st >> 1 }
func dirDirty(st uint8) bool    { return st&1 != 0 }

// NodeConfig describes one emulated NUMA node.
type NodeConfig struct {
	// CPUs are the host bus IDs belonging to this node.
	CPUs []int
	// L3 is the node's shared cache geometry.
	L3 addr.Geometry
	// Policy is the L3/remote-cache replacement policy.
	Policy cache.Policy
	// Remote, if non-zero, adds a remote cache holding lines whose home
	// is another node (the "remote cache emulation" mode).
	Remote addr.Geometry
}

// Config describes the emulated NUMA machine.
type Config struct {
	Nodes []NodeConfig
	// HomeInterleaveBytes is the granularity of the home-node
	// interleaving: address block i lives on node i % len(Nodes).
	HomeInterleaveBytes int64
	// Directory is the per-home sparse-directory geometry; its "line
	// size" is the coherence granularity (normally the L3 line size).
	Directory addr.Geometry
}

// Emulator is the NUMA directory emulation engine.
type Emulator struct {
	cfg   Config
	bank  *stats.Bank
	nodes []*node
	owner map[int]*node
}

type node struct {
	id     int
	cfg    NodeConfig
	l3     *cache.Cache
	remote *cache.Cache // nil unless configured
	dir    *cache.Cache // sparse directory for this node's home partition

	cLocal, cRemote       *stats.Counter
	cL3Hit, cL3Miss       *stats.Counter
	cRemHit, cRemMiss     *stats.Counter
	cDirEvict, cInvalSent *stats.Counter
	cDirHit, cDirAlloc    *stats.Counter
	cInterventionSupplied *stats.Counter
	cWritebacks           *stats.Counter
}

// New builds the emulator.
func New(cfg Config) (*Emulator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("numa: need at least one node")
	}
	if len(cfg.Nodes) > 7 {
		return nil, fmt.Errorf("numa: at most 7 nodes (sharer mask width), got %d", len(cfg.Nodes))
	}
	if cfg.HomeInterleaveBytes <= 0 {
		return nil, fmt.Errorf("numa: home interleave must be positive")
	}
	if cfg.Directory.Sets == 0 {
		return nil, fmt.Errorf("numa: sparse directory geometry required")
	}
	e := &Emulator{cfg: cfg, bank: stats.NewBank(), owner: make(map[int]*node)}
	for i, nc := range cfg.Nodes {
		if len(nc.CPUs) == 0 {
			return nil, fmt.Errorf("numa: node %d owns no CPUs", i)
		}
		l3, err := cache.New(cache.Config{Geometry: nc.L3, Policy: nc.Policy})
		if err != nil {
			return nil, fmt.Errorf("numa: node %d L3: %v", i, err)
		}
		dir, err := cache.New(cache.Config{Geometry: cfg.Directory, Policy: nc.Policy})
		if err != nil {
			return nil, fmt.Errorf("numa: node %d directory: %v", i, err)
		}
		n := &node{id: i, cfg: nc, l3: l3, dir: dir}
		if nc.Remote.Sets != 0 {
			rc, err := cache.New(cache.Config{Geometry: nc.Remote, Policy: nc.Policy})
			if err != nil {
				return nil, fmt.Errorf("numa: node %d remote cache: %v", i, err)
			}
			n.remote = rc
		}
		p := fmt.Sprintf("numa%d.", i)
		n.cLocal = e.bank.Counter(p + "requests.local")
		n.cRemote = e.bank.Counter(p + "requests.remote")
		n.cL3Hit = e.bank.Counter(p + "l3.hit")
		n.cL3Miss = e.bank.Counter(p + "l3.miss")
		n.cRemHit = e.bank.Counter(p + "remote-cache.hit")
		n.cRemMiss = e.bank.Counter(p + "remote-cache.miss")
		n.cDirEvict = e.bank.Counter(p + "directory.evictions")
		n.cInvalSent = e.bank.Counter(p + "directory.invalidations-sent")
		n.cDirHit = e.bank.Counter(p + "directory.hit")
		n.cDirAlloc = e.bank.Counter(p + "directory.allocated")
		n.cInterventionSupplied = e.bank.Counter(p + "intervention.supplied")
		n.cWritebacks = e.bank.Counter(p + "writebacks")
		for _, id := range nc.CPUs {
			if e.owner[id] != nil {
				return nil, fmt.Errorf("numa: CPU %d assigned twice", id)
			}
			e.owner[id] = n
		}
		e.nodes = append(e.nodes, n)
	}
	return e, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Emulator {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Counters exposes the emulator's counter bank.
func (e *Emulator) Counters() *stats.Bank { return e.bank }

// HomeOf returns the home node index for an address.
func (e *Emulator) HomeOf(a uint64) int {
	return int((a / uint64(e.cfg.HomeInterleaveBytes)) % uint64(len(e.nodes)))
}

// BusID implements bus.Snooper (passive).
func (e *Emulator) BusID() int { return -1 }

// Snoop implements bus.Snooper.
func (e *Emulator) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	if !tx.Cmd.IsMemoryOp() {
		return bus.RespNull
	}
	req := e.owner[tx.SrcID]
	if req == nil {
		return bus.RespNull
	}
	switch tx.Cmd {
	case bus.Read:
		e.access(req, tx.Addr, false)
	case bus.RWITM, bus.DClaim, bus.Flush:
		e.access(req, tx.Addr, true)
	case bus.Castout, bus.Clean:
		e.castout(req, tx.Addr)
	}
	return bus.RespNull
}

// access emulates a read or write from a CPU of node req.
func (e *Emulator) access(req *node, a uint64, write bool) {
	home := e.nodes[e.HomeOf(a)]
	local := home == req
	if local {
		req.cLocal.Inc()
	} else {
		req.cRemote.Inc()
	}

	// The requester's caching structures: L3 for local lines, L3 then
	// remote cache for remote lines.
	e.lookupCached(req, a, write, local)

	// Home directory bookkeeping.
	st := home.dir.Access(a)
	if st != cache.StateInvalid {
		home.cDirHit.Inc()
		sharers := dirSharers(st)
		if write {
			// Invalidate every other sharer's cached copies.
			for _, other := range e.nodes {
				if other != req && sharers&(1<<uint(other.id)) != 0 {
					e.invalidateCached(other, a)
					home.cInvalSent.Inc()
				}
			}
			if dirDirty(st) && sharers&(1<<uint(req.id)) == 0 {
				// Dirty elsewhere: owner supplies the line.
				for _, other := range e.nodes {
					if other != req && sharers&(1<<uint(other.id)) != 0 {
						other.cInterventionSupplied.Inc()
					}
				}
			}
			home.dir.SetState(a, dirState(1<<uint(req.id), true))
			return
		}
		if dirDirty(st) && sharers&(1<<uint(req.id)) == 0 {
			for _, other := range e.nodes {
				if other != req && sharers&(1<<uint(other.id)) != 0 {
					other.cInterventionSupplied.Inc()
					other.cWritebacks.Inc()
				}
			}
			// Read of a dirty line cleans it (owner writes back).
			home.dir.SetState(a, dirState(sharers|1<<uint(req.id), false))
		} else {
			home.dir.SetState(a, dirState(sharers|1<<uint(req.id), dirDirty(st)))
		}
		return
	}

	// Directory miss: allocate a sparse entry, possibly displacing one.
	home.cDirAlloc.Inc()
	victim, evicted := home.dir.Fill(a, dirState(1<<uint(req.id), write))
	if evicted {
		home.cDirEvict.Inc()
		// The displaced entry's sharers must drop their copies: this is
		// the sparse-directory eviction-notification path of §2.3.
		sharers := dirSharers(victim.State)
		for _, other := range e.nodes {
			if sharers&(1<<uint(other.id)) != 0 {
				e.invalidateCached(other, victim.Addr)
				home.cInvalSent.Inc()
			}
		}
		if dirDirty(victim.State) {
			home.cWritebacks.Inc()
		}
	}
}

// lookupCached probes and updates the requester's L3 (and remote cache
// for remote lines), filling on miss. Returns whether any level hit.
func (e *Emulator) lookupCached(req *node, a uint64, write, local bool) bool {
	state := uint8(l3Clean)
	if write {
		state = l3Dirty
	}
	if st := req.l3.Access(a); st != l3Invalid {
		req.cL3Hit.Inc()
		if write {
			req.l3.SetState(a, l3Dirty)
		}
		return true
	}
	req.cL3Miss.Inc()
	if !local && req.remote != nil {
		if st := req.remote.Access(a); st != l3Invalid {
			req.cRemHit.Inc()
			if write {
				req.remote.SetState(a, l3Dirty)
			}
			return true
		}
		req.cRemMiss.Inc()
		req.remote.Fill(a, state)
		return false
	}
	req.l3.Fill(a, state)
	return false
}

// invalidateCached drops a line from a node's L3 and remote cache.
func (e *Emulator) invalidateCached(n *node, a uint64) {
	n.l3.Invalidate(a)
	if n.remote != nil {
		n.remote.Invalidate(a)
	}
}

// castout absorbs a dirty writeback into the requester's L3 and marks the
// directory entry dirty for that node.
func (e *Emulator) castout(req *node, a uint64) {
	if req.l3.Probe(a) != l3Invalid {
		req.l3.SetState(a, l3Dirty)
	} else if home := e.nodes[e.HomeOf(a)]; home != req && req.remote != nil && req.remote.Probe(a) != l3Invalid {
		req.remote.SetState(a, l3Dirty)
	} else {
		req.l3.Fill(a, l3Dirty)
	}
	home := e.nodes[e.HomeOf(a)]
	if st := home.dir.Probe(a); st != cache.StateInvalid {
		home.dir.SetState(a, dirState(dirSharers(st)|1<<uint(req.id), true))
	}
}

// View is a read-only per-node summary.
type View struct {
	Local, Remote     uint64
	L3Hit, L3Miss     uint64
	RemHit, RemMiss   uint64
	DirEvictions      uint64
	InvalidationsSent uint64
}

// Node returns the view of node i.
func (e *Emulator) Node(i int) View {
	n := e.nodes[i]
	return View{
		Local:             n.cLocal.Value(),
		Remote:            n.cRemote.Value(),
		L3Hit:             n.cL3Hit.Value(),
		L3Miss:            n.cL3Miss.Value(),
		RemHit:            n.cRemHit.Value(),
		RemMiss:           n.cRemMiss.Value(),
		DirEvictions:      n.cDirEvict.Value(),
		InvalidationsSent: n.cInvalSent.Value(),
	}
}
