// Package faults is a deterministic, seedable fault-injection layer for
// the MemorIES board model. It interposes on the bus/board boundary (the
// injector attaches to the bus in the board's place and forwards traffic)
// and on the SDRAM tag store (through the board's corruption and stall
// hooks), injecting the failure modes the paper's months-of-lab-use
// reliability claim never exercised:
//
//   - snoop-stream faults: dropped transactions (the board's bus receiver
//     misses an address tenure), duplicated transactions, and
//     burst-compressed transaction storms that overflow the 512-entry
//     transaction buffers and drive the overflow-retry path end to end;
//   - tag-store bit flips modeling SDRAM soft errors, injected behind the
//     ECC sidecar's back so that scrub and wild-state handling must find
//     them;
//   - transient node-controller stalls that freeze the SDRAM channel and
//     let buffered work pile up.
//
// Injection is driven by a seeded xorshift generator, so every run is
// reproducible. When Shadow is enabled the injector also keeps a golden
// software model (simbase.TraceSim) fed from the board's drain hook: the
// shadow processes exactly the post-buffering transaction stream the
// board's directories saw — including duplicates and bursts — so any
// divergence between the two is attributable to tag-store corruption, not
// to stream or timing differences. CheckDivergence turns that comparison
// into the "faults.divergence" counter.
//
// All injector counters live in the board's own counter bank under the
// "faults." prefix, so the console `dump` command surfaces them alongside
// the board's counters.
package faults

import (
	"fmt"

	"memories/internal/bus"
	"memories/internal/core"
	"memories/internal/sdram"
	"memories/internal/simbase"
	"memories/internal/stats"
	"memories/internal/tracefile"
	"memories/internal/workload"
)

// Config sets per-transaction fault probabilities. All probabilities are
// evaluated independently per accepted memory transaction; zero disables
// that fault class.
type Config struct {
	// Seed drives the injection RNG; 0 is remapped by workload.NewRNG.
	Seed uint64
	// DropProb is the probability the board never sees a transaction.
	DropProb float64
	// DupProb is the probability a transaction is presented to the board
	// twice (one synthetic replay).
	DupProb float64
	// BurstProb is the probability a transaction is followed by a
	// synthetic same-cycle burst of BurstLen replays, the event that
	// overflows the transaction buffers.
	BurstProb float64
	// BurstLen is the number of replays per burst; 0 defaults to the
	// board's buffer depth plus a margin, guaranteeing overflow.
	BurstLen int
	// BitFlipProb is the probability a random tag-store bit (one of the
	// packed word's sdram.WordPayloadBits tag/state bits of a random slot
	// of a random node) is flipped.
	BitFlipProb float64
	// StallProb is the probability the node controllers' SDRAM channels
	// are stalled for StallCycles.
	StallProb float64
	// StallCycles is the stall duration; 0 defaults to 1000 cycles.
	StallCycles uint64
	// Shadow maintains the golden software model for divergence
	// detection. Requires every board node to share one snoop group.
	Shadow bool
}

// Injector wraps a core.Board as a bus.Snooper. Attach the injector to
// the bus instead of the board.
type Injector struct {
	cfg   Config
	board *core.Board
	rng   *workload.RNG

	shadow *simbase.TraceSim

	cDropped      *stats.Counter
	cDuplicated   *stats.Counter
	cBursts       *stats.Counter
	cBurstTxns    *stats.Counter
	cBitFlips     *stats.Counter
	cFlipsValid   *stats.Counter
	cStalls       *stats.Counter
	cSynthRetry   *stats.Counter
	cRetrySeen    *stats.Counter
	cDivergence   *stats.Counter
	lastForwarded bool
}

// New builds an injector over board. The board must not be attached to
// the bus itself; the injector forwards to it.
func New(board *core.Board, cfg Config) (*Injector, error) {
	if cfg.DropProb < 0 || cfg.DropProb > 1 ||
		cfg.DupProb < 0 || cfg.DupProb > 1 ||
		cfg.BurstProb < 0 || cfg.BurstProb > 1 ||
		cfg.BitFlipProb < 0 || cfg.BitFlipProb > 1 ||
		cfg.StallProb < 0 || cfg.StallProb > 1 {
		return nil, fmt.Errorf("faults: probabilities must be in [0,1]")
	}
	if cfg.BurstLen == 0 {
		cfg.BurstLen = board.Config().BufferDepth + 64
	}
	if cfg.StallCycles == 0 {
		cfg.StallCycles = 1000
	}
	inj := &Injector{
		cfg:   cfg,
		board: board,
		rng:   workload.NewRNG(cfg.Seed),
	}
	if cfg.Shadow {
		bcfg := board.Config()
		var tns []simbase.TraceNodeConfig
		for i, nc := range bcfg.Nodes {
			if nc.Group != bcfg.Nodes[0].Group {
				return nil, fmt.Errorf("faults: shadow requires a single snoop group (node %d in group %d)", i, nc.Group)
			}
			tns = append(tns, simbase.TraceNodeConfig{
				CPUs:     nc.CPUs,
				Geometry: nc.Geometry,
				Policy:   nc.Policy,
				Protocol: nc.Protocol,
			})
		}
		shadow, err := simbase.NewTraceSim(tns)
		if err != nil {
			return nil, fmt.Errorf("faults: shadow: %v", err)
		}
		inj.shadow = shadow
		board.SetDrainObserver(func(_ uint64, cmd bus.Command, addr uint64, src int) {
			shadow.Process(tracefile.Record{Addr: addr, Cmd: cmd, SrcID: uint8(src)})
		})
	}
	bank := board.Counters()
	inj.cDropped = bank.Counter("faults.dropped")
	inj.cDuplicated = bank.Counter("faults.duplicated")
	inj.cBursts = bank.Counter("faults.bursts")
	inj.cBurstTxns = bank.Counter("faults.burst-txns")
	inj.cBitFlips = bank.Counter("faults.bitflips")
	inj.cFlipsValid = bank.Counter("faults.bitflips.valid")
	inj.cStalls = bank.Counter("faults.stalls")
	inj.cSynthRetry = bank.Counter("faults.retry.synthetic")
	inj.cRetrySeen = bank.Counter("faults.retry.observed")
	inj.cDivergence = bank.Counter("faults.divergence")
	return inj, nil
}

// Board returns the wrapped board.
func (inj *Injector) Board() *core.Board { return inj.board }

// BusID implements bus.Snooper with the board's passive (negative) ID.
func (inj *Injector) BusID() int { return inj.board.BusID() }

// Snoop implements bus.Snooper: it rolls the fault dice, applies
// tag-store and stall faults, and forwards (or drops, or replays) the
// transaction to the board. The board's own response — RespNull, or
// RespRetry on buffer overflow — is returned to the bus unchanged.
func (inj *Injector) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	inj.lastForwarded = false
	if !tx.Cmd.IsMemoryOp() {
		// Non-memory traffic is filtered before the transaction buffers
		// on the real board; faults in that path are invisible.
		return inj.board.Snoop(tx)
	}

	if inj.cfg.BitFlipProb > 0 && inj.rng.Chance(inj.cfg.BitFlipProb) {
		inj.flipRandomBit()
	}
	if inj.cfg.StallProb > 0 && inj.rng.Chance(inj.cfg.StallProb) {
		inj.cStalls.Inc()
		inj.board.StallTagStores(inj.cfg.StallCycles)
	}
	if inj.cfg.DropProb > 0 && inj.rng.Chance(inj.cfg.DropProb) {
		inj.cDropped.Inc()
		return bus.RespNull
	}

	resp := inj.board.Snoop(tx)
	inj.lastForwarded = true

	replays := 0
	if inj.cfg.BurstProb > 0 && inj.rng.Chance(inj.cfg.BurstProb) {
		inj.cBursts.Inc()
		replays = inj.cfg.BurstLen
	} else if inj.cfg.DupProb > 0 && inj.rng.Chance(inj.cfg.DupProb) {
		inj.cDuplicated.Inc()
		replays = 1
	}
	for i := 0; i < replays; i++ {
		// Synthetic replays model a burst arriving back-to-back at the
		// same bus cycle: the SDRAMs cannot drain between them, so the
		// buffer fills. Replays are invisible to the bus; only their
		// buffer-pressure side effects (and eventual overflow retries on
		// real traffic) escape the board.
		cp := *tx
		if inj.board.Snoop(&cp) == bus.RespRetry {
			inj.cSynthRetry.Inc()
		} else {
			inj.cBurstTxns.Inc()
		}
	}
	return resp
}

// ObserveResponse implements bus.ResponseObserver, forwarding the
// combined response to the board for transactions the board saw.
func (inj *Injector) ObserveResponse(tx *bus.Transaction, combined bus.SnoopResponse) {
	if combined == bus.RespRetry {
		inj.cRetrySeen.Inc()
	}
	if inj.lastForwarded {
		inj.board.ObserveResponse(tx, combined)
	}
	inj.lastForwarded = false
}

// flipRandomBit corrupts one uniformly random payload bit (the packed
// word's tag and state fields; the rank bits carry no protected data and
// the check byte is attacked through double flips elsewhere) of a random
// slot in a random node directory, bypassing the in-word check byte
// exactly as an SDRAM soft error would.
func (inj *Injector) flipRandomBit() {
	nodeIdx := int(inj.rng.Intn(int64(inj.board.NumNodes())))
	slots := inj.board.DirectorySlots(nodeIdx)
	slot := inj.rng.Intn(slots)
	bit := inj.rng.Intn(sdram.WordPayloadBits)
	var tagXor uint64
	var stateXor uint8
	if bit < sdram.WordTagBits {
		tagXor = 1 << uint(bit)
	} else {
		stateXor = 1 << uint(bit-sdram.WordTagBits)
	}
	inj.cBitFlips.Inc()
	if inj.board.CorruptDirectory(nodeIdx, slot, tagXor, stateXor) {
		inj.cFlipsValid.Inc()
	}
}

// DivergenceReport summarizes one golden-shadow comparison.
type DivergenceReport struct {
	// Nodes is the number of nodes whose hit/miss counters differ from
	// the shadow's.
	Nodes int
	// Delta is the summed absolute difference across the four hit/miss
	// counters of all nodes.
	Delta uint64
}

// CheckDivergence compares every node's hit/miss counters against the
// golden shadow and adds one "faults.divergence" event per diverged
// node. Call it after core.Board.Flush so both models have processed the
// full stream. It panics if the shadow is disabled.
func (inj *Injector) CheckDivergence() DivergenceReport {
	if inj.shadow == nil {
		panic("faults: CheckDivergence without Shadow enabled")
	}
	var rep DivergenceReport
	for i := 0; i < inj.board.NumNodes(); i++ {
		bv := inj.board.Node(i)
		sv := inj.shadow.NodeStats(i)
		d := absDiff(bv.ReadHit, sv.ReadHit) +
			absDiff(bv.ReadMiss, sv.ReadMiss) +
			absDiff(bv.WriteHit, sv.WriteHit) +
			absDiff(bv.WriteMiss, sv.WriteMiss)
		if d > 0 {
			rep.Nodes++
			rep.Delta += d
			inj.cDivergence.Inc()
		}
	}
	return rep
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
