package service

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/checkpoint"
	"memories/internal/coherence"
	"memories/internal/core"
	"memories/internal/obs"
	"memories/internal/tracefile"
	"memories/protocols"
)

// ingestLatencyBounds bucket the enqueue→applied wait of one ingest
// block, in nanoseconds (64µs .. 4s).
var ingestLatencyBounds = []uint64{
	1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24,
	1 << 26, 1 << 28, 1 << 30, 1 << 32,
}

// applyChunk is how many transactions the worker stamps and snoops at a
// time, so a session's txbuf stays 4 Ki transactions (192 KB) whatever
// the body: an 8 MB body of 2-byte records would otherwise pin ~200 MB
// of bus.Transaction for the session's lifetime. Chunking changes no
// counter — SnoopBatch is serial Snoop (TestSnoopBatchMatchesSerial) —
// and the block still ends in one Flush.
const applyChunk = 4096

// block is one unit of queued ingest work.
type block struct {
	recs *[]tracefile.Record // a slab from Server.slabs, returned once applied
	n    uint64              // records in recs
	enq  time.Time
}

// Session is one tenant's board, fed by a single worker goroutine
// through a bounded queue.
//
// Locking: mu guards the board and trace-clock fields. The
// worker holds it while applying a block; HTTP handlers hold it while
// reading stats or writing checkpoints. The board's counters are plain
// single-writer 40-bit counters, so every touch goes through mu — the
// lock-free mirror path is reserved for /metrics scrapes.
type Session struct {
	ID      string
	srv     *Server
	created time.Time

	mu       sync.Mutex
	board    *core.Board
	seq      uint64 // bus sequence stamp
	cycle    uint64 // bus cycle stamp
	txbuf    []bus.Transaction
	lineSize int64

	// Intake: senders hold sendMu.RLock and test closed before posting
	// to blocks; closeIntake write-locks, flips closed, and closes the
	// channel, so no send can race the close.
	sendMu   sync.RWMutex
	closed   bool
	blocks   chan block
	inflight atomic.Int64
	done     chan struct{}

	ingested atomic.Uint64 // records applied to the board
	accepted atomic.Uint64 // records admitted to the queue
	rejected atomic.Uint64 // ingest requests bounced with 429

	dirBytes   int64
	warmStart  string // corpus checkpoint the session restored from
	eccHealed  uint64 // ECC repairs made while warm-starting
	lastCkpt   string
	cIngested  *obs.Counter
	cRejected  *obs.Counter
	latHist    *obs.Histogram
	queueGauge string
}

var idRx = regexp.MustCompile(`^[a-zA-Z0-9_.-]{1,64}$`)

// newSession allocates the board, attaches it to the registry under
// "session.<id>", and starts the worker.
func (s *Server) newSession(id string, bcfg core.Config) (*Session, error) {
	b, err := core.NewBoard(bcfg)
	if err != nil {
		return nil, err
	}
	sess := &Session{
		ID:       id,
		srv:      s,
		created:  time.Now(),
		board:    b,
		lineSize: bcfg.Nodes[0].Geometry.LineSize,
		blocks:   make(chan block, s.cfg.MaxInflight),
		done:     make(chan struct{}),
	}
	for i := 0; i < b.NumNodes(); i++ {
		sess.dirBytes += b.DirectoryBytes(i)
	}
	prefix := "session." + id
	if err := b.Observe(s.reg, nil, prefix, 0); err != nil {
		return nil, err
	}
	sess.cIngested = s.reg.Counter(prefix + ".ingest.records")
	sess.cRejected = s.reg.Counter(prefix + ".ingest.retry-posted")
	sess.latHist = s.reg.Histogram(prefix+".ingest.wait_ns", ingestLatencyBounds)
	sess.queueGauge = prefix + ".ingest.queue"
	s.reg.RegisterGaugeFunc(sess.queueGauge, func() float64 {
		return float64(sess.inflight.Load())
	})
	go sess.worker()
	return sess, nil
}

// worker is the session's single consumer: it owns all board mutation.
func (s *Session) worker() {
	defer close(s.done)
	for blk := range s.blocks {
		s.apply(blk)
		s.inflight.Add(-1)
		s.latHist.Observe(uint64(time.Since(blk.enq)))
	}
}

// apply runs one block against the board under the session lock.
func (s *Session) apply(blk block) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hook := s.srv.applyHook; hook != nil {
		hook()
	}
	for recs := *blk.recs; len(recs) > 0; {
		chunk := recs[:min(len(recs), applyChunk)]
		recs = recs[len(chunk):]
		txs := s.txbuf[:0]
		for _, r := range chunk {
			s.cycle++
			s.seq++
			txs = append(txs, bus.Transaction{
				Seq:   s.seq,
				Cycle: s.cycle,
				Cmd:   r.Cmd,
				Addr:  r.Addr,
				Size:  int(s.lineSize),
				SrcID: int(r.SrcID),
			})
		}
		s.txbuf = txs
		s.board.SnoopBatch(txs)
	}
	s.board.Flush()
	s.srv.slabs.Put(blk.recs)
	s.ingested.Add(blk.n)
	s.cIngested.Add(blk.n)
	s.srv.cRecords.Add(blk.n)
	s.board.PublishObs()
}

// enqueue posts a block, applying the board's §3.3 flow control: a
// full queue is the full transaction buffer, so the caller gets the
// HTTP bus-retry (ok=false → 429) and owns the re-issue.
func (s *Session) enqueue(blk block) (ok, closed bool) {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.closed {
		return false, true
	}
	select {
	case s.blocks <- blk:
		s.inflight.Add(1)
		return true, false
	default:
		s.rejected.Add(1)
		s.cRejected.Inc()
		s.srv.cRetryPosted.Inc()
		return false, false
	}
}

// closeIntake stops accepting blocks; the worker drains what is queued
// and exits. Idempotent.
func (s *Session) closeIntake() {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.blocks)
	}
}

// checkpointTo flushes the board and writes its checkpoint crash-
// safely to dir/<id>.ckpt, returning the path.
func (s *Session) checkpointTo(dir string) (string, error) {
	path := filepath.Join(dir, s.ID+".ckpt")
	s.mu.Lock()
	defer s.mu.Unlock()
	s.board.Flush()
	s.board.PublishObs()
	if err := s.board.WriteCheckpointFile(path); err != nil {
		return "", fmt.Errorf("service: checkpoint session %s: %w", s.ID, err)
	}
	s.lastCkpt = path
	return path, nil
}

// warmStartFrom restores the board from a checkpoint file in the
// corpus directory. Must run before any ingest (the caller holds the
// only reference at create time, so no locking races).
func (s *Session) warmStartFrom(corpusDir, name string) error {
	if corpusDir == "" {
		return fmt.Errorf("service: warm starts disabled (no corpus dir)")
	}
	// The name must be a bare file name inside the corpus — reject
	// path traversal outright rather than cleaning it.
	if name != filepath.Base(name) || name == "." || name == ".." {
		return fmt.Errorf("service: warm-start name %q must be a bare corpus file name", name)
	}
	snap, err := checkpoint.ReadFile(filepath.Join(corpusDir, name))
	if err != nil {
		return err
	}
	rep, err := core.RestoreBoard(s.board, snap)
	if err != nil {
		return err
	}
	s.warmStart = name
	s.eccHealed = rep.ECCCorrected
	// The restored board carries its checkpointed cycle clock; trace
	// stamping must resume after it or the drain ordering would see
	// time run backwards.
	s.cycle = s.board.LastCycle()
	s.seq = s.cycle
	s.board.PublishObs()
	return nil
}

// teardown detaches the session's metrics namespace.
func (s *Session) teardown() {
	s.closeIntake()
	<-s.done
	s.srv.reg.RemovePrefix("session." + s.ID)
}

// buildBoardConfig translates a create request into a board config,
// validating geometry, policy, and protocol.
func buildBoardConfig(req *CreateRequest) (core.Config, int64, error) {
	if req.Cache == "" {
		req.Cache = "1MB"
	}
	size, err := addr.ParseSize(req.Cache)
	if err != nil {
		return core.Config{}, 0, err
	}
	line := req.LineBytes
	if line == 0 {
		line = 128
	}
	assoc := req.Assoc
	if assoc == 0 {
		assoc = 8
	}
	g, err := addr.NewGeometry(size, line, assoc)
	if err != nil {
		return core.Config{}, 0, err
	}
	pol := cache.LRU
	if req.Policy != "" {
		if pol, err = cache.ParsePolicy(req.Policy); err != nil {
			return core.Config{}, 0, err
		}
	}
	var proto *coherence.Table
	switch {
	case req.ProtocolMap != "":
		// Inline map text only — never a server-side file path, which
		// would let any API client read the server's filesystem. The
		// full gauntlet (parse, compile, model check) runs before the
		// table touches a board.
		if req.Protocol != "" {
			return core.Config{}, 0, fmt.Errorf("service: protocol and protocol_map are mutually exclusive")
		}
		var err error
		if proto, err = protocols.Verify(req.ProtocolMap); err != nil {
			return core.Config{}, 0, fmt.Errorf("service: protocol_map rejected: %w", err)
		}
	default:
		protoName := strings.ToLower(req.Protocol)
		if protoName == "" {
			protoName = "mesi"
		}
		var err error
		if proto, err = protocols.Load(protoName); err != nil {
			return core.Config{}, 0, fmt.Errorf("service: %w", err)
		}
	}
	ncpu := req.CPUs
	if ncpu == 0 {
		ncpu = 8
	}
	// One CPU per board bus ID, 0..core.MaxBusID.
	if ncpu < 1 || ncpu > core.MaxBusID+1 {
		return core.Config{}, 0, fmt.Errorf("service: cpus %d out of range [1,%d]", ncpu, core.MaxBusID+1)
	}
	bcfg := core.Config{
		Nodes: []core.NodeConfig{{
			Name:     "a",
			CPUs:     core.CPURange(ncpu),
			Geometry: g,
			Policy:   pol,
			Protocol: proto,
		}},
		ECC: req.ECC,
	}
	// The packed directory stores one 8-byte word per slot (DESIGN.md
	// §4c); computing the footprint from the geometry lets the quota
	// check run before the board allocates anything.
	dirBytes := (g.SizeBytes / g.LineSize) * 8
	return bcfg, dirBytes, nil
}
