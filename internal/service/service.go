// Package service turns the MemorIES library into a long-running,
// multi-tenant emulation service: the shape the paper implies when it
// describes the board as a shared lab instrument that "plugs into" a
// live SMP and emulates memory systems for whoever is driving it, and
// the shape the ROADMAP names for production ("emulation as a
// service").
//
// The HTTP surface (cmd/memoriesd serves it):
//
//	POST   /sessions            create a configured board (optionally
//	                            warm-started from a checkpoint corpus)
//	GET    /sessions            list live sessions
//	POST   /sessions/{id}/trace stream MIES0002 trace bytes in
//	                            (async ingest)
//	GET    /sessions/{id}/stats poll emulation results
//	DELETE /sessions/{id}       tear the session down
//	GET    /healthz             liveness (reports draining)
//	GET    /metrics             Prometheus text with per-session labels
//	GET    /metrics.json        one JSON snapshot object
//
// A session takes bus records only, as the board snooped only the bus:
// a workload model becomes a trace with cmd/tracegen first.
//
// Resource bounds are explicit because the service faces many tenants
// at once: the session pool is bounded (MaxSessions), each session's
// emulated directory footprint is quota-checked before the board is
// allocated (MaxDirectoryBytes), and ingest is flow-controlled the way
// the board itself is. Paper §3.3: when the node controllers' 512-entry
// transaction buffer fills, the address filter posts a bus Retry and
// the requester re-issues. Here each session's bounded ingest queue is
// that transaction buffer, and HTTP 429 + Retry-After is the bus
// retry: the client owns the re-issue, exactly as bus devices do on
// RespRetry.
//
// On SIGTERM (cmd/memoriesd wires the signal to Drain) the service
// stops admitting sessions and ingest, lets every session's worker
// finish its queued blocks, checkpoints each board crash-safely into
// CheckpointDir, and only then lets the process exit — so a fleet
// rollout never loses a tenant's accumulated emulation state.
package service

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"memories/internal/obs"
	"memories/internal/tracefile"
)

// Config bounds the service.
type Config struct {
	// MaxSessions bounds the pool of concurrent boards. Creation
	// beyond it returns 503 + Retry-After.
	MaxSessions int
	// MaxDirectoryBytes is the per-session quota on emulated directory
	// footprint (the packed tag store's size, 8 B/slot). Checked from
	// the requested geometry before the board is allocated; exceeding
	// it returns 413.
	MaxDirectoryBytes int64
	// MaxInflight is each session's ingest queue depth in blocks — the
	// service-level transaction buffer. A full queue returns 429 +
	// Retry-After.
	MaxInflight int
	// MaxBodyBytes caps one ingest request body.
	MaxBodyBytes int64
	// CheckpointDir receives one checkpoint per live session on Drain
	// ("" disables drain checkpoints).
	CheckpointDir string
	// CorpusDir is where warm-start checkpoints are looked up; create
	// requests may only name files inside it ("" disables warm starts).
	CorpusDir string
	// RetryAfter is the flow-control hint returned with 429/503
	// responses (default 1s).
	RetryAfter time.Duration
	// EnablePprof mounts the /debug/pprof endpoints (cmd/memoriesd's
	// -pprof flag) so service-mode hot paths can be profiled live. Off
	// by default: the endpoints expose stacks and timings, so operators
	// opt in explicitly.
	EnablePprof bool
}

// DefaultConfig returns production-shaped defaults sized for a single
// mid-range host.
func DefaultConfig() Config {
	return Config{
		MaxSessions:       256,
		MaxDirectoryBytes: 64 << 20,
		MaxInflight:       8,
		MaxBodyBytes:      8 << 20,
		RetryAfter:        time.Second,
	}
}

// Server is the multi-tenant session service.
type Server struct {
	cfg Config
	reg *obs.Registry
	mux *http.ServeMux

	mu       sync.Mutex
	sessions map[string]*Session
	draining bool
	nextID   uint64

	ln   net.Listener
	hsrv *http.Server

	// Service-level counters, exported unlabeled under "service.".
	cCreated      *obs.Counter
	cDestroyed    *obs.Counter
	cRejectedPool *obs.Counter
	cRejectedMem  *obs.Counter
	cRetryPosted  *obs.Counter // 429s: the HTTP analogue of buffer.retry-posted
	cBlocks       *obs.Counter
	cRecords      *obs.Counter
	cDrained      *obs.Counter

	// Trace ingest allocates nothing in steady state: a POST reads its
	// body into a pooled buffer and decodes it into a pooled record slab.
	// The records do not alias the body, so the buffer goes back once
	// decoded; the slab rides the queue and goes back once applied.
	bodies sync.Pool // *bytes.Buffer
	slabs  sync.Pool // *[]tracefile.Record

	// applyHook, when non-nil, runs inside every session worker's block
	// apply while the session lock is held. Tests use it to hold a
	// session's consumer slow and provoke 429 backpressure
	// deterministically.
	applyHook func()
}

// New builds a server. The registry is created internally and exposed
// via Registry for embedding processes.
func New(cfg Config) *Server {
	def := DefaultConfig()
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = def.MaxSessions
	}
	if cfg.MaxDirectoryBytes <= 0 {
		cfg.MaxDirectoryBytes = def.MaxDirectoryBytes
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = def.MaxInflight
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = def.MaxBodyBytes
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = def.RetryAfter
	}
	s := &Server{
		cfg:      cfg,
		reg:      obs.NewRegistry(),
		sessions: make(map[string]*Session),
		bodies:   sync.Pool{New: func() any { return new(bytes.Buffer) }},
		slabs:    sync.Pool{New: func() any { return new([]tracefile.Record) }},
	}
	s.cCreated = s.reg.Counter("service.sessions.created")
	s.cDestroyed = s.reg.Counter("service.sessions.destroyed")
	s.cRejectedPool = s.reg.Counter("service.sessions.rejected.pool")
	s.cRejectedMem = s.reg.Counter("service.sessions.rejected.quota")
	s.cRetryPosted = s.reg.Counter("service.ingest.retry-posted")
	s.cBlocks = s.reg.Counter("service.ingest.blocks")
	s.cRecords = s.reg.Counter("service.ingest.records")
	s.cDrained = s.reg.Counter("service.sessions.drained")
	s.reg.RegisterGaugeFunc("service.sessions.live", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.sessions))
	})
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Handler returns the service's HTTP handler, for embedding in an
// existing mux or httptest server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (":0" works for tests) and serves in the
// background. It returns once the listener is bound.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.hsrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.hsrv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// session looks a live session up by ID.
func (s *Server) session(id string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// Drain performs graceful shutdown: no new sessions or ingest are
// admitted, every session's queued blocks finish, and each board is
// checkpointed into CheckpointDir (when configured). It returns the
// number of sessions drained and the first checkpoint error, if any.
// Sessions stay queryable (stats) during and after the drain; Close
// shuts the HTTP listener down.
func (s *Server) Drain(ctx context.Context) (int, error) {
	s.mu.Lock()
	s.draining = true
	list := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		// A nil entry is a placeholder for a session still being built;
		// its creator re-checks draining before publishing and tears it
		// down itself.
		if sess != nil {
			list = append(list, sess)
		}
	}
	s.mu.Unlock()

	for _, sess := range list {
		sess.closeIntake()
	}
	var firstErr error
	for _, sess := range list {
		select {
		case <-sess.done:
		case <-ctx.Done():
			return 0, fmt.Errorf("service: drain interrupted with %d sessions pending: %w", len(list), ctx.Err())
		}
		if s.cfg.CheckpointDir != "" {
			if _, err := sess.checkpointTo(s.cfg.CheckpointDir); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		s.cDrained.Inc()
	}
	return len(list), firstErr
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close stops the HTTP listener (if Start ran). It does not drain;
// call Drain first for a graceful exit.
func (s *Server) Close() error {
	if s.hsrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	return s.hsrv.Shutdown(ctx)
}
