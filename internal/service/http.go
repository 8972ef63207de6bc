package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"memories/internal/checkpoint"
	"memories/internal/obs"
	"memories/internal/prof"
	"memories/internal/tracefile"
)

// CreateRequest is the POST /sessions body. Only Cache is commonly
// needed; everything else defaults to the paper's single-L3 shape.
type CreateRequest struct {
	// ID names the session ([a-zA-Z0-9_.-], ≤64 chars); generated when
	// empty.
	ID string `json:"id,omitempty"`
	// Cache is the emulated cache capacity ("64KB".."8GB").
	Cache string `json:"cache,omitempty"`
	// LineBytes is the line size (default 128).
	LineBytes int64 `json:"line_bytes,omitempty"`
	// Assoc is the associativity (default 8).
	Assoc int `json:"assoc,omitempty"`
	// Policy selects replacement: lru, plru, fifo, random.
	Policy string `json:"policy,omitempty"`
	// Protocol selects a shipped coherence table by name (mesi, msi,
	// moesi, write-once). Mutually exclusive with ProtocolMap.
	Protocol string `json:"protocol,omitempty"`
	// ProtocolMap is inline map-file text for a custom coherence
	// protocol ("bring your own protocol"). The text runs the full
	// load-time gauntlet — parse, compile, exhaustive model check —
	// before any board is built; incoherent tables are rejected with
	// the checker's counterexample trace. File paths are deliberately
	// not accepted here.
	ProtocolMap string `json:"protocol_map,omitempty"`
	// CPUs is how many host bus IDs feed the node (default 8).
	CPUs int `json:"cpus,omitempty"`
	// ECC enables SECDED protection on the emulated tag store.
	ECC bool `json:"ecc,omitempty"`
	// WarmStart names a checkpoint file in the server's corpus
	// directory to restore the board from before any ingest.
	WarmStart string `json:"warm_start,omitempty"`
}

// SessionInfo is the create/list response shape.
type SessionInfo struct {
	ID             string `json:"id"`
	Geometry       string `json:"geometry"`
	Protocol       string `json:"protocol"`
	DirectoryBytes int64  `json:"directory_bytes"`
	WarmStart      string `json:"warm_start,omitempty"`
	ECCHealed      uint64 `json:"ecc_healed,omitempty"`
}

// NodeStats is one emulated node's results in a stats response.
type NodeStats struct {
	Name      string  `json:"name"`
	Geometry  string  `json:"geometry"`
	Protocol  string  `json:"protocol"`
	ReadHit   uint64  `json:"read_hit"`
	ReadMiss  uint64  `json:"read_miss"`
	WriteHit  uint64  `json:"write_hit"`
	WriteMiss uint64  `json:"write_miss"`
	MissRatio float64 `json:"miss_ratio"`
}

// StatsResponse is the GET /sessions/{id}/stats body.
type StatsResponse struct {
	ID        string      `json:"id"`
	Ingested  uint64      `json:"ingested"`
	Accepted  uint64      `json:"accepted"`
	Rejected  uint64      `json:"rejected_429"`
	Queue     int64       `json:"queue_depth"`
	Nodes     []NodeStats `json:"nodes"`
	Overflow  uint64      `json:"buffer_overflow"`
	LastCycle uint64      `json:"last_cycle"`
	WarmStart string      `json:"warm_start,omitempty"`
	Ckpt      string      `json:"last_checkpoint,omitempty"`
}

// IngestResponse is the POST /sessions/{id}/trace body on 202.
type IngestResponse struct {
	Accepted uint64 `json:"accepted"`
	Queue    int64  `json:"queue_depth"`
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// readStatus answers a request body that could not be read: 413 when it
// ran past its cap, 400 for anything else (a client that hung up
// mid-body, a malformed chunked encoding).
func readStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// retryAfter sets the flow-control hint on 429/503 responses.
func (s *Server) retryAfter(w http.ResponseWriter) {
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /sessions", s.handleCreate)
	s.mux.HandleFunc("GET /sessions", s.handleList)
	s.mux.HandleFunc("POST /sessions/{id}/trace", s.handleIngest)
	s.mux.HandleFunc("GET /sessions/{id}/stats", s.handleStats)
	s.mux.HandleFunc("DELETE /sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	if s.cfg.EnablePprof {
		prof.RegisterHTTP(s.mux)
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, readStatus(err), "read body: %v", err)
		return
	}
	var req CreateRequest
	if len(bytes.TrimSpace(body)) > 0 {
		// A misspelled or retired field is an error, not a silent
		// default, and so is anything after the one object.
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		if _, tail := dec.Token(); err == nil && tail != io.EOF {
			err = errors.New("trailing data after the request object")
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, "parse request: %v", err)
			return
		}
	}
	bcfg, dirBytes, err := buildBoardConfig(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Quota before allocation: the footprint is derived from the
	// requested geometry, so an over-quota board never materializes.
	if dirBytes > s.cfg.MaxDirectoryBytes {
		s.cRejectedMem.Inc()
		writeErr(w, http.StatusRequestEntityTooLarge,
			"directory footprint %d exceeds per-session quota %d", dirBytes, s.cfg.MaxDirectoryBytes)
		return
	}

	// Admission: reserve the ID and a pool slot atomically.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.retryAfter(w)
		writeErr(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.cRejectedPool.Inc()
		s.retryAfter(w)
		writeErr(w, http.StatusServiceUnavailable,
			"session pool full (%d); retry later", s.cfg.MaxSessions)
		return
	}
	id := req.ID
	if id == "" {
		s.nextID++
		id = fmt.Sprintf("s-%06d", s.nextID)
	}
	if !idRx.MatchString(id) {
		s.mu.Unlock()
		writeErr(w, http.StatusBadRequest, "invalid session id %q", id)
		return
	}
	if _, dup := s.sessions[id]; dup {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, "session %q already exists", id)
		return
	}
	// Hold the slot with a nil placeholder while building outside the
	// lock (board allocation can be large).
	s.sessions[id] = nil
	s.mu.Unlock()

	sess, err := s.newSession(id, bcfg)
	if err == nil && req.WarmStart != "" {
		if werr := sess.warmStartFrom(s.cfg.CorpusDir, req.WarmStart); werr != nil {
			sess.teardown()
			err = werr
		}
	}
	if err != nil {
		s.mu.Lock()
		delete(s.sessions, id)
		s.mu.Unlock()
		code := http.StatusBadRequest
		var ce *checkpoint.CorruptError
		if errors.As(err, &ce) {
			code = http.StatusUnprocessableEntity
		}
		writeErr(w, code, "%v", err)
		return
	}
	s.mu.Lock()
	if s.draining {
		// Drain began while the board was building; it never saw this
		// session, so refuse admission and tear it down ourselves.
		delete(s.sessions, id)
		s.mu.Unlock()
		sess.teardown()
		s.retryAfter(w)
		writeErr(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.cCreated.Inc()
	writeJSON(w, http.StatusCreated, s.info(sess))
}

func (s *Server) info(sess *Session) SessionInfo {
	nc := sess.board.Config().Nodes[0]
	return SessionInfo{
		ID:             sess.ID,
		Geometry:       nc.Geometry.String(),
		Protocol:       nc.Protocol.Name,
		DirectoryBytes: sess.dirBytes,
		WarmStart:      sess.warmStart,
		ECCHealed:      sess.eccHealed,
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	infos := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if sess != nil {
			infos = append(infos, s.info(sess))
		}
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	writeJSON(w, http.StatusOK, infos)
}

// handleIngest accepts one block of bus records: raw trace bytes in
// either MIES format, auto-detected from the magic. The board only ever
// saw the bus, so a body that is not a trace is a 400; a workload
// becomes a trace with cmd/tracegen first. Ingest is asynchronous — 202
// means queued, and stats report when it has been applied. A full queue
// returns the bus-retry: 429 + Retry-After, client owns the re-issue.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sess := s.session(r.PathValue("id"))
	if sess == nil {
		writeErr(w, http.StatusNotFound, "no such session")
		return
	}
	if s.Draining() {
		s.retryAfter(w)
		writeErr(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	buf := s.bodies.Get().(*bytes.Buffer)
	buf.Reset()
	var blk block
	code := http.StatusBadRequest
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		code, err = readStatus(err), fmt.Errorf("read body: %w", err)
	} else {
		blk, err = s.traceBlock(buf.Bytes())
	}
	s.bodies.Put(buf) // nothing in blk aliases the body
	if err != nil {
		writeErr(w, code, "%v", err)
		return
	}
	ok, closed := sess.enqueue(blk)
	if !ok {
		s.slabs.Put(blk.recs)
	}
	if closed {
		s.retryAfter(w)
		writeErr(w, http.StatusServiceUnavailable, "session draining")
		return
	}
	if !ok {
		s.retryAfter(w)
		writeErr(w, http.StatusTooManyRequests,
			"ingest queue full (%d blocks in flight); retry after backoff", s.cfg.MaxInflight)
		return
	}
	sess.accepted.Add(blk.n)
	s.cBlocks.Inc()
	writeJSON(w, http.StatusAccepted, IngestResponse{Accepted: blk.n, Queue: sess.inflight.Load()})
}

// traceBlock decodes a trace body into a slab from the pool. A refused
// body returns the slab.
func (s *Server) traceBlock(body []byte) (block, error) {
	slab := s.slabs.Get().(*[]tracefile.Record)
	recs, err := tracefile.AppendRecords((*slab)[:0], body)
	*slab = recs
	switch {
	case err != nil:
		err = fmt.Errorf("trace: %w (the body must be a MIES trace; make one with "+
			"go run ./cmd/tracegen -workload NAME -refs N -o FILE)", err)
	case len(recs) == 0:
		err = errors.New("trace: empty")
	}
	if err != nil {
		s.slabs.Put(slab)
		return block{}, err
	}
	return block{recs: slab, n: uint64(len(recs)), enq: time.Now()}, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sess := s.session(r.PathValue("id"))
	if sess == nil {
		writeErr(w, http.StatusNotFound, "no such session")
		return
	}
	writeJSON(w, http.StatusOK, sess.stats())
}

// stats snapshots the session under its lock, so the numbers are a
// consistent quiesce-point view even while the worker is feeding.
func (sess *Session) stats() StatsResponse {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	resp := StatsResponse{
		ID:        sess.ID,
		Ingested:  sess.ingested.Load(),
		Accepted:  sess.accepted.Load(),
		Rejected:  sess.rejected.Load(),
		Queue:     sess.inflight.Load(),
		Overflow:  sess.board.Counters().Value("buffer.overflow"),
		LastCycle: sess.board.LastCycle(),
		WarmStart: sess.warmStart,
		Ckpt:      sess.lastCkpt,
	}
	for i := 0; i < sess.board.NumNodes(); i++ {
		v := sess.board.Node(i)
		resp.Nodes = append(resp.Nodes, NodeStats{
			Name:      v.Name,
			Geometry:  v.Geometry,
			Protocol:  v.Protocol,
			ReadHit:   v.ReadHit,
			ReadMiss:  v.ReadMiss,
			WriteHit:  v.WriteHit,
			WriteMiss: v.WriteMiss,
			MissRatio: v.MissRatio(),
		})
	}
	return resp
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	if sess != nil {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if sess == nil {
		writeErr(w, http.StatusNotFound, "no such session")
		return
	}
	// Teardown first so the response carries truly final numbers: the
	// worker finishes its queued blocks before stats are read.
	sess.teardown()
	final := sess.stats()
	s.cDestroyed.Inc()
	writeJSON(w, http.StatusOK, final)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		s.retryAfter(w)
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.reg.Request()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePromWith(w, s.reg.Snapshot(), obs.SplitSessionLabel)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	s.reg.Request()
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteJSON(w, s.reg.Snapshot())
}
