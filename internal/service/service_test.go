package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"memories/internal/bus"
	"memories/internal/checkpoint"
	"memories/internal/core"
	"memories/internal/tracefile"
	"memories/protocols"
)

// TestMain fails the package if its tests leave goroutines behind: a
// session worker nobody drained, a listener nobody closed. Under -fuzz
// the check is off: the fuzzing engine keeps its own signal handler
// running.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d before the tests, %d after\n", before, n)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
			code = 1
		}
	}
	os.Exit(code)
}

// testServer starts a service on a loopback port and returns its base
// URL. The test's cleanup drains every session it left, so no worker
// outlives it, closes the client's idle connections, which Shutdown
// would leave open if the client dialled one and never sent on it, and
// then closes the listener.
func testServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		http.DefaultClient.CloseIdleConnections()
		_ = srv.Close()
	})
	return srv, "http://" + srv.Addr()
}

// traceRecords is the record stream of every ingest fixture: a fixed
// stride with every fourth reference a write.
func traceRecords(n int) []tracefile.Record {
	recs := make([]tracefile.Record, n)
	for i := range recs {
		cmd := bus.Read
		if i%4 == 3 {
			cmd = bus.RWITM
		}
		recs[i] = tracefile.Record{Addr: uint64(i) * 64, Cmd: cmd, SrcID: uint8(i % 4)}
	}
	return recs
}

// traceBody encodes n records as a MIES0002 body.
func traceBody(t *testing.T, n int) []byte {
	t.Helper()
	return v2Body(t, traceRecords(n))
}

// v2Body encodes recs as a MIES0002 body.
func v2Body(t *testing.T, recs []tracefile.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := tracefile.NewV2Writer(&buf)
	if err != nil {
		t.Fatalf("trace writer: %v", err)
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatalf("trace write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("trace flush: %v", err)
	}
	return buf.Bytes()
}

// traceBodyV1 hand-packs the same records as a MIES0001 body: nothing
// writes v1 any more, and the ingest endpoint refuses it by name.
func traceBodyV1(t *testing.T, n int) []byte {
	t.Helper()
	body := []byte(tracefile.Magic)
	for _, rec := range traceRecords(n) {
		v, err := rec.Pack()
		if err != nil {
			t.Fatalf("pack: %v", err)
		}
		body = binary.LittleEndian.AppendUint64(body, v)
	}
	return body
}

// sessionCount returns the number of live sessions.
func sessionCount(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func drainBody(resp *http.Response) string {
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(b)
}

// pollStats polls until the session's queue is empty and every
// accepted record has been applied.
func pollStats(t *testing.T, base, id string) StatsResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/sessions/" + id + "/stats")
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		var st StatsResponse
		decodeInto(t, resp, &st)
		if st.Queue == 0 && st.Ingested >= st.Accepted {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s never drained: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, base := testServer(t, Config{})

	resp := postJSON(t, base+"/sessions", CreateRequest{
		ID: "alpha", Cache: "64KB", LineBytes: 64, Assoc: 2, Protocol: "MESI",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	var info SessionInfo
	decodeInto(t, resp, &info)
	if info.ID != "alpha" || info.DirectoryBytes != (64<<10/64)*8 {
		t.Fatalf("create info = %+v", info)
	}

	// Ingest three bodies; all go to the same clock.
	for i, body := range [][]byte{traceBody(t, 500), traceBody(t, 500), traceBody(t, 250)} {
		resp, err := http.Post(base+"/sessions/alpha/trace", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %d: status %d: %s", i, resp.StatusCode, drainBody(resp))
		}
		var ir IngestResponse
		decodeInto(t, resp, &ir)
		if ir.Accepted == 0 {
			t.Fatalf("ingest %d accepted 0", i)
		}
	}

	st := pollStats(t, base, "alpha")
	if st.Ingested != 1250 || st.Accepted != 1250 {
		t.Fatalf("ingested/accepted = %d/%d, want 1250/1250", st.Ingested, st.Accepted)
	}
	if st.LastCycle != 1250 {
		t.Fatalf("last_cycle = %d, want 1250", st.LastCycle)
	}
	if len(st.Nodes) != 1 || st.Nodes[0].ReadHit+st.Nodes[0].ReadMiss == 0 {
		t.Fatalf("node stats missing: %+v", st.Nodes)
	}

	// List shows the session.
	resp, err := http.Get(base + "/sessions")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	var list []SessionInfo
	decodeInto(t, resp, &list)
	if len(list) != 1 || list[0].ID != "alpha" {
		t.Fatalf("list = %+v", list)
	}

	// Delete returns the final stats and frees the slot.
	req, _ := http.NewRequest(http.MethodDelete, base+"/sessions/alpha", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	var final StatsResponse
	decodeInto(t, resp, &final)
	if final.Ingested != 1250 {
		t.Fatalf("final ingested = %d", final.Ingested)
	}
	resp, err = http.Get(base + "/sessions/alpha/stats")
	if err != nil {
		t.Fatalf("stats after delete: %v", err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats after delete: status %d", resp.StatusCode)
	}
	drainBody(resp)
}

func TestCreateValidation(t *testing.T) {
	srv, base := testServer(t, Config{MaxDirectoryBytes: 1 << 20})

	cases := []struct {
		name string
		req  CreateRequest
		want int
	}{
		{"bad protocol", CreateRequest{Protocol: "dragon", Cache: "64KB"}, http.StatusBadRequest},
		{"bad policy", CreateRequest{Policy: "belady", Cache: "64KB"}, http.StatusBadRequest},
		{"bad id", CreateRequest{ID: "no spaces", Cache: "64KB"}, http.StatusBadRequest},
		{"bad geometry", CreateRequest{Cache: "100KB", LineBytes: 96}, http.StatusBadRequest},
		{"over quota", CreateRequest{Cache: "1GB", LineBytes: 64}, http.StatusRequestEntityTooLarge},
		{"warm start disabled", CreateRequest{Cache: "64KB", WarmStart: "x.ckpt"}, http.StatusBadRequest},
		{"cpus past the last bus ID", CreateRequest{Cache: "64KB", CPUs: core.MaxBusID + 2}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, base+"/sessions", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, drainBody(resp))
			continue
		}
		drainBody(resp)
	}
	// Unknown fields are refused by name — a misspelling, and a field a
	// stale client still sends after its removal — and so is a second
	// value after the request object.
	for _, tc := range []struct{ body, want string }{
		{`{"cahce":"64KB"}`, `unknown field \"cahce\"`},
		{`{"cache":"64KB","seed":7}`, `unknown field \"seed\"`},
		{`{"cache":"64KB"} {}`, "trailing data"},
	} {
		resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if msg := drainBody(resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
			t.Errorf("create %s: status %d, want 400 naming %s (%s)", tc.body, resp.StatusCode, tc.want, msg)
		}
	}
	if n := sessionCount(srv); n != 0 {
		t.Fatalf("rejected creates leaked %d sessions", n)
	}

	// Duplicate ID conflicts.
	for i, want := range []int{http.StatusCreated, http.StatusConflict} {
		resp := postJSON(t, base+"/sessions", CreateRequest{ID: "dup", Cache: "64KB", LineBytes: 64})
		if resp.StatusCode != want {
			t.Fatalf("dup create %d: status %d, want %d", i, resp.StatusCode, want)
		}
		drainBody(resp)
	}

	// One CPU per bus ID: every ID up to core.MaxBusID is a valid CPU.
	resp := postJSON(t, base+"/sessions", CreateRequest{Cache: "64KB", LineBytes: 64, CPUs: core.MaxBusID + 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with cpus %d: status %d, want 201 (%s)", core.MaxBusID+1, resp.StatusCode, drainBody(resp))
	}
	drainBody(resp)
}

func TestPoolFull(t *testing.T) {
	_, base := testServer(t, Config{MaxSessions: 2})
	for i := 0; i < 2; i++ {
		resp := postJSON(t, base+"/sessions", CreateRequest{Cache: "64KB", LineBytes: 64})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, resp.StatusCode)
		}
		drainBody(resp)
	}
	resp := postJSON(t, base+"/sessions", CreateRequest{Cache: "64KB", LineBytes: 64})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third create: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("pool-full 503 missing Retry-After")
	}
	drainBody(resp)
}

// TestBackpressure429 wedges the session worker via the apply hook so
// the bounded queue fills, then verifies the HTTP bus-retry: 429 +
// Retry-After, and that a re-issue after release succeeds.
func TestBackpressure429(t *testing.T) {
	srv, base := testServer(t, Config{MaxInflight: 2})
	release := make(chan struct{})
	var once sync.Once
	gate := make(chan struct{})
	srv.applyHook = func() {
		once.Do(func() { close(gate) })
		<-release
	}

	resp := postJSON(t, base+"/sessions", CreateRequest{ID: "slow", Cache: "64KB", LineBytes: 64})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	drainBody(resp)

	body := traceBody(t, 100)
	// First block wedges in the worker; wait until it is actually held
	// so the queue accounting below is deterministic.
	resp, err := http.Post(base+"/sessions/slow/trace", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest 0: status %d", resp.StatusCode)
	}
	drainBody(resp)
	<-gate

	// Two more fill the queue; the next must bounce with 429.
	var got429 bool
	for i := 0; i < 3; i++ {
		resp, err := http.Post(base+"/sessions/slow/trace", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			got429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 missing Retry-After")
			}
		default:
			t.Fatalf("ingest %d: status %d", i, resp.StatusCode)
		}
		drainBody(resp)
	}
	if !got429 {
		t.Fatal("queue never bounced with 429")
	}

	// Release the worker; the client re-issues and the session drains.
	// The queue stays full until the worker takes its next block, so the
	// re-issue retries on 429 as a real client would.
	close(release)
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err = http.Post(base+"/sessions/slow/trace", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("re-issue: %v", err)
		}
		drainBody(resp)
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if resp.StatusCode != http.StatusTooManyRequests || time.Now().After(deadline) {
			t.Fatalf("re-issue: status %d", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}
	st := pollStats(t, base, "slow")
	if st.Rejected == 0 {
		t.Fatalf("stats rejected_429 = 0, want >0: %+v", st)
	}
	if v := srv.reg.Counter("service.ingest.retry-posted").Value(); v == 0 {
		t.Fatal("service.ingest.retry-posted counter = 0")
	}
}

// TestSpecBodyRefused: the session takes bus records only. A JSON
// workload spec is a 400 pointing at tracegen, and the session it was
// sent to takes the next trace.
func TestSpecBodyRefused(t *testing.T) {
	_, base := testServer(t, Config{})
	drainBody(postJSON(t, base+"/sessions", CreateRequest{ID: "tr", Cache: "64KB", LineBytes: 64}))

	resp, err := http.Post(base+"/sessions/tr/trace", "application/json", strings.NewReader(`{"workload":"tpcc","refs":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	if body := drainBody(resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "tracegen") {
		t.Fatalf("workload spec: status %d, body %s; want 400 naming tracegen", resp.StatusCode, body)
	}
	resp, err = http.Post(base+"/sessions/tr/trace", "application/octet-stream", bytes.NewReader(traceBody(t, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if body := drainBody(resp); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("trace after the spec: status %d: %s", resp.StatusCode, body)
	}
	if st := pollStats(t, base, "tr"); st.Ingested != 100 {
		t.Fatalf("ingested %d, want 100", st.Ingested)
	}
}

// TestDrainCheckpoint is the acceptance criterion: SIGTERM-style drain
// mid-load checkpoints every session, and a restored board matches the
// drained session's counters exactly.
func TestDrainCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, base := testServer(t, Config{CheckpointDir: dir})

	const n = 4
	for i := 0; i < n; i++ {
		resp := postJSON(t, base+"/sessions", CreateRequest{
			ID: fmt.Sprintf("d%d", i), Cache: "64KB", LineBytes: 64, Assoc: 2,
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, resp.StatusCode)
		}
		drainBody(resp)
		resp, err := http.Post(base+fmt.Sprintf("/sessions/d%d/trace", i),
			"application/octet-stream", bytes.NewReader(traceBody(t, 300+100*i)))
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %d: status %d", i, resp.StatusCode)
		}
		drainBody(resp)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained, err := srv.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if drained != n {
		t.Fatalf("drained %d sessions, want %d", drained, n)
	}

	// Admission is closed during/after drain.
	resp := postJSON(t, base+"/sessions", CreateRequest{Cache: "64KB", LineBytes: 64})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create during drain: status %d, want 503", resp.StatusCode)
	}
	drainBody(resp)
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", resp.StatusCode)
	}
	drainBody(resp)

	// Every session produced a checkpoint file.
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("d%d", i)
		if _, err := os.Stat(filepath.Join(dir, id+".ckpt")); err != nil {
			t.Fatalf("missing checkpoint: %v", err)
		}
	}

	// Restore d1 into a fresh, identically configured board and compare
	// every counter with the drained session's live board.
	live := srv.session("d1")
	if live == nil {
		t.Fatal("session d1 gone after drain")
	}
	snap, err := checkpoint.ReadFile(filepath.Join(dir, "d1.ckpt"))
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	fresh, err := core.NewBoard(live.board.Config())
	if err != nil {
		t.Fatalf("fresh board: %v", err)
	}
	if _, err := core.RestoreBoard(fresh, snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := fresh.Counters().Dump(""), live.board.Counters().Dump(""); got != want {
		t.Fatalf("restored counters diverge:\n got: %s\nwant: %s", got, want)
	}
	if fresh.LastCycle() != live.board.LastCycle() {
		t.Fatalf("restored cycle %d != live %d", fresh.LastCycle(), live.board.LastCycle())
	}
}

// TestWarmStart checkpoints one session's board into a corpus, then
// creates a new session warm-started from it and verifies the restored
// state and resumed cycle clock.
func TestWarmStart(t *testing.T) {
	corpus := t.TempDir()

	// Phase 1: build the corpus by draining a loaded server into it.
	srv1, base1 := testServer(t, Config{CheckpointDir: corpus})
	resp := postJSON(t, base1+"/sessions", CreateRequest{ID: "seed", Cache: "64KB", LineBytes: 64, Assoc: 2})
	drainBody(resp)
	resp, err := http.Post(base1+"/sessions/seed/trace", "application/octet-stream", bytes.NewReader(traceBody(t, 800)))
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seed ingest: %v status %d", err, resp.StatusCode)
	}
	drainBody(resp)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := srv1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wantDump := srv1.session("seed").board.Counters().Dump("")

	// Phase 2: warm-start a session from the corpus on a fresh server.
	_, base2 := testServer(t, Config{CorpusDir: corpus})
	resp = postJSON(t, base2+"/sessions", CreateRequest{
		ID: "warm", Cache: "64KB", LineBytes: 64, Assoc: 2, WarmStart: "seed.ckpt",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("warm create: status %d: %s", resp.StatusCode, drainBody(resp))
	}
	var info SessionInfo
	decodeInto(t, resp, &info)
	if info.WarmStart != "seed.ckpt" {
		t.Fatalf("info.WarmStart = %q", info.WarmStart)
	}
	st := pollStats(t, base2, "warm")
	if st.LastCycle != 800 {
		t.Fatalf("warm session cycle = %d, want 800", st.LastCycle)
	}
	if st.WarmStart != "seed.ckpt" {
		t.Fatalf("stats warm_start = %q", st.WarmStart)
	}

	srv2b, base2b := testServer(t, Config{CorpusDir: corpus})
	resp = postJSON(t, base2b+"/sessions", CreateRequest{
		ID: "warm2", Cache: "64KB", LineBytes: 64, Assoc: 2, WarmStart: "seed.ckpt",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("warm2 create: status %d", resp.StatusCode)
	}
	drainBody(resp)
	if got := srv2b.session("warm2").board.Counters().Dump(""); got != wantDump {
		t.Fatalf("warm-started counters diverge:\n got: %s\nwant: %s", got, wantDump)
	}

	// Geometry mismatch: the checkpoint fingerprints its config.
	resp = postJSON(t, base2+"/sessions", CreateRequest{
		ID: "wrong", Cache: "128KB", LineBytes: 64, Assoc: 2, WarmStart: "seed.ckpt",
	})
	if resp.StatusCode == http.StatusCreated {
		t.Fatal("mismatched warm start was accepted")
	}
	drainBody(resp)

	// Path traversal is rejected outright.
	resp = postJSON(t, base2+"/sessions", CreateRequest{
		Cache: "64KB", LineBytes: 64, WarmStart: "../seed.ckpt",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("traversal warm start: status %d, want 400", resp.StatusCode)
	}
	drainBody(resp)

	// A corrupt checkpoint is a 422, distinct from caller error.
	bad := filepath.Join(corpus, "bad.ckpt")
	raw, err := os.ReadFile(filepath.Join(corpus, "seed.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, base2+"/sessions", CreateRequest{
		Cache: "64KB", LineBytes: 64, Assoc: 2, WarmStart: "bad.ckpt",
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt warm start: status %d, want 422 (%s)", resp.StatusCode, drainBody(resp))
	}
	drainBody(resp)
}

// TestMetricsLabels verifies /metrics rewrites session namespaces into
// Prometheus labels and tears them down with the session.
func TestMetricsLabels(t *testing.T) {
	srv, base := testServer(t, Config{})
	resp := postJSON(t, base+"/sessions", CreateRequest{ID: "m-1", Cache: "64KB", LineBytes: 64})
	drainBody(resp)
	resp, err := http.Post(base+"/sessions/m-1/trace", "application/octet-stream", bytes.NewReader(traceBody(t, 50)))
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %v status %d", err, resp.StatusCode)
	}
	drainBody(resp)
	pollStats(t, base, "m-1")

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	text := drainBody(resp)
	if !strings.Contains(text, `session="m-1"`) {
		t.Fatalf("metrics missing session label:\n%s", text)
	}
	if !strings.Contains(text, "memories_service_sessions_created") {
		t.Fatalf("metrics missing service counters:\n%s", text)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/sessions/m-1", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	drainBody(resp)
	if n := srv.reg.RemovePrefix("session.m-1"); n != 0 {
		t.Fatalf("teardown left %d session series behind", n)
	}
}

// /metrics.json is the same registry snapshot as one JSON object, with
// the registry's own names: the session label split is /metrics' only.
func TestMetricsJSON(t *testing.T) {
	_, base := testServer(t, Config{})
	resp := postJSON(t, base+"/sessions", CreateRequest{ID: "j-1", Cache: "64KB", LineBytes: 64})
	drainBody(resp)
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(drainBody(resp)), &snap); err != nil {
		t.Fatal(err)
	}
	var session bool
	for name := range snap.Counters {
		session = session || strings.HasPrefix(name, "session.j-1.")
	}
	if !session || snap.Counters["service.sessions.created"] != 1 {
		t.Fatalf("counters lack session.j-1.* or service.sessions.created = 1: %v", snap.Counters)
	}
}

// TestConcurrentClients drives 8 parallel client goroutines through
// full lifecycles against one server; run under -race this is the
// stress check for the session map, queue, and counter paths.
func TestConcurrentClients(t *testing.T) {
	_, base := testServer(t, Config{MaxInflight: 4})
	body := traceBody(t, 200)

	const clients = 8
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for s := 0; s < 3; s++ {
				id := fmt.Sprintf("c%d-s%d", c, s)
				b, _ := json.Marshal(CreateRequest{ID: id, Cache: "64KB", LineBytes: 64, Assoc: 2})
				resp, err := http.Post(base+"/sessions", "application/json", bytes.NewReader(b))
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusCreated {
					errc <- fmt.Errorf("%s create: status %d", id, resp.StatusCode)
					return
				}
				drainBody(resp)
				for i := 0; i < 4; i++ {
					for {
						resp, err := http.Post(base+"/sessions/"+id+"/trace",
							"application/octet-stream", bytes.NewReader(body))
						if err != nil {
							errc <- err
							return
						}
						code := resp.StatusCode
						drainBody(resp)
						if code == http.StatusAccepted {
							break
						}
						if code != http.StatusTooManyRequests {
							errc <- fmt.Errorf("%s ingest: status %d", id, code)
							return
						}
						time.Sleep(time.Millisecond)
					}
				}
				req, _ := http.NewRequest(http.MethodDelete, base+"/sessions/"+id, nil)
				resp, err = http.DefaultClient.Do(req)
				if err != nil {
					errc <- err
					return
				}
				var final StatsResponse
				if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
					resp.Body.Close()
					errc <- err
					return
				}
				resp.Body.Close()
				if final.Ingested != 800 {
					errc <- fmt.Errorf("%s final ingested = %d, want 800", id, final.Ingested)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestIngestErrors(t *testing.T) {
	_, base := testServer(t, Config{MaxBodyBytes: 1 << 10})
	resp := postJSON(t, base+"/sessions", CreateRequest{ID: "e", Cache: "64KB", LineBytes: 64})
	drainBody(resp)

	// Unknown session.
	resp, err := http.Post(base+"/sessions/ghost/trace", "application/octet-stream", bytes.NewReader(traceBody(t, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost ingest: status %d", resp.StatusCode)
	}
	drainBody(resp)

	// Garbage body: no trace magic.
	resp, err = http.Post(base+"/sessions/e/trace", "application/octet-stream", strings.NewReader("not a trace"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage ingest: status %d", resp.StatusCode)
	}
	drainBody(resp)

	// Body over the cap is refused.
	resp, err = http.Post(base+"/sessions/e/trace", "application/octet-stream", bytes.NewReader(traceBody(t, 4096)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d", resp.StatusCode)
	}
	drainBody(resp)

	post := func(name string, body []byte, want int) string {
		t.Helper()
		resp, err := http.Post(base+"/sessions/e/trace", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg := drainBody(resp)
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d (%s)", name, resp.StatusCode, want, msg)
		}
		return msg
	}
	// A v1 body is a 400 that names the command converting it.
	v1 := traceBodyV1(t, 10)
	if msg := post("v1 body", v1, http.StatusBadRequest); !strings.Contains(msg, "tracegen convert") {
		t.Fatalf("v1 body refused with %q, want it to name tracegen convert", msg)
	}

	// Damaged trace bodies are 400s that apply nothing.
	good := traceBody(t, 100)
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)-1] ^= 0x40
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"bad CRC", badCRC},
		{"torn header", good[:len(tracefile.MagicV2)+5]},
		{"torn payload", good[:len(good)-3]},
		{"torn v1 record", v1[:len(v1)-3]},
		{"no records", []byte(tracefile.MagicV2)},
	} {
		post(tc.name, tc.body, http.StatusBadRequest)
	}
	if st := pollStats(t, base, "e"); st.Ingested != 0 || st.Accepted != 0 {
		t.Fatalf("refused bodies moved ingested/accepted to %d/%d, want 0/0", st.Ingested, st.Accepted)
	}

	// And the session still takes the next valid body.
	post("v2 body after the refusals", good, http.StatusAccepted)
	if st := pollStats(t, base, "e"); st.Ingested != 100 {
		t.Fatalf("ingested %d, want 100", st.Ingested)
	}
}

// TestBodyReadErrorStatus: a body the server cannot read is a 413 when
// it runs past its cap and a 400 otherwise — a client that hangs up
// mid-body did not send too much — on both handlers that read one.
func TestBodyReadErrorStatus(t *testing.T) {
	srv := New(Config{MaxBodyBytes: 1 << 10})
	serve := func(path string, body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		return rec
	}
	if rec := serve("/sessions", strings.NewReader(`{"id":"r","cache":"64KB","line_bytes":64}`)); rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	t.Cleanup(srv.session("r").teardown)

	hangUp := func(sent []byte) io.Reader {
		return io.MultiReader(bytes.NewReader(sent), iotest.ErrReader(errors.New("client went away")))
	}
	for _, tc := range []struct {
		name, path string
		body       io.Reader
		want       int
	}{
		{"create, client hangs up", "/sessions", hangUp([]byte(`{"id":`)), http.StatusBadRequest},
		{"create, over 1 MB", "/sessions", bytes.NewReader(bytes.Repeat([]byte(" "), 1<<20+1)), http.StatusRequestEntityTooLarge},
		{"ingest, client hangs up", "/sessions/r/trace", hangUp(traceBody(t, 10)[:20]), http.StatusBadRequest},
		{"ingest, over the cap", "/sessions/r/trace", bytes.NewReader(traceBody(t, 4096)), http.StatusRequestEntityTooLarge},
	} {
		if rec := serve(tc.path, tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
		}
	}
	if n := sessionCount(srv); n != 1 {
		t.Fatalf("%d sessions, want only r", n)
	}
}

// distinctRecords is n records over a 4 MB footprint, a different
// stream for every salt.
func distinctRecords(n int, salt uint64) []tracefile.Record {
	recs := traceRecords(n)
	x := salt*0x9E3779B97F4A7C15 | 1
	for i := range recs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		recs[i].Addr = x % (4 << 20) &^ 63
	}
	return recs
}

// TestConcurrentDistinctBodies is the pooled-slab check: several clients,
// one session each, post distinct bodies into queues two deep, so 429s
// send slabs back to the pool while workers still read others. Every
// session must end exactly where a board fed the same records directly
// ends; a slab handed out again before its worker was done with it shows
// here, and as a race under -race.
func TestConcurrentDistinctBodies(t *testing.T) {
	srv, base := testServer(t, Config{MaxInflight: 2})
	const clients, posts = 4, 10
	records := make([][][]tracefile.Record, clients)
	bodies := make([][][]byte, clients)
	for c := range records {
		for p := 0; p < posts; p++ {
			// 1 000 to 9 000 records: slabs of every size cycle through the
			// pool, and the larger bodies span several 4 Ki apply chunks.
			recs := distinctRecords(1000+2000*(p%5), uint64(c*posts+p))
			records[c] = append(records[c], recs)
			bodies[c] = append(bodies[c], v2Body(t, recs))
		}
	}

	// Workers hold their first block until every client has been bounced
	// once, so each session's 429 path runs whatever the machine's speed.
	release := make(chan struct{})
	srv.applyHook = func() { <-release }
	var bounced sync.WaitGroup
	bounced.Add(clients)
	go func() {
		bounced.Wait()
		close(release)
	}()

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seen429 := false
			defer func() {
				if !seen429 {
					bounced.Done()
				}
			}()
			id := fmt.Sprintf("d%d", c)
			b, _ := json.Marshal(CreateRequest{ID: id, Cache: "64KB", LineBytes: 64, Assoc: 2})
			resp, err := http.Post(base+"/sessions", "application/json", bytes.NewReader(b))
			if err != nil {
				errc <- err
				return
			}
			if drainBody(resp); resp.StatusCode != http.StatusCreated {
				errc <- fmt.Errorf("%s create: status %d", id, resp.StatusCode)
				return
			}
			for _, body := range bodies[c] {
				for {
					resp, err := http.Post(base+"/sessions/"+id+"/trace", "application/octet-stream", bytes.NewReader(body))
					if err != nil {
						errc <- err
						return
					}
					drainBody(resp)
					if resp.StatusCode == http.StatusAccepted {
						break
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						errc <- fmt.Errorf("%s ingest: status %d", id, resp.StatusCode)
						return
					}
					if !seen429 {
						seen429 = true
						bounced.Done()
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for c := 0; c < clients; c++ {
		id := fmt.Sprintf("d%d", c)
		pollStats(t, base, id)
		sess := srv.session(id)
		direct, err := core.NewBoard(sess.board.Config())
		if err != nil {
			t.Fatal(err)
		}
		var cycle uint64
		for _, recs := range records[c] {
			txs := make([]bus.Transaction, len(recs))
			for i, r := range recs {
				cycle++
				txs[i] = bus.Transaction{Seq: cycle, Cycle: cycle, Cmd: r.Cmd, Addr: r.Addr, Size: 64, SrcID: int(r.SrcID)}
			}
			direct.SnoopBatch(txs)
			direct.Flush()
		}
		sess.mu.Lock()
		gotNames, got := sess.board.Counters().Ordered()
		wantNames, want := direct.Counters().Ordered()
		for i := range want {
			if gotNames[i] != wantNames[i] || got[i].Value() != want[i].Value() {
				t.Errorf("%s: %s = %d, direct board %s = %d", id, gotNames[i], got[i].Value(), wantNames[i], want[i].Value())
			}
		}
		sess.mu.Unlock()
	}
	if n := srv.reg.Counter("service.ingest.retry-posted").Value(); n < clients {
		t.Fatalf("%d 429s, want at least one per client", n)
	}
}

// A custom protocol arrives as inline map text and runs the full
// load-time gauntlet: a coherent table builds the session (and names
// it), an incoherent one is rejected with the model checker's
// counterexample, and combining protocol with protocol_map is an error.
func TestCreateProtocolMap(t *testing.T) {
	srv, base := testServer(t, Config{})

	src, err := protocols.Source("write-once")
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, base+"/sessions", CreateRequest{
		ID: "custom", Cache: "64KB", LineBytes: 64, ProtocolMap: src,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("inline map rejected: status %d: %s", resp.StatusCode, drainBody(resp))
	}
	var info SessionInfo
	decodeInto(t, resp, &info)
	if info.Protocol != "write-once" {
		t.Fatalf("session protocol = %q, want write-once", info.Protocol)
	}

	// Drop the writeback from MESI's snooped-dirty-read rule: parses
	// fine, fails the model check with a stale-read counterexample.
	bad := strings.Replace(src,
		"snoop-read M * -> S respond-modified writeback",
		"snoop-read M * -> S respond-modified", 1)
	if bad == src {
		t.Fatal("mutation did not apply")
	}
	resp = postJSON(t, base+"/sessions", CreateRequest{Cache: "64KB", LineBytes: 64, ProtocolMap: bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("incoherent map: status %d, want 400", resp.StatusCode)
	}
	if body := drainBody(resp); !strings.Contains(body, "stale read") {
		t.Fatalf("incoherent map error lacks the checker verdict: %s", body)
	}

	resp = postJSON(t, base+"/sessions", CreateRequest{Cache: "64KB", LineBytes: 64, Protocol: "msi", ProtocolMap: src})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("protocol+protocol_map: status %d, want 400", resp.StatusCode)
	}
	drainBody(resp)

	if n := sessionCount(srv); n != 1 {
		t.Fatalf("session count = %d, want 1 (only the valid create)", n)
	}
}
