package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"memories/internal/bus"
	"memories/internal/core"
	"memories/internal/service"
	"memories/internal/tracefile"
	"memories/protocols"
)

// service_ingest: the session service in-process, real loopback HTTP.
// One closed-loop client per core, each with one keep-alive connection
// and one 64 MB/4-way session, posts the replay_l3_64m trace as 64 Ki-
// record v2 bodies. A client keeps at most maxOutstanding blocks queued
// in its session: every 202 carries queue_depth, and at the limit the
// client polls GET …/stats until the worker has caught up. The queue
// (8 deep) therefore never fills and the §3.3 retry path — HTTP 429 —
// stays idle unless the server regresses.
const maxOutstanding = 4

// serviceCfg is replay_l3_64m's stream and board: the two workloads are
// meant to be compared.
var serviceCfg = replayCfg{
	name: "service_ingest", footprint: 1 << 30, writeFrac: 0.3,
	nodes: 1, cpus: 8, cacheBytes: 64 << 20, assoc: 4, proto: "mesi",
}

type serviceWL struct {
	e *env

	traceRecs, blockRecs int
	bodies               [][]byte
	records              [][]tracefile.Record // what each body holds, for the direct board

	srv     *service.Server
	base    string
	clients []*ingestClient
	done    int

	setupM   metrics
	createMs []float64
}

// ingestClient is one closed-loop client and its session.
type ingestClient struct {
	id      string
	hc      *http.Client
	base    string
	sent    uint64 // records accepted by the service
	posts   int
	retried int // 429 or other non-202 answers

	// Traced runs only: finished request spans, handed to the tracer
	// once the client goroutine has stopped.
	spans []clientSpan
}

type clientSpan struct {
	name       string
	start, end time.Time
	work       uint64
}

func newServiceWL(e *env) *serviceWL {
	w := &serviceWL{e: e, traceRecs: fullTraceRecs, blockRecs: fullBlockRecs}
	if e.quick {
		w.traceRecs, w.blockRecs = quickTraceRecs, quickBlockRecs
	}
	return w
}

func (w *serviceWL) setup(tr *tracer) error {
	w.close()
	// Inputs: every block of the trace becomes one self-contained v2 body.
	next := zipfRecords(serviceCfg, w.e.seed, w.traceRecs, w.blockRecs, tr)
	w.bodies, w.records = nil, nil
	var bytesTotal int
	for blk := next(); blk != nil; blk = next() {
		sp := tr.begin("tracefile.EncodeV2Blocks")
		var buf bytes.Buffer
		sent := false
		_, err := tracefile.EncodeV2Blocks(&buf, 1, func() []tracefile.Record {
			if sent {
				return nil
			}
			sent = true
			return blk
		})
		tr.end(sp, uint64(len(blk)))
		if err != nil {
			return fmt.Errorf("encode body: %w", err)
		}
		w.bodies = append(w.bodies, buf.Bytes())
		w.records = append(w.records, append([]tracefile.Record(nil), blk...))
		bytesTotal += buf.Len()
	}

	sp := tr.begin("service.Start")
	w.srv = service.New(service.Config{})
	err := w.srv.Start("127.0.0.1:0")
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	w.base = "http://" + w.srv.Addr()
	w.clients, w.createMs, w.done = nil, nil, 0
	for c := 0; c < w.e.procs; c++ {
		cl := &ingestClient{
			id:   fmt.Sprintf("c%d", c),
			base: w.base,
			hc: &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
			}},
		}
		t0 := time.Now()
		if err := cl.create(); err != nil {
			return err
		}
		w.createMs = append(w.createMs, float64(time.Since(t0))/1e6)
		w.clients = append(w.clients, cl)
	}
	if tr != nil {
		t := totals(tr.spans)
		w.setupM = metrics{
			"workload.gen_ns_per_ref":     perWork(t["workload.zipf"].Total, uint64(w.traceRecs)),
			"tracefile.encode_ns_per_rec": perWork(t["tracefile.EncodeV2Blocks"].Total, uint64(w.traceRecs)),
			"tracefile.bytes_per_rec":     float64(bytesTotal) / float64(w.traceRecs),
		}
	}
	return nil
}

func (c *ingestClient) create() error {
	req := service.CreateRequest{ID: c.id, Cache: "64MB", LineBytes: 128, Assoc: 4, Protocol: "mesi", CPUs: 8}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create session %s: %s: %s", c.id, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// post sends one body until the service takes it, returning the queue
// depth from the 202. Anything but 202 counts as a failed attempt; a
// 429/503 is re-issued after its Retry-After (capped, so a regressed
// server shows as latency and failures, not as a hung benchmark).
func (c *ingestClient) post(body []byte, records uint64) (queue int64, err error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.hc.Post(c.base+"/sessions/"+c.id+"/trace", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		msg, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return 0, rerr
		}
		if resp.StatusCode == http.StatusAccepted {
			var ir service.IngestResponse
			if err := json.Unmarshal(msg, &ir); err != nil {
				return 0, err
			}
			c.sent += records
			return ir.Queue, nil
		}
		c.retried++
		retryable := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		if !retryable || attempt >= 50 {
			return 0, fmt.Errorf("post to %s: %s: %s", c.id, resp.Status, bytes.TrimSpace(msg))
		}
		wait := 100 * time.Millisecond
		if s, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil {
			wait = min(wait, time.Duration(s)*time.Second)
		}
		time.Sleep(wait)
	}
}

func (c *ingestClient) stats() (service.StatsResponse, error) {
	var sr service.StatsResponse
	resp, err := c.hc.Get(c.base + "/sessions/" + c.id + "/stats")
	if err != nil {
		return sr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sr, fmt.Errorf("stats of %s: %s", c.id, resp.Status)
	}
	return sr, json.NewDecoder(resp.Body).Decode(&sr)
}

// pollUntil polls the session's stats until ok says so. Each poll takes
// the session lock the worker holds while applying a block, so polls
// pace themselves to the worker instead of spinning.
func (c *ingestClient) pollUntil(traced bool, ok func(service.StatsResponse) bool) error {
	for {
		t0 := time.Now()
		sr, err := c.stats()
		if err != nil {
			return err
		}
		end := time.Now()
		if traced {
			c.spans = append(c.spans, clientSpan{"service.stats_poll", t0, end, 0})
		}
		if ok(sr) {
			return nil
		}
	}
}

// drive posts blocks [from, to) of this client's sequence.
func (c *ingestClient) drive(w *serviceWL, from, to int, traced bool, t0 time.Time, l *lane) error {
	for i := from; i < to; i++ {
		k := i % len(w.bodies)
		n := uint64(len(w.records[k]))
		start := time.Now()
		queue, err := c.post(w.bodies[k], n)
		if err != nil {
			return err
		}
		end := time.Now()
		c.posts++
		if traced {
			c.spans = append(c.spans, clientSpan{"service.post", start, end, n})
		}
		if queue >= maxOutstanding {
			if err := c.pollUntil(traced, func(sr service.StatsResponse) bool { return sr.Queue < maxOutstanding }); err != nil {
				return err
			}
		}
		if i == to-1 { // the run ends when everything sent has been applied
			if err := c.pollUntil(traced, func(sr service.StatsResponse) bool { return sr.Ingested == c.sent }); err != nil {
				return err
			}
		}
		l.add(time.Since(t0), end.Sub(start), n, n*busCyclesPerTx)
	}
	return nil
}

// warm posts the whole trace once to every session.
func (w *serviceWL) warm() error {
	_, err := w.drive(0, len(w.bodies), nil)
	for _, c := range w.clients {
		c.posts = 0
	}
	return err
}

// drive runs every client over its blocks [from, to) concurrently.
func (w *serviceWL) drive(from, to int, tr *tracer) ([]lane, error) {
	lanes := make([]lane, len(w.clients))
	errs := make([]error, len(w.clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.drive(w, from, to, tr != nil, t0, &lanes[i])
		}()
	}
	wg.Wait()
	for _, c := range w.clients {
		for _, s := range c.spans {
			tr.add(s.name, s.start, s.end, s.work)
		}
		c.spans = nil
	}
	return lanes, errors.Join(errs...)
}

// run: an op is one POST, and every client makes every op — the work is
// fixed per session, so each session's counters are the same whatever
// the client count. A client's sequence continues past the warm-up pass.
func (w *serviceWL) run(from, to int, tr *tracer) ([]lane, error) {
	if from != w.done {
		return nil, fmt.Errorf("service: run from op %d, but %d are done", from, w.done)
	}
	sp := tr.begin("service.run")
	lanes, err := w.drive(len(w.bodies)+from, len(w.bodies)+to, tr)
	tr.end(sp, uint64((to-from)*w.blockRecs*len(w.clients)))
	w.done = to
	return lanes, err
}

// histJSON is one histogram as /metrics.json publishes it.
type histJSON struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
}

// snapshot reads the service's public /metrics.json.
func (w *serviceWL) snapshot() (counters map[string]uint64, hists map[string]histJSON, err error) {
	var js struct {
		Counters map[string]uint64   `json:"counters"`
		Hists    map[string]histJSON `json:"histograms"`
	}
	resp, err := http.Get(w.base + "/metrics.json")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		return nil, nil, err
	}
	return js.Counters, js.Hists, nil
}

// sim digests a session's full counter bank as /metrics.json publishes
// it (the mirror of the board's bank). Every session was fed the same
// blocks, so every session must digest the same; a difference counts
// as a failure of that session's posts.
func (w *serviceWL) sim() (simStats, error) {
	counters, _, err := w.snapshot()
	if err != nil {
		return simStats{}, err
	}
	var st simStats
	names, _ := core.MustNewBoard(w.boardConfig()).Counters().Ordered()
	for i, c := range w.clients {
		sr, err := c.stats()
		if err != nil {
			return st, err
		}
		if sr.Ingested != c.sent {
			return st, fmt.Errorf("session %s ingested %d of %d records", c.id, sr.Ingested, c.sent)
		}
		d := newDigester()
		for _, name := range names {
			d.add(name, counters["session."+c.id+"."+name])
		}
		d.add("ingested", sr.Ingested)
		n := sr.Nodes[0]
		d.keep("nodea.read.hit", n.ReadHit)
		d.keep("nodea.read.miss", n.ReadMiss)
		d.keep("nodea.write.hit", n.WriteHit)
		d.keep("nodea.write.miss", n.WriteMiss)
		d.keep("ingested", sr.Ingested)
		st.attempted += int64(c.posts + c.retried)
		st.failed += int64(c.retried)
		if i == 0 {
			st.Digest, st.Headline, st.MissRatio = d.sum(), d.headline, n.MissRatio
		} else if d.sum() != st.Digest {
			st.failed += int64(c.posts)
		}
	}
	return st, nil
}

func (w *serviceWL) boardConfig() core.Config {
	table, err := protocols.Load(serviceCfg.proto)
	if err != nil {
		panic(err) // a shipped protocol failing to load is a broken build
	}
	return serviceCfg.boardConfig(table)
}

// direct feeds a board what session c0 was fed, the way the session's
// worker stamps it (one bus cycle per record), and returns the board.
func (w *serviceWL) direct(posts int) *core.Board {
	b := core.MustNewBoard(w.boardConfig())
	clock := busClock{step: 1}
	txs := make([]bus.Transaction, w.blockRecs)
	for i := 0; i < posts; i++ {
		b.SnoopBatch(clock.stamp(txs, w.records[i%len(w.records)]))
		b.Flush()
	}
	return b
}

// validate: the session must report exactly what a board fed the same
// records directly reports.
func (w *serviceWL) validate() (float64, bool, error) {
	c := w.clients[0]
	sr, err := c.stats()
	if err != nil {
		return 0, false, err
	}
	b := w.direct(len(w.bodies) + w.done)
	if got, want := sr.Nodes[0].ReadHit+sr.Nodes[0].ReadMiss+sr.Nodes[0].WriteHit+sr.Nodes[0].WriteMiss, b.Node(0).Refs(); got != want {
		return 0, false, fmt.Errorf("session saw %d refs, direct board %d", got, want)
	}
	return math.Abs(sr.Nodes[0].MissRatio - b.Node(0).MissRatio()), true, nil
}

func (w *serviceWL) layers(tr *tracer, m metrics) error {
	for k, v := range w.setupM {
		m[k] = v
	}
	var posts, polls []float64
	var postTotal time.Duration
	var records uint64
	for _, s := range tr.spans {
		switch s.Name {
		case "service.post":
			posts = append(posts, float64(s.End-s.Start)/1e6)
			postTotal += time.Duration(s.End - s.Start)
			records += s.Work
		case "service.stats_poll":
			polls = append(polls, float64(s.End-s.Start)/1e6)
		}
	}
	run := totals(tr.spans)["service.run"]
	m["service.create_ms_p50"] = median(w.createMs)
	m["service.post_ms_p50"] = median(posts)
	m[stagePost] = perWork(postTotal, records)
	m["service.stats_poll_ms_p50"] = median(polls)
	// Clients keep their queues non-empty for the whole run, so a
	// session's worker spent the run's wall time on its share of records.
	m["service.apply_ns_per_tx"] = perWork(run.Total, records/uint64(len(w.clients)))

	counters, hists, err := w.snapshot()
	if err != nil {
		return err
	}
	if h, ok := hists["session."+w.clients[0].id+".ingest.wait_ns"]; ok {
		m["service.queue_wait_ms_p50"] = histQuantile(h.Bounds, h.Counts, 0.50) / 1e6
		m["service.queue_wait_ms_p95"] = histQuantile(h.Bounds, h.Counts, 0.95) / 1e6
	}
	var attempts, refused float64
	for _, c := range w.clients {
		attempts += float64(c.posts + c.retried)
	}
	refused = float64(counters["service.ingest.retry-posted"])
	m["service.http_429_frac"] = refused / attempts

	// The server's decode path on the same bodies: tracefile.Open and
	// Next, one record at a time.
	t0 := time.Now()
	var n uint64
	for _, body := range w.bodies {
		rr, err := tracefile.Open(bytes.NewReader(body))
		if err != nil {
			return err
		}
		for {
			rec, err := rr.Next()
			if err != nil {
				break
			}
			sink += rec.Addr
			n++
		}
	}
	m["tracefile.decode_ns_per_rec"] = perWork(time.Since(t0), n)
	m["tracefile.decode_share"] = m["tracefile.decode_ns_per_rec"] / perWork(run.Total, records/uint64(len(w.clients)))

	// The same records straight into a board, for the ratio and for the
	// inner layers: what the service path costs over a bare replay.
	bcfg := w.boardConfig()
	buf := make([]bus.Transaction, w.blockRecs)
	warm := func(emit func([]bus.Transaction)) error {
		clock := busClock{step: 1} // a session stamps one cycle per record
		for _, recs := range w.records {
			emit(clock.stamp(buf, recs))
		}
		return nil
	}
	probe := probeTxFull
	if w.e.quick {
		probe = probeTxQuick
	}
	n64 := uint64(w.traceRecs)
	clock := busClock{step: 1, cycle: n64, seq: n64} // where a warm pass leaves the clock
	var timed []bus.Transaction
	for _, recs := range w.records {
		if len(timed) >= probe {
			break
		}
		timed = append(timed, clock.stamp(buf, recs)...)
	}
	fresh, err := isolatedBoard(bcfg, warm, timed, w.blockRecs, w.e.seed, m)
	if err != nil {
		return err
	}
	boardCounters(fresh, m)

	// replay_l3_64m's pipeline on the same bodies and the warmed board:
	// batch decode, record→transaction, SnoopBatch, Flush.
	t0 = time.Now()
	n = 0
	for _, body := range w.bodies {
		_, err := tracefile.ForEachBatch(bytes.NewReader(body), 1, func(recs []tracefile.Record) error {
			fresh.SnoopBatch(clock.stamp(buf, recs))
			n += uint64(len(recs))
			return nil
		})
		if err != nil {
			return err
		}
		fresh.Flush()
	}
	direct := float64(n) / time.Since(t0).Seconds()
	perSession := float64(records) / float64(len(w.clients)) / run.Total.Seconds()
	m["service.vs_replay_ratio"] = perSession / direct
	m["core.share"] = m["core.snoop_batch_ns_per_tx"] / perWork(run.Total, records/uint64(len(w.clients)))
	return nil
}

func (w *serviceWL) close() {
	for _, c := range w.clients {
		c.hc.CloseIdleConnections()
	}
	w.clients = nil
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, _ = w.srv.Drain(ctx)
		cancel()
		_ = w.srv.Close()
		w.srv = nil
	}
}
