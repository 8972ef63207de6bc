// Command memloadgen is the lifecycle stress test for memoriesd: it
// drives many concurrent emulation sessions through the full HTTP
// lifecycle (create → ingest trace blocks → poll stats → delete) and
// exits non-zero if any lifecycle fails. Latency percentiles and the
// request rate are printed per run and written to the -json artifact
// for reading, not gating; performance is gated by `go run ./bench`
// (workload service_ingest).
//
//	memloadgen -sessions 1000 -blocks 3 -records 256 -json LOADTEST.json
//
// With -addr empty (the default) it self-hosts an in-process
// service.Server on a loopback listener — requests still cross real
// HTTP over TCP, so the measurement covers the whole service stack.
// Point -addr at a running memoriesd to load-test a remote deployment.
//
// A 429 reply is the service's bus-retry flow control; the generator
// honors Retry-After with capped backoff and re-issues, counting the
// retries separately. Only accepted ingest requests contribute
// latency samples, and a sample's clock runs across its retries — the
// latency a well-behaved client experiences.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/service"
	"memories/internal/tracefile"
)

// result aggregates one full run's measurements.
type result struct {
	Sessions     int     `json:"sessions"`
	Blocks       int     `json:"blocks_per_session"`
	Records      int     `json:"records_per_block"`
	IngestOK     int     `json:"ingest_accepted"`
	Retries      int64   `json:"ingest_retries"`
	Failures     int     `json:"failures"`
	P50IngestNs  int64   `json:"p50_ingest_ns"`
	P99IngestNs  int64   `json:"p99_ingest_ns"`
	P50CreateNs  int64   `json:"p50_create_ns"`
	P99CreateNs  int64   `json:"p99_create_ns"`
	ElapsedMs    int64   `json:"elapsed_ms"`
	IngestPerSec float64 `json:"ingest_requests_per_sec"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memloadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addrFlag    = fs.String("addr", "", "target memoriesd address; empty self-hosts an in-process server")
		sessions    = fs.Int("sessions", 1000, "concurrent sessions to drive")
		blocks      = fs.Int("blocks", 3, "ingest requests per session")
		records     = fs.Int("records", 256, "trace records per ingest request")
		concurrency = fs.Int("concurrency", 128, "maximum in-flight session lifecycles")
		count       = fs.Int("count", 1, "repeat the whole run N times")
		cacheSize   = fs.String("cache", "64KB", "per-session emulated cache size")
		lineBytes   = fs.Int64("line", 64, "emulated line size")
		assocFlag   = fs.Int("assoc", 2, "emulated associativity")
		jsonPath    = fs.String("json", "", "write the JSON artifact here")
		timeout     = fs.Duration("timeout", 120*time.Second, "per-run wall-clock budget")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"sessions", int64(*sessions)}, {"blocks", int64(*blocks)}, {"records", int64(*records)},
		{"concurrency", int64(*concurrency)}, {"count", int64(*count)},
		{"line", *lineBytes}, {"assoc", int64(*assocFlag)},
	} {
		if f.v <= 0 {
			fmt.Fprintf(stderr, "memloadgen: -%s must be positive, got %d\n", f.name, f.v)
			return 2
		}
	}

	base := *addrFlag
	if base == "" {
		size, err := addr.ParseSize(*cacheSize)
		if err != nil {
			fmt.Fprintf(stderr, "memloadgen: %v\n", err)
			return 2
		}
		srv := service.New(service.Config{
			MaxSessions: *sessions + 16,
			// Quota sized to the requested geometry (8 B per line slot).
			MaxDirectoryBytes: (size / *lineBytes) * 8,
			RetryAfter:        time.Second,
		})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			fmt.Fprintf(stderr, "memloadgen: self-host: %v\n", err)
			return 1
		}
		defer srv.Close()
		base = srv.Addr()
		fmt.Fprintf(stderr, "memloadgen: self-hosting service on %s\n", base)
	}
	baseURL := "http://" + base

	payload, err := tracePayload(*records, *lineBytes)
	if err != nil {
		fmt.Fprintf(stderr, "memloadgen: %v\n", err)
		return 1
	}

	var results []result
	for runIdx := 0; runIdx < *count; runIdx++ {
		res, err := drive(driveConfig{
			baseURL:     baseURL,
			sessions:    *sessions,
			blocks:      *blocks,
			concurrency: *concurrency,
			payload:     payload,
			cacheSize:   *cacheSize,
			line:        *lineBytes,
			assoc:       *assocFlag,
			timeout:     *timeout,
			runTag:      runIdx,
		})
		if err != nil {
			fmt.Fprintf(stderr, "memloadgen: run %d: %v\n", runIdx+1, err)
			return 1
		}
		res.Records = *records
		results = append(results, res)
		fmt.Fprintf(stdout, "memloadgen: run %d/%d: %d sessions, %d ingests ok, %d retries, p99 ingest %s, %.0f req/s\n",
			runIdx+1, *count, res.Sessions, res.IngestOK, res.Retries,
			time.Duration(res.P99IngestNs), res.IngestPerSec)
	}

	if *jsonPath != "" {
		b, _ := json.MarshalIndent(results, "", "  ")
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "memloadgen: %v\n", err)
			return 1
		}
	}
	return 0
}

// tracePayload builds one MIES0002 trace body shared by every ingest
// request — the format the ledger's service_ingest workload posts, so
// the stress test exercises the decode path the service is measured on:
// a deterministic read/write mix over a bounded footprint, enough to
// make the emulated cache do real work.
func tracePayload(records int, line int64) ([]byte, error) {
	var buf bytes.Buffer
	w, err := tracefile.NewV2Writer(&buf)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < records; i++ {
		a := (uint64(rng.Intn(1<<20)) * uint64(line)) &^ 7
		cmd := bus.Read
		if rng.Intn(4) == 0 {
			cmd = bus.RWITM
		}
		if err := w.Write(tracefile.Record{Addr: a, Cmd: cmd, SrcID: uint8(i % 8)}); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

type driveConfig struct {
	baseURL     string
	sessions    int
	blocks      int
	concurrency int
	payload     []byte
	cacheSize   string
	line        int64
	assoc       int
	timeout     time.Duration
	runTag      int
}

// drive runs one full load test: session lifecycles fan out over a
// bounded worker pool and every accepted request's latency is
// recorded.
func drive(cfg driveConfig) (result, error) {
	// The default transport keeps only 2 idle connections per host, so
	// at concurrency 128 the retry loop re-dials almost every request —
	// handshake latency lands in the p99. Size the idle pool to the
	// worker pool and the whole run reuses one keep-alive connection per
	// in-flight lifecycle.
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.concurrency,
			MaxIdleConnsPerHost: cfg.concurrency,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	defer client.CloseIdleConnections()
	var (
		mu       sync.Mutex
		ingestNs []int64
		createNs []int64
		failures int
		firstErr error
		retries  atomic.Int64
	)
	fail := func(err error) {
		mu.Lock()
		failures++
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	start := time.Now()
	deadline := start.Add(cfg.timeout)

	// postUntilAccepted re-issues on the service's flow-control
	// responses (429 queue full, 503 pool full/draining), honoring
	// Retry-After but capping the sleep so a load test fails fast
	// rather than hanging. Any other unexpected status is an error.
	postUntilAccepted := func(url, contentType string, body []byte, want int) error {
		for {
			resp, err := client.Post(url, contentType, bytes.NewReader(body))
			if err != nil {
				return err
			}
			rb, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			// Drain any remainder: a connection with unread body bytes is
			// closed instead of returned to the keep-alive pool.
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case want:
				return nil
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				retries.Add(1)
				wait := parseRetryAfter(resp.Header.Get("Retry-After"))
				if wait > 250*time.Millisecond {
					wait = 250 * time.Millisecond
				}
				if time.Now().Add(wait).After(deadline) {
					return fmt.Errorf("deadline exceeded while backing off from %d", resp.StatusCode)
				}
				time.Sleep(wait)
			default:
				return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(rb))
			}
		}
	}

	sem := make(chan struct{}, cfg.concurrency)
	var wg sync.WaitGroup
	for i := 0; i < cfg.sessions; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			id := fmt.Sprintf("load-%d-%06d", cfg.runTag, i)
			createBody, _ := json.Marshal(map[string]any{
				"id": id, "cache": cfg.cacheSize, "line_bytes": cfg.line,
				"assoc": cfg.assoc, "cpus": 8,
			})

			t0 := time.Now()
			if err := postUntilAccepted(cfg.baseURL+"/sessions", "application/json",
				createBody, http.StatusCreated); err != nil {
				fail(fmt.Errorf("create %s: %w", id, err))
				return
			}
			mu.Lock()
			createNs = append(createNs, time.Since(t0).Nanoseconds())
			mu.Unlock()

			for b := 0; b < cfg.blocks; b++ {
				t0 := time.Now()
				if err := postUntilAccepted(cfg.baseURL+"/sessions/"+id+"/trace",
					"application/octet-stream", cfg.payload, http.StatusAccepted); err != nil {
					fail(fmt.Errorf("ingest %s: %w", id, err))
					return
				}
				mu.Lock()
				ingestNs = append(ingestNs, time.Since(t0).Nanoseconds())
				mu.Unlock()
			}

			if err := pollDrained(client, cfg.baseURL+"/sessions/"+id+"/stats", deadline); err != nil {
				fail(fmt.Errorf("stats %s: %w", id, err))
				return
			}

			req, _ := http.NewRequest(http.MethodDelete, cfg.baseURL+"/sessions/"+id, nil)
			resp, err := client.Do(req)
			if err != nil {
				fail(fmt.Errorf("delete %s: %w", id, err))
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fail(fmt.Errorf("delete %s: status %d", id, resp.StatusCode))
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if firstErr != nil {
		return result{}, fmt.Errorf("%d/%d lifecycles failed; first: %w", failures, cfg.sessions, firstErr)
	}
	res := result{
		Sessions:    cfg.sessions,
		Blocks:      cfg.blocks,
		IngestOK:    len(ingestNs),
		Retries:     retries.Load(),
		Failures:    failures,
		P50IngestNs: percentile(ingestNs, 50),
		P99IngestNs: percentile(ingestNs, 99),
		P50CreateNs: percentile(createNs, 50),
		P99CreateNs: percentile(createNs, 99),
		ElapsedMs:   elapsed.Milliseconds(),
	}
	if elapsed > 0 {
		res.IngestPerSec = float64(len(ingestNs)) / elapsed.Seconds()
	}
	return res, nil
}

// pollDrained polls stats until every accepted record has been applied
// by the session worker (queue empty and ingested == accepted). A
// non-200 reply is an error: its {"error":…} body would otherwise decode
// into the zero struct and read as drained.
func pollDrained(client *http.Client, url string, deadline time.Time) error {
	for {
		resp, err := client.Get(url)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			rb, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(rb))
		}
		var st struct {
			Ingested uint64 `json:"ingested"`
			Accepted uint64 `json:"accepted"`
			Queue    int64  `json:"queue_depth"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		// Drain past the decoder's stopping point so the connection goes
		// back to the keep-alive pool for the next poll.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if st.Queue == 0 && st.Ingested >= st.Accepted {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deadline: %d/%d records applied", st.Ingested, st.Accepted)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func percentile(ns []int64, p int) int64 {
	if len(ns) == 0 {
		return 0
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func parseRetryAfter(h string) time.Duration {
	if secs, err := strconv.Atoi(h); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return time.Second
}
