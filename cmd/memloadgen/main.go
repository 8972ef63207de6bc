// Command memloadgen is the lifecycle stress test for memoriesd: it
// drives many concurrent emulation sessions through the full HTTP
// lifecycle (create → ingest trace blocks → poll stats → delete) and
// exits 0 when every lifecycle completes, 1 when any fails and 2 on bad
// flags. It is pass/fail only and measures nothing; the service's speed
// is read from `go run ./bench` (workload service_ingest).
//
//	memloadgen [-addr host:port] [-sessions 1000]
//
// With -addr empty (the default) it self-hosts an in-process
// service.Server on a loopback listener — requests still cross real
// HTTP over TCP, so the test covers the whole service stack. Point
// -addr at a running memoriesd to stress a remote deployment.
//
// A 429 or 503 reply is the service's flow control; the generator
// honors Retry-After with capped backoff and re-issues, counting the
// retries.
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
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"memories/internal/bus"
	"memories/internal/service"
	"memories/internal/tracefile"
)

// Every lifecycle is the same: blocks ingest requests of records trace
// records each into a 64 KB, 2-way emulated cache with 64 B lines, at
// most concurrency lifecycles in flight.
const (
	blocks      = 3
	records     = 256
	concurrency = 128
	cacheSize   = "64KB"
	cacheBytes  = 64 << 10
	lineBytes   = 64
	assoc       = 2

	// The run's deadline gives each lifecycle budgetPerSession and is
	// never shorter than minBudget.
	budgetPerSession = 120 * time.Millisecond
	minBudget        = 120 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memloadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addrFlag := fs.String("addr", "", "target memoriesd address; empty self-hosts an in-process server")
	sessions := fs.Int("sessions", 1000, "session lifecycles to drive")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sessions <= 0 {
		fmt.Fprintf(stderr, "memloadgen: -sessions must be positive, got %d\n", *sessions)
		return 2
	}

	base := *addrFlag
	if base == "" {
		srv := service.New(service.Config{
			MaxSessions: *sessions + 16,
			// Quota sized to the lifecycle's geometry (8 B per line slot).
			MaxDirectoryBytes: cacheBytes / lineBytes * 8,
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

	payload, err := tracePayload()
	if err != nil {
		fmt.Fprintf(stderr, "memloadgen: %v\n", err)
		return 1
	}
	ingests, retries, err := drive("http://"+base, *sessions, payload)
	if err != nil {
		fmt.Fprintf(stderr, "memloadgen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "memloadgen: %d sessions, %d ingests accepted, %d retries\n",
		*sessions, ingests, retries)
	return 0
}

// tracePayload builds one MIES0002 trace body shared by every ingest
// request — the format the ledger's service_ingest workload posts, so
// the stress test exercises the decode path the service is measured on:
// a deterministic read/write mix over a bounded footprint, enough to
// make the emulated cache do real work.
func tracePayload() ([]byte, error) {
	var buf bytes.Buffer
	w, err := tracefile.NewV2Writer(&buf)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < records; i++ {
		a := (uint64(rng.Intn(1<<20)) * lineBytes) &^ 7
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

// drive runs every session lifecycle over a bounded worker pool and
// returns how many ingest requests were accepted and how many 429/503
// replies were retried, or an error naming the first failed lifecycle.
func drive(baseURL string, sessions int, payload []byte) (ingests, retries int64, err error) {
	// The default transport keeps only 2 idle connections per host, so
	// with 128 lifecycles in flight almost every request would dial a
	// fresh connection, and a large run would stress the client's
	// ephemeral ports instead of the service. Size the idle pool to the
	// worker pool and each in-flight lifecycle reuses one keep-alive
	// connection.
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        concurrency,
			MaxIdleConnsPerHost: concurrency,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	defer client.CloseIdleConnections()
	var (
		accepted, retried, failures atomic.Int64
		firstErr                    error
	)
	// Only the first failure writes firstErr; it is read after wg.Wait.
	fail := func(err error) {
		if failures.Add(1) == 1 {
			firstErr = err
		}
	}
	deadline := time.Now().Add(max(minBudget, time.Duration(sessions)*budgetPerSession))

	// postUntilAccepted re-issues on the service's flow-control
	// responses (429 queue full, 503 pool full/draining), honoring
	// Retry-After but capping the sleep so a stress test fails fast
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
				retried.Add(1)
				wait := min(parseRetryAfter(resp.Header.Get("Retry-After")), 250*time.Millisecond)
				if time.Now().Add(wait).After(deadline) {
					return fmt.Errorf("deadline exceeded while backing off from %d", resp.StatusCode)
				}
				time.Sleep(wait)
			default:
				return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(rb))
			}
		}
	}

	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			id := fmt.Sprintf("load-%06d", i)
			createBody, _ := json.Marshal(service.CreateRequest{
				ID: id, Cache: cacheSize, LineBytes: lineBytes, Assoc: assoc, CPUs: 8,
			})
			if err := postUntilAccepted(baseURL+"/sessions", "application/json",
				createBody, http.StatusCreated); err != nil {
				fail(fmt.Errorf("create %s: %w", id, err))
				return
			}
			for b := 0; b < blocks; b++ {
				if err := postUntilAccepted(baseURL+"/sessions/"+id+"/trace",
					"application/octet-stream", payload, http.StatusAccepted); err != nil {
					fail(fmt.Errorf("ingest %s: %w", id, err))
					return
				}
				accepted.Add(1)
			}

			if err := pollDrained(client, baseURL+"/sessions/"+id+"/stats", deadline); err != nil {
				fail(fmt.Errorf("stats %s: %w", id, err))
				return
			}

			req, _ := http.NewRequest(http.MethodDelete, baseURL+"/sessions/"+id, nil)
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

	if firstErr != nil {
		return 0, 0, fmt.Errorf("%d/%d lifecycles failed; first: %w", failures.Load(), sessions, firstErr)
	}
	return accepted.Load(), retried.Load(), nil
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

func parseRetryAfter(h string) time.Duration {
	if secs, err := strconv.Atoi(h); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return time.Second
}
