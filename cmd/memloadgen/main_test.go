package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunSmall exercises the whole harness against a self-hosted
// service: lifecycles complete, one summary line per run comes out, and
// the JSON artifact round-trips.
func TestRunSmall(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "load.json")
	var stdout, stderr strings.Builder
	code := run([]string{
		"-sessions", "20", "-blocks", "2", "-records", "64",
		"-concurrency", "8", "-count", "2",
		"-json", jsonPath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if n := strings.Count(stdout.String(), "40 ingests ok"); n != 2 {
		t.Fatalf("want 2 run summaries (-count 2), got %d:\n%s", n, stdout.String())
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var results []result
	if err := json.Unmarshal(raw, &results); err != nil {
		t.Fatalf("artifact: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("artifact has %d runs, want 2", len(results))
	}
	for _, res := range results {
		if res.Sessions != 20 || res.IngestOK != 40 || res.Failures != 0 {
			t.Fatalf("bad run result: %+v", res)
		}
		if res.P99IngestNs <= 0 || res.P99CreateNs <= 0 {
			t.Fatalf("missing percentiles: %+v", res)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-cache", "bogus"}, &out, &errw); code != 2 {
		t.Fatalf("bad cache size: exit %d, want 2", code)
	}
	if code := run([]string{"-nosuch"}, &out, &errw); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	// Non-positive counts and geometry used to divide by zero (-line 0),
	// block on a zero-capacity semaphore (-concurrency 0) or panic in
	// make(chan) (-concurrency -1); all must be refused up front.
	for _, args := range [][]string{
		{"-sessions", "0"}, {"-blocks", "0"}, {"-records", "-3"},
		{"-concurrency", "0"}, {"-concurrency", "-1"}, {"-count", "0"},
		{"-line", "0"}, {"-assoc", "0"},
	} {
		errw.Reset()
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if msg := errw.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, args[0]+" must be positive") {
			t.Errorf("%v: stderr %q, want one line naming the flag", args, msg)
		}
		if strings.Contains(errw.String(), "self-hosting") {
			t.Errorf("%v: listener opened before the flag was rejected", args)
		}
	}
}

// An error reply's {"error":…} body decodes into the zero stats struct,
// which reads as "queue empty, everything applied"; the status decides.
func TestPollDrainedErrorStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		_, _ = w.Write([]byte(`{"error":"no such session"}` + "\n"))
	}))
	defer srv.Close()
	err := pollDrained(srv.Client(), srv.URL, time.Now().Add(time.Second))
	if err == nil || !strings.Contains(err.Error(), "404") || !strings.Contains(err.Error(), "no such session") {
		t.Fatalf("404 stats reply: err = %v, want status and body", err)
	}
}

func TestPercentile(t *testing.T) {
	ns := []int64{5, 1, 4, 2, 3}
	if got := percentile(ns, 50); got != 3 {
		t.Fatalf("p50 = %d, want 3", got)
	}
	if got := percentile(ns, 99); got != 5 {
		t.Fatalf("p99 = %d, want 5", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Fatalf("empty p99 = %d, want 0", got)
	}
}
