package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRunSmall exercises the whole harness against a self-hosted
// service: every lifecycle completes and one summary line comes out.
func TestRunSmall(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-sessions", "20"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if strings.Count(out, "\n") != 1 || !strings.Contains(out, "20 sessions, 60 ingests accepted") {
		t.Fatalf("want one summary line with 20 sessions and 60 ingests, got:\n%s", out)
	}
}

// TestRunFailedLifecycle is the stress test's verdict: a service that
// refuses every create fails the run, and stderr names the lifecycle.
func TestRunFailedLifecycle(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/sessions" {
			http.Error(w, "board pool broken", http.StatusInternalServerError)
			return
		}
		http.NotFound(w, r)
	}))
	defer srv.Close()
	var stdout, stderr strings.Builder
	code := run([]string{"-addr", strings.TrimPrefix(srv.URL, "http://"), "-sessions", "3"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	msg := stderr.String()
	for _, want := range []string{"3/3 lifecycles failed", "create load-", "status 500", "board pool broken"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr %q does not contain %q", msg, want)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed run printed a summary: %q", stdout.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-nosuch"}, &out, &errw); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	// A non-positive session count must be refused before a listener
	// opens.
	for _, args := range [][]string{{"-sessions", "0"}, {"-sessions", "-3"}} {
		errw.Reset()
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if msg := errw.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-sessions must be positive") {
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
