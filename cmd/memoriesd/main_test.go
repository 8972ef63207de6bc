package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"memories/internal/bus"
	"memories/internal/checkpoint"
	"memories/internal/tracefile"
)

// TestRunDrainsOnSIGTERM boots the real daemon in-process, loads it
// over HTTP, delivers a genuine SIGTERM, and verifies it exits 0 with
// every session checkpointed.
func TestRunDrainsOnSIGTERM(t *testing.T) {
	ckptDir := t.TempDir()
	var logs strings.Builder
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-checkpoint-dir", ckptDir,
			"-max-sessions", "8",
		}, &logs, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatalf("server never became ready; logs:\n%s", logs.String())
	}

	// Health is green, then two sessions take traffic.
	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	var buf bytes.Buffer
	w, err := tracefile.NewV2Writer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := w.Write(tracefile.Record{Addr: uint64(i) * 64, Cmd: bus.Read}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"t0", "t1"} {
		body, _ := json.Marshal(map[string]any{"id": id, "cache": "64KB", "line_bytes": 64})
		resp, err := http.Post(base+"/sessions", "application/json", bytes.NewReader(body))
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %v status %d", id, err, resp.StatusCode)
		}
		resp.Body.Close()
		resp, err = http.Post(base+"/sessions/"+id+"/trace", "application/octet-stream", bytes.NewReader(buf.Bytes()))
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %s: %v status %d", id, err, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// The real signal path: SIGTERM to our own process is caught by the
	// daemon's notifier, not the test harness.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; logs:\n%s", code, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never exited; logs:\n%s", logs.String())
	}

	for _, id := range []string{"t0", "t1"} {
		path := filepath.Join(ckptDir, id+".ckpt")
		if _, err := checkpoint.ReadFile(path); err != nil {
			t.Fatalf("checkpoint %s invalid: %v", path, err)
		}
	}
	if !strings.Contains(logs.String(), "drained 2 sessions") {
		t.Fatalf("drain log missing:\n%s", logs.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	var logs strings.Builder
	if code := run([]string{"-max-dir-bytes", "nonsense"}, &logs, nil); code != 2 {
		t.Fatalf("bad size flag: exit %d, want 2", code)
	}
	if code := run([]string{"-nosuchflag"}, &logs, nil); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	// Values the service would silently replace, or that make a drain
	// expire before it starts: refused before the listener opens.
	for _, args := range [][]string{
		{"-max-sessions", "0"}, {"-max-sessions", "-3"},
		{"-max-inflight", "0"},
		{"-max-dir-bytes", "0"}, {"-max-body", "0B"},
		{"-drain-timeout", "0"}, {"-drain-timeout", "-1s"},
		{"-retry-after", "0s"},
	} {
		logs.Reset()
		code := run(append([]string{"-addr", "127.0.0.1:0"}, args...), &logs, nil)
		if code != 2 || !strings.Contains(logs.String(), "memoriesd: "+args[0]+": ") || strings.Contains(logs.String(), "serving") {
			t.Errorf("%v: exit %d, logs %q; want 2 naming %s before serving", args, code, logs.String(), args[0])
		}
	}
}
