package cli

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The first signal cancels the context and says what the command will
// do; the process keeps running. The signal is a real SIGTERM to this
// test process, caught by Interrupts' notifier, not the test harness.
func TestFirstSignalCancels(t *testing.T) {
	var out bytes.Buffer
	ctx, stop := Interrupts(&out, "cmd", "finishing up")
	defer stop()
	if ctx.Err() != nil {
		t.Fatal("context cancelled before any signal")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("SIGTERM did not cancel the context")
	}
	if got, want := out.String(), "cmd: finishing up (^C again to abort)\n"; got != want {
		t.Fatalf("first-signal message %q, want %q", got, want)
	}
}

// The second signal aborts the process with exit 130. The test re-runs
// its own binary with abortChild set, so the exit ends that child only.
const abortChild = "CLI_TEST_ABORT_CHILD"

func TestSecondSignalAborts(t *testing.T) {
	if os.Getenv(abortChild) != "" {
		ctx, stop := Interrupts(os.Stderr, "cmd", "finishing up")
		defer stop()
		syscall.Kill(os.Getpid(), syscall.SIGINT)
		<-ctx.Done()
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		time.Sleep(10 * time.Second)
		return // not reached: the second signal exits
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSecondSignalAborts$")
	cmd.Env = append(os.Environ(), abortChild+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 130 {
		t.Fatalf("child exit %d (%v), want 130; stderr:\n%s", code, err, stderr.String())
	}
	want := "cmd: finishing up (^C again to abort)\ncmd: aborted\n"
	if !strings.Contains(stderr.String(), want) {
		t.Fatalf("child stderr %q, want %q", stderr.String(), want)
	}
}

// After stop, the notifier is gone and the context is released.
func TestStopReleases(t *testing.T) {
	var out bytes.Buffer
	ctx, stop := Interrupts(&out, "cmd", "finishing up")
	stop()
	if ctx.Err() == nil {
		t.Fatal("stop left the context live")
	}
	if out.Len() != 0 {
		t.Fatalf("stop wrote %q", out.String())
	}
}
