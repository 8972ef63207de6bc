package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memories/protocols"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// -protocol takes a shipped name or a .map path through
// protocols.Resolve, exactly like cmd/tracesim and cmd/experiments.
func TestProtocolFlag(t *testing.T) {
	small := []string{"-refs", "20000", "-l3", "1MB"}

	code, out, errs := runCLI(append(small, "-protocol", "write-once")...)
	if code != 0 || !strings.Contains(out, "write-once: refs") {
		t.Fatalf("-protocol write-once: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}

	src, err := protocols.Source("mesi")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mine.map")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, errs = runCLI(append(small, "-protocol", path)...); code != 0 || !strings.Contains(out, "mesi: refs") {
		t.Fatalf("-protocol %s: exit %d\nstdout:\n%s\nstderr:\n%s", path, code, out, errs)
	}

	// MESI without the writeback on a snooped dirty read: parses and
	// compiles, only the model check refuses it.
	bad := strings.Replace(src, "snoop-read M * -> S writeback respond-modified", "snoop-read M * -> S respond-modified", 1)
	if bad == src {
		t.Fatal("mutation did not apply; mesi.map changed shape?")
	}
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, errs = runCLI(append(small, "-protocol", path)...); code != 1 || !strings.Contains(errs, "stale read") || out != "" {
		t.Fatalf("incoherent map: exit %d, want 1 with the checker's verdict and no report\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}

	if code, _, errs = runCLI("-protocol", "dragon"); code != 1 || !strings.Contains(errs, "write-once") {
		t.Fatalf("unknown name: exit %d, stderr %q; want 1 and the shipped names", code, errs)
	}
	if code, _, errs = runCLI("-protocol-file", path); code != 2 || !strings.Contains(errs, "flag provided but not defined: -protocol-file") {
		t.Fatalf("-protocol-file: exit %d, stderr %q; want flag's not-defined error", code, errs)
	}
}

// The report: multi-config nodes, counter dump, hot-page profile.
func TestReport(t *testing.T) {
	code, out, errs := runCLI("-workload", "uniform", "-refs", "50000", "-l3", "1MB,4MB",
		"-counters", "all", "-hotspots", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	for _, want := range []string{"workload   uniform", "node 0     1MB", "node 1     4MB", "hot pages  (top 3", "nodea."} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if code, _, errs = runCLI("-workload", "doom"); code != 1 || !strings.Contains(errs, "unknown workload") {
		t.Fatalf("-workload doom: exit %d, stderr %q", code, errs)
	}
	if code, _, _ = runCLI("-l3", "huge"); code != 1 {
		t.Fatalf("-l3 huge: exit %d, want 1", code)
	}
}
