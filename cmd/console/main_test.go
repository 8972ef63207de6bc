package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memories"
	"memories/internal/core"
	"memories/internal/workload/byname"
	"memories/protocols"
)

// runCLI runs the console in-process with script on stdin.
func runCLI(script string, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(script), &out, &errb)
	return code, out.String(), errb.String()
}

// -protocol takes a shipped name or a .map path through
// protocols.Resolve, exactly like cmd/tracesim and cmd/experiments, and
// a refused map leaves stdout empty.
func TestProtocolFlag(t *testing.T) {
	const script = "run 20000\nnodes\n"
	small := []string{"-l3", "1MB"}

	code, out, errs := runCLI(script, append(small, "-protocol", "write-once")...)
	if code != 0 || !strings.Contains(out, "protocol write-once, refs") {
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
	if code, out, errs = runCLI(script, append(small, "-protocol", path)...); code != 0 || !strings.Contains(out, "protocol mesi, refs") {
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
	if code, out, errs = runCLI(script, append(small, "-protocol", path)...); code != 1 || !strings.Contains(errs, "stale read") || out != "" {
		t.Fatalf("incoherent map: exit %d, want 1 with the checker's verdict and no output\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}

	if code, _, errs = runCLI(script, "-protocol", "dragon"); code != 1 || !strings.Contains(errs, "write-once") {
		t.Fatalf("unknown name: exit %d, stderr %q; want 1 and the shipped names", code, errs)
	}
	if code, _, errs = runCLI(script, "-protocol-file", path); code != 2 || !strings.Contains(errs, "flag provided but not defined: -protocol-file") {
		t.Fatalf("-protocol-file: exit %d, stderr %q; want flag's not-defined error", code, errs)
	}
}

// A batch run: multi-config nodes with their satisfaction sources, the
// host line of the run reply, the counter dump, the hot-page profile on
// exit, and -line/-splash-size reaching the board and the workload.
func TestReport(t *testing.T) {
	code, out, errs := runCLI("run 50000\nnodes\nnode 1\nstats\nquit\nrun 50000\n",
		"-workload", "uniform", "-l3", "1MB,4MB", "-hotspots", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	for _, want := range []string{
		"workload uniform", "ran 50000 references (host totals: instructions ", ", L2 miss ratio ",
		"node 0 (a): 1MB", "node 1 (b): 4MB", "  satisfied  l3 ", "nodea.", "nodeb.",
		"hot pages  (top 3 of ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "ran 50000") != 1 {
		t.Errorf("the console ran past quit:\n%s", out)
	}
	if strings.Index(out, "hot pages") < strings.LastIndex(out, "> ") {
		t.Errorf("the hot-page table is not printed on exit:\n%s", out)
	}

	code, out, errs = runCLI("run 2000\nnode 0\n", "-workload", "fft", "-splash-size", "test", "-l3", "1MB", "-line", "64")
	if code != 0 || !strings.Contains(out, "workload fft") || !strings.Contains(out, "cache      1MB 8-way, 64B lines") {
		t.Fatalf("-line 64 -splash-size test: exit %d\n%s%s", code, out, errs)
	}

	for _, bad := range [][]string{
		{"-workload", "doom"}, {"-splash-size", "huge", "-workload", "fft"},
		{"-l3", "huge"}, {"-l3", "1MB", "-line", "100"},
	} {
		if code, out, errs = runCLI("run 2000\n", bad...); code != 1 || out != "" || errs == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 1 with an error and no output", bad, code, out, errs)
		}
	}
	if _, _, errs = runCLI("", "-workload", "doom"); !strings.Contains(errs, "unknown workload") {
		t.Errorf("-workload doom: stderr %q", errs)
	}
}

// A snapshot taken at a library session's console is a session
// snapshot: -resume loads it into the session the default flags build,
// with the references already run.
func TestResumeFromSessionConsole(t *testing.T) {
	gen, err := byname.New("tpcc", 2048, 1, 8, "classic")
	if err != nil {
		t.Fatal(err)
	}
	bcfg := memories.MultiConfigBoard(core.CPURange(8), 128, 8, memories.MB)
	bcfg.ProfileBucketCycles = 2_000_000
	s, err := memories.NewSession(memories.DefaultHostConfig(), bcfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if s.Run(20_000); s.Board.Node(0).Refs() == 0 {
		t.Fatal("the run reached no L3 reference: resuming it would prove nothing")
	}
	path := filepath.Join(t.TempDir(), "lib.ckpt")
	if err := s.Console(io.Discard).Execute("checkpoint " + path); err != nil {
		t.Fatal(err)
	}

	code, out, errs := runCLI("nodes\n", "-resume", path, "-l3", "1MB")
	want := fmt.Sprintf("refs %d,", s.Board.Node(0).Refs())
	if code != 0 || !strings.Contains(out, "state restored from "+path) || !strings.Contains(out, want) {
		t.Fatalf("-resume: exit %d, want 0, the restore line and %q\nstdout:\n%s\nstderr:\n%s", code, want, out, errs)
	}
}
