package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"memories/internal/experiments"
)

func newTestJournal(path string) *journal {
	return &journal{path: path, scale: "ci", csv: false, done: map[string]outcome{}}
}

// Record → save → load into a fresh journal: the replayed outcomes must
// be byte-identical, which is what lets a resumed sweep print exactly
// what the uninterrupted one would have.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j := newTestJournal(path)
	a := outcome{id: "table3", text: "=== table3 ===\nrow\n", elapsed: 1500 * time.Millisecond}
	b := outcome{id: "fig8", text: "=== fig8 ===\nrow\n", elapsed: 2 * time.Second}
	if err := j.record(a); err != nil {
		t.Fatal(err)
	}
	if err := j.record(b); err != nil {
		t.Fatal(err)
	}

	j2 := newTestJournal(path)
	if err := j2.load(path); err != nil {
		t.Fatal(err)
	}
	if len(j2.done) != 2 {
		t.Fatalf("resumed %d outcomes, want 2", len(j2.done))
	}
	for _, want := range []outcome{a, b} {
		got := j2.done[want.id]
		if got.text != want.text || got.elapsed != want.elapsed {
			t.Fatalf("outcome %s = %+v, want %+v", want.id, got, want)
		}
	}
}

// A journal written under different run options (scale, csv) must not
// replay into this run.
func TestJournalFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j := newTestJournal(path)
	if err := j.record(outcome{id: "table5", text: "x"}); err != nil {
		t.Fatal(err)
	}

	j2 := newTestJournal(path)
	j2.scale = "paper"
	if err := j2.load(path); err == nil {
		t.Fatal("journal from -scale ci loaded into a -scale paper run")
	}
}

// A nil or pathless journal (no -checkpoint flag) is inert.
func TestJournalDisabled(t *testing.T) {
	var j *journal
	if err := j.record(outcome{id: "x"}); err != nil {
		t.Fatal(err)
	}
	j = &journal{done: map[string]outcome{}}
	if err := j.record(outcome{id: "x"}); err != nil {
		t.Fatal(err)
	}
}

func TestRenderModes(t *testing.T) {
	res := &experiments.Result{ID: "fig8", Title: "miss ratio vs cache size"}
	if got := render(res, false); !strings.Contains(got, "=== fig8") {
		t.Fatalf("table render = %q", got)
	}
	if got := render(res, true); !strings.HasPrefix(got, "# fig8: miss ratio vs cache size") {
		t.Fatalf("csv render = %q", got)
	}
}

// runCLI invokes the binary's entry point in-process with a fresh flag
// set, so coverage sees the real argument-to-sweep plumbing.
func runCLI(t *testing.T, args ...string) int {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	flag.CommandLine = flag.NewFlagSet("experiments", flag.ContinueOnError)
	os.Args = append([]string{"experiments"}, args...)
	return run()
}

// runCLIStderr is runCLI that also returns what the run wrote to stderr.
func runCLIStderr(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	code := func() int {
		defer func(old *os.File) { os.Stderr = old }(os.Stderr)
		os.Stderr = f
		return runCLI(t, args...)
	}()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

// The journal is rewritten after every completed experiment and the
// -cpus warning always prints, so the flags that batched the one and
// silenced the other are gone: each is the flag package's usage error,
// before any experiment runs.
func TestRemovedFlagsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-checkpoint-every", "2", "-checkpoint", filepath.Join(t.TempDir(), "j.ckpt")},
		{"-unfaithful", "-cpus", "24"},
	} {
		code, errs := runCLIStderr(t, append(args, "-run", "table1", "-scale", "ci")...)
		if code != 2 || !strings.Contains(errs, "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: exit %d, stderr %q; want 2 and the flag package's refusal", args, code, errs)
		}
	}
}

// End to end: a journaled CI-scale run followed by a resume that
// replays everything from the journal without re-running.
func TestRunJournalAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if code := runCLI(t, "-run", "table1", "-scale", "ci", "-parallel", "1", "-checkpoint", ckpt); code != 0 {
		t.Fatalf("journaled run exited %d", code)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("journal missing after run: %v", err)
	}
	if code := runCLI(t, "-run", "table1", "-scale", "ci", "-parallel", "1", "-resume", ckpt); code != 0 {
		t.Fatalf("resumed run exited %d", code)
	}
}

func TestRunList(t *testing.T) {
	if code := runCLI(t, "-list"); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
}

// -resume names one journal file. A missing one is the OS error (there
// is no directory of numbered checkpoints to search), and a corrupt one
// is reported with its path; both exit 1 before any experiment runs.
func TestResumeMissingOrCorrupt(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "absent.ckpt")
	code, errs := runCLIStderr(t, "-run", "table1", "-scale", "ci", "-resume", missing)
	if code != 1 || !strings.Contains(errs, missing) || !strings.Contains(errs, syscall.ENOENT.Error()) {
		t.Errorf("missing journal: exit %d, stderr %q; want 1 naming %s and %q", code, errs, missing, syscall.ENOENT.Error())
	}
	corrupt := filepath.Join(dir, "corrupt.ckpt")
	if err := os.WriteFile(corrupt, []byte("MIESCKPTgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, errs = runCLIStderr(t, "-run", "table1", "-scale", "ci", "-resume", corrupt)
	if code != 1 || !strings.Contains(errs, "checkpoint: corrupt "+corrupt) {
		t.Errorf("corrupt journal: exit %d, stderr %q; want 1 naming %s as corrupt", code, errs, corrupt)
	}
}

func TestRunBadScale(t *testing.T) {
	if code := runCLI(t, "-scale", "nonsense"); code == 0 {
		t.Fatal("bad -scale accepted")
	}
}

// -cpus must reject machine sizes below one CPU; the zero default only
// means "preset geometry" when the flag is absent.
func TestRunBadCPUs(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		if code := runCLI(t, "-cpus", n, "-list"); code == 0 {
			t.Fatalf("-cpus %s accepted", n)
		}
	}
}

// -cpus narrows the hostscale sweep to one machine size and flows into
// every host the experiment builds (end-to-end through Preset.NumCPUs).
// Above the paper's 12-way host it still runs, with a warning.
func TestRunCPUsOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	code, errs := runCLIStderr(t, "-run", "hostscale", "-scale", "ci", "-parallel", "1", "-cpus", "24")
	if code != 0 || !strings.Contains(errs, "warning: -cpus 24 exceeds the 12-way S7A") {
		t.Fatalf("hostscale with -cpus 24: exit %d, stderr %q; want 0 and the 12-way warning", code, errs)
	}
}

// -protocol accepts a shipped name or a .map file path and threads the
// table into every board the experiment builds; a journal written under
// one protocol must not resume a run under another.
func TestRunProtocolFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	if code := runCLI(t, "-run", "table2", "-scale", "ci", "-parallel", "1", "-protocol", "moesi"); code != 0 {
		t.Fatalf("table2 with -protocol moesi exited %d", code)
	}
	mapPath := filepath.Join("..", "..", "protocols", "msi.map")
	if code := runCLI(t, "-run", "table2", "-scale", "ci", "-parallel", "1", "-protocol", mapPath); code != 0 {
		t.Fatalf("table2 with -protocol %s exited %d", mapPath, code)
	}
}

func TestRunBadProtocol(t *testing.T) {
	if code := runCLI(t, "-run", "table1", "-scale", "ci", "-protocol", "nonsense"); code == 0 {
		t.Fatal("unknown -protocol accepted")
	}
}

func TestJournalProtocolMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j := newTestJournal(path)
	j.proto = "mesi"
	if err := j.record(outcome{id: "table5", text: "x"}); err != nil {
		t.Fatal(err)
	}
	j2 := newTestJournal(path)
	j2.proto = "moesi"
	if err := j2.load(path); err == nil {
		t.Fatal("journal from a mesi run loaded into a moesi run")
	}
}

// A JSONL stream that could not be written in full fails the run: the
// write error the sampler latched and the file's sync error are printed,
// and the exit status is 1, not the experiments' 0.
func TestObsJSONLWriteFailureFailsRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail the writes:", err)
	}
	code, errs := runCLIStderr(t, "-obs-jsonl", "/dev/full", "-run", "table1", "-scale", "ci", "-parallel", "1")
	if code != 1 || !strings.Contains(errs, "obs-jsonl") || !strings.Contains(errs, "no space left on device") {
		t.Fatalf("exit %d, stderr %q; want 1 and the JSONL write error", code, errs)
	}
}
