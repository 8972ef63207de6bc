package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/checkpoint"
	"memories/internal/simbase"
	"memories/internal/tracefile"
	"memories/protocols"
)

func newTestSim() *simbase.TraceSim {
	return simbase.MustNewTraceSim([]simbase.TraceNodeConfig{{
		CPUs:     []int{0, 1, 2, 3},
		Geometry: addr.MustGeometry(256*addr.KB, 128, 4),
		Policy:   cache.LRU,
		Protocol: protocols.MustLoad("mesi"),
	}})
}

// Save mid-replay, load into a twin: trace position and simulator
// state must both survive, which is what makes a resumed replay finish
// with bit-identical statistics.
func TestReplayStateRoundTrip(t *testing.T) {
	st := &replayState{sim: newTestSim(), fingerprint: "geom=256KB/128B/4-way cpus=4 policy=lru proto=mesi"}
	a := uint64(99)
	for i := 0; i < 5000; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		st.sim.Process(tracefile.Record{Addr: ((a >> 16) % (1 << 21)) &^ 7, Cmd: bus.Read, SrcID: uint8(i % 4)})
		st.pos++
	}
	path := filepath.Join(t.TempDir(), "replay.ckpt")
	if err := st.save(path); err != nil {
		t.Fatal(err)
	}

	st2 := &replayState{sim: newTestSim(), fingerprint: st.fingerprint}
	if err := st2.load(path); err != nil {
		t.Fatal(err)
	}
	if st2.pos != st.pos {
		t.Fatalf("pos %d != saved %d", st2.pos, st.pos)
	}
	if st2.sim.NodeStats(0) != st.sim.NodeStats(0) {
		t.Fatalf("node stats differ after load:\n%+v\n%+v", st2.sim.NodeStats(0), st.sim.NodeStats(0))
	}
}

// A checkpoint from a differently configured simulator is rejected via
// the fingerprint, reported as corruption rather than silently applied.
func TestReplayStateFingerprintMismatch(t *testing.T) {
	st := &replayState{sim: newTestSim(), fingerprint: "geom=A"}
	path := filepath.Join(t.TempDir(), "replay.ckpt")
	if err := st.save(path); err != nil {
		t.Fatal(err)
	}
	st2 := &replayState{sim: newTestSim(), fingerprint: "geom=B"}
	if err := st2.load(path); err == nil {
		t.Fatal("mismatched fingerprint loaded cleanly")
	} else if _, ok := err.(*checkpoint.CorruptError); !ok {
		t.Fatalf("err = %T %v, want *checkpoint.CorruptError", err, err)
	}
}

// runCLI invokes the binary's entry point in-process with a fresh flag
// set, so coverage sees the real decode-replay-report plumbing.
func runCLI(t *testing.T, args ...string) int {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	flag.CommandLine = flag.NewFlagSet("tracesim", flag.ContinueOnError)
	os.Args = append([]string{"tracesim"}, args...)
	return run()
}

// testTrace is the record stream every fixture file carries.
func testTrace(n int) []tracefile.Record {
	recs := make([]tracefile.Record, n)
	a := uint64(7)
	for i := range recs {
		a = a*6364136223846793005 + 1442695040888963407
		recs[i] = tracefile.Record{Addr: ((a >> 16) % (1 << 21)) &^ 7, Cmd: bus.Read, SrcID: uint8(i % 4)}
		if i%3 == 0 {
			recs[i].Cmd = bus.RWITM
		}
	}
	return recs
}

func writeTestTrace(t *testing.T, n int) string {
	t.Helper()
	var buf bytes.Buffer
	w, err := tracefile.NewV2Writer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range testTrace(n) {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, buf.Bytes())
}

func writeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Nothing writes MIES0001 any more, and only `tracegen convert` reads
// it: a hand-packed v1 file exits 1, naming that command, before
// anything is replayed.
func TestV1TraceRefused(t *testing.T) {
	v1 := []byte(tracefile.Magic)
	for _, rec := range testTrace(10_000) {
		v, err := rec.Pack()
		if err != nil {
			t.Fatal(err)
		}
		v1 = binary.LittleEndian.AppendUint64(v1, v)
	}
	code, errs := runCLICapture(t, &os.Stderr, "-l3", "256KB", "-cpus", "4", writeFile(t, v1))
	if code != 1 || !strings.Contains(errs, "go run ./cmd/tracegen convert OLD NEW") {
		t.Errorf("v1 replay exited %d, stderr %q; want 1 naming tracegen convert", code, errs)
	}
}

// End to end: a checkpointed replay followed by a resume from its final
// checkpoint, which fast-forwards past every consumed record.
func TestRunCheckpointAndResume(t *testing.T) {
	trace := writeTestTrace(t, 30_000)
	ckpt := filepath.Join(t.TempDir(), "replay.ckpt")
	if code := runCLI(t, "-l3", "256KB", "-cpus", "4", "-checkpoint", ckpt, "-checkpoint-every", "10000", trace); code != 0 {
		t.Fatalf("checkpointed replay exited %d", code)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint missing after replay: %v", err)
	}
	if code := runCLI(t, "-l3", "256KB", "-cpus", "4", "-resume", ckpt, trace); code != 0 {
		t.Fatalf("resumed replay exited %d", code)
	}
}

// A checkpoint from a longer trace cannot resume a shorter one: the
// replay would skip every record and report the checkpoint's position as
// if it had been read.
func TestResumeShortTrace(t *testing.T) {
	long, short := writeTestTrace(t, 30_000), writeTestTrace(t, 5_000)
	ckpt := filepath.Join(t.TempDir(), "replay.ckpt")
	if code := runCLI(t, "-l3", "256KB", "-cpus", "4", "-checkpoint", ckpt, "-checkpoint-every", "10000", long); code != 0 {
		t.Fatalf("checkpointed replay exited %d", code)
	}
	code, errs := runCLICapture(t, &os.Stderr, "-l3", "256KB", "-cpus", "4", "-resume", ckpt, short)
	if code != 1 || !strings.Contains(errs, "has 5000 records, but the checkpoint is at record 30000") {
		t.Errorf("resume on a shorter trace: exit %d, stderr %q; want 1 naming both counts", code, errs)
	}
}

// -resume names one file. A missing one is the OS error (there is no
// directory of numbered checkpoints to search), and a corrupt one is
// reported with its path; both exit 1 before the trace is opened.
func TestResumeMissingOrCorrupt(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "never-opened.trace")
	missing := filepath.Join(dir, "absent.ckpt")
	code, errs := runCLICapture(t, &os.Stderr, "-resume", missing, trace)
	if code != 1 || !strings.Contains(errs, missing) || !strings.Contains(errs, syscall.ENOENT.Error()) {
		t.Errorf("missing checkpoint: exit %d, stderr %q; want 1 naming %s and %q", code, errs, missing, syscall.ENOENT.Error())
	}
	corrupt := filepath.Join(dir, "corrupt.ckpt")
	if err := os.WriteFile(corrupt, []byte("MIESCKPTgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, errs = runCLICapture(t, &os.Stderr, "-resume", corrupt, trace)
	if code != 1 || !strings.Contains(errs, "checkpoint: corrupt "+corrupt) {
		t.Errorf("corrupt checkpoint: exit %d, stderr %q; want 1 naming %s as corrupt", code, errs, corrupt)
	}
}

func TestRunUsageError(t *testing.T) {
	if code := runCLI(t); code == 0 {
		t.Fatal("missing trace argument accepted")
	}
	if code := runCLI(t, "-l3", "not-a-size", "x.trace"); code == 0 {
		t.Fatal("bad -l3 accepted")
	}
	trace := writeTestTrace(t, 100)
	for _, cpus := range []string{"0", "-1", "257"} {
		code, errs := runCLICapture(t, &os.Stderr, "-cpus", cpus, trace)
		if code != 1 || !strings.Contains(errs, "-cpus must be in 1..256") {
			t.Errorf("-cpus %s: exit %d, stderr %q; want 1 naming -cpus and its range", cpus, code, errs)
		}
	}
	// -checkpoint-every with no file to write is refused, not ignored.
	code, errs := runCLICapture(t, &os.Stderr, "-checkpoint-every", "10", trace)
	if code != 1 || !strings.Contains(errs, "-checkpoint-every needs -checkpoint or -resume") {
		t.Errorf("-checkpoint-every alone: exit %d, stderr %q; want 1 naming -checkpoint and -resume", code, errs)
	}
}

// -protocol swaps the simulator's coherence table and rejects unknown
// names before touching the trace. A checkpoint written under one
// protocol must not resume a replay under another (the fingerprint
// carries the protocol name).
func TestRunProtocolFlag(t *testing.T) {
	trace := writeTestTrace(t, 5_000)
	if code := runCLI(t, "-l3", "256KB", "-cpus", "4", "-protocol", "moesi", trace); code != 0 {
		t.Fatalf("replay with -protocol moesi exited %d", code)
	}
	if code := runCLI(t, "-l3", "256KB", "-cpus", "4", "-protocol", "msi", trace); code != 0 {
		t.Fatalf("replay with -protocol msi exited %d", code)
	}
	if code := runCLI(t, "-l3", "256KB", "-cpus", "4", "-protocol", "nonsense", trace); code == 0 {
		t.Fatal("unknown -protocol accepted")
	}

	ckpt := filepath.Join(t.TempDir(), "replay.ckpt")
	if code := runCLI(t, "-l3", "256KB", "-cpus", "4", "-protocol", "moesi", "-checkpoint", ckpt, "-checkpoint-every", "1000", trace); code != 0 {
		t.Fatalf("checkpointed moesi replay exited %d", code)
	}
	if code := runCLI(t, "-l3", "256KB", "-cpus", "4", "-resume", ckpt, trace); code == 0 {
		t.Fatal("moesi checkpoint resumed into a mesi replay")
	}
}

// runCLIOutput is runCLI with stdout captured.
func runCLIOutput(t *testing.T, args ...string) (int, string) {
	t.Helper()
	return runCLICapture(t, &os.Stdout, args...)
}

// runCLICapture is runCLI with *stream (os.Stdout or os.Stderr) captured.
func runCLICapture(t *testing.T, stream **os.File, args ...string) (int, string) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "captured"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code := func() int {
		defer func(old *os.File) { *stream = old }(*stream)
		*stream = out
		return runCLI(t, args...)
	}()
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

// refsLine returns the `refs ... miss ratio ...` line of a replay report.
func refsLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "refs ") {
			return line
		}
	}
	t.Fatalf("no refs line in output:\n%s", out)
	return ""
}

// -obs mirrors replay progress into a served registry; it observes the
// simulator and must not change what the replay reports.
func TestObsDoesNotPerturbReplay(t *testing.T) {
	trace := writeTestTrace(t, 5_000)
	args := []string{"-l3", "256KB", "-cpus", "4"}
	code, plain := runCLIOutput(t, append(args, trace)...)
	if code != 0 {
		t.Fatalf("replay exited %d", code)
	}
	code, observed := runCLIOutput(t, append(args, "-obs", "127.0.0.1:0", trace)...)
	if code != 0 {
		t.Fatalf("-obs replay exited %d", code)
	}
	if a, b := refsLine(t, plain), refsLine(t, observed); a != b {
		t.Errorf("-obs replay printed %q, plain %q", b, a)
	}
}
