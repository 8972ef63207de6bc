package memories

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

var (
	// "(fig8 in 7.522s)" — elapsed is wall clock, never comparable.
	elapsedRe = regexp.MustCompile(`\((\S+) in [^)]+\)`)
	// table3 data row: vectors, measured C-sim time, modeled board time,
	// speedup. Columns 2 and 4 are machine-dependent.
	table3Re = regexp.MustCompile(`^(\d+) (\S+ \S+) (\S+ \S+) (\S+x)$`)
)

// normalizeExperimentOutput strips the wall-clock content (elapsed
// stamps, table3's measured columns, and the alignment padding that
// depends on them) so uninterrupted and killed-and-resumed runs can be
// compared byte-for-byte.
func normalizeExperimentOutput(s string) string {
	lines := strings.Split(s, "\n")
	for i, line := range lines {
		line = strings.Join(strings.Fields(line), " ")
		if strings.Trim(line, "-") == "" && line != "" {
			line = "---"
		}
		line = elapsedRe.ReplaceAllString(line, "($1 in <elapsed>)")
		line = table3Re.ReplaceAllString(line, "$1 <wall-clock> $3 <speedup>")
		lines[i] = line
	}
	return strings.Join(lines, "\n")
}

// TestKillResumeExperiments is the crash-safety oracle at the process
// level: a sweep killed with SIGKILL mid-run and resumed from its
// journal must print exactly what the uninterrupted sweep prints. The
// experiment order puts the fast one (table3) first so its journal
// entry lands early, leaving the long fig8 run as the kill window.
func TestKillResumeExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash-resume test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	build := exec.Command("go", "build", "-o", bin, "./cmd/experiments")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	args := []string{"-run", "table3,fig8", "-scale", "ci", "-parallel", "1"}

	ref, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	journal := filepath.Join(dir, "journal.ckpt")
	killed := exec.Command(bin, append(args, "-checkpoint", journal)...)
	killed.Stdout, killed.Stderr = nil, nil
	if err := killed.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as the first experiment has been journaled. If the
	// process somehow finishes first, the resume below degrades to a
	// pure journal replay, which must still match.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(journal); err == nil {
			break
		}
		if time.Now().After(deadline) {
			killed.Process.Kill()
			killed.Wait()
			t.Fatal("journal never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	killed.Process.Kill()
	killed.Wait()

	resumed, err := exec.Command(bin, append(args, "-resume", journal)...).Output()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	got, want := normalizeExperimentOutput(string(resumed)), normalizeExperimentOutput(string(ref))
	if got != want {
		t.Fatalf("killed+resumed output diverged from uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
}

// TestConsoleCheckpointsOnSIGTERM: a console started with -checkpoint
// that gets SIGTERM in the middle of a long run stops at the next chunk,
// writes its final session snapshot and exits 130; a second console
// resumes from that snapshot with the references already run.
func TestConsoleCheckpointsOnSIGTERM(t *testing.T) {
	bin := buildCmds(t, "console")["console"]
	ckpt := filepath.Join(t.TempDir(), "final.ckpt")
	cmd := exec.Command(bin, "-checkpoint", ckpt, "-l3", "1MB")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// A short run first, so the signal lands once references have run
	// and, most likely, inside the long one.
	fmt.Fprint(stdin, "run 5000\nrun 5000000\n")
	out := bufio.NewReader(stdout)
	for {
		line, err := out.ReadString('\n')
		if err != nil {
			t.Fatalf("console ended before the first run finished: %v; stderr:\n%s", err, stderr.String())
		}
		if strings.Contains(line, "ran 5000 references") {
			break
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, out)
	cmd.Wait()
	if code := cmd.ProcessState.ExitCode(); code != 130 || !strings.Contains(stderr.String(), "session checkpointed to "+ckpt) {
		t.Fatalf("exit %d, stderr:\n%s\nwant 130 and the final checkpoint named", code, stderr.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint file: %v", err)
	}

	code, nodes, errs := runCmd(t, "nodes\n", bin, "-resume", ckpt, "-l3", "1MB")
	m := regexp.MustCompile(`refs (\d+),`).FindStringSubmatch(nodes)
	if code != 0 || m == nil {
		t.Fatalf("resume: exit %d\n%s%s", code, nodes, errs)
	}
	if refs, _ := strconv.ParseUint(m[1], 10, 64); refs == 0 {
		t.Fatalf("resumed board has no references:\n%s", nodes)
	}
}
