package memories

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"memories/internal/bus"
	"memories/internal/coherence"
	"memories/internal/console"
	"memories/internal/core"
	"memories/internal/service"
	"memories/internal/tracefile"
	"memories/internal/workload/splash"
	"memories/protocols"
)

// These tests walk every way a protocol or a workload name gets into
// the program — library, console, service, binaries — and hold them to
// one answer each.

// buildCmds compiles the named cmd/ binaries into a temp dir.
func buildCmds(t *testing.T, names ...string) map[string]string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range names {
		bins[name] = filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bins[name], "./cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}
	return bins
}

// runCmd runs a binary and returns its exit code, stdout and stderr.
func runCmd(t *testing.T, stdin, bin string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdin, cmd.Stdout, cmd.Stderr = strings.NewReader(stdin), &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errb.String()
}

// serve sends one request straight at the service's handler.
func serve(t *testing.T, srv *service.Server, method, path string, body any) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(data)))
	return rec.Code, rec.Body.String()
}

// fuzzSeed returns the string argument of a one-string `go test fuzz v1`
// corpus file under internal/coherence/testdata/fuzz.
func fuzzSeed(t *testing.T, target, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("internal", "coherence", "testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	_, arg, ok := strings.Cut(strings.TrimSpace(string(data)), "\n")
	arg, ok2 := strings.CutPrefix(arg, "string(")
	arg, ok3 := strings.CutSuffix(arg, ")")
	src, err := strconv.Unquote(arg)
	if !ok || !ok2 || !ok3 || err != nil {
		t.Fatalf("%s/%s is not a one-string fuzz seed", target, name)
	}
	return src
}

func smallBoard(t *testing.T) *core.Board {
	t.Helper()
	b, err := core.NewBoard(SingleL3Board(1*MB, 4, 128))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBadMapsRefusedAtEveryDoor pushes the repository's own
// known-bad protocol seeds — one only the model checker catches, one
// only the compiler catches — through every entry point that accepts
// map text or a map file. Each must refuse with the checker's or
// compiler's own message, and none may leave a board running the map.
func TestBadMapsRefusedAtEveryDoor(t *testing.T) {
	bins := buildCmds(t, "console", "tracesim")
	cases := []struct {
		name, src string
		typed     func(error) bool
	}{
		{"incoherent-msi-no-writeback", fuzzSeed(t, "FuzzModelCheck", "incoherent-msi-no-writeback"),
			func(err error) bool {
				var ce *coherence.CheckError
				return errors.As(err, &ce) && ce.Kind == coherence.ViolationStaleRead
			}},
		{"ambiguous-wildcard-trample", fuzzSeed(t, "FuzzProtocolCompile", "ambiguous-wildcard-trample"),
			func(err error) bool {
				var ce *coherence.CompileError
				return errors.As(err, &ce) && ce.Kind == coherence.ErrAmbiguousRule
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.map")
			if err := os.WriteFile(path, []byte(c.src), 0o644); err != nil {
				t.Fatal(err)
			}
			// The verdict every other door must repeat, without the
			// loader's "protocols: <origin>:" prefix.
			_, err := protocols.Verify(c.src)
			if err == nil {
				t.Fatal("protocols.Verify accepted the map")
			}
			verdict := errors.Unwrap(err).Error()

			board := smallBoard(t)
			cons := console.New(board, io.Discard)
			library := map[string]func() error{
				"memories.ParseProtocol":    func() error { _, err := ParseProtocol(c.src); return err },
				"memories.LoadProtocolFile": func() error { _, err := LoadProtocolFile(path); return err },
				"protocols.Verify":          func() error { _, err := protocols.Verify(c.src); return err },
				"protocols.LoadFile":        func() error { _, err := protocols.LoadFile(path); return err },
				"protocols.Resolve":         func() error { _, err := protocols.Resolve(path); return err },
				"console loadmap": func() error {
					for _, line := range append([]string{"loadmap 0"}, strings.Split(c.src, "\n")...) {
						if err := cons.Execute(line); err != nil {
							return fmt.Errorf("before end: %w", err)
						}
					}
					return cons.Execute("end")
				},
			}
			for door, load := range library {
				err := load()
				if err == nil || !c.typed(err) || !strings.Contains(err.Error(), verdict) {
					t.Errorf("%s: err = %v, want the typed rejection %q", door, err, verdict)
				}
			}
			if got := board.Node(0).Protocol; got != "mesi" {
				t.Errorf("console board runs %q after the refused loadmap", got)
			}

			srv := service.New(service.Config{})
			code, body := serve(t, srv, "POST", "/sessions", service.CreateRequest{Cache: "64KB", ProtocolMap: c.src})
			_, sessions := serve(t, srv, "GET", "/sessions", nil)
			if code < 400 || code > 499 || !strings.Contains(body, verdict) || strings.TrimSpace(sessions) != "[]" {
				t.Errorf("service: status %d, sessions %s, body %s; want 4xx carrying %q and no session", code, sessions, body, verdict)
			}

			for name, args := range map[string][]string{
				"console":  {"-protocol", path},
				"tracesim": {"-protocol", path, filepath.Join(t.TempDir(), "never-opened.trace")},
			} {
				code, out, errs := runCmd(t, "run 1000\nnodes\n", bins[name], args...)
				if code == 0 || !strings.Contains(errs, verdict) || out != "" {
					t.Errorf("%s: exit %d, stdout %q, stderr %q; want non-zero, no report, and %q", name, code, out, errs, verdict)
				}
			}
		})
	}
}

// TestShippedNamesLoadAtEveryDoor: every door that takes a protocol
// name takes all four shipped ones, and says which are shipped when it
// is handed anything else.
func TestShippedNamesLoadAtEveryDoor(t *testing.T) {
	bins := buildCmds(t, "console", "tracesim")
	srv := service.New(service.Config{})
	board := smallBoard(t)
	cons := console.New(board, io.Discard)
	for _, name := range append(protocols.Names(), "dragon") {
		shipped := name != "dragon"
		check := func(door, gotName string, err error) {
			t.Helper()
			switch {
			case shipped && (err != nil || gotName != name):
				t.Errorf("%s %s: loaded %q, err %v", door, name, gotName, err)
			case !shipped && (err == nil || !strings.Contains(err.Error(), "write-once")):
				t.Errorf("%s %s: err = %v, want a refusal listing the shipped names", door, name, err)
			}
		}
		tab, err := protocols.Resolve(name)
		if err == nil {
			check("protocols.Resolve", tab.Name, nil)
		} else {
			check("protocols.Resolve", "", err)
		}

		err = cons.Execute("protocol 0 " + name)
		check("console protocol", board.Node(0).Protocol, err)

		code, body := serve(t, srv, "POST", "/sessions", service.CreateRequest{ID: name, Cache: "64KB", Protocol: name})
		var info service.SessionInfo
		if code == http.StatusCreated {
			if err := json.Unmarshal([]byte(body), &info); err != nil {
				t.Fatal(err)
			}
			check("service", info.Protocol, nil)
			serve(t, srv, "DELETE", "/sessions/"+name, nil)
		} else {
			check("service", "", fmt.Errorf("status %d: %s", code, body))
		}

		for bin, args := range map[string][]string{
			"console":  {"-protocol", name, "-l3", "1MB"},
			"tracesim": {"-protocol", name, filepath.Join(t.TempDir(), "absent.trace")},
		} {
			code, out, errs := runCmd(t, "run 1000\nnodes\n", bins[bin], args...)
			switch {
			case !shipped:
				check(bin, "", errors.New(errs))
			case bin == "console" && (code != 0 || !strings.Contains(out, "protocol "+name+", refs")):
				t.Errorf("console -protocol %s: exit %d\n%s%s", name, code, out, errs)
			case bin == "tracesim" && !strings.Contains(errs, "absent.trace"):
				// Past the protocol, the missing trace is the failure.
				t.Errorf("tracesim -protocol %s: stderr %q, want only the missing trace", name, errs)
			}
		}
	}
}

// TestWorkloadNamesAtEveryCaller lists every workload name once and
// runs it through the two binaries that accept one; each must build it
// and drive references from it. The session service takes none: it
// takes the traces tracegen writes.
func TestWorkloadNamesAtEveryCaller(t *testing.T) {
	bins := buildCmds(t, "console", "tracegen")
	names := append([]string{"tpcc", "tpch", "web", "uniform"}, splash.Names()...)
	for _, name := range append(names, "doom") {
		known := name != "doom"
		code, out, errs := runCmd(t, "run 2000\nquit\n", bins["console"], "-workload", name, "-l3", "1MB")
		if known != (code == 0 && strings.Contains(out, "ran 2000 references")) {
			t.Errorf("console -workload %s: exit %d\n%s%s", name, code, out, errs)
		}
		code, out, errs = runCmd(t, "", bins["tracegen"], "-workload", name, "-refs", "2000", "-o", filepath.Join(t.TempDir(), "t.trace"))
		if known != (code == 0 && strings.Contains(out, "from 2000 workload refs")) {
			t.Errorf("tracegen -workload %s: exit %d\n%s%s", name, code, out, errs)
		}
	}
}

// TestTraceFormatsAtTheFrontDoor: nothing writes the fixed-width v1
// format any more, and only `tracegen convert` reads it. A hand-packed v1
// file converts to the bytes a v2 writer makes of the same records, and
// tracesim prints the same statistics for both v2 files; tracesim itself
// refuses the v1 file by naming the command. The knobs that selected the
// deleted paths — a decode fan-out, a second replay engine, a v1 writer,
// the size of a capture memory — are refused by name.
func TestTraceFormatsAtTheFrontDoor(t *testing.T) {
	bins := buildCmds(t, "tracegen", "tracesim")
	dir := t.TempDir()
	v1path, v2path, directPath := filepath.Join(dir, "old.trace"), filepath.Join(dir, "new.trace"), filepath.Join(dir, "direct.trace")

	v1 := []byte(tracefile.Magic)
	var direct bytes.Buffer
	w, err := tracefile.NewV2Writer(&direct)
	if err != nil {
		t.Fatal(err)
	}
	a := uint64(23)
	for i := 0; i < 50_000; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		rec := tracefile.Record{Addr: ((a >> 16) % (8 << 20)) &^ 7, Cmd: bus.Read, SrcID: uint8(i % 8)}
		if i%5 == 0 {
			rec.Cmd = bus.RWITM
		}
		v, err := rec.Pack()
		if err != nil {
			t.Fatal(err)
		}
		v1 = binary.LittleEndian.AppendUint64(v1, v)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v1path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(directPath, direct.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, errs := runCmd(t, "", bins["tracegen"], "convert", v1path, v2path)
	if code != 0 || !strings.Contains(out, "converted 50000 records") {
		t.Fatalf("tracegen convert: exit %d\n%s%s", code, out, errs)
	}
	converted, err := os.ReadFile(v2path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(converted, direct.Bytes()) || len(converted)*2 > len(v1) {
		t.Fatalf("converted file: %d bytes, want the %d a v2 writer makes of the same records, under half of %d", len(converted), direct.Len(), len(v1))
	}
	if code, _, errs := runCmd(t, "", bins["tracegen"], "convert", v2path, filepath.Join(dir, "again.trace")); code != 1 || !strings.Contains(errs, "already a version-2") {
		t.Errorf("tracegen convert of a v2 file: exit %d, stderr %q; want 1", code, errs)
	}

	// Everything tracesim reports about the cache, which is every line
	// but the file name and the wall clock.
	statLines := func(path string) string {
		code, out, errs := runCmd(t, "", bins["tracesim"], "-l3", "1MB", "-assoc", "4", path)
		if code != 0 {
			t.Fatalf("tracesim %s: exit %d\n%s%s", path, code, out, errs)
		}
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			for _, prefix := range []string{"cache ", "refs ", "reads ", "castouts "} {
				if strings.HasPrefix(line, prefix) {
					keep = append(keep, line)
				}
			}
		}
		if len(keep) < 2 {
			t.Fatalf("tracesim %s printed no statistics:\n%s", path, out)
		}
		return strings.Join(keep, "\n")
	}
	if conv, written := statLines(v2path), statLines(directPath); conv != written {
		t.Errorf("tracesim: converted file\n%s\ndirectly written file\n%s", conv, written)
	}
	if code, _, errs := runCmd(t, "", bins["tracesim"], v1path); code != 1 || !strings.Contains(errs, "go run ./cmd/tracegen convert OLD NEW") {
		t.Errorf("tracesim on the v1 file: exit %d, stderr %q; want 1 naming tracegen convert", code, errs)
	}

	for _, gone := range [][]string{
		{"tracesim", "-workers", "2", v2path},
		{"tracesim", "-board", v2path},
		{"tracegen", "-format", "v1", "-refs", "1000", "-o", filepath.Join(dir, "x.trace")},
		{"tracegen", "-limit", "1000", "-refs", "1000", "-o", filepath.Join(dir, "x.trace")},
		{"tracegen", "convert", "-format", "v1", v2path, filepath.Join(dir, "y.trace")},
	} {
		code, _, errs := runCmd(t, "", bins[gone[0]], gone[1:]...)
		if code == 0 || !strings.Contains(errs, "flag provided but not defined") {
			t.Errorf("%v: exit %d, stderr %q; want the flag package's refusal", gone, code, errs)
		}
	}
}
