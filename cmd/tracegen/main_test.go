package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"memories/internal/bus"
	"memories/internal/tracefile"
)

// runCLI runs tracegen in-process.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// testRecords is a handful of records over several commands and bus IDs.
func testRecords() []tracefile.Record {
	cmds := []bus.Command{bus.Read, bus.RWITM, bus.DClaim, bus.Castout}
	recs := make([]tracefile.Record, 3000)
	for i := range recs {
		recs[i] = tracefile.Record{Addr: uint64(i*i%4099) * 128, Cmd: cmds[i%len(cmds)], SrcID: uint8(i % 8)}
	}
	return recs
}

// v1File is recs as a version-1 trace: the magic, then each record's
// Pack word in little-endian order.
func v1File(t *testing.T, recs []tracefile.Record) []byte {
	t.Helper()
	data := []byte(tracefile.Magic)
	for _, r := range recs {
		w, err := r.Pack()
		if err != nil {
			t.Fatal(err)
		}
		data = binary.LittleEndian.AppendUint64(data, w)
	}
	return data
}

// writeTemp writes data to name in dir.
func writeTemp(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// onlyFiles fails unless dir holds exactly the named files: a run leaves
// no temporary file behind.
func onlyFiles(t *testing.T, dir string, names ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if strings.Join(got, " ") != strings.Join(names, " ") {
		t.Fatalf("%s holds %q, want %q", dir, got, names)
	}
}

// A capture writes a v2 trace holding exactly the records it reports.
func TestCaptureWritesReportedRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	code, out, errs := runCLI("-refs", "20000", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errs)
	}
	m := regexp.MustCompile(`^captured (\d+) bus references`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no captured line in %q", out)
	}
	want, _ := strconv.ParseUint(m[1], 10, 64)
	n, err := tracefile.ForEachBatchFile(path, 0, func([]tracefile.Record) error { return nil })
	if err != nil || n != want || n == 0 {
		t.Fatalf("read %d records (%v); tracegen reported %d", n, err, want)
	}
	onlyFiles(t, dir, "t.trace")
}

// A capture's bytes are pinned: a change to the records the board
// accepts, the tracer's drain order or the v2 encoding moves this hash.
func TestCapturePinned(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	code, out, errs := runCLI("-workload", "tpcc", "-refs", "20000", "-seed", "3", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errs)
	}
	if !strings.HasPrefix(out, "captured 16847 bus references (0 dropped) from 20000 workload refs") {
		t.Fatalf("stdout %q", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "e6a3cfba08973caeb7a39324eaae249cdb50005e37d19b744c9568416b103254"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Fatalf("trace SHA-256 %s, want %s", got, want)
	}
}

// A ring too shallow for a chunk drops records, and a capture that lost
// one fails and leaves an existing -o as it was.
func TestDroppedRecordFailsCapture(t *testing.T) {
	defer func(d int) { ringDepth = d }(ringDepth)
	ringDepth = 64
	dir := t.TempDir()
	old := []byte("an existing trace, not to be lost")
	path := writeTemp(t, dir, "t.trace", old)
	code, out, errs := runCLI("-refs", "20000", "-o", path)
	if code != 1 || out != "" || !strings.Contains(errs, "dropped") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 1 naming the drop", code, out, errs)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("-o is now %q (%v), want %q", got, err, old)
	}
	onlyFiles(t, dir, "t.trace")
}

// convert turns a v1 file into the bytes a V2Writer makes of the same
// records.
func TestConvertMatchesDirectWrite(t *testing.T) {
	recs := testRecords()
	dir := t.TempDir()
	in := writeTemp(t, dir, "old.trace", v1File(t, recs))
	out := filepath.Join(dir, "new.trace")
	if code, stdout, errs := runCLI("convert", in, out); code != 0 || !strings.HasPrefix(stdout, "converted 3000 records") {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, errs)
	}
	var direct bytes.Buffer
	w, err := tracefile.NewV2Writer(&direct)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, direct.Bytes()) {
		t.Fatalf("converted file is %d bytes, direct v2 write %d; contents differ", len(got), direct.Len())
	}
	onlyFiles(t, dir, "new.trace", "old.trace")
}

// convert X X is refused and leaves X as it was.
func TestConvertRefusesSameFile(t *testing.T) {
	data := v1File(t, testRecords())
	dir := t.TempDir()
	path := writeTemp(t, dir, "t.trace", data)
	code, _, errs := runCLI("convert", path, path)
	if code == 0 || !strings.Contains(errs, "same file") {
		t.Fatalf("convert X X: exit %d, stderr %q; want a same-file refusal", code, errs)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("convert X X left %d bytes (%v), want the %d it found", len(got), err, len(data))
	}
	onlyFiles(t, dir, "t.trace")
}

// A convert that fails leaves an existing OUT as it was: an input that
// is already v2, an empty one, and a torn v1 one.
func TestFailedConvertKeepsOut(t *testing.T) {
	v1 := v1File(t, testRecords())
	var v2 bytes.Buffer
	w, err := tracefile.NewV2Writer(&v2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	old := []byte("an existing trace, not to be lost")
	for name, in := range map[string][]byte{"v2": v2.Bytes(), "empty": nil, "torn v1": v1[:len(v1)-3]} {
		dir := t.TempDir()
		inPath := writeTemp(t, dir, "in.trace", in)
		outPath := writeTemp(t, dir, "out.trace", old)
		if code, _, _ := runCLI("convert", inPath, outPath); code == 0 {
			t.Fatalf("%s input: convert exited 0", name)
		}
		if got, err := os.ReadFile(outPath); err != nil || !bytes.Equal(got, old) {
			t.Fatalf("%s input: OUT is now %q (%v), want %q", name, got, err, old)
		}
		onlyFiles(t, dir, "in.trace", "out.trace")
	}
}
