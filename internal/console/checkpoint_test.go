package console

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"memories/internal/core"
)

// A console has no snapshot format of its own: until a session binds
// one, checkpoint and restore answer with an error and touch nothing.
func TestConsoleCheckpointRestoreCommands(t *testing.T) {
	b := testBoard(t)
	feed(b, 500)
	want := run(t, b, "stats")
	var out bytes.Buffer
	c := New(b, &out)
	for _, cmd := range []string{"checkpoint x.ckpt", "restore x.ckpt"} {
		if err := c.Execute(cmd); err == nil || !strings.Contains(err.Error(), "no session attached") {
			t.Fatalf("%s on an unbound console: err = %v, want the no-session error", cmd, err)
		}
	}
	if err := c.Restore("x.ckpt"); err == nil {
		t.Fatal("Restore on an unbound console succeeded")
	}
	if out.Len() != 0 {
		t.Fatalf("unbound checkpoint/restore printed %q", out.String())
	}
	if got := run(t, b, "stats"); got != want {
		t.Fatalf("unbound checkpoint/restore moved the board:\n%s\nvs\n%s", got, want)
	}
}

// Command-syntax and hook failures surface as errors, not panics.
func TestConsoleCheckpointErrors(t *testing.T) {
	b := testBoard(t)
	var out bytes.Buffer
	c := New(b, &out)
	c.SetCheckpoint(
		func(string) error { return fmt.Errorf("disk full") },
		func(string) (core.RestoreReport, error) { return core.RestoreReport{}, fmt.Errorf("missing") },
	)
	if err := c.Execute("checkpoint"); err == nil {
		t.Fatal("bare checkpoint accepted")
	}
	if err := c.Execute("restore"); err == nil {
		t.Fatal("bare restore accepted")
	}
	if err := c.Execute("checkpoint x.ckpt"); err == nil || err.Error() != "disk full" {
		t.Fatalf("checkpoint err = %v, want the hook's", err)
	}
	if err := c.Execute("restore x.ckpt"); err == nil || err.Error() != "missing" {
		t.Fatalf("restore err = %v, want the hook's", err)
	}
	if out.Len() != 0 {
		t.Fatalf("failed checkpoint/restore printed %q", out.String())
	}
}

// SetCheckpoint binds both commands; the console confirms each and
// formats the ECC repairs the load hook reports, only when there are
// some.
func TestConsoleSetCheckpoint(t *testing.T) {
	b := testBoard(t)
	var out bytes.Buffer
	c := New(b, &out)
	var saved, loaded string
	var rep core.RestoreReport
	c.SetCheckpoint(
		func(path string) error { saved = path; return nil },
		func(path string) (core.RestoreReport, error) { loaded = path; return rep, nil },
	)
	if err := c.Execute("checkpoint one.ckpt"); err != nil {
		t.Fatal(err)
	}
	if err := c.Execute("restore two.ckpt"); err != nil {
		t.Fatal(err)
	}
	if saved != "one.ckpt" || loaded != "two.ckpt" {
		t.Fatalf("hooks saw (%q, %q)", saved, loaded)
	}
	if got := out.String(); got != "checkpoint written to one.ckpt\nstate restored from two.ckpt\n" {
		t.Fatalf("clean round trip printed %q", got)
	}

	out.Reset()
	rep = core.RestoreReport{ECCCorrected: 3, ECCInvalidated: 1}
	if err := c.Restore("three.ckpt"); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "restore: ECC repaired 3 word(s), invalidated 1\nstate restored from three.ckpt\n" {
		t.Fatalf("repairing restore printed %q", got)
	}
}
