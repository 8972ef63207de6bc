package console

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"memories/internal/bus"
	"memories/internal/core"
	"memories/internal/obs"
)

// obsConsole builds a console whose board is attached to a fresh
// registry and has a tracer, with quiesce-point publishing — the same
// wiring Session.Console uses when -obs is on.
func obsConsole(t *testing.T) (*core.Board, *bytes.Buffer, *Console) {
	t.Helper()
	b := testBoard(t)
	reg := obs.NewRegistry()
	if err := b.Observe(reg, func(obs.Event) {}, "board", 256); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c := New(b, &out)
	c.SetObs(reg, b.PublishObs)
	return b, &out, c
}

func TestObsCommandsRequireAttachment(t *testing.T) {
	b := testBoard(t)
	out := run(t, b, "metrics", "watch board", "trace on", "trace status")
	if got := strings.Count(out, "error:"); got != 4 {
		t.Fatalf("want 4 attachment errors, got:\n%s", out)
	}
	if !strings.Contains(out, "start with -obs") {
		t.Fatalf("missing -obs hint:\n%s", out)
	}
}

func TestMetricsCommand(t *testing.T) {
	b, out, c := obsConsole(t)
	feed(b, 10)
	if err := c.Execute("metrics board.filter"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "board.filter.accepted 10") {
		t.Fatalf("metrics output:\n%s", out.String())
	}
	out.Reset()
	if err := c.Execute("metrics no.such.prefix"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `no metrics match prefix "no.such.prefix"`) {
		t.Fatalf("empty-prefix output:\n%s", out.String())
	}
}

func TestWatchCommand(t *testing.T) {
	b, out, c := obsConsole(t)
	feed(b, 5)
	if err := c.Execute("watch board.filter 3 0"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Count(got, "--- sample") != 3 {
		t.Fatalf("watch output:\n%s", got)
	}
	if strings.Count(got, "board.filter.accepted 5") != 3 {
		t.Fatalf("watch values:\n%s", got)
	}
	for _, bad := range []string{"watch", "watch p x", "watch p 1 x"} {
		if err := c.Execute(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestSnoopTraceCommands(t *testing.T) {
	b, out, c := obsConsole(t)
	if err := c.Execute("trace on addr=0x0:64KB cpus=0,1"); err != nil {
		t.Fatal(err)
	}
	feed(b, 8) // addresses 0..7*128, all inside the window
	if err := c.Execute("trace status"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "snoop trace on") || !strings.Contains(out.String(), "8 captured") {
		t.Fatalf("status output:\n%s", out.String())
	}
	out.Reset()
	if err := c.Execute("trace off"); err != nil {
		t.Fatal(err)
	}
	feed(b, 4)
	if captured := b.Counters().Value("trace.captured"); captured != 8 {
		t.Fatalf("trace off left the tracer recording: %d captured, want 8", captured)
	}
	if !strings.Contains(out.String(), "snoop trace off: 8 captured") {
		t.Fatalf("off output:\n%s", out.String())
	}

	for _, bad := range []string{
		"trace on addr=5",         // missing :hi
		"trace on addr=9:5",       // empty range
		"trace on addr=x:y",       // unparsable
		"trace on cpus=0,999",     // cpu out of range
		"trace on nonsense",       // not key=value
		"trace on weird=1",        // unknown key
		"trace on addr=64KB:64KB", // empty range, size notation
	} {
		if err := c.Execute(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParseAddrForms(t *testing.T) {
	cases := map[string]uint64{
		"0x1000": 0x1000,
		"4096":   4096,
		"64KB":   64 * 1024,
		"1MB":    1 << 20,
	}
	for in, want := range cases {
		got, err := parseAddr(in)
		if err != nil || got != want {
			t.Errorf("parseAddr(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	if _, err := parseAddr("zzz"); err == nil {
		t.Error("parseAddr accepted garbage")
	}
}

// TestConsoleObsConcurrentReader is the console leg of the ISSUE 5 race
// stress, on the shape the service runs: `metrics` and `watch` readers
// snapshot a live registry while two independent boards, one writer
// goroutine each, keep publishing their mirrors. The console here
// deliberately has no quiesce-point publish (publish == nil), so reads
// go through Request/Snapshot like any live sampler.
func TestConsoleObsConcurrentReader(t *testing.T) {
	const perBoard = 30_000
	reg := obs.NewRegistry()
	boards := []*core.Board{testBoard(t), testBoard(t)}
	for i, b := range boards {
		if err := b.Observe(reg, nil, fmt.Sprintf("board%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	c := New(testBoard(t), io.Discard)
	c.SetObs(reg, nil)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, b := range boards {
		wg.Add(1)
		go func(b *core.Board) {
			defer wg.Done()
			cycle := uint64(0)
			for i := 0; i < perBoard; i++ {
				cycle += 48
				b.Snoop(&bus.Transaction{Cmd: bus.Read, Addr: uint64(i%512) * 128, Size: 128, SrcID: i % 2, Cycle: cycle})
			}
			b.Flush()
		}(b)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		if err := c.Execute("metrics board"); err != nil {
			t.Fatal(err)
		}
		if err := c.Execute("watch board0 2 0"); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			for _, b := range boards {
				b.PublishObs()
			}
			snap := reg.Snapshot()
			for i := range boards {
				if got := snap.Value(fmt.Sprintf("board%d.filter.accepted", i)); got != perBoard {
					t.Fatalf("board%d final accepted = %d, want %d", i, got, perBoard)
				}
			}
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
}
