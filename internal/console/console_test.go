package console

import (
	"bytes"
	"strings"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/coherence"
	"memories/internal/core"
	"memories/protocols"
)

func testBoard(t *testing.T) *core.Board {
	t.Helper()
	return core.MustNewBoard(core.Config{
		Nodes: []core.NodeConfig{{
			Name:     "a",
			CPUs:     []int{0, 1},
			Geometry: addr.MustGeometry(64*addr.KB, 128, 4),
			Policy:   cache.LRU,
			Protocol: protocols.MustLoad("mesi"),
		}},
		ProfileBucketCycles: 1000,
	})
}

func run(t *testing.T, b *core.Board, cmds ...string) string {
	t.Helper()
	var out bytes.Buffer
	c := New(b, &out)
	if err := c.Run(strings.NewReader(strings.Join(cmds, "\n"))); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func feed(b *core.Board, n int) {
	cycle := uint64(0)
	for i := 0; i < n; i++ {
		cycle += 100
		b.Snoop(&bus.Transaction{Cmd: bus.Read, Addr: uint64(i%8) * 128, Size: 128, SrcID: i % 2, Cycle: cycle})
	}
	b.Flush()
}

func TestHelpAndVersion(t *testing.T) {
	out := run(t, testBoard(t), "help", "version")
	if !strings.Contains(out, "reprogram") || !strings.Contains(out, "MemorIES console") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestNodesAndNodeDetail(t *testing.T) {
	b := testBoard(t)
	feed(b, 100)
	out := run(t, b, "nodes", "node 0")
	if !strings.Contains(out, "64KB 4-way") {
		t.Fatalf("missing geometry:\n%s", out)
	}
	if !strings.Contains(out, "miss ratio") {
		t.Fatalf("missing miss ratio:\n%s", out)
	}
	if !strings.Contains(out, "satisfied") {
		t.Fatalf("missing breakdown:\n%s", out)
	}
}

func TestStatsDump(t *testing.T) {
	b := testBoard(t)
	feed(b, 10)
	out := run(t, b, "stats nodea.read")
	if !strings.Contains(out, "nodea.read.hit") || !strings.Contains(out, "nodea.read.miss") {
		t.Fatalf("stats dump:\n%s", out)
	}
	if strings.Contains(out, "filter.") {
		t.Fatal("prefix filter leaked")
	}
}

func TestReprogramCommand(t *testing.T) {
	b := testBoard(t)
	out := run(t, b, "reprogram 0 size=128KB assoc=8 policy=plru")
	if !strings.Contains(out, "128KB 8-way") {
		t.Fatalf("reprogram output:\n%s", out)
	}
	if got := b.Node(0).Geometry; got != "128KB 8-way, 128B lines" {
		t.Fatalf("board geometry = %q", got)
	}
}

func TestReprogramErrors(t *testing.T) {
	b := testBoard(t)
	out := run(t, b,
		"reprogram 0 size=100", // not pow2
		"reprogram 0 nonsense", // not k=v
		"reprogram 0 weird=1",  // unknown key
		"reprogram 9 size=1MB", // bad index
	)
	if got := strings.Count(out, "error:"); got != 4 {
		t.Fatalf("want 4 errors, output:\n%s", out)
	}
}

// TestRejectedReprogramKeepsTraffic drives core's
// TestRejectedReprogramLeavesNodeIntact through the console: node a asks
// for node b's CPUs, is refused, and still sees CPU 0.
func TestRejectedReprogramKeepsTraffic(t *testing.T) {
	mk := func(name string, cpus ...int) core.NodeConfig {
		return core.NodeConfig{
			Name:     name,
			CPUs:     cpus,
			Geometry: addr.MustGeometry(64*addr.KB, 128, 4),
			Policy:   cache.LRU,
			Protocol: protocols.MustLoad("mesi"),
		}
	}
	b := core.MustNewBoard(core.Config{Nodes: []core.NodeConfig{mk("a", 0, 1), mk("b", 2, 3)}})
	out := run(t, b, "reprogram 0 cpus=2,3")
	if !strings.Contains(out, "error:") || !strings.Contains(out, "already owned") {
		t.Fatalf("reprogram onto node b's CPUs:\n%s", out)
	}
	feed(b, 4) // CPUs 0 and 1
	if got := b.Counters().Value("filter.unassigned"); got != 0 {
		t.Fatalf("filter.unassigned = %d after a rejected reprogram, want 0", got)
	}
	if got := b.Node(0).Refs(); got != 4 {
		t.Fatalf("node a saw %d references, want 4", got)
	}
}

func TestReprogramAllKeys(t *testing.T) {
	b := testBoard(t)
	out := run(t, b, "reprogram 0 size=256KB line=256 assoc=2 policy=fifo group=3 cpus=0,1,3 protocol=msi")
	if !strings.Contains(out, "256KB 2-way, 256B lines") {
		t.Fatalf("reprogram output:\n%s", out)
	}
	v := b.Node(0)
	if v.Protocol != "msi" {
		t.Fatalf("protocol = %q", v.Protocol)
	}
	cfg := b.Config().Nodes[0]
	if cfg.Group != 3 || len(cfg.CPUs) != 3 || cfg.CPUs[2] != 3 {
		t.Fatalf("config = %+v", cfg)
	}
	if cfg.Policy.String() != "fifo" {
		t.Fatalf("policy = %v", cfg.Policy)
	}
	// Error paths for each key.
	out = run(t, b,
		"reprogram 0 line=333",
		"reprogram 0 assoc=x",
		"reprogram 0 group=x",
		"reprogram 0 cpus=1,x",
		"reprogram 0 policy=mru",
		"reprogram 0 protocol=none",
	)
	if got := strings.Count(out, "error:"); got != 6 {
		t.Fatalf("want 6 errors:\n%s", out)
	}
}

func TestProfileDisabled(t *testing.T) {
	b := core.MustNewBoard(core.Config{Nodes: []core.NodeConfig{{
		Name:     "a",
		CPUs:     []int{0},
		Geometry: addr.MustGeometry(64*addr.KB, 128, 4),
		Policy:   cache.LRU,
		Protocol: protocols.MustLoad("mesi"),
	}}})
	out := run(t, b, "profile 0", "trace")
	if !strings.Contains(out, "error: profiling disabled") {
		t.Fatalf("profile:\n%s", out)
	}
	if !strings.Contains(out, "error: snoop tracing not attached") {
		t.Fatalf("trace:\n%s", out)
	}
}

func TestProtocolCommandUsage(t *testing.T) {
	b := testBoard(t)
	out := run(t, b, "protocol 0")
	if !strings.Contains(out, "error:") {
		t.Fatal("missing-arg protocol accepted")
	}
}

func TestProtocolCommand(t *testing.T) {
	b := testBoard(t)
	run(t, b, "protocol 0 moesi")
	if got := b.Node(0).Protocol; got != "moesi" {
		t.Fatalf("protocol = %q", got)
	}
	out := run(t, b, "protocol 0 bogus")
	if !strings.Contains(out, "error:") {
		t.Fatal("bad protocol accepted")
	}
}

func TestLoadMapInline(t *testing.T) {
	b := testBoard(t)
	mapText := coherence.MapFileString(protocols.MustLoad("msi"))
	cmds := append([]string{"loadmap 0"}, strings.Split(mapText, "\n")...)
	cmds = append(cmds, "end")
	out := run(t, b, cmds...)
	if !strings.Contains(out, "protocol loaded: msi") {
		t.Fatalf("loadmap output:\n%s", out)
	}
	if b.Node(0).Protocol != "msi" {
		t.Fatal("protocol not applied")
	}
}

func TestLoadMapRejectsInvalidTable(t *testing.T) {
	b := testBoard(t)
	out := run(t, b, "loadmap 0", "protocol broken", "read I * -> S allocate fetch-memory", "end")
	if !strings.Contains(out, "error:") {
		t.Fatal("incomplete protocol accepted")
	}
}

func TestOccupancyAndProfile(t *testing.T) {
	b := testBoard(t)
	feed(b, 200)
	out := run(t, b, "occupancy 0", "profile 0")
	if !strings.Contains(out, "valid lines") {
		t.Fatalf("occupancy:\n%s", out)
	}
	if !strings.Contains(out, "buckets") {
		t.Fatalf("profile:\n%s", out)
	}
}

// TestTraceStatus: `trace status` reads the board's trace.captured and
// trace.dropped counters, so a ring that fills shows what it lost; a bare
// `trace` is a usage error.
func TestTraceStatus(t *testing.T) {
	b, out, c := obsConsole(t)
	if err := c.Execute("trace on"); err != nil {
		t.Fatal(err)
	}
	feed(b, 300) // into a 256-record ring nobody drains
	if err := c.Execute("trace status"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "256 captured, 44 dropped, 0 drained") {
		t.Fatalf("trace status:\n%s", out.String())
	}
	if err := c.Execute("trace"); err == nil || !strings.Contains(err.Error(), "usage: trace on") {
		t.Fatalf("bare trace: err = %v, want the usage", err)
	}
}

func TestResetCounters(t *testing.T) {
	b := testBoard(t)
	feed(b, 10)
	run(t, b, "reset-counters")
	if b.Node(0).Refs() != 0 {
		t.Fatal("counters not cleared")
	}
}

func TestUnknownAndEmptyCommands(t *testing.T) {
	b := testBoard(t)
	out := run(t, b, "", "# comment", "frobnicate")
	if got := strings.Count(out, "error:"); got != 1 {
		t.Fatalf("want exactly 1 error, got output:\n%s", out)
	}
}

func TestQuitStopsRun(t *testing.T) {
	b := testBoard(t)
	var out bytes.Buffer
	c := New(b, &out)
	if err := c.Run(strings.NewReader("version\nquit\nversion\n")); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "MemorIES console"); got != 1 {
		t.Fatalf("quit did not stop the loop: %d replies", got)
	}
}

func TestDirstat(t *testing.T) {
	b := testBoard(t)
	feed(b, 200)
	out := run(t, b, "dirstat", "dirstat 0")
	if !strings.Contains(out, "bytes/slot") || !strings.Contains(out, "footprint") {
		t.Fatalf("dirstat:\n%s", out)
	}
	if !strings.Contains(out, "occupancy") {
		t.Fatalf("dirstat missing occupancy:\n%s", out)
	}
	// 64KB/128B/4-way LRU directory: 512 slots, exactly 8 bytes/slot.
	if !strings.Contains(out, "slots      512") || !strings.Contains(out, "bytes/slot 8.00") {
		t.Fatalf("dirstat geometry:\n%s", out)
	}
	// The O(1) resident count must agree with the scanning occupancy path.
	if got, want := b.DirectoryResident(0), b.DirectoryOccupancy(0); got != want {
		t.Fatalf("DirectoryResident %d != DirectoryOccupancy %d", got, want)
	}
	if err := run0(b, "dirstat 9"); err == nil {
		t.Fatal("dirstat with a bad node index did not fail")
	}
}

// run0 executes one command and returns its error (run fatals on error).
func run0(b *core.Board, cmd string) error {
	var out bytes.Buffer
	return New(b, &out).Execute(cmd)
}
