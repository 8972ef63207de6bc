package memories

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"memories/internal/coherence"
	"memories/internal/obs"
)

func TestSessionQuickstartFlow(t *testing.T) {
	gen := NewTPCC(ScaledTPCCConfig(4096))
	s, err := NewSession(DefaultHostConfig(), SingleL3Board(16*MB, 8, 128), gen)
	if err != nil {
		t.Fatal(err)
	}
	if ran := s.Run(100_000); ran != 100_000 {
		t.Fatalf("ran %d", ran)
	}
	v := s.Board.Node(0)
	if v.Refs() == 0 {
		t.Fatal("board saw no traffic")
	}
	if mr := v.MissRatio(); mr <= 0 || mr >= 1 {
		t.Fatalf("miss ratio %v", mr)
	}
	hs := s.Host.Stats()
	if hs.Refs != 100_000 || hs.Instructions == 0 {
		t.Fatalf("host stats %+v", hs)
	}
}

func TestFaultSessionHealsAndDetects(t *testing.T) {
	bcfg := SingleL3Board(1*MB, 4, 128)
	bcfg.ECC = true
	bcfg.ScrubIntervalCycles = 10_000
	s, inj, err := NewFaultSession(DefaultHostConfig(), bcfg,
		FaultConfig{Seed: 1, BitFlipProb: 0.02, Shadow: true},
		NewTPCC(ScaledTPCCConfig(4096)))
	if err != nil {
		t.Fatal(err)
	}
	if ran := s.Run(60_000); ran != 60_000 {
		t.Fatalf("ran %d", ran)
	}
	if s.Board.Counters().Value("faults.bitflips") == 0 {
		t.Fatal("injector inactive")
	}
	healed := s.Board.Counters().Value("nodea.ecc.corrected") +
		s.Board.Counters().Value("nodea.ecc.invalidated")
	if healed == 0 {
		t.Fatal("ECC scrub healed nothing")
	}
	if rep := inj.CheckDivergence(); float64(rep.Delta) > 0.001*float64(s.Board.Node(0).Refs()) {
		t.Fatalf("scrubbed board drifted: %+v", rep)
	}
}

func TestMultiConfigBoardGroups(t *testing.T) {
	cfg := MultiConfigBoard([]int{0, 1, 2, 3, 4, 5, 6, 7}, 128, 4, 4*MB, 16*MB, 64*MB)
	if len(cfg.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(cfg.Nodes))
	}
	groups := map[int]bool{}
	for _, n := range cfg.Nodes {
		groups[n.Group] = true
	}
	if len(groups) != 3 {
		t.Fatal("multi-config nodes must be in distinct groups")
	}
	gen := NewTPCC(ScaledTPCCConfig(4096))
	s, err := NewSession(DefaultHostConfig(), cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(200_000)
	// Larger caches must not miss more.
	m0, m1, m2 := s.Board.Node(0).MissRatio(), s.Board.Node(1).MissRatio(), s.Board.Node(2).MissRatio()
	if m1 > m0*1.02 || m2 > m1*1.02 {
		t.Fatalf("miss ratios not ordered: %v %v %v", m0, m1, m2)
	}
}

func TestSessionConsole(t *testing.T) {
	gen := NewTPCC(ScaledTPCCConfig(4096))
	s, err := NewSession(DefaultHostConfig(), SingleL3Board(8*MB, 4, 128), gen)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(50_000)
	var out bytes.Buffer
	if err := s.Console(&out).Execute("nodes"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "8MB 4-way") {
		t.Fatalf("console output:\n%s", out.String())
	}
}

// failingWriter refuses every write, as a full disk does.
type failingWriter struct{}

var errDiskFull = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// A JSONL sink that fails loses snapshots; ObsHandle.Close must report
// that, not return nil over a truncated stream.
func TestObsCloseReportsJSONLWriteError(t *testing.T) {
	s, err := NewSession(DefaultHostConfig(), SingleL3Board(1*MB, 4, 128), NewTPCC(ScaledTPCCConfig(8192)))
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.EnableObs("", time.Hour, failingWriter{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1_000)
	if err := h.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close() = %v, want the sampler's %v", err, errDiskFull)
	}
}

// TestObsTraceSingleDrainer: the snoop-trace ring is single-consumer, so
// a session's sampler must be its only drainer. With the producer running
// flat out, tracing on and a 1 ms sampler, every captured record reaches
// the sink exactly once and in order. A second consumer shows up as
// duplicated or reordered lines, and as a data race on the sink under
// -race.
func TestObsTraceSingleDrainer(t *testing.T) {
	s, err := NewSession(DefaultHostConfig(), SingleL3Board(8*MB, 4, 128), NewTPCC(ScaledTPCCConfig(8192)))
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	h, err := s.EnableObs("", time.Millisecond, nil, &sink)
	if err != nil {
		t.Fatal(err)
	}
	s.Board.Tracer().Enable(obs.Filter{})
	s.Run(150_000)
	s.Board.Flush()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	captured, dropped := s.Board.Counters().Value("trace.captured"), s.Board.Counters().Value("trace.dropped")
	if captured == 0 {
		t.Fatal("tracer captured nothing")
	}
	lines := strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n")
	if uint64(len(lines)) != captured {
		t.Fatalf("%d lines on the sink, tracer captured %d (dropped %d)", len(lines), captured, dropped)
	}
	var last uint64
	for i, line := range lines {
		var name, cmd string
		var cycle, addr uint64
		var src int
		if _, err := fmt.Sscanf(line, "trace %s cycle=%d cmd=%s src=%d addr=%v", &name, &cycle, &cmd, &src, &addr); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		if i > 0 && cycle <= last {
			t.Fatalf("line %d: cycle %d after %d: records duplicated or reordered", i, cycle, last)
		}
		last = cycle
	}
}

func TestProtocolHelpers(t *testing.T) {
	for name, tab := range map[string]*ProtocolTable{"mesi": MESI(), "msi": MSI(), "moesi": MOESI()} {
		if tab.Name != name {
			t.Fatalf("%s helper loaded protocol %q", name, tab.Name)
		}
	}
	_, err := ParseProtocol("protocol p\nread I * -> S allocate fetch-memory\n")
	var ce *coherence.CompileError
	if !errors.As(err, &ce) || ce.Kind != coherence.ErrMissingTransition {
		t.Fatalf("incomplete protocol: err = %v, want a missing-transition CompileError", err)
	}
}

func TestSizeHelpers(t *testing.T) {
	n, err := ParseSize("64MB")
	if err != nil || n != 64*MB {
		t.Fatalf("ParseSize: %v %v", n, err)
	}
	if FormatSize(8*GB) != "8GB" {
		t.Fatal("FormatSize")
	}
	if _, err := NewGeometry(100, 128, 1); err == nil {
		t.Fatal("NewGeometry accepted non-pow2")
	}
}

func TestWorkloadFacadeConstructors(t *testing.T) {
	gens := []Generator{
		NewTPCC(DefaultTPCCConfig()),
		NewTPCH(DefaultTPCHConfig()),
		NewWeb(DefaultWebConfig()),
		NewWeb(ScaledWebConfig(4096)),
		NewUniform(4, 8*MB, 0.5, 1),
	}
	for _, g := range gens {
		if g.Footprint() <= 0 {
			t.Errorf("%s: no footprint", g.Name())
		}
		ref, ok := g.Next()
		if !ok || ref.Instrs == 0 {
			t.Errorf("%s: bad first ref %+v", g.Name(), ref)
		}
	}
}

func TestLoadProtocolFile(t *testing.T) {
	tab, err := LoadProtocolFile("protocols/moesi.map")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name != "moesi" {
		t.Fatalf("Name = %q", tab.Name)
	}
	if _, err := LoadProtocolFile("protocols/does-not-exist.map"); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := t.TempDir() + "/bad.map"
	if err := os.WriteFile(bad, []byte("protocol p\nread I * -> S allocate fetch-memory\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProtocolFile(bad); err == nil {
		t.Fatal("incomplete protocol file accepted")
	}
}

func TestSplashConstructors(t *testing.T) {
	if len(SplashKernels()) != 5 {
		t.Fatal("kernel list")
	}
	for _, name := range SplashKernels() {
		g := NewSplash(name, "test", 4, 1)
		if g == nil {
			t.Fatalf("NewSplash(%q) = nil", name)
		}
	}
	if NewSplash("doom", "test", 4, 1) != nil {
		t.Fatal("unknown kernel accepted")
	}
	g := Limit(NewSplash("fft", "test", 4, 1), 10)
	count := 0
	for {
		if _, ok := g.Next(); !ok {
			break
		}
		count++
	}
	if count != 10 {
		t.Fatalf("Limit: %d", count)
	}
}
