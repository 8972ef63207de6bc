package memories

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memories/internal/addr"
	"memories/internal/cache"
	"memories/internal/core"
	"memories/internal/host"
	"memories/internal/obs"
)

// tapHost is the paper's 8-way host with caches small enough that most
// references reach the bus, so a run of n references hands the board
// about n transactions and the chunk sizes below straddle batch edges.
func tapHost() HostConfig {
	cfg := DefaultHostConfig()
	cfg.L1Bytes = 1 * addr.KB
	cfg.L2Bytes = 16 * addr.KB
	return cfg
}

func tapGen() Generator { return NewTPCC(ScaledTPCCConfig(4096)) }

// directTwin builds the session NewSession would, but with the board
// attached to the host's bus directly: every transaction reaches the
// board inside bus.Issue, on the host's goroutine.
func directTwin(t *testing.T, hcfg HostConfig, bcfg BoardConfig, gen Generator) *Session {
	t.Helper()
	b, err := core.NewBoard(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := host.New(hcfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	h.Bus().Attach(b)
	return &Session{Host: h, Board: b}
}

// tapConfigs are the board configurations the tap must carry unchanged:
// a four-node MOESI board whose interventions cross nodes, the
// multiple-configuration mode's four groups, ECC with background scrub,
// the miss-ratio profile, and a board whose tracer ring overflows (every
// board traces; see tapDepth).
func tapConfigs() map[string]BoardConfig {
	moesi := MOESI()
	var four []NodeConfig
	for i := 0; i < 4; i++ {
		four = append(four, NodeConfig{
			CPUs:     []int{2 * i, 2*i + 1},
			Geometry: MustGeometry(2*MB, 128, 4),
			Policy:   cache.LRU,
			Protocol: moesi,
		})
	}
	scrub := SingleL3Board(4*MB, 4, 128)
	scrub.ECC = true
	scrub.ScrubIntervalCycles = 20_000
	profile := SingleL3Board(4*MB, 4, 128)
	profile.ProfileBucketCycles = 100_000
	return map[string]BoardConfig{
		"moesi-4node": {Nodes: four},
		"multiconfig": MultiConfigBoard(core.CPURange(8), 128, 4, 1*MB, 2*MB, 4*MB, 8*MB),
		"ecc-scrub":   scrub,
		"profile":     profile,
		"trace":       SingleL3Board(4*MB, 4, 128),
	}
}

// tapDepth is the tracer depth tapObs gives a configuration: deep enough
// never to drop, but for "trace", whose ring overflows in the longest run.
func tapDepth(name string) int {
	if name == "trace" {
		return 1 << 12
	}
	return 1 << 18
}

// tapObs attaches the session's board to its own registry and an enabled
// tracer of the given depth, draining one line per record into the
// returned buffer.
func tapObs(t *testing.T, s *Session, depth int) (*obs.Registry, *bytes.Buffer) {
	t.Helper()
	reg, sink := obs.NewRegistry(), &bytes.Buffer{}
	if err := s.Board.Observe(reg, func(ev obs.Event) { fmt.Fprintf(sink, "%+v\n", ev) }, "board", depth); err != nil {
		t.Fatal(err)
	}
	s.Board.Tracer().Enable(obs.Filter{})
	return reg, sink
}

// checkpointBytes writes the session's checkpoint and returns its bytes.
func checkpointBytes(t *testing.T, s *Session) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.ckpt")
	if err := s.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkSameBank requires two boards' ordered counter banks to hold the
// same names with the same values.
func checkSameBank(t *testing.T, label string, want, got *Board) {
	t.Helper()
	wn, wc := want.Counters().Ordered()
	gn, gc := got.Counters().Ordered()
	if !reflect.DeepEqual(wn, gn) {
		t.Fatalf("%s: counter names differ:\ndirect %v\ntap    %v", label, wn, gn)
	}
	for i := range wc {
		if wc[i].Value() != gc[i].Value() {
			t.Fatalf("%s: counter %s = %d, direct %d", label, gn[i], gc[i].Value(), wc[i].Value())
		}
	}
}

// TestSessionTapMatchesDirectAttach: a session, whose board rides a tap
// and works beside the host during Run, ends every Run exactly where a
// twin whose board sits inside bus.Issue ends — the whole ordered
// counter bank (trace.captured and trace.dropped included), the tracer's
// records in order and the registry's final snapshot, and at the end the
// checkpoint bytes — for runs of 1, 4095, 4096, 4097 and 100 000
// references under every board feature the tap carries.
func TestSessionTapMatchesDirectAttach(t *testing.T) {
	for name, bcfg := range tapConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, err := NewSession(tapHost(), bcfg, tapGen())
			if err != nil {
				t.Fatal(err)
			}
			if s.tap == nil {
				t.Fatal("NewSession attached the board directly")
			}
			twin := directTwin(t, tapHost(), bcfg, tapGen())
			reg, sink := tapObs(t, s, tapDepth(name))
			twinReg, twinSink := tapObs(t, twin, tapDepth(name))
			traced := uint64(0)
			for _, n := range []uint64{1, 4095, 4096, 4097, 100_000} {
				label := fmt.Sprintf("%s after Run(%d)", name, n)
				if got, want := s.Run(n), twin.Run(n); got != want || got != n {
					t.Fatalf("%s: ran %d, direct %d", label, got, want)
				}
				checkSameBank(t, label, twin.Board, s.Board)
				s.Board.Tracer().Drain()
				twin.Board.Tracer().Drain()
				if !bytes.Equal(sink.Bytes(), twinSink.Bytes()) {
					t.Fatalf("%s: tracer records differ (%d bytes, direct %d)", label, sink.Len(), twinSink.Len())
				}
				traced += uint64(bytes.Count(sink.Bytes(), []byte("\n")))
				sink.Reset()
				twinSink.Reset()
				if got, want := reg.Snapshot(), twinReg.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: obs snapshot differs:\ntap    %+v\ndirect %+v", label, got, want)
				}
			}
			if !bytes.Equal(checkpointBytes(t, s), checkpointBytes(t, twin)) {
				t.Fatalf("%s: checkpoint bytes differ", name)
			}
			c := s.Board.Counters()
			if c.Value("filter.accepted") < 100_000 || traced != c.Value("trace.captured") ||
				traced+c.Value("trace.dropped") != c.Value("filter.accepted") || (c.Value("trace.dropped") > 0) != (name == "trace") {
				t.Fatalf("%s: the board accepted %d transactions, the tracer stored %d and dropped %d, and %d reached the sink",
					name, c.Value("filter.accepted"), c.Value("trace.captured"), c.Value("trace.dropped"), traced)
			}
		})
	}
}

// TestSessionHostStepsSynchronous: outside Run the tap hands every
// transaction to the board at once, so a caller who drives the host
// directly and reads the board sees what a directly attached board
// shows — checkpoint bytes included — before, between and after Runs.
func TestSessionHostStepsSynchronous(t *testing.T) {
	bcfg := SingleL3Board(4*MB, 4, 128)
	s, err := NewSession(tapHost(), bcfg, tapGen())
	if err != nil {
		t.Fatal(err)
	}
	twin := directTwin(t, tapHost(), bcfg, tapGen())
	for i, step := range []func(*Session){
		func(s *Session) { s.Host.Run(20_000) },
		func(s *Session) { s.Run(30_000) },
		func(s *Session) {
			for range 5000 {
				s.Host.Step()
			}
		},
	} {
		step(s)
		step(twin)
		s.Board.Flush()
		twin.Board.Flush()
		if !bytes.Equal(checkpointBytes(t, s), checkpointBytes(t, twin)) {
			t.Fatalf("step %d: checkpoint bytes differ from the directly attached board's", i)
		}
	}
	if s.Board.Node(0).Refs() == 0 {
		t.Fatal("the board saw no traffic")
	}
}

// TestSessionRunAllocsFlat: the tap's batch pool is made once, so what
// Session.Run allocates does not grow with the references it runs.
func TestSessionRunAllocsFlat(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, err := NewSession(DefaultHostConfig(), SingleL3Board(16*MB, 8, 128), NewTPCC(ScaledTPCCConfig(2048)))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1 << 20)
	small := testing.AllocsPerRun(3, func() { s.Run(64 << 10) })
	large := testing.AllocsPerRun(3, func() { s.Run(1 << 20) })
	if large > small {
		t.Fatalf("Session.Run allocates %.0f times per 1 Mi references, %.0f per 64 Ki", large, small)
	}
}

// TestSessionRetryBoardPostsRetries: a RetryOnOverflow board is attached
// directly, so its retries still reach the host inside each
// transaction's snoop window and the host re-issues.
func TestSessionRetryBoardPostsRetries(t *testing.T) {
	bcfg := SingleL3Board(4*MB, 4, 128)
	bcfg.RetryOnOverflow = true
	bcfg.BufferDepth = 1
	s, err := NewSession(tapHost(), bcfg, tapGen())
	if err != nil {
		t.Fatal(err)
	}
	if s.tap != nil {
		t.Fatal("NewSession put a RetryOnOverflow board on a tap")
	}
	s.Run(50_000)
	if s.Board.Counters().Value("buffer.retry-posted") == 0 || s.Host.Stats().Retried == 0 {
		t.Fatalf("no retries: board posted %d, host re-issued %d",
			s.Board.Counters().Value("buffer.retry-posted"), s.Host.Stats().Retried)
	}
}
