// Package memories is a software reproduction of MemorIES, IBM Research's
// Memory Instrumentation and Emulation System (Nanda et al., ASPLOS 2000):
// a programmable, real-time hardware tool that plugs into an SMP memory
// bus and passively emulates large L2/L3 caches, cache protocols, and
// NUMA directories while the machine runs production workloads.
//
// The package is a facade over the internal subsystems:
//
//   - a modeled S7A-class SMP host (processors, private L1/L2 caches,
//     snooping 6xx bus) that produces the bus transaction stream;
//   - the MemorIES board itself (address filter, lock-step node
//     controllers, SDRAM-paced tag directories, programmable protocol
//     tables, 40-bit counter bank, trace capture);
//   - synthetic workload generators standing in for the paper's TPC-C,
//     TPC-H, and full-size SPLASH2 runs.
//
// The common entry point is a Session, which wires a workload, a host,
// and a board together:
//
//	gen := memories.NewTPCC(memories.ScaledTPCCConfig(2048))
//	s, err := memories.NewSession(memories.DefaultHostConfig(),
//	    memories.SingleL3Board(256*memories.MB, 8, 128), gen)
//	if err != nil { ... }
//	s.Run(10_000_000)
//	fmt.Println(s.Board.Node(0).MissRatio())
//
// Experiment regeneration (every table and figure in the paper) lives in
// cmd/experiments; trace tooling in cmd/tracegen and cmd/tracesim; the
// interactive console in cmd/console.
package memories

import (
	"errors"
	"fmt"
	"io"
	"time"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/coherence"
	"memories/internal/console"
	"memories/internal/core"
	"memories/internal/faults"
	"memories/internal/host"
	"memories/internal/obs"
	"memories/internal/workload"
	"memories/internal/workload/splash"
	"memories/protocols"
)

// Size units.
const (
	KB = addr.KB
	MB = addr.MB
	GB = addr.GB
)

// Re-exported configuration and result types. The aliases keep the public
// API surface in one import while the implementation stays split into
// subsystem packages.
type (
	// HostConfig describes the modeled SMP host machine.
	HostConfig = host.Config
	// Host is the modeled SMP.
	Host = host.Host
	// HostStats aggregates host activity.
	HostStats = host.Stats
	// BoardConfig describes the MemorIES board.
	BoardConfig = core.Config
	// NodeConfig describes one emulated shared-cache node.
	NodeConfig = core.NodeConfig
	// Board is the MemorIES emulator.
	Board = core.Board
	// NodeView is a read-only summary of one emulated node.
	NodeView = core.NodeView
	// Geometry describes a cache layout.
	Geometry = addr.Geometry
	// Policy selects a replacement algorithm.
	Policy = cache.Policy
	// ProtocolTable is a programmable coherence lookup table.
	ProtocolTable = coherence.Table
	// Generator produces workload reference streams.
	Generator = workload.Generator
	// Ref is a single processor memory reference.
	Ref = workload.Ref
	// TPCCConfig parameterizes the OLTP workload model.
	TPCCConfig = workload.TPCCConfig
	// TPCHConfig parameterizes the DSS workload model.
	TPCHConfig = workload.TPCHConfig
)

// Replacement policies.
const (
	LRU    = cache.LRU
	PLRU   = cache.PLRU
	FIFO   = cache.FIFO
	Random = cache.Random
)

// NewGeometry validates and derives a cache geometry.
func NewGeometry(sizeBytes, lineSize int64, assoc int) (Geometry, error) {
	return addr.NewGeometry(sizeBytes, lineSize, assoc)
}

// MustGeometry is NewGeometry for known-good parameters.
func MustGeometry(sizeBytes, lineSize int64, assoc int) Geometry {
	return addr.MustGeometry(sizeBytes, lineSize, assoc)
}

// ParseSize parses "128B", "64KB", "8MB", "1GB" style sizes.
func ParseSize(s string) (int64, error) { return addr.ParseSize(s) }

// FormatSize renders a byte count with binary units.
func FormatSize(b int64) string { return addr.FormatSize(b) }

// MESI, MSI, and MOESI load the shipped protocol tables (protocols/*.map).
func MESI() *ProtocolTable  { return protocols.MustLoad("mesi") }
func MSI() *ProtocolTable   { return protocols.MustLoad("msi") }
func MOESI() *ProtocolTable { return protocols.MustLoad("moesi") }

// ParseProtocol puts protocol map-file text (§3.2's "table lookup map
// file") through the load-time gauntlet: parse, compile, model check.
// Rejections are *coherence.CompileError or *coherence.CheckError.
func ParseProtocol(text string) (*ProtocolTable, error) { return protocols.Verify(text) }

// LoadProtocolFile is ParseProtocol for a map file on disk (see the
// protocols/ directory for the shipped tables).
func LoadProtocolFile(path string) (*ProtocolTable, error) { return protocols.LoadFile(path) }

// DefaultHostConfig returns the paper's host: an 8-way 262MHz S7A with
// 8MB 4-way L2 caches on a 100MHz 6xx bus.
func DefaultHostConfig() HostConfig { return host.DefaultConfig() }

// Workload constructors.

// DefaultTPCCConfig returns the paper-scale (150GB) OLTP model.
func DefaultTPCCConfig() TPCCConfig { return workload.DefaultTPCCConfig() }

// ScaledTPCCConfig shrinks the OLTP footprint by factor.
func ScaledTPCCConfig(factor int64) TPCCConfig { return workload.ScaledTPCCConfig(factor) }

// NewTPCC builds the OLTP generator.
func NewTPCC(cfg TPCCConfig) Generator { return workload.NewTPCC(cfg) }

// DefaultTPCHConfig returns the paper-scale (100GB) DSS model.
func DefaultTPCHConfig() TPCHConfig { return workload.DefaultTPCHConfig() }

// ScaledTPCHConfig shrinks the DSS footprint by factor.
func ScaledTPCHConfig(factor int64) TPCHConfig { return workload.ScaledTPCHConfig(factor) }

// NewTPCH builds the DSS generator.
func NewTPCH(cfg TPCHConfig) Generator { return workload.NewTPCH(cfg) }

// WebConfig parameterizes the web-server workload model.
type WebConfig = workload.WebConfig

// DefaultWebConfig returns the paper-era busy static web server (16GB of
// content).
func DefaultWebConfig() WebConfig { return workload.DefaultWebConfig() }

// ScaledWebConfig shrinks the web content store by factor.
func ScaledWebConfig(factor int64) WebConfig { return workload.ScaledWebConfig(factor) }

// NewWeb builds the web-server generator.
func NewWeb(cfg WebConfig) Generator { return workload.NewWeb(cfg) }

// SPLASH2 kernel names accepted by NewSplash.
func SplashKernels() []string { return splash.Names() }

// NewSplash builds a SPLASH2 kernel at the paper's full problem size
// ("paper"), the classic 1995 size ("classic"), or a miniature test size
// ("test"). It returns nil for unknown names.
func NewSplash(name, size string, ncpu int, seed uint64) Generator {
	var sz splash.Size
	switch size {
	case "classic":
		sz = splash.SizeClassic
	case "test":
		sz = splash.SizeTest
	default:
		sz = splash.SizePaper
	}
	return splash.New(name, sz, ncpu, seed)
}

// Limit bounds a generator to n references. A failure g reports
// through an `Err() error` method still surfaces through the host's
// Err, not as the end of the stream.
func Limit(g Generator, n uint64) Generator { return workload.Limit(g, n) }

// NewUniform builds a uniformly random reference generator over the given
// footprint — the worst-case cache workload, useful for calibration.
func NewUniform(ncpu int, footprint int64, writeFraction float64, seed uint64) Generator {
	return workload.NewUniform(workload.UniformConfig{
		NumCPUs:       ncpu,
		FootprintByte: footprint,
		WriteFraction: writeFraction,
		Seed:          seed,
	})
}

// SingleL3Board configures the board as one emulated L3 shared by the
// host's first eight CPUs, running MESI with LRU replacement — the
// single-node logical target machine of Figure 3.
func SingleL3Board(sizeBytes int64, assoc int, lineBytes int64) BoardConfig {
	return BoardConfig{Nodes: []NodeConfig{{
		Name:     "a",
		CPUs:     core.CPURange(8),
		Geometry: addr.MustGeometry(sizeBytes, lineBytes, assoc),
		Policy:   cache.LRU,
		Protocol: protocols.MustLoad("mesi"),
	}}}
}

// MultiConfigBoard configures up to four alternative cache geometries for
// the same CPUs, each in its own snoop group — the multiple-configuration
// mode of §2.2 that evaluates several cache structures against one
// workload in a single run.
func MultiConfigBoard(cpus []int, lineBytes int64, assoc int, sizes ...int64) BoardConfig {
	mesi := protocols.MustLoad("mesi")
	var nodes []NodeConfig
	for i, size := range sizes {
		nodes = append(nodes, NodeConfig{
			Name:     string(rune('a' + i)),
			CPUs:     cpus,
			Geometry: addr.MustGeometry(size, lineBytes, assoc),
			Policy:   cache.LRU,
			Protocol: mesi,
			Group:    i,
		})
	}
	return BoardConfig{Nodes: nodes}
}

// Fault injection (DESIGN.md §4b): a deterministic injector at the
// bus→board boundary plus the board's own self-healing (SECDED ECC and
// background scrub on the SDRAM tag store).
type (
	// FaultConfig parameterizes the fault injector.
	FaultConfig = faults.Config
	// FaultInjector perturbs the snoop stream and tag store.
	FaultInjector = faults.Injector
	// DivergenceReport compares the board against its golden shadow.
	DivergenceReport = faults.DivergenceReport
)

// NewFaultSession builds a session whose bus stream passes through a
// fault injector before reaching the board. Enable bcfg.ECC (and
// bcfg.ScrubIntervalCycles) to let the board heal injected tag-store
// corruption; set fcfg.Shadow to track divergence from a golden model.
func NewFaultSession(hcfg HostConfig, bcfg BoardConfig, fcfg FaultConfig, gen Generator) (*Session, *FaultInjector, error) {
	b, err := core.NewBoard(bcfg)
	if err != nil {
		return nil, nil, err
	}
	inj, err := faults.New(b, fcfg)
	if err != nil {
		return nil, nil, err
	}
	h, err := host.New(hcfg, gen)
	if err != nil {
		return nil, nil, err
	}
	h.Bus().Attach(inj)
	return &Session{Host: h, Board: b, inj: inj}, inj, nil
}

// Session wires a workload, a modeled host, and a MemorIES board.
type Session struct {
	Host  *Host
	Board *Board
	obs   *ObsHandle
	inj   *FaultInjector // set by NewFaultSession; checkpointed with the session
	tap   *core.Tap      // nil when the board is attached directly
}

// NewSession builds the host and board and puts the board on the host's
// 6xx bus as a passive snooper. A board that cannot post retries rides a
// core.Tap, so that during Run it works beside the host on a goroutine
// of its own; a RetryOnOverflow board is attached directly, since its
// retries must reach the host in each transaction's snoop window.
func NewSession(hcfg HostConfig, bcfg BoardConfig, gen Generator) (*Session, error) {
	b, err := core.NewBoard(bcfg)
	if err != nil {
		return nil, err
	}
	h, err := host.New(hcfg, gen)
	if err != nil {
		return nil, err
	}
	s := &Session{Host: h, Board: b}
	if bcfg.RetryOnOverflow {
		h.Bus().Attach(b)
		return s, nil
	}
	if s.tap, err = core.NewTap(b); err != nil {
		return nil, err
	}
	h.Bus().Attach(s.tap)
	return s, nil
}

// Run processes up to n workload references and flushes the board's
// transaction buffers, returning how many references ran. The board's
// worker, if any, starts and ends within the call: when Run returns the
// board is quiescent, and host steps taken outside Run reach the board
// synchronously.
func (s *Session) Run(n uint64) uint64 {
	var ran uint64
	if s.tap != nil {
		s.tap.Run(func() { ran = s.Host.Run(n) })
	} else {
		ran = s.Host.Run(n)
	}
	s.Board.Flush()
	s.Board.PublishObs()
	return ran
}

// Console returns a console bound to the session's board, writing replies
// to w — the software equivalent of the paper's PC console. Its
// checkpoint and restore commands are Checkpoint and Restore, so a
// snapshot taken at the console is the session's. If EnableObs has run,
// the console's metrics/watch/trace-on commands are wired up.
func (s *Session) Console(w io.Writer) *console.Console {
	c := console.New(s.Board, w)
	c.SetCheckpoint(s.Checkpoint, s.Restore)
	if s.obs != nil {
		c.SetObs(s.obs.Registry, s.Board.PublishObs)
	}
	return c
}

// ObsHandle bundles a session's live-observability plumbing: the metrics
// registry the board's counters are mirrored into, the periodic sampler
// (which drains the board's snoop tracer, Session.Board.Tracer()), and the
// optional HTTP export endpoint.
type ObsHandle struct {
	Registry *obs.Registry
	Sampler  *obs.Sampler
	Server   *obs.Server
}

// Close stops the sampler (with a final trace drain and snapshot) and
// the HTTP endpoint. It returns the sampler's last JSONL write error,
// joined with the endpoint's close error: a non-nil result means the
// JSONL stream is missing at least one snapshot or the endpoint did not
// shut down cleanly.
func (h *ObsHandle) Close() error {
	h.Sampler.Stop()
	err := h.Sampler.Err()
	if h.Server != nil {
		err = errors.Join(err, h.Server.Close())
	}
	return err
}

// EnableObs attaches the session's board to a fresh metrics registry
// under the "board" prefix and builds the sampler/trace plumbing around
// it: httpAddr (e.g. ":9090") serves /metrics and /metrics.json (empty
// disables HTTP), jsonl receives one JSON snapshot line per interval
// (nil disables; a non-positive interval is the sampler's one second),
// and traceSink receives drained snoop-trace lines once tracing is
// turned on (nil discards them). The sampler, which is also the trace
// rings' one drainer, starts immediately; Close the handle when done.
func (s *Session) EnableObs(httpAddr string, interval time.Duration, jsonl, traceSink io.Writer) (*ObsHandle, error) {
	reg := obs.NewRegistry()
	sink := func(obs.Event) {}
	if traceSink != nil {
		sink = func(ev obs.Event) {
			fmt.Fprintf(traceSink, "trace board cycle=%d cmd=%s src=%d addr=%#x\n",
				ev.Cycle, bus.Command(ev.Cmd), ev.Src, ev.Addr)
		}
	}
	if err := s.Board.Observe(reg, sink, "board", 0); err != nil {
		return nil, err
	}
	h := &ObsHandle{
		Registry: reg,
		Sampler:  &obs.Sampler{Reg: reg, Interval: interval, JSONL: jsonl, Trace: s.Board.Tracer()},
	}
	if httpAddr != "" {
		srv, err := obs.Serve(httpAddr, reg)
		if err != nil {
			return nil, err
		}
		h.Server = srv
	}
	h.Sampler.Start()
	s.obs = h
	return h, nil
}
