// Package experiments regenerates every table and figure of the paper's
// evaluation (§4-§5). Each experiment builds the workloads, hosts, and
// board configurations it needs, runs them, renders the same rows/series
// the paper reports, and then *checks the shape* of the result against
// the paper's qualitative claims — who wins, which way a curve bends,
// where a trend reverses. Absolute numbers are not expected to match (the
// substrate is a software model, not an S7A), and EXPERIMENTS.md records
// both sides.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"memories/internal/addr"
	"memories/internal/coherence"
	"memories/internal/obs"
	"memories/internal/stats"
	"memories/internal/workload/splash"
	"memories/protocols"
)

// Scale selects how much work an experiment does.
type Scale int

const (
	// ScaleCI is sized for automated tests: every experiment finishes in
	// seconds and every shape check must pass.
	ScaleCI Scale = iota
	// ScaleDefault is the cmd/experiments default: a few minutes total,
	// with clearer curves.
	ScaleDefault
	// ScalePaper uses the paper's own parameters (150GB databases, 10B
	// reference traces). Provided for completeness; a full run takes
	// many hours of simulation.
	ScalePaper
)

// ParseScale parses a scale name.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "ci":
		return ScaleCI, nil
	case "default", "":
		return ScaleDefault, nil
	case "paper":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q", s)
}

// Preset bundles every scale-dependent parameter.
type Preset struct {
	Scale Scale

	// Parallel bounds how many independent host runs — distinct
	// reference streams, each carrying every board that observes it — an
	// experiment executes concurrently. Every run builds its own host and
	// seeded generator, so results are bit-identical at any setting; 1 is
	// the serial golden run; RunWith sets 0 to GOMAXPROCS.
	Parallel int

	// Database workloads (Figures 8-10).
	TPCCFactor int64 // footprint divisor vs the paper's 150GB
	TPCHFactor int64 // footprint divisor vs the paper's 100GB
	// DBHostL2Bytes/Assoc configure the host L2 for the database runs;
	// small scales use the S7A's 1MB direct-mapped boot option so that
	// scaled-down L3 sweeps stay meaningful.
	DBHostL2Bytes int64
	DBHostL2Assoc int

	Fig8SizesMB []int64
	Fig8Long    uint64
	Fig8Short   uint64

	Fig9CacheMB int64
	Fig9Long    uint64
	Fig9Short   uint64

	Fig10Refs       uint64
	Fig10PeriodRefs uint64
	Fig10BurstRefs  uint64
	Fig10BucketCyc  uint64
	Fig10SmallMB    int64
	Fig10BigMB      int64

	// Baseline comparisons (Tables 3-4).
	Table3Sizes      []uint64
	Table4Ms         []int
	Table4SampleRefs uint64

	// SPLASH2 experiments (Tables 5-6, Figures 11-12).
	Table56Refs  uint64
	Fig11Size    splash.Size
	Fig11SizesKB []int64
	Fig11L1Bytes int64
	Fig11L2Bytes int64
	Fig11Refs    uint64
	Fig12Size    splash.Size
	Fig12Refs    uint64

	// Discrete-event host scaling (the hostscale experiment).
	HostScaleCPUs   []int  // machine sizes swept by hostscale
	HostScaleCycles uint64 // bus cycles emulated per sweep point

	// NumCPUs, when positive, overrides host.Config.NumCPUs in the
	// experiments built on dbHostConfig (fig8, fig9, fig10, faults,
	// protocolcompare), and narrows the hostscale sweep to that single
	// machine size. fig11, fig12, table5 and table6 keep the default
	// host. Set by cmd/experiments -cpus; 0 keeps each experiment's own
	// default.
	NumCPUs int

	// BigMem gates the fully allocated big-memory corners (the 8 GB
	// Table 2 directory: 64M packed slots, 512 MB resident). Off by
	// default; set by cmd/experiments -bigmem.
	BigMem bool

	// Protocol, when non-nil, is the coherence protocol every emulated
	// node the experiment builds runs under — the board's per-node
	// protocol loading (§3.2) surfaced as cmd/experiments -protocol.
	// nil keeps the MESI default every golden run was recorded with.
	// The table must already be verified (compiled and model-checked);
	// node construction compiles it again regardless.
	Protocol *coherence.Table

	// Obs, when non-nil, makes every board the experiment builds attach
	// its counter bank to this registry under "<ObsScope>.<run label>.*"
	// so a live sampler (cmd/experiments -obs) can watch the run; nil costs
	// the boards nothing. Re-running an ID against the same registry fails
	// with a duplicate-prefix error.
	Obs *obs.Registry
	// ObsScope is the registry name root for this experiment's boards
	// (normally the experiment ID). Set by RunWith.
	ObsScope string

	// Fault-injection experiment (not from the paper: it stresses the
	// reliability claims §3.3 only asserts).
	FaultsRefs        uint64    // workload references per run
	FaultsScrubCycles uint64    // background scrub interval, bus cycles
	FaultsRates       []float64 // tag-store bit-flip probabilities per bus op
	FaultsBurstProb   float64   // burst probability for the overflow run
}

// splashSeed seeds every SPLASH2 kernel the experiments run (Tables
// 4-6, Figures 11-12), at every scale.
const splashSeed = 3

// protocol returns the coherence protocol the experiment's emulated
// nodes run under: Preset.Protocol when set, the MESI default
// otherwise.
func (p Preset) protocol() *coherence.Table {
	if p.Protocol != nil {
		return p.Protocol
	}
	return protocols.MustLoad("mesi")
}

// PresetFor returns the parameters for a scale.
func PresetFor(s Scale) Preset {
	switch s {
	case ScalePaper:
		return Preset{
			Scale:      s,
			TPCCFactor: 1, TPCHFactor: 1,
			DBHostL2Bytes: 8 * addr.MB, DBHostL2Assoc: 4,
			Fig8SizesMB: []int64{16, 32, 64, 128, 256, 512, 1024},
			Fig8Long:    10_000_000_000, Fig8Short: 20_000_000,
			Fig9CacheMB: 64, Fig9Long: 10_000_000_000, Fig9Short: 45_000_000,
			Fig10Refs: 2_000_000_000, Fig10PeriodRefs: 50_000_000, Fig10BurstRefs: 2_000_000,
			Fig10BucketCyc: 500_000_000, Fig10SmallMB: 16, Fig10BigMB: 1024,
			Table3Sizes: []uint64{32_768, 262_144, 10_000_000, 10_000_000_000},
			Table4Ms:    []int{20, 22, 24, 26}, Table4SampleRefs: 2_000_000,
			Table56Refs:  50_000_000,
			Fig11Size:    splash.SizePaper,
			Fig11SizesKB: []int64{32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024},
			Fig11L1Bytes: 64 * addr.KB, Fig11L2Bytes: 8 * addr.MB, Fig11Refs: 50_000_000,
			Fig12Size: splash.SizePaper, Fig12Refs: 50_000_000,
			HostScaleCPUs: []int{8, 64, 256, 1024}, HostScaleCycles: 20_000_000,
			FaultsRefs: 20_000_000, FaultsScrubCycles: 100_000,
			FaultsRates:     []float64{1e-5, 1e-4, 1e-3, 1e-2},
			FaultsBurstProb: 1e-4,
		}
	case ScaleDefault:
		return Preset{
			Scale:      s,
			TPCCFactor: 2048, TPCHFactor: 1024,
			DBHostL2Bytes: 1 * addr.MB, DBHostL2Assoc: 1,
			Fig8SizesMB: []int64{2, 4, 8, 16, 32},
			Fig8Long:    12_000_000, Fig8Short: 250_000,
			Fig9CacheMB: 4, Fig9Long: 6_000_000, Fig9Short: 250_000,
			Fig10Refs: 8_000_000, Fig10PeriodRefs: 500_000, Fig10BurstRefs: 50_000,
			Fig10BucketCyc: 2_500_000, Fig10SmallMB: 8, Fig10BigMB: 64,
			Table3Sizes: []uint64{32_768, 262_144, 2_000_000, 10_000_000},
			Table4Ms:    []int{14, 16, 18, 20}, Table4SampleRefs: 400_000,
			Table56Refs:  3_000_000,
			Fig11Size:    splash.SizeClassic,
			Fig11SizesKB: []int64{512, 1024, 2048, 4096},
			Fig11L1Bytes: 16 * addr.KB, Fig11L2Bytes: 256 * addr.KB, Fig11Refs: 4_000_000,
			Fig12Size: splash.SizeClassic, Fig12Refs: 4_000_000,
			HostScaleCPUs: []int{8, 64, 256}, HostScaleCycles: 2_000_000,
			FaultsRefs: 1_500_000, FaultsScrubCycles: 50_000,
			FaultsRates:     []float64{1e-4, 1e-3, 1e-2},
			FaultsBurstProb: 1e-3,
		}
	default: // ScaleCI
		return Preset{
			Scale:      s,
			TPCCFactor: 2048, TPCHFactor: 1024,
			DBHostL2Bytes: 1 * addr.MB, DBHostL2Assoc: 1,
			Fig8SizesMB: []int64{2, 4, 8, 16},
			Fig8Long:    6_000_000, Fig8Short: 150_000,
			Fig9CacheMB: 4, Fig9Long: 3_000_000, Fig9Short: 150_000,
			Fig10Refs: 4_000_000, Fig10PeriodRefs: 400_000, Fig10BurstRefs: 40_000,
			Fig10BucketCyc: 2_000_000, Fig10SmallMB: 8, Fig10BigMB: 64,
			Table3Sizes: []uint64{32_768, 262_144, 2_000_000},
			Table4Ms:    []int{14, 16, 18}, Table4SampleRefs: 150_000,
			Table56Refs:  2_000_000,
			Fig11Size:    splash.SizeClassic,
			Fig11SizesKB: []int64{512, 1024, 2048, 4096},
			Fig11L1Bytes: 16 * addr.KB, Fig11L2Bytes: 256 * addr.KB, Fig11Refs: 2_000_000,
			Fig12Size: splash.SizeClassic, Fig12Refs: 2_000_000,
			HostScaleCPUs: []int{8, 64, 256}, HostScaleCycles: 400_000,
			FaultsRefs: 400_000, FaultsScrubCycles: 25_000,
			FaultsRates:     []float64{1e-3, 1e-2},
			FaultsBurstProb: 2e-3,
		}
	}
}

// Result is one experiment's regenerated output.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
}

// String renders the result for the CLI.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// runner regenerates one table/figure and validates its shape.
type runner struct {
	title string
	run   func(Preset) (*Result, error)
}

var registry = map[string]runner{
	"table1":    {"Simulated vs actual cache sizes in previous studies", runTable1},
	"table2":    {"Cache emulation parameter ranges (executable spec)", runTable2},
	"fig1":      {"System cache size ranges, current and projected", runFig1},
	"table3":    {"Execution time: trace-driven C simulator vs MemorIES", runTable3},
	"table4":    {"Execution time: Augmint vs MemorIES (FFT)", runTable4},
	"fig8":      {"L3 miss ratio vs cache size for short and long traces", runFig8},
	"fig9":      {"L3 miss ratio vs processors per L3, short vs long traces", runFig9},
	"fig10":     {"TPC-C miss-ratio profile with OS journaling spikes", runFig10},
	"table5":    {"SPLASH2 application characteristics", runTable5},
	"table6":    {"SPLASH2 miss rates: scaled vs full problem sizes", runTable6},
	"fig11":     {"L3 miss ratio vs L3 size for SPLASH2 applications", runFig11},
	"fig12":     {"Where an L2 miss is satisfied (FFT, Ocean, FMM)", runFig12},
	"faults":    {"Fault injection: tag-store soft errors, scrub, and forced overflow retries", runFaults},
	"hostscale": {"Event-wheel host scaling: dispatched events vs lock-step polls", runHostScale},

	"protocolcompare": {"Coherence traffic under MSI vs MESI vs MOESI vs write-once (TPC-C)", runProtocolCompare},
}

// IDs returns the experiment identifiers in a stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns the registered title for an experiment ID.
func Title(id string) string { return registry[id].title }

// RunWith regenerates one experiment with the parameters in p, which
// callers take from PresetFor and adjust. RunWith sets p.ObsScope to the
// experiment ID and a non-positive p.Parallel to GOMAXPROCS. The
// returned error is non-nil if the experiment could not run or its
// result violates the paper's qualitative shape.
func RunWith(id string, p Preset) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	if p.Parallel <= 0 {
		p.Parallel = runtime.GOMAXPROCS(0)
	}
	p.ObsScope = id
	res, err := r.run(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	res.ID = id
	res.Title = r.title
	return res, nil
}
