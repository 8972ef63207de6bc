package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/tracefile"
)

// busCyclesPerTx spaces replayed transactions 48 bus cycles apart: 2
// cycles of address tenure out of 48 is roughly the 20 % utilisation of
// the 100 MHz 6xx bus the paper calls its operating point.
const busCyclesPerTx = 48

// busClock stamps trace records into bus transactions, step cycles
// apart. It is the driver's own record→transaction loop, kept in one
// place so its cost is charged to bench.rec_to_tx and never to the
// program.
type busClock struct {
	step       uint64
	cycle, seq uint64
}

// stamp fills dst (which must hold len(recs)) and returns it.
func (c *busClock) stamp(dst []bus.Transaction, recs []tracefile.Record) []bus.Transaction {
	dst = dst[:len(recs)]
	for i, rec := range recs {
		c.cycle += c.step
		c.seq++
		dst[i] = bus.Transaction{
			Seq: c.seq, Cycle: c.cycle, Cmd: rec.Cmd, Addr: rec.Addr, Size: 128, SrcID: int(rec.SrcID),
		}
	}
	return dst
}

// rateSlices is how many equal slices a measured run is cut into; every
// rate metric is read off the slice rates (see sustained).
const rateSlices = 40

// env is what one invocation fixes for every workload it runs.
type env struct {
	seed     uint64
	seconds  int    // nominal measured seconds; sizes the fixed amount of work
	quick    bool   // the 64 Ki-transaction miniature tier-1 runs
	procs    int    // GOMAXPROCS, and the number of load-driving clients
	benchDir string // the benchmark's own directory (expected/, ledger/, out/)
	outDir   string // where span files go: out/ under benchDir
	tmpDir   string // scratch under outDir, removed at exit
}

// simStats is what a workload's emulated system reports once flushed.
// Everything in it is simulated, so it repeats exactly for a seed.
type simStats struct {
	Digest    string            `json:"digest"` // SHA-256 over the full ordered counter bank
	MissRatio float64           `json:"miss_ratio"`
	Headline  map[string]uint64 `json:"headline"`
	attempted int64
	failed    int64
}

// runner is one named input set and the system it drives. The driver
// calls setup (timed as setup_s), warm (untimed, fills the emulated
// caches), run over op ranges (timed), then sim and validate; a traced
// invocation also calls layers for the isolated per-layer replays.
type runner interface {
	setup(tr *tracer) error
	warm() error
	// run executes measured ops [from, to) and returns their timings.
	// Calls are made in rising op order and resume where the last ended.
	run(from, to int, tr *tracer) ([]lane, error)
	sim() (simStats, error)
	// validate compares against the reference simulator; ok=false means
	// the workload has no reference ("unvalidated").
	validate() (refErr float64, ok bool, err error)
	// layers adds the per-layer metrics. spans are the traced run's.
	layers(tr *tracer, m metrics) error
	close()
}

// spec describes a workload to the driver and to BENCHMARK.json.
type spec struct {
	name string
	why  string
	// opsPerSecond sizes the fixed work: ops = opsPerSecond × seconds,
	// calibrated once on the reference box so a run lasts about
	// -seconds there. The quick miniature ignores it.
	opsPerSecond float64
	quickOps     int
	build        func(e *env) runner
}

var specs = []spec{
	{
		name:         "replay_l3_64m",
		why:          "the paper's 64 MB/4-way board on a Zipf trace: directory stays in host cache, so decode, filter, set scan, lookup and counters are the work; the number compared with 10 M tx/s",
		opsPerSecond: 160, quickOps: 64,
		build: func(e *env) runner {
			return newReplay(e, replayCfg{
				name: "replay_l3_64m", footprint: 1 * addr.GB, writeFrac: 0.3,
				nodes: 1, cpus: 8, cacheBytes: 64 * addr.MB, assoc: 4, proto: "mesi",
				obsProbe: true,
			})
		},
	},
	{
		name:         "replay_l3_2g",
		why:          "2 GB/8-way board, 128 MB directory, 16 GB footprint: nearly every transaction misses the host cache on the tag array, so prefetch and batching work shows here and not on replay_l3_64m",
		opsPerSecond: 56, quickOps: 64,
		build: func(e *env) runner {
			return newReplay(e, replayCfg{
				name: "replay_l3_2g", footprint: 16 * addr.GB, skew: 1.01, writeFrac: 0.3,
				nodes: 1, cpus: 8, cacheBytes: 2 * addr.GB, assoc: 8, proto: "mesi",
				checkpointProbe: true,
			})
		},
	},
	{
		name:         "replay_4node_wr",
		why:          "four 16 MB MOESI nodes, 60 % writes over a shared 32 MB footprint: remote snoops, invalidations and fills dominate, so a read-hit fast path that taxes the write/snoop path is caught",
		opsPerSecond: 40, quickOps: 64,
		build: func(e *env) runner {
			return newReplay(e, replayCfg{
				name: "replay_4node_wr", footprint: 32 * addr.MB, writeFrac: 0.6,
				nodes: 4, cpus: 8, cacheBytes: 16 * addr.MB, assoc: 8, proto: "moesi",
			})
		},
	},
	{
		name:         "host_tpcc_smp8",
		why:          "merged-stream 8-way host running TPC-C into a 256 MB board: generator, host L1/L2 and bus.Issue do the work and the board sees L2 misses one at a time, so board-only changes should not move it",
		opsPerSecond: 26, quickOps: 32,
		build: func(e *env) runner { return newHostWL(e, false) },
	},
	{
		name:         "host_wheel_64",
		why:          "64 per-CPU actors on the event wheel with a saturated bus: the same host/bus layers under discrete-event scheduling and real contention, so wheel work shows here and not on host_tpcc_smp8",
		opsPerSecond: 62, quickOps: 32,
		build: func(e *env) runner { return newHostWL(e, true) },
	},
	{
		name:         "service_ingest",
		why:          "in-process session service over loopback HTTP, one closed-loop client and 64 MB session per core posting 64 Ki-record bodies: HTTP read, v2 decode, queue and worker price it against replay_l3_64m",
		opsPerSecond: 75, quickOps: 32,
		build: func(e *env) runner { return newServiceWL(e) },
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// opsFor returns the fixed number of measured ops, in whole slices.
func (s *spec) opsFor(e *env) int {
	if e.quick {
		return roundUp(s.quickOps, rateSlices)
	}
	return roundUp(int(math.Round(s.opsPerSecond*float64(e.seconds))), rateSlices)
}

func roundUp(n, unit int) int {
	if n < unit {
		return unit
	}
	return (n + unit - 1) / unit * unit
}

// digester folds "name=value" lines into the stats digest.
type digester struct {
	buf      []byte
	headline map[string]uint64
}

func newDigester() *digester { return &digester{headline: map[string]uint64{}} }

func (d *digester) add(name string, v uint64) {
	d.buf = fmt.Appendf(d.buf, "%s=%d\n", name, v)
}

// keep also records the value among the headline counters the expected
// file shows a reader (the digest alone says only "something changed").
func (d *digester) keep(name string, v uint64) { d.headline[name] = v }

func (d *digester) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:])
}

func (e *env) tmpFile(name string) string { return filepath.Join(e.tmpDir, name) }
