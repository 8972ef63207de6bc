package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// stage is one line of a workload's ledger, in ns per transaction.
// Indented stages are parts of the stage above them and are not summed.
type stage struct {
	Name    string  `json:"name"`
	NsPerTx float64 `json:"ns_per_tx"`
	Note    string  `json:"note,omitempty"`
	part    bool
}

// Per-transaction stage costs the workloads leave for the ledger; like
// the keys in layers.go they are not metrics.
const (
	stageFlush    = "~flush_ns_per_tx"
	stageSnapshot = "~snapshot_ns_per_tx"
	stagePost     = "~post_ns_per_tx"
)

// ledgerFor lays a workload's stages beside its end-to-end cost: the
// stages, their sum, the end-to-end ns per transaction of the traced
// run, and the gap — time no stage accounts for, itself a number to
// watch.
func ledgerFor(workload string, m metrics, tracedRate float64, lanes int) []stage {
	if tracedRate <= 0 {
		return nil
	}
	endToEnd := float64(lanes) * 1e9 / tracedRate
	inner := []stage{
		{"  cache (replay)", m["cache.replay_ns_per_tx"], "", true},
		{"  sdram (replay)", m[stageSdram], "", true},
		{"  coherence (replay)", m[stageCoherence], "", true},
		{"  stats (replay)", m[stageStats], "", true},
		{"  core.self", m["core.self_ns_per_tx"], "filter, global events, node-controller glue, hand-off", true},
	}
	var st []stage
	gapNote := "end to end minus the stage sum"
	switch {
	case strings.HasPrefix(workload, "replay_"):
		st = append(st,
			stage{"tracefile.decode", m["tracefile.decode_ns_per_rec"], "ForEachBatchFile minus its emit callback", false},
			stage{"bench.rec_to_tx", m["bench.rec_to_tx_ns_per_tx"], "the driver's own loop", false},
			stage{"core.snoop_batch", m["core.snoop_batch_ns_per_tx"], "", false})
		st = append(st, inner...)
		st = append(st,
			stage{"core.flush", m[stageFlush], "once per pass", false},
			stage{"stats.snapshot", m[stageSnapshot], "Counters().Ordered(), once per pass", false})
	case strings.HasPrefix(workload, "host_"):
		perTx := 1 / m["host.tx_per_ref"]
		st = append(st,
			stage{"workload.gen", m["workload.gen_ns_per_ref"] * perTx, "generator alone, per board transaction", false},
			stage{"bus.issue", m["bus.issue_ns_per_tx"], "Bus.IssueAt with only the board attached", false},
			stage{"  core.snoop_single", m["core.snoop_single_ns_per_tx"], "Board.Snoop inside it, measured alone", true})
		st = append(st, inner...)
		gapNote = "host L1/L2 models, peer CPU snoops and the scheduler"
	default:
		st = append(st,
			stage{"service.post", m[stagePost], "client view: HTTP, body read, v2 decode, enqueue", false},
			stage{"  tracefile.decode", m["tracefile.decode_ns_per_rec"], "the server's reader on the same bodies, alone", true},
			stage{"core.snoop_batch", m["core.snoop_batch_ns_per_tx"], "the worker's board time, replayed alone", false})
		st = append(st, inner...)
		gapNote = "per session; queueing, polls, JSON, GC and core contention"
	}
	var sum float64
	for _, s := range st {
		if !s.part {
			sum += s.NsPerTx
		}
	}
	return append(st,
		stage{"stage sum", sum, "", false},
		stage{"end to end", endToEnd, "median traced chunk", false},
		stage{"gap", endToEnd - sum, gapNote, false})
}

// finite replaces what JSON cannot carry (a ratio over zero work).
func (m metrics) finite() {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0
		}
	}
}

// withoutStages drops the "~" helper keys once the ledger is built.
func (m metrics) withoutStages() {
	for k := range m {
		if strings.HasPrefix(k, "~") {
			delete(m, k)
		}
	}
}

// environment is what a ledger file records about where it was measured.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick,omitempty"`
}

func writeLedger(path string, e *env, results []*result) error {
	doc := struct {
		Environment environment `json:"environment"`
		RealTimeTxS float64     `json:"realtime_tx_per_s"`
		Results     []*result   `json:"results"`
	}{
		Environment: environment{
			Commit: gitCommit(), GoVersion: runtime.Version(), CPUModel: cpuModel(),
			NProc: runtime.NumCPU(), GOMAXPROCS: e.procs, Seed: e.seed, Seconds: e.seconds, Quick: e.quick,
		},
		RealTimeTxS: 10e6,
		Results:     results,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitCommit names the commit measured; a checkout without git history
// (the harness's) reads "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// expectation is bench/expected/<workload>-seed<n>[-quick].json: the
// simulated statistics a run of that seed and size must reproduce.
type expectation struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Ops      int    `json:"ops"`
	Quick    bool   `json:"quick,omitempty"`
	simStats
}

func expectedPath(e *env, workload string) string {
	name := fmt.Sprintf("%s-seed%d", workload, e.seed)
	if e.quick {
		name += "-quick"
	}
	return filepath.Join(e.benchDir, "expected", name+".json")
}

// checkExpected holds the run's digest against the committed one. A
// seed or run length nobody recorded is not an error: there the traced
// and untraced runs check each other.
func checkExpected(e *env, r *result) {
	path := expectedPath(e, r.Workload)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		r.note("expected", "expected: none recorded for seed %d (%s)", e.seed, path)
		return
	}
	var want expectation
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil {
		r.problem("cannot read %s: %v", path, err)
		return
	}
	if want.Ops != r.Ops {
		r.note("expected", "expected: %s is for %d ops, this run made %d; digest not compared", path, want.Ops, r.Ops)
		return
	}
	if want.Digest != r.Sim.Digest {
		r.problem("stats_digest %s, expected %s (%s); miss_ratio %.6g, expected %.6g",
			short(r.Sim.Digest), short(want.Digest), path, r.Sim.MissRatio, want.MissRatio)
		return
	}
	r.note("expected", "expected: digest matches %s", path)
}

func writeExpected(e *env, r *result) error {
	path := expectedPath(e, r.Workload)
	data, err := json.MarshalIndent(expectation{
		Workload: r.Workload, Seed: e.seed, Ops: r.Ops, Quick: e.quick, simStats: *r.Sim,
	}, "", "  ")
	if err != nil {
		return err
	}
	r.note("expected", "expected: wrote %s", path)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
