// Command bench is the repository's benchmark: one command that says how
// far each path through the emulator is from the paper's real time (10 M
// bus transactions/s, core.PaperRealTimeModel) and where the time goes.
//
//	go run ./bench                      every workload, untraced then traced, with ledgers
//	go run ./bench -workload replay_l3_64m,service_ingest -seed 11
//	go run ./bench -selfcheck           the untraced set twice; fails if a metric moves past its bound
//	go run ./bench -ledger out.json     also write the full result as JSON
//	go run ./bench -update-expected     rewrite bench/expected/ from this run
//
// The harness that gates pull requests runs one workload per invocation
// with -workload, -seed, -seconds and -trace 0|1 and reads the last line
// of standard output, one JSON object (see BENCHMARK.json and README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"memories/internal/core"
)

// nominalSeconds is BENCHMARK.json's run_seconds: the run length the
// committed expected digests and op counts are for.
const nominalSeconds = 10

// An untraced invocation sets up at least minSetups times, and goes on
// — cheap set-ups are the noisy ones — until setupBudget is spent or
// maxSetups are done; the median is setup_s.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = time.Second
)

type options struct {
	workloads      string
	seed           uint64
	seconds        int
	trace          string // "", "0" or "1"
	quick          bool
	selfcheck      bool
	ledger         string
	updateExpected bool
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workloads, "workload", "", "comma-separated workloads to run (default: all six)")
	fs.Uint64Var(&o.seed, "seed", 7, "seed every input is generated from")
	fs.IntVar(&o.seconds, "seconds", nominalSeconds, "nominal measured seconds per run; sizes the fixed amount of work")
	fs.StringVar(&o.trace, "trace", "", "harness mode: 0 = untraced run only, 1 = traced run only; ends with the result as one JSON line")
	fs.BoolVar(&o.quick, "quick", false, "the 64 Ki-transaction miniature of every workload (what go test runs)")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced set twice and compare every end-to-end metric against its bound")
	fs.StringVar(&o.ledger, "ledger", "", "write the full result (environment, metrics, per-stage ledgers) to this JSON file")
	fs.BoolVar(&o.updateExpected, "update-expected", false, "rewrite bench/expected/<workload>-seed<n>.json from this run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := run(o, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func run(o options, out io.Writer) error {
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		return fmt.Errorf("-trace takes 0 or 1, not %q", o.trace)
	}
	if o.seconds < 1 || o.seconds > 60 {
		return fmt.Errorf("-seconds %d outside 1..60", o.seconds)
	}
	var chosen []*spec
	if o.workloads == "" {
		for i := range specs {
			chosen = append(chosen, &specs[i])
		}
	}
	for _, name := range strings.FieldsFunc(o.workloads, func(r rune) bool { return r == ',' }) {
		s := findSpec(name)
		if s == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		chosen = append(chosen, s)
	}
	if o.trace != "" && len(chosen) != 1 {
		return errors.New("-trace needs exactly one -workload")
	}

	procs, err := setProcs()
	if err != nil {
		return err
	}
	dir, err := benchDir()
	if err != nil {
		return err
	}
	e := &env{seed: o.seed, seconds: o.seconds, quick: o.quick, procs: procs, benchDir: dir}
	release, err := e.acquire()
	if err != nil {
		return err
	}
	defer release()

	fmt.Fprintf(out, "bench: seed %d, %d s nominal, GOMAXPROCS %d of %d CPUs, %s\n",
		e.seed, e.seconds, procs, runtime.NumCPU(), runtime.Version())

	if o.selfcheck {
		return selfcheck(e, chosen, out)
	}
	var results []*result
	var failed []string
	for _, s := range chosen {
		r := &result{Workload: s.name, Seed: e.seed, Ops: s.opsFor(e)}
		if o.trace != "1" {
			if err := untraced(e, s, r); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		if o.trace != "0" {
			if err := traced(e, s, r); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		if o.updateExpected {
			if err := writeExpected(e, r); err != nil {
				return err
			}
		} else {
			checkExpected(e, r)
		}
		r.print(out)
		if !r.correct() {
			failed = append(failed, s.name)
		}
		results = append(results, r)
	}
	if o.ledger != "" {
		if err := writeLedger(o.ledger, e, results); err != nil {
			return err
		}
	}
	if o.trace != "" {
		if err := results[0].contractLine(out, o.trace == "1"); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("incorrect results on %s", strings.Join(failed, ", "))
	}
	return nil
}

// setProcs fixes the load shape: GOMAXPROCS = min(nproc, 4), and no
// more load-driving goroutines than that. An explicit GOMAXPROCS above
// the CPU count would time the scheduler, not the program: refuse it.
func setProcs() (int, error) {
	n := runtime.NumCPU()
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		want, err := strconv.Atoi(v)
		if err != nil || want < 1 {
			return 0, fmt.Errorf("GOMAXPROCS=%q is not a positive number", v)
		}
		if want > n {
			return 0, fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; refusing to start", want, n)
		}
		return want, nil
	}
	p := min(n, 4)
	runtime.GOMAXPROCS(p)
	return p, nil
}

// benchDir finds the benchmark's own directory from the repository
// root (go run ./bench) or from inside it (go test).
func benchDir() (string, error) {
	for _, d := range []string{"bench", "."} {
		if st, err := os.Stat(filepath.Join(d, "expected")); err == nil && st.IsDir() {
			return d, nil
		}
	}
	return "", errors.New("cannot find bench/expected; run from the repository root")
}

// acquire takes bench/out/.lock so two runs never share the machine,
// and makes the scratch directory. A lock whose owner is gone is stale.
func (e *env) acquire() (release func(), err error) {
	e.outDir = filepath.Join(e.benchDir, "out")
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	lock := filepath.Join(e.outDir, ".lock")
	for attempt := 0; ; attempt++ {
		f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			break
		}
		if !errors.Is(err, os.ErrExist) || attempt > 0 {
			return nil, err
		}
		data, _ := os.ReadFile(lock)
		pid, _ := strconv.Atoi(strings.TrimSpace(string(data)))
		if pid > 0 && processAlive(pid) {
			return nil, fmt.Errorf("another benchmark run (pid %d) holds %s; refusing to start", pid, lock)
		}
		os.Remove(lock)
	}
	// Holding the lock, any scratch left here belongs to a run that died.
	stale, _ := filepath.Glob(filepath.Join(e.outDir, "tmp-*"))
	for _, dir := range stale {
		os.RemoveAll(dir)
	}
	e.tmpDir = filepath.Join(e.outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(e.tmpDir, 0o755); err != nil {
		os.Remove(lock)
		return nil, err
	}
	return func() {
		os.RemoveAll(e.tmpDir)
		os.Remove(lock)
	}, nil
}

// result is everything one workload produced in this invocation.
type result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Ops      int     `json:"ops"`
	EndToEnd metrics `json:"end_to_end,omitempty"`
	PerLayer metrics `json:"per_layer,omitempty"`
	// Notes hold what reads beside a metric: slice count and p10 slice
	// rate, sample counts, the percentile a "p95" really is.
	Notes  map[string]string `json:"notes,omitempty"`
	Sim    *simStats         `json:"simulated,omitempty"`
	RefErr *float64          `json:"ref_err"` // nil: unvalidated
	Ledger []stage           `json:"ledger,omitempty"`
	// Problems are correctness failures: digest mismatch, reference
	// error, refused operations. Any of them makes the run incorrect.
	Problems  []string `json:"problems,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
}

func (r *result) correct() bool { return len(r.Problems) == 0 }

func (r *result) note(key, format string, args ...any) {
	if r.Notes == nil {
		r.Notes = map[string]string{}
	}
	r.Notes[key] = fmt.Sprintf(format, args...)
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// observe records the simulated side of a run and checks it: a second
// run in the same invocation (traced after untraced) must digest the
// same, the reference must agree exactly, and nothing may be refused.
func (r *result) observe(st simStats, w runner) error {
	if r.Sim != nil && r.Sim.Digest != st.Digest {
		r.problem("traced run digests %s, untraced %s", short(st.Digest), short(r.Sim.Digest))
	}
	r.Sim = &st
	r.Attempted += st.attempted
	r.Failed += st.failed
	if st.failed > 0 {
		r.problem("%d of %d operations failed or were refused", st.failed, st.attempted)
	}
	refErr, ok, err := w.validate()
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	if ok {
		r.RefErr = &refErr
		if refErr != 0 {
			r.problem("ref_err %g: the board disagrees with its reference", refErr)
		}
	}
	return nil
}

func short(digest string) string { return digest[:min(12, len(digest))] }

// untraced is the measured run: tracing off, end-to-end metrics only.
func untraced(e *env, s *spec, r *result) error {
	resetPeakRSS()
	w := s.build(e)
	defer w.close()
	var setups []float64
	for began := time.Now(); ; {
		t0 := time.Now()
		if err := w.setup(nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if n := len(setups); e.quick || n >= maxSetups || n >= minSetups && time.Since(began) > setupBudget {
			break
		}
		// Untimed: drop this set-up's system before building the next, so
		// peak_rss_mb does not depend on when the collector happens to run.
		w.close()
		debug.FreeOSMemory()
	}
	if err := w.warm(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	lanes, err := w.run(0, r.Ops, nil)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	rss := peakRSSMB()
	st, err := w.sim()
	if err != nil {
		return err
	}
	if err := r.observe(st, w); err != nil {
		return err
	}

	tx := sliceRates(lanes, rateSlices, laneTx)
	emc := sliceRates(lanes, rateSlices, laneEmc)
	r.EndToEnd = metrics{
		"setup_s":     median(setups),
		"tx_per_s":    sustained(tx),
		"emc_per_s":   sustained(emc),
		"peak_rss_mb": rss,
	}
	r.note("tx_per_s", "p90 of %d slices; median slice %.4g, p10 slice %.4g", len(tx), median(tx), quantile(tx, 0.1))
	r.note("emc_per_s", "p90 of %d slices; median slice %.4g, p10 slice %.4g", len(emc), median(emc), quantile(emc, 0.1))
	r.note("setup_s", "median of %d set-ups", len(setups))
	lat := opLatenciesMs(lanes)
	p95, pct := tail(lat)
	r.note("op_latency_ms", "p50 %.4g, p%g %.4g over %d ops (for reading only)", median(lat), pct, p95, len(lat))
	realTime := core.PaperRealTimeModel().OpsPerSecond()
	r.note("realtime_x", "%.3f (tx_per_s / %.0f, for reading only)", sustained(tx)/realTime, realTime)
	return nil
}

func opLatenciesMs(lanes []lane) []float64 {
	var lat []float64
	for i := range lanes {
		for _, d := range lanes[i].lat {
			lat = append(lat, float64(d)/1e6)
		}
	}
	return lat
}

// tracedChunks is how many equal chunks the traced invocation cuts the
// ops into; odd chunks run inside spans, even ones untraced, so the
// overhead comparison is not fooled by the run's own drift (emulated
// caches keep warming for several passes).
const tracedChunks = 10

// chunkRate is one chunk's rate: transactions per second, lanes summed.
func chunkRate(lanes []lane) float64 {
	var rate float64
	for i := range lanes {
		l := &lanes[i]
		var tx uint64
		for _, n := range l.tx {
			tx += n
		}
		if n := len(l.ends); n > 0 && l.ends[n-1] > 0 {
			rate += float64(tx) / l.ends[n-1].Seconds()
		}
	}
	return rate
}

// traced is the second run: the same ops in alternating untraced and
// traced chunks, then the inner layers replayed in isolation.
func traced(e *env, s *spec, r *result) error {
	w := s.build(e)
	defer w.close()
	tr := newTracer()
	if err := w.setup(tr); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if err := w.warm(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var plain, spanned []float64
	var all []lane // every chunk's ops, for the op latencies
	nLanes := 1
	per := r.Ops / tracedChunks
	for c := 0; c < tracedChunks; c++ {
		var t *tracer
		if c%2 == 1 {
			t = tr
		}
		lanes, err := w.run(c*per, (c+1)*per, t)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		nLanes = len(lanes)
		all = append(all, lanes...)
		if t == nil {
			plain = append(plain, chunkRate(lanes))
		} else {
			spanned = append(spanned, chunkRate(lanes))
		}
	}
	runtime.ReadMemStats(&ms1)
	st, err := w.sim()
	if err != nil {
		return err
	}
	if err := r.observe(st, w); err != nil {
		return err
	}

	m := metrics{}
	if err := w.layers(tr, m); err != nil {
		return fmt.Errorf("layer replays: %w", err)
	}
	if s.name == "service_ingest" { // the one workload whose op is a request
		lat := opLatenciesMs(all)
		m["service.ingest_p50_ms"] = median(lat)
		m["service.ingest_p95_ms"], _ = tail(lat)
	}
	m["miss_ratio"] = st.MissRatio
	if r.RefErr != nil {
		m["ref_err"] = *r.RefErr
	}
	m["failed_frac"] = frac(st.failed, st.attempted)
	m["proc.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["proc.heap_mb"] = float64(ms1.HeapInuse) / 1e6
	m["trace.overhead_frac"] = 1 - median(spanned)/median(plain)
	m.finite()
	r.Ledger = ledgerFor(s.name, m, median(spanned), nLanes)
	m.withoutStages()
	r.PerLayer = m

	spanFile := filepath.Join(e.outDir, "spans-"+s.name+".jsonl")
	if err := writeSpans(spanFile, tr.spans); err != nil {
		return err
	}
	r.note("spans", "%d spans in %s", len(tr.spans), spanFile)
	return nil
}

// print writes every metric by name with its unit, then the ledger.
func (r *result) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s (seed %d, %d ops) ==\n", r.Workload, r.Seed, r.Ops)
	if r.Sim != nil {
		ref := "unvalidated"
		if r.RefErr != nil {
			ref = strconv.FormatFloat(*r.RefErr, 'g', -1, 64)
		}
		fmt.Fprintf(out, "  %-30s %-14.6g %s\n", "miss_ratio", r.Sim.MissRatio, "ratio (simulated, node 0)")
		fmt.Fprintf(out, "  %-30s %s\n", "stats_digest", r.Sim.Digest)
		fmt.Fprintf(out, "  %-30s %s\n", "ref_err", ref)
		fmt.Fprintf(out, "  %-30s %g (%d of %d)\n", "failed_frac", frac(r.Failed, r.Attempted), r.Failed, r.Attempted)
	}
	if r.EndToEnd != nil {
		fmt.Fprintln(out, "  -- end to end (tracing off) --")
		for _, d := range endToEnd {
			fmt.Fprintf(out, "  %-30s %-14.6g %-6s %s\n", d.Name, r.EndToEnd[d.Name], d.Unit, r.Notes[d.Name])
		}
		fmt.Fprintf(out, "  %-30s %s\n", "op_latency_ms", r.Notes["op_latency_ms"])
		fmt.Fprintf(out, "  %-30s %s\n", "realtime_x", r.Notes["realtime_x"])
	}
	if r.PerLayer != nil {
		fmt.Fprintln(out, "  -- per layer (traced run and isolated replays; 0 = layer not on this path) --")
		for _, d := range perLayer {
			fmt.Fprintf(out, "  %-30s %-14.6g %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
		}
		fmt.Fprintln(out, "  -- ledger, ns per transaction --")
		for _, st := range r.Ledger {
			fmt.Fprintf(out, "  %-30s %10.2f  %s\n", st.Name, st.NsPerTx, st.Note)
		}
		fmt.Fprintf(out, "  %s\n", r.Notes["spans"])
	}
	keys := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		if strings.HasPrefix(k, "expected") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %s\n", r.Notes[k])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(out, "  INCORRECT: %s\n", p)
	}
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// contractLine prints the harness's result object as the last line.
func (r *result) contractLine(out io.Writer, traced bool) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.EndToEnd
	if traced {
		defs, vals = perLayer, r.PerLayer
	}
	obj := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.correct(), Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]mv{}}
	if !r.correct() && obj.Failed == 0 {
		obj.Failed = obj.Attempted // a digest mismatch fails the whole run
	}
	for _, d := range defs {
		obj.Metrics[d.Name] = mv{vals[d.Name], d.Unit}
	}
	line, err := json.Marshal(obj)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// selfcheck runs the untraced set twice in one invocation and holds the
// two against the benchmark's own bounds.
func selfcheck(e *env, chosen []*spec, out io.Writer) error {
	var bad []string
	for _, s := range chosen {
		var rs [2]*result
		for i := range rs {
			rs[i] = &result{Workload: s.name, Seed: e.seed, Ops: s.opsFor(e)}
			if err := untraced(e, s, rs[i]); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			checkExpected(e, rs[i])
			if !rs[i].correct() {
				bad = append(bad, fmt.Sprintf("%s run %d: %s", s.name, i+1, strings.Join(rs[i].Problems, "; ")))
			}
		}
		fmt.Fprintf(out, "\n== %s ==\n  %-16s %14s %14s %9s %7s\n", s.name, "metric", "run 1", "run 2", "diff", "bound")
		for _, d := range endToEnd {
			a, b := rs[0].EndToEnd[d.Name], rs[1].EndToEnd[d.Name]
			diff := (b - a) / a
			if diff < 0 {
				diff = -diff
			}
			verdict := ""
			if diff > d.Bound {
				verdict = "  EXCEEDS"
				bad = append(bad, fmt.Sprintf("%s %s moved %.1f%% (bound %.0f%%)", s.name, d.Name, 100*diff, 100*d.Bound))
			}
			fmt.Fprintf(out, "  %-16s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
		if rs[0].Sim.Digest != rs[1].Sim.Digest || rs[0].Sim.MissRatio != rs[1].Sim.MissRatio {
			bad = append(bad, s.name+": simulated statistics differ between the two runs")
		}
		fmt.Fprintf(out, "  %-16s %14s %14s\n", "stats_digest", short(rs[0].Sim.Digest), short(rs[1].Sim.Digest))
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Fprintln(out, "\nselfcheck: every end-to-end metric agrees within its bound on every workload")
	return nil
}
