// Command experiments regenerates the paper's tables and figures.
//
//	experiments                 # run everything at the default scale
//	experiments -run fig9       # one experiment (comma-separate for more)
//	experiments -scale ci       # the fast preset the test suite uses
//	experiments -scale paper    # the paper's own parameters (very long)
//	experiments -parallel 4     # up to 4 concurrent experiments / host runs
//	experiments -parallel 1     # fully serial: the deterministic golden run
//	experiments -list           # show available experiment IDs
//	experiments -csv            # emit CSV instead of aligned tables
//	experiments -checkpoint J   # journal completed experiments to J (crash-safe)
//	experiments -resume J       # skip experiments already journaled in J
//	experiments -protocol moesi # emulate MOESI caches (name or .map file path)
//
// A sweep interrupted by SIGINT/SIGTERM (or killed outright between
// experiments) resumes from its journal: completed experiments replay
// their recorded output byte-for-byte and only the unfinished ones run
// again, so an interrupted+resumed sweep prints exactly what the
// uninterrupted one would have.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"memories/internal/checkpoint"
	"memories/internal/cli"
	"memories/internal/coherence"
	"memories/internal/experiments"
	"memories/internal/obs"
	"memories/internal/prof"
	"memories/protocols"
)

type outcome struct {
	id      string
	text    string // rendered output (tables or CSV), ready to print
	err     error
	elapsed time.Duration
	skipped bool // not run because shutdown was requested
}

// journal is the crash-safe record of completed experiments: one
// checkpoint section per result, rewritten atomically after every
// completion. Killing the process at any point loses at most the
// experiments still running.
type journal struct {
	mu    sync.Mutex
	path  string
	scale string
	csv   bool
	cpus  int
	proto string
	done  map[string]outcome
}

func (j *journal) fingerprint() string {
	return fmt.Sprintf("scale=%s csv=%v cpus=%d proto=%s", j.scale, j.csv, j.cpus, j.proto)
}

// record journals one completed experiment and rewrites the file.
func (j *journal) record(o outcome) error {
	if j == nil || j.path == "" {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done[o.id] = o
	ids := make([]string, 0, len(j.done))
	for id := range j.done {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return checkpoint.WriteFileAtomic(j.path, func(cw *checkpoint.Writer) error {
		return j.sections(checkpoint.SaveTo(cw), ids)
	})
}

// sections walks the journal in either direction: the run-options
// fingerprint, then one section per completed experiment in ids.
func (j *journal) sections(a *checkpoint.Archive, ids []string) error {
	if err := a.FixedStr("journal.meta", "journal run options", j.fingerprint()); err != nil {
		return err
	}
	for _, id := range ids {
		o := j.done[id]
		o.id = id
		err := a.Section("result."+id, func(c *checkpoint.Codec) error {
			c.Str(&o.text)
			c.I64((*int64)(&o.elapsed))
			return c.Err()
		})
		if err != nil {
			return err
		}
		j.done[id] = o
	}
	return nil
}

// load restores completed results from a journal file.
func (j *journal) load(path string) error {
	err := checkpoint.LoadFile(path, func(snap *checkpoint.Snapshot) error {
		var ids []string
		for _, sec := range snap.Sections() {
			if id, ok := strings.CutPrefix(sec.Name, "result."); ok {
				ids = append(ids, id)
			}
		}
		return j.sections(checkpoint.LoadFrom(snap), ids)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "experiments: resumed %d completed experiment(s) from %s\n", len(j.done), path)
	return nil
}

// render builds the exact byte stream the print loop emits for a
// successful result.
func render(res *experiments.Result, csv bool) string {
	if !csv {
		return res.String()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s: %s\n", res.ID, res.Title)
	for _, t := range res.Tables {
		sb.WriteString(t.CSV())
	}
	return sb.String()
}

func main() { os.Exit(run()) }

func run() (code int) {
	var (
		runID    = flag.String("run", "", "experiment ID(s) to run, comma separated (default: all)")
		scaleID  = flag.String("scale", "default", "scale preset: ci, default, paper")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned text tables")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker bound, both across experiments and across the host runs (one per reference stream) within one; each host run also feeds each of its boards on one goroutine of its own; 1 is the serial golden run (bit-identical results at any setting)")
		bigmem   = flag.Bool("bigmem", false, "run the fully allocated big-memory corners (table2's 8 GB directory: ~512 MB RAM, tens of seconds)")
		cpus     = flag.Int("cpus", 0, "emulated CPU count override for fig8, fig9, fig10, faults and protocolcompare (default: each preset's geometry; hostscale sweeps this single size; fig11, fig12, table5 and table6 keep 8)")
		obsAddr  = flag.String("obs", "", "serve live metrics on this address (e.g. :9090) while experiments run")
		obsIv    = flag.Duration("obs-interval", time.Second, "sampler interval for -obs/-obs-jsonl")
		obsJSONL = flag.String("obs-jsonl", "", "write JSON-lines metric snapshots to this file, replacing it (with or without -obs)")
		ckptPath = flag.String("checkpoint", "", "journal completed experiments to this file (crash-safe atomic writes)")
		resume   = flag.String("resume", "", "resume from a journal file written by -checkpoint")
		protoID  = flag.String("protocol", "", "coherence protocol for the emulated caches: a shipped name (msi, mesi, moesi, write-once) or a path to a .map file (default mesi)")
	)
	profFlags := prof.Flags(flag.CommandLine)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		return 2
	}

	set := map[string]bool{}
	flag.CommandLine.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["cpus"] {
		if *cpus < 1 {
			return fail(fmt.Errorf("-cpus %d: an emulated machine needs at least one CPU", *cpus))
		}
		// The S7A the paper validates against tops out at 12 processors;
		// beyond that the emulation still runs (that is the point of the
		// event wheel) but no longer models measured hardware.
		if *cpus > 12 {
			fmt.Fprintf(os.Stderr, "experiments: warning: -cpus %d exceeds the 12-way S7A the paper validates against; results model a hypothetical machine\n", *cpus)
		}
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", id, experiments.Title(id))
		}
		return 0
	}

	scale, err := experiments.ParseScale(*scaleID)
	if err != nil {
		return fail(err)
	}
	var protoTab *coherence.Table
	protoName := "mesi"
	if *protoID != "" {
		// Resolve runs the full gauntlet: parse, compile, model check.
		if protoTab, err = protocols.Resolve(*protoID); err != nil {
			return fail(err)
		}
		protoName = protoTab.Name
	}
	if *parallel < 1 {
		*parallel = 1
	}

	ids := experiments.IDs()
	if *runID != "" {
		ids = strings.Split(*runID, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}

	jl := &journal{path: *ckptPath, scale: *scaleID, csv: *csv, cpus: *cpus, proto: protoName, done: make(map[string]outcome)}
	if *resume != "" {
		if err := jl.load(*resume); err != nil {
			return fail(err)
		}
		if jl.path == "" {
			// Resuming without a new journal path keeps journaling to
			// the resumed file.
			jl.path = *resume
		}
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	// Live observability: one registry spans every experiment in the run
	// (each gets its own "<id>.*" scope); a sampler snapshots it
	// periodically and an HTTP endpoint serves scrapes on demand.
	var reg *obs.Registry
	if *obsAddr != "" || *obsJSONL != "" {
		reg = obs.NewRegistry()
		sampler := &obs.Sampler{Reg: reg, Interval: *obsIv}
		var jsonl *os.File
		if *obsJSONL != "" {
			if jsonl, err = os.Create(*obsJSONL); err != nil {
				return fail(err)
			}
			sampler.JSONL = jsonl
		}
		sampler.Start()
		// The sampler's final snapshot lands in Stop; a truncated JSONL
		// tail must fail the run, not vanish into a deferred close with
		// its error ignored.
		defer func() {
			sampler.Stop()
			if jsonl == nil {
				return
			}
			if err := errors.Join(sampler.Err(), jsonl.Sync(), jsonl.Close()); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: obs-jsonl:", err)
				code = max(code, 1)
			}
		}()
		if *obsAddr != "" {
			srv, err := obs.Serve(*obsAddr, reg)
			if err != nil {
				return fail(err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "obs: serving /metrics on %s\n", srv.Addr())
		}
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops new experiments
	// from starting (in-flight ones finish and are journaled).
	interrupted, stop := cli.Interrupts(os.Stderr, "experiments", "shutdown requested; finishing in-flight experiments")
	defer stop()

	// Run experiments concurrently (each independent, internally
	// parallel up to the same bound), bounded by a semaphore; report in
	// stable order. Every host run builds its own host and seeded
	// generator, so the output is identical at any -parallel.
	results := make([]outcome, len(ids))
	sem := make(chan struct{}, *parallel)
	var wg sync.WaitGroup
	for i, id := range ids {
		if done, ok := jl.done[id]; ok {
			done.id = id
			results[i] = done
			continue
		}
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if interrupted.Err() != nil {
				results[i] = outcome{id: id, skipped: true}
				return
			}
			start := time.Now()
			p := experiments.PresetFor(scale)
			p.Parallel, p.BigMem, p.Obs, p.NumCPUs, p.Protocol = *parallel, *bigmem, reg, *cpus, protoTab
			res, err := experiments.RunWith(id, p)
			o := outcome{id: id, err: err, elapsed: time.Since(start)}
			if err == nil {
				o.text = render(res, *csv)
				if jerr := jl.record(o); jerr != nil {
					fmt.Fprintln(os.Stderr, "experiments: checkpoint:", jerr)
				}
			}
			results[i] = o
		}(i, id)
	}
	wg.Wait()

	failures, skips := 0, 0
	for _, o := range results {
		if o.skipped {
			skips++
			continue
		}
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", o.id, o.err)
			failures++
			continue
		}
		fmt.Print(o.text)
		fmt.Printf("(%s in %v)\n\n", o.id, o.elapsed.Round(time.Millisecond))
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) failed\n", failures)
		return 1
	}
	if skips > 0 {
		fmt.Fprintf(os.Stderr, "experiments: interrupted; %d experiment(s) not run (resume with -resume %s)\n", skips, jl.path)
		return 130
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	return 1
}
