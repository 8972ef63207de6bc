// Command console is the MemorIES console: it boots a session (workload +
// host + board), runs traffic on demand, and offers the full console
// command set (stats extraction, cache parameter setting, protocol
// loading) plus a "run N" command to advance the emulation — the
// software stand-in for watching a live host machine.
//
//	console -workload tpcc -l3 64MB
//	> run 1000000
//	> nodes
//	> reprogram 0 size=256MB assoc=8
//	> checkpoint warm.ckpt
//	> run 1000000
//	> node 0
//
// A batch run is a script on stdin. Several -l3 sizes are the
// multi-configuration mode (one node each, in its own snoop group):
//
//	printf 'run 2000000\nnodes\nstats nodea\n' | console -workload tpch -l3 64MB,256MB,1GB -hotspots 10
//
// The checkpoint/restore commands snapshot the whole session (workload
// cursors, host, board, counters). With -checkpoint, SIGINT/SIGTERM
// writes a final snapshot before exiting — a long "run" stops at the
// next millionth reference — and -resume warm-starts a new console from
// a previous snapshot.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"memories"
	"memories/internal/cli"
	"memories/internal/core"
	"memories/internal/hotspot"
	"memories/internal/workload/byname"
	"memories/protocols"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main with its plumbing exposed, so tests drive the console
// in-process with a script on stdin.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("console", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl         = fs.String("workload", "tpcc", "workload: tpcc, tpch, web, uniform, or a SPLASH2 kernel (fft, ocean, barnes, fmm, water)")
		splashSize = fs.String("splash-size", "classic", "SPLASH2 problem size: paper, classic, test")
		dbFactor   = fs.Int64("db-factor", 2048, "database footprint divisor vs paper scale")
		l3         = fs.String("l3", "64MB", "initial emulated cache size(s), comma separated (up to 4 => multi-config mode)")
		assoc      = fs.Int("assoc", 8, "initial associativity")
		line       = fs.Int64("line", 128, "initial emulated cache line size in bytes")
		protocol   = fs.String("protocol", "mesi", "coherence protocol: a shipped name (msi, mesi, moesi, write-once) or a path to a .map file")
		seed       = fs.Uint64("seed", 1, "workload seed")
		hotspots   = fs.Int("hotspots", 0, "profile bus traffic by page and print the top N pages on exit (0 = off)")
		obsAddr    = fs.String("obs", "", "serve live metrics on this address (e.g. :9090) and enable the metrics/watch/trace-on console commands")
		obsIv      = fs.Duration("obs-interval", time.Second, "sampler and trace-drain interval for -obs")
		ckpt       = fs.String("checkpoint", "", "write a final session snapshot here on SIGINT/SIGTERM")
		resume     = fs.String("resume", "", "restore a session snapshot before the first prompt")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "console:", err)
		return 1
	}

	var sizes []int64
	for _, s := range strings.Split(*l3, ",") {
		n, err := memories.ParseSize(s)
		if err == nil {
			_, err = memories.NewGeometry(n, *line, *assoc)
		}
		if err != nil {
			return fail(err)
		}
		sizes = append(sizes, n)
	}
	// Resolve runs the full gauntlet: parse, compile, model check.
	tab, err := protocols.Resolve(*protocol)
	if err != nil {
		return fail(err)
	}
	gen, err := byname.New(*wl, *dbFactor, *seed, 8, *splashSize)
	if err != nil {
		return fail(err)
	}
	bcfg := memories.MultiConfigBoard(core.CPURange(8), *line, *assoc, sizes...)
	for i := range bcfg.Nodes {
		bcfg.Nodes[i].Protocol = tab
	}
	bcfg.ProfileBucketCycles = 2_000_000
	s, err := memories.NewSession(memories.DefaultHostConfig(), bcfg, gen)
	if err != nil {
		return fail(err)
	}
	var prof *hotspot.Profiler
	if *hotspots > 0 {
		cfg := hotspot.DefaultConfig()
		cfg.Granularity = 4096 // page-level profiling
		if prof, err = hotspot.New(cfg); err != nil {
			return fail(err)
		}
		s.Host.Bus().Attach(prof)
	}
	if *obsAddr != "" {
		h, err := s.EnableObs(*obsAddr, *obsIv, nil, stdout)
		if err != nil {
			return fail(err)
		}
		defer h.Close()
		fmt.Fprintf(stdout, "obs: serving /metrics on %s\n", h.Server.Addr())
	}
	c := s.Console(stdout)
	if *resume != "" {
		if err := c.Restore(*resume); err != nil {
			return fail(err)
		}
	}

	// Graceful shutdown: the first SIGINT/SIGTERM makes a long "run"
	// yield at the next chunk boundary and the prompt stop waiting, so
	// the final checkpoint happens promptly.
	interrupted, stop := cli.Interrupts(stderr, "console", "shutting down")
	defer stop()
	shutdown := func() int {
		if *ckpt != "" {
			if err := s.Checkpoint(*ckpt); err != nil {
				fmt.Fprintln(stderr, "console: final checkpoint:", err)
				return 1
			}
			fmt.Fprintf(stderr, "console: session checkpointed to %s (resume with -resume)\n", *ckpt)
		}
		return 130
	}
	// The scanner blocks in stdin, so it feeds lines from its own
	// goroutine and the prompt waits for a line or the signal.
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc := bufio.NewScanner(stdin); sc.Scan(); {
			lines <- sc.Text()
		}
	}()

	fmt.Fprintf(stdout, "MemorIES console — workload %s, board %s %d-way. Type 'help'; 'run <n>' advances the host.\n",
		*wl, *l3, *assoc)
	for {
		fmt.Fprint(stdout, "> ")
		var text string
		var ok bool
		select {
		case text, ok = <-lines:
		case <-interrupted.Done():
		}
		if interrupted.Err() != nil {
			return shutdown()
		}
		line := strings.TrimSpace(text)
		if !ok || line == "quit" || line == "exit" {
			break
		}
		var err error
		if fields := strings.Fields(line); len(fields) > 0 && fields[0] == "run" {
			err = runRefs(interrupted, s, fields[1:], stdout)
		} else {
			err = c.Execute(line)
		}
		if err != nil {
			fmt.Fprintf(stdout, "error: %v\n", err)
		}
	}
	if prof != nil {
		fmt.Fprintf(stdout, "hot pages  (top %d of %d tracked, %.1f%% of bus traffic)\n",
			*hotspots, prof.Tracked(), prof.Concentration(*hotspots)*100)
		for _, bs := range prof.Top(*hotspots) {
			fmt.Fprintf(stdout, "  %#014x  reads %-9d writes %d\n", bs.Block, bs.Reads, bs.Writes)
		}
	}
	return 0
}

// runRefs is the "run [n]" command: it advances the host by n references
// (default a million), in chunks so a shutdown signal (ctx cancelled) can
// checkpoint mid-run, and reports the run with the host's running totals.
func runRefs(ctx context.Context, s *memories.Session, args []string, w io.Writer) error {
	n := uint64(1_000_000)
	if len(args) > 0 {
		v, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad count %q", args[0])
		}
		n = v
	}
	overflows := s.Board.Counters().Value("buffer.overflow")
	var ran uint64
	for ran < n && ctx.Err() == nil {
		chunk := min(n-ran, 1_000_000)
		got := s.Run(chunk)
		ran += got
		if got < chunk {
			break
		}
	}
	hs := s.Host.Stats()
	fmt.Fprintf(w, "ran %d references (host totals: instructions %d, bus util %.1f%%, L2 miss ratio %.4f, castouts %d)\n",
		ran, hs.Instructions, s.Host.Bus().Utilization()*100, float64(hs.L2Misses)/float64(max(hs.Refs, 1)), hs.Castouts)
	if over := s.Board.Counters().Value("buffer.overflow") - overflows; over > 0 {
		fmt.Fprintf(w, "WARNING    transaction buffer overflowed %d times (bus too hot for the SDRAMs)\n", over)
	}
	return nil
}
