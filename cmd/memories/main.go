// Command memories runs one emulation session: a workload on the modeled
// SMP host with the MemorIES board snooping its bus, then dumps the
// board's statistics.
//
//	memories -workload tpcc -l3 256MB -assoc 8 -refs 5000000
//	memories -workload fft -splash-size classic -l3 64MB -counters nodea
//	memories -workload tpch -l3 64MB,256MB,1GB        # multi-config mode
//	memories -protocol write-once                     # a shipped protocol
//	memories -protocol my.map                         # bring your own
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"memories"
	"memories/internal/core"
	"memories/internal/hotspot"
	"memories/internal/workload/byname"
	"memories/protocols"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memories", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl         = fs.String("workload", "tpcc", "workload: tpcc, tpch, web, uniform, or a SPLASH2 kernel (fft, ocean, barnes, fmm, water)")
		splashSize = fs.String("splash-size", "classic", "SPLASH2 problem size: paper, classic, test")
		dbFactor   = fs.Int64("db-factor", 2048, "database footprint divisor vs paper scale (tpcc/tpch/web/uniform)")
		l3         = fs.String("l3", "64MB", "emulated cache size(s), comma separated (up to 4 => multi-config mode)")
		assoc      = fs.Int("assoc", 8, "emulated cache associativity")
		line       = fs.Int64("line", 128, "emulated cache line size in bytes")
		refs       = fs.Uint64("refs", 2_000_000, "workload references to run")
		protocol   = fs.String("protocol", "mesi", "coherence protocol: a shipped name (msi, mesi, moesi, write-once) or a path to a .map file")
		counters   = fs.String("counters", "", "also dump counters with this prefix ('' = none, 'all' = everything)")
		seed       = fs.Uint64("seed", 1, "workload seed")
		hotspots   = fs.Int("hotspots", 0, "also profile hot spots and print the top N pages (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "memories:", err)
		return 1
	}

	gen, err := byname.New(*wl, *dbFactor, *seed, 8, *splashSize)
	if err != nil {
		return fail(err)
	}

	var sizes []int64
	for _, s := range strings.Split(*l3, ",") {
		n, err := memories.ParseSize(s)
		if err != nil {
			return fail(err)
		}
		sizes = append(sizes, n)
	}
	tab, err := protocols.Resolve(*protocol)
	if err != nil {
		return fail(err)
	}
	bcfg := memories.MultiConfigBoard(core.CPURange(8), *line, *assoc, sizes...)
	for i := range bcfg.Nodes {
		bcfg.Nodes[i].Protocol = tab
	}

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
	ran := s.Run(*refs)

	hs := s.Host.Stats()
	fmt.Fprintf(stdout, "workload   %s\n", *wl)
	fmt.Fprintf(stdout, "refs       %d (instructions %d)\n", ran, hs.Instructions)
	fmt.Fprintf(stdout, "bus        util %.1f%%, L2 miss ratio %.4f, castouts %d\n",
		s.Host.Bus().Utilization()*100, ratio(hs.L2Misses, hs.Refs), hs.Castouts)
	for i := 0; i < s.Board.NumNodes(); i++ {
		v := s.Board.Node(i)
		fmt.Fprintf(stdout, "node %d     %s %s: refs %d, miss ratio %.4f (l3 %d, mod-int %d, shr-int %d, mem %d)\n",
			i, v.Geometry, v.Protocol, v.Refs(), v.MissRatio(),
			v.SatL3, v.SatModInt, v.SatShrInt, v.SatMemory)
	}
	if over := s.Board.Counters().Value("buffer.overflow"); over > 0 {
		fmt.Fprintf(stdout, "WARNING    transaction buffer overflowed %d times (bus too hot for the SDRAMs)\n", over)
	}
	if *counters != "" {
		prefix := *counters
		if prefix == "all" {
			prefix = ""
		}
		fmt.Fprint(stdout, s.Board.Counters().Dump(prefix))
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

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
