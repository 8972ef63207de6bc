// Command tracegen runs a workload on the modeled host with the board in
// trace-collection mode (§2.3) and dumps the captured bus trace to a
// file, ready for cmd/tracesim.
//
//	tracegen -workload tpcc -refs 2000000 -o tpcc.trace
//
// Traces are written in the delta-compressed v2 format. An old
// fixed-width v1 file (still read everywhere) is rewritten with:
//
//	tracegen convert old.trace new.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"memories"
	"memories/internal/core"
	"memories/internal/host"
	"memories/internal/tracefile"
	"memories/internal/workload/byname"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "convert" {
		convert(os.Args[2:])
		return
	}

	var (
		wl       = flag.String("workload", "tpcc", "workload: tpcc, tpch, web, uniform, or a SPLASH2 kernel")
		dbFactor = flag.Int64("db-factor", 2048, "database footprint divisor vs paper scale")
		refs     = flag.Uint64("refs", 1_000_000, "workload references to run")
		limit    = flag.Int("limit", 64<<20, "trace capture memory in records (board stock: 128Mi)")
		out      = flag.String("o", "bus.trace", "output trace file")
		seed     = flag.Uint64("seed", 1, "workload seed")
	)
	flag.Parse()

	gen, err := byname.New(*wl, *dbFactor, *seed, 8, "classic")
	if err != nil {
		fatal(err)
	}

	bcfg := memories.SingleL3Board(64*memories.MB, 8, 128)
	bcfg.TraceCapacity = *limit
	b, err := core.NewBoard(bcfg)
	if err != nil {
		fatal(err)
	}
	h, err := host.New(host.DefaultConfig(), gen)
	if err != nil {
		fatal(err)
	}
	h.Bus().Attach(b)
	h.Run(*refs)
	b.Flush()

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := b.Trace().Dump(f); err != nil {
		f.Close()
		fatal(err)
	}
	// Sync before close: a full disk or write-back failure must fail the
	// run, not leave a silently truncated trace behind a zero exit code.
	if err := f.Sync(); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("captured %d bus references (%d dropped) from %d workload refs -> %s (v2)\n",
		b.Trace().Len(), b.Trace().Dropped(), *refs, *out)
}

// convert rewrites a trace file as v2, streaming record by record so
// arbitrarily large traces convert in constant memory. The input format
// is auto-detected from the magic.
func convert(argv []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tracegen convert <in.trace> <out.trace>")
	}
	if err := fs.Parse(argv); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}

	in, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer in.Close()
	r, err := tracefile.Open(in)
	if err != nil {
		fatal(err)
	}

	outF, err := os.Create(fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	w, err := tracefile.NewV2Writer(outF)
	if err != nil {
		fatal(err)
	}

	n, err := tracefile.CopyRecords(w, r)
	if err != nil {
		fatal(fmt.Errorf("after %d records: %v", n, err))
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	// Same truncation discipline as the capture path: sync and close
	// errors are real data loss and must be reported.
	if err := outF.Sync(); err != nil {
		fatal(err)
	}
	if err := outF.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("converted %d records: %s -> %s (v2)\n", n, fs.Arg(0), fs.Arg(1))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
