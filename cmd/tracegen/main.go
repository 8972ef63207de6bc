// Command tracegen runs a workload on the modeled host with the board in
// trace-collection mode (§2.3) and dumps the captured bus trace to a
// file, ready for cmd/tracesim.
//
//	tracegen -workload tpcc -refs 2000000 -o tpcc.trace
//	tracegen -format v2 -workload tpch -o tpch.trace
//
// It also converts between the fixed-width v1 format and the
// delta-compressed v2 format in either direction:
//
//	tracegen convert -format v2 old.trace new.trace
package main

import (
	"bufio"
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
		formatID = flag.String("format", "v2", "trace file format: v1 (fixed 8-byte records) or v2 (delta-compressed blocks)")
	)
	flag.Parse()

	format, err := tracefile.ParseFormat(*formatID)
	if err != nil {
		fatal(err)
	}

	gen, err := byname.New(*wl, *dbFactor, *seed, 8, "classic", 0, 0.3)
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
	if err := b.Trace().DumpFormat(f, format); err != nil {
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
	fmt.Printf("captured %d bus references (%d dropped) from %d workload refs -> %s (%s)\n",
		b.Trace().Len(), b.Trace().Dropped(), *refs, *out, format)
}

// convert rewrites a trace file into the requested format, streaming
// record by record so arbitrarily large traces convert in constant
// memory. The input format is auto-detected from the magic.
func convert(argv []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	formatID := fs.String("format", "v2", "output format: v1 or v2")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tracegen convert [-format v1|v2] <in.trace> <out.trace>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	format, err := tracefile.ParseFormat(*formatID)
	if err != nil {
		fatal(err)
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
	bw := bufio.NewWriter(outF)
	w, err := tracefile.NewWriterFormat(bw, format)
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
	if err := bw.Flush(); err != nil {
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
	fmt.Printf("converted %d records: %s -> %s (%s)\n", n, fs.Arg(0), fs.Arg(1), format)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
