// Command tracegen runs a workload on the modeled host with the board in
// trace-collection mode (§2.3) and dumps the captured bus trace to a
// file, ready for cmd/tracesim.
//
//	tracegen -workload tpcc -refs 2000000 -o tpcc.trace
//
// Traces are written in the delta-compressed v2 format, the only one any
// other command reads. An old fixed-width v1 file is rewritten with:
//
//	tracegen convert old.trace new.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"memories"
	"memories/internal/tracefile"
	"memories/internal/workload/byname"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its plumbing exposed, so tests drive tracegen
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "convert" {
		return convert(args[1:], stdout, stderr)
	}

	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl       = fs.String("workload", "tpcc", "workload: tpcc, tpch, web, uniform, or a SPLASH2 kernel")
		dbFactor = fs.Int64("db-factor", 2048, "database footprint divisor vs paper scale")
		refs     = fs.Uint64("refs", 1_000_000, "workload references to run")
		limit    = fs.Int("limit", 64<<20, "trace capture memory in records (board stock: 128Mi)")
		out      = fs.String("o", "bus.trace", "output trace file")
		seed     = fs.Uint64("seed", 1, "workload seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *limit < 1 {
		fmt.Fprintln(stderr, "tracegen: -limit must be at least 1 record")
		return 2
	}

	gen, err := byname.New(*wl, *dbFactor, *seed, 8, "classic")
	if err != nil {
		return fail(stderr, err)
	}

	bcfg := memories.SingleL3Board(64*memories.MB, 8, 128)
	bcfg.TraceCapacity = *limit
	s, err := memories.NewSession(memories.DefaultHostConfig(), bcfg, gen)
	if err != nil {
		return fail(stderr, err)
	}
	s.Run(*refs)

	capture := s.Board.Trace()
	if err := tracefile.WriteFile(*out, capture.Dump); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "captured %d bus references (%d dropped) from %d workload refs -> %s (v2)\n",
		capture.Len(), capture.Dropped(), *refs, *out)
	return 0
}

// convert rewrites a v1 trace file as v2, streaming record by record so
// arbitrarily large traces convert in constant memory.
func convert(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tracegen convert <in.trace> <out.trace>")
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	inPath, outPath := fs.Arg(0), fs.Arg(1)

	in, err := os.Open(inPath)
	if err != nil {
		return fail(stderr, err)
	}
	defer in.Close()
	inSt, err := in.Stat()
	if err != nil {
		return fail(stderr, err)
	}
	if outSt, err := os.Stat(outPath); err == nil && os.SameFile(inSt, outSt) {
		fmt.Fprintf(stderr, "tracegen: convert: %s and %s are the same file\n", inPath, outPath)
		return 2
	}

	var n uint64
	err = tracefile.WriteFile(outPath, func(w io.Writer) error {
		vw, err := tracefile.NewV2Writer(w)
		if err != nil {
			return err
		}
		if n, err = tracefile.ConvertV1(vw, in); err != nil {
			return fmt.Errorf("after %d records: %v", n, err)
		}
		return vw.Flush()
	})
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "converted %d records: %s -> %s (v2)\n", n, inPath, outPath)
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "tracegen:", err)
	return 1
}
