// Command tracegen runs a workload on the modeled host with the board in
// trace-collection mode (§2.3) and streams the bus references the board
// accepts to a file, ready for cmd/tracesim.
//
//	tracegen -workload tpcc -refs 2000000 -o tpcc.trace
//
// The board's snoop tracer is drained into the file between runs of at
// most chunkRefs references, so memory stays flat however long the
// trace. Traces are written in the delta-compressed v2 format, the only
// one any other command reads. An old fixed-width v1 file is rewritten
// with:
//
//	tracegen convert old.trace new.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"memories"
	"memories/internal/bus"
	"memories/internal/obs"
	"memories/internal/tracefile"
	"memories/internal/workload/byname"
)

// chunkRefs is how many workload references run between drains of the
// tracer. One reference puts at most two memory transactions on the bus
// (its miss and a dirty victim's castout), so a chunk cannot overfill a
// ring of ringDepth records (2 MB). Each Run starts and joins the board's
// worker and flushes its buffer, so chunks are long enough for that to
// vanish in the run.
const chunkRefs = 1 << 16

// ringDepth is the tracer's depth in records. Tests lower it to force a
// drop.
var ringDepth = 2 * chunkRefs

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
		out      = fs.String("o", "bus.trace", "output trace file")
		seed     = fs.Uint64("seed", 1, "workload seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	gen, err := byname.New(*wl, *dbFactor, *seed, 8, "classic")
	if err != nil {
		return fail(stderr, err)
	}
	s, err := memories.NewSession(memories.DefaultHostConfig(), memories.SingleL3Board(64*memories.MB, 8, 128), gen)
	if err != nil {
		return fail(stderr, err)
	}
	err = tracefile.WriteFile(*out, func(w io.Writer) error {
		return record(s, *refs, w)
	})
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "captured %d bus references (%d dropped) from %d workload refs -> %s (v2)\n",
		s.Board.Counters().Value("trace.captured"), s.Board.Counters().Value("trace.dropped"), *refs, *out)
	return 0
}

// record runs refs workload references on s with the board's tracer on,
// writing every accepted bus reference to w as a v2 trace. A record the
// ring had no room for fails the capture.
func record(s *memories.Session, refs uint64, w io.Writer) error {
	vw, err := tracefile.NewV2Writer(w)
	if err != nil {
		return err
	}
	var werr error
	sink := func(ev obs.Event) {
		if werr == nil {
			werr = vw.Write(tracefile.Record{Addr: ev.Addr, Cmd: bus.Command(ev.Cmd), SrcID: ev.Src})
		}
	}
	if err := s.Board.Observe(obs.NewRegistry(), sink, "board", ringDepth); err != nil {
		return err
	}
	tr := s.Board.Tracer()
	tr.Enable(obs.Filter{})
	for done := uint64(0); done < refs; done += chunkRefs {
		n := min(chunkRefs, refs-done)
		ran := s.Run(n)
		tr.Drain()
		if werr != nil {
			return werr
		}
		if d := s.Board.Counters().Value("trace.dropped"); d > 0 {
			return fmt.Errorf("the tracer dropped %d bus references: a run of %d references overfilled its %d-record ring", d, n, ringDepth)
		}
		if ran < n {
			break // the workload ended
		}
	}
	return vw.Flush()
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
