// Command tracesim is the trace-driven software simulator — the "C
// simulator" of Table 3. It replays a bus trace (from cmd/tracegen, which
// streams the board's snoop tracer to disk) through an emulated-cache
// configuration and reports the same statistics the board produces, plus
// its own measured run time for the speed comparison.
//
// The trace must be v2; a v1 file is refused with the `tracegen convert`
// command that rewrites it. Decode runs on the replay goroutine, a block
// at a time: it is under a tenth of the per-record cost, and fanning it
// out across cores measured slower than not (DESIGN.md §5, "why it is
// serial").
//
//	tracesim -l3 64MB -assoc 8 tpcc.trace
//	tracesim -l3 8GB -checkpoint warm.ckpt -checkpoint-every 50000000 big.trace
//	tracesim -l3 8GB -resume warm.ckpt big.trace
//
// Every trace, regular file or pipe, is read through the one streaming
// reader (tracefile.ForEachBatchFile).
//
// With -checkpoint, SIGINT/SIGTERM stops the replay at the next batch
// boundary and writes a final checkpoint; -resume skips the already
// simulated prefix of the trace and continues from the saved cache
// state, producing the same final statistics as an uninterrupted run.
//
// It is the one off-line replay engine: the board's rate on a trace is
// what `go run ./bench -workload replay_l3_64m` reports.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"memories"
	"memories/internal/addr"
	"memories/internal/cache"
	"memories/internal/checkpoint"
	"memories/internal/cli"
	"memories/internal/core"
	"memories/internal/obs"
	"memories/internal/prof"
	"memories/internal/simbase"
	"memories/internal/tracefile"
	"memories/protocols"
)

// replayState checkpoints the simulator plus its position in the trace.
type replayState struct {
	sim         *simbase.TraceSim
	fingerprint string
	pos         uint64 // records consumed from the trace (incl. filtered)
}

// sections walks the replay checkpoint in either direction.
func (r *replayState) sections(a *checkpoint.Archive) error {
	if err := a.FixedStr("tracesim.meta", "simulator configuration", r.fingerprint); err != nil {
		return err
	}
	err := a.Section("tracesim.pos", func(c *checkpoint.Codec) error {
		c.U64(&r.pos)
		return c.Err()
	})
	if err != nil {
		return err
	}
	return a.Section("tracesim.state", r.sim.Checkpoint)
}

func (r *replayState) save(path string) error {
	return checkpoint.WriteFileAtomic(path, func(cw *checkpoint.Writer) error {
		return r.sections(checkpoint.SaveTo(cw))
	})
}

func (r *replayState) load(path string) error {
	return checkpoint.LoadFile(path, func(snap *checkpoint.Snapshot) error {
		return r.sections(checkpoint.LoadFrom(snap))
	})
}

func main() { os.Exit(run()) }

func run() int {
	var (
		l3       = flag.String("l3", "64MB", "emulated cache size")
		assoc    = flag.Int("assoc", 8, "associativity")
		line     = flag.Int64("line", 128, "line size in bytes")
		ncpu     = flag.Int("cpus", 8, "host CPUs covered by the trace")
		obsAddr  = flag.String("obs", "", "serve live replay metrics on this address (e.g. :9090)")
		ckptPath = flag.String("checkpoint", "", "write crash-safe replay checkpoints to this file")
		ckptN    = flag.Uint64("checkpoint-every", 0, "checkpoint every N trace records (0: only on shutdown signal)")
		resume   = flag.String("resume", "", "resume from a checkpoint written by -checkpoint")
		protoID  = flag.String("protocol", "mesi", "coherence protocol: a shipped name (msi, mesi, moesi, write-once) or a path to a .map file")
	)
	profFlags := prof.Flags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		return fail(fmt.Errorf("usage: tracesim [flags] <trace-file>"))
	}
	if *ckptN > 0 && *ckptPath == "" && *resume == "" {
		return fail(errors.New("-checkpoint-every needs -checkpoint or -resume to name the file it writes"))
	}

	size, err := memories.ParseSize(*l3)
	if err != nil {
		return fail(err)
	}
	geom, err := addr.NewGeometry(size, *line, *assoc)
	if err != nil {
		return fail(err)
	}
	// One CPU per board bus ID (0..core.MaxBusID), checked before
	// CPURange allocates that many.
	if *ncpu < 1 || *ncpu > core.MaxBusID+1 {
		return fail(fmt.Errorf("-cpus must be in 1..%d, got %d", core.MaxBusID+1, *ncpu))
	}
	cpus := core.CPURange(*ncpu)
	// Resolve runs the full gauntlet: parse, compile, model check.
	proto, err := protocols.Resolve(*protoID)
	if err != nil {
		return fail(err)
	}
	sim, err := simbase.NewTraceSim([]simbase.TraceNodeConfig{{
		CPUs:     cpus,
		Geometry: geom,
		Policy:   cache.LRU,
		Protocol: proto,
	}})
	if err != nil {
		return fail(err)
	}
	state := &replayState{
		sim:         sim,
		fingerprint: fmt.Sprintf("geom=%s cpus=%d policy=lru proto=%s", geom, *ncpu, proto.Name),
	}
	if *resume != "" {
		if err := state.load(*resume); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "tracesim: resumed at record %d from %s\n", state.pos, *resume)
		if *ckptPath == "" {
			*ckptPath = *resume
		}
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	// Live observability: the simulator keeps plain struct counters, so
	// the replay loop mirrors them into atomic registry counters after
	// each batch.
	var watch *replayWatch
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		srv, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: serving /metrics on %s\n", srv.Addr())
		watch = newReplayWatch(reg)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM checkpoints at the
	// next batch boundary and stops.
	interrupted, stop := cli.Interrupts(os.Stderr, "tracesim", "shutdown requested; checkpointing at next batch")
	defer stop()

	resumeSkip := state.pos // records of the trace already simulated
	var fileOff, nextCkpt uint64
	if *ckptN > 0 {
		nextCkpt = (state.pos/(*ckptN) + 1) * (*ckptN)
	}
	start := time.Now()
	_, err = tracefile.ForEachBatchFile(flag.Arg(0), 0, func(recs []tracefile.Record) error {
		// Fast-forward through the already simulated prefix on resume.
		if fileOff < resumeSkip {
			skip := resumeSkip - fileOff
			if skip >= uint64(len(recs)) {
				fileOff += uint64(len(recs))
				return nil
			}
			fileOff += skip
			recs = recs[skip:]
		}
		sim.ProcessBatch(recs)
		fileOff += uint64(len(recs))
		state.pos = fileOff
		if watch != nil {
			watch.update(uint64(len(recs)), sim)
		}
		due := *ckptN > 0 && fileOff >= nextCkpt // -checkpoint-every implies a path
		if due {
			nextCkpt = (fileOff/(*ckptN) + 1) * (*ckptN)
		}
		// A shutdown signal ends the replay here, after a checkpoint.
		stopped := interrupted.Err()
		if (due || stopped != nil) && *ckptPath != "" {
			if err := state.save(*ckptPath); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
		return stopped
	})
	elapsed := time.Since(start)
	if errors.Is(err, context.Canceled) {
		if *ckptPath != "" {
			fmt.Fprintf(os.Stderr, "tracesim: interrupted at record %d; resume with -resume %s\n", state.pos, *ckptPath)
		} else {
			fmt.Fprintf(os.Stderr, "tracesim: interrupted at record %d (no -checkpoint; progress lost)\n", state.pos)
		}
		return 130
	}
	if err != nil {
		return fail(err)
	}
	if fileOff < resumeSkip {
		return fail(fmt.Errorf("%s has %d records, but the checkpoint is at record %d", flag.Arg(0), fileOff, resumeSkip))
	}
	n := state.pos // total records simulated, including any resumed prefix

	st := sim.NodeStats(0)
	fmt.Printf("trace      %s: %d records (%d filtered)\n", flag.Arg(0), n, sim.Filtered)
	fmt.Printf("cache      %s\n", geom)
	fmt.Printf("refs       %d, miss ratio %.4f\n", st.Refs(), st.MissRatio())
	fmt.Printf("reads      %d hit / %d miss; writes %d hit / %d miss\n",
		st.ReadHit, st.ReadMiss, st.WriteHit, st.WriteMiss)
	fmt.Printf("castouts   %d, evictions %d\n", st.Castouts, st.Evictions)
	fmt.Printf("sim time   %v (%.2fM records/s)\n", elapsed.Round(time.Millisecond),
		float64(n)/elapsed.Seconds()/1e6)
	board := core.PaperRealTimeModel().Duration(n)
	fmt.Printf("MemorIES would have processed this trace in %v (real-time model, §4.1)\n", board)
	return 0
}

// replayWatch mirrors the simulator's plain counters into a registry so
// /metrics scrapes see the replay progress without touching the sim from
// another goroutine.
type replayWatch struct {
	records, filtered   *obs.Counter
	readHit, readMiss   *obs.Counter
	writeHit, writeMiss *obs.Counter
	castouts, evictions *obs.Counter
}

func newReplayWatch(reg *obs.Registry) *replayWatch {
	return &replayWatch{
		records:   reg.Counter("tracesim.records"),
		filtered:  reg.Counter("tracesim.filtered"),
		readHit:   reg.Counter("tracesim.read.hit"),
		readMiss:  reg.Counter("tracesim.read.miss"),
		writeHit:  reg.Counter("tracesim.write.hit"),
		writeMiss: reg.Counter("tracesim.write.miss"),
		castouts:  reg.Counter("tracesim.castouts"),
		evictions: reg.Counter("tracesim.evictions"),
	}
}

func (w *replayWatch) update(batch uint64, sim *simbase.TraceSim) {
	w.records.Add(batch)
	w.filtered.Store(uint64(sim.Filtered))
	st := sim.NodeStats(0)
	w.readHit.Store(st.ReadHit)
	w.readMiss.Store(st.ReadMiss)
	w.writeHit.Store(st.WriteHit)
	w.writeMiss.Store(st.WriteMiss)
	w.castouts.Store(st.Castouts)
	w.evictions.Store(st.Evictions)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "tracesim:", err)
	return 1
}
