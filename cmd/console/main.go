// Command console is the interactive MemorIES console: it boots a
// session (workload + host + board), runs traffic on demand, and offers
// the full console command set (stats extraction, cache parameter
// setting, protocol loading) plus a "run N" command to advance the
// emulation — the software stand-in for watching a live host machine.
//
//	console -workload tpcc -l3 64MB
//	> run 1000000
//	> nodes
//	> reprogram 0 size=256MB assoc=8
//	> checkpoint warm.ckpt
//	> run 1000000
//	> node 0
//
// The checkpoint/restore commands snapshot the whole session (workload
// cursors, host, board, counters). With -checkpoint, SIGINT/SIGTERM
// writes a final snapshot before exiting — a long "run" stops at the
// next millionth reference — and -resume warm-starts a new console from
// a previous snapshot.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memories"
	"memories/internal/workload/byname"
)

func main() {
	var (
		wl       = flag.String("workload", "tpcc", "workload: tpcc, tpch, web, uniform, or a SPLASH2 kernel")
		dbFactor = flag.Int64("db-factor", 2048, "database footprint divisor vs paper scale")
		l3       = flag.String("l3", "64MB", "initial emulated cache size")
		assoc    = flag.Int("assoc", 8, "initial associativity")
		seed     = flag.Uint64("seed", 1, "workload seed")
		obsAddr  = flag.String("obs", "", "serve live metrics on this address (e.g. :9090) and enable the metrics/watch/trace-on console commands")
		obsIv    = flag.Duration("obs-interval", time.Second, "sampler and trace-drain interval for -obs")
		ckpt     = flag.String("checkpoint", "", "write a final session snapshot here on SIGINT/SIGTERM")
		resume   = flag.String("resume", "", "restore a session snapshot before the first prompt")
	)
	flag.Parse()

	size, err := memories.ParseSize(*l3)
	if err != nil {
		fatal(err)
	}
	gen, err := byname.New(*wl, *dbFactor, *seed, 8, "classic", 0, 0.3)
	if err != nil {
		fatal(err)
	}

	bcfg := memories.SingleL3Board(size, *assoc, 128)
	bcfg.ProfileBucketCycles = 2_000_000
	s, err := memories.NewSession(memories.DefaultHostConfig(), bcfg, gen)
	if err != nil {
		fatal(err)
	}
	var obsHandle *memories.ObsHandle
	if *obsAddr != "" {
		h, err := s.EnableObs(*obsAddr, *obsIv, nil, os.Stdout)
		if err != nil {
			fatal(err)
		}
		obsHandle = h
		defer h.Close()
		fmt.Printf("obs: serving /metrics on %s\n", h.Server.Addr())
	}
	c := s.Console(os.Stdout)
	c.SetCheckpoint(s.Checkpoint, func(path string) error {
		rep, err := s.Restore(path)
		if err != nil {
			return err
		}
		if rep.ECCCorrected+rep.ECCInvalidated > 0 {
			fmt.Printf("restore: ECC repaired %d word(s), invalidated %d\n",
				rep.ECCCorrected, rep.ECCInvalidated)
		}
		return nil
	})
	if *resume != "" {
		if _, err := s.Restore(*resume); err != nil {
			fatal(err)
		}
		fmt.Printf("session restored from %s\n", *resume)
	}

	// Graceful shutdown: the session mutex serializes the signal
	// handler against an in-flight command; quit makes a long "run"
	// yield at the next chunk boundary so the final checkpoint happens
	// promptly. A second signal aborts without checkpointing.
	var mu sync.Mutex
	var quit atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		quit.Store(true)
		fmt.Fprintln(os.Stderr, "\nconsole: shutting down (^C again to abort)")
		go func() {
			<-sigc
			fmt.Fprintln(os.Stderr, "console: aborted")
			os.Exit(130)
		}()
		mu.Lock()
		code := 130
		if *ckpt != "" {
			if err := s.Checkpoint(*ckpt); err != nil {
				fmt.Fprintln(os.Stderr, "console: final checkpoint:", err)
				code = 1
			} else {
				fmt.Fprintf(os.Stderr, "console: session checkpointed to %s (resume with -resume)\n", *ckpt)
			}
		}
		if obsHandle != nil {
			obsHandle.Close()
		}
		os.Exit(code)
	}()

	fmt.Printf("MemorIES console — workload %s, board %s %d-way. Type 'help'; 'run <n>' advances the host.\n",
		*wl, *l3, *assoc)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		fields := strings.Fields(line)
		if len(fields) > 0 && fields[0] == "run" {
			n := uint64(1_000_000)
			if len(fields) > 1 {
				v, err := strconv.ParseUint(fields[1], 10, 64)
				if err != nil {
					fmt.Printf("error: bad count %q\n", fields[1])
					continue
				}
				n = v
			}
			// Chunked so a shutdown signal can checkpoint mid-run.
			var ran uint64
			for ran < n && !quit.Load() {
				chunk := n - ran
				if chunk > 1_000_000 {
					chunk = 1_000_000
				}
				mu.Lock()
				got := s.Run(chunk)
				mu.Unlock()
				ran += got
				if got < chunk {
					break
				}
			}
			fmt.Printf("ran %d references (bus utilization %.1f%%)\n", ran, s.Host.Bus().Utilization()*100)
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		mu.Lock()
		err := c.Execute(line)
		mu.Unlock()
		if err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "console:", err)
	os.Exit(1)
}
