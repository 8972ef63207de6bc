// Command memoriesd is the MemorIES emulation service: a long-running
// multi-tenant server that hosts a bounded pool of emulated boards and
// drives them over HTTP sessions (internal/service). It is the
// "shared lab instrument" deployment shape — many tenants streaming
// their bus traces into one always-on emulator.
//
//	memoriesd -addr :8080 -checkpoint-dir /var/lib/memories
//
// A quick session from curl:
//
//	curl -s localhost:8080/sessions -d '{"cache":"4MB","assoc":8}'
//	curl -s localhost:8080/sessions/s-000001/trace --data-binary @tpcc.trace
//	curl -s localhost:8080/sessions/s-000001/stats
//	curl -s -X DELETE localhost:8080/sessions/s-000001
//
// On SIGTERM/SIGINT the server drains: admission stops (503 with
// Retry-After), queued ingest finishes, every session's board is
// checkpointed crash-safely into -checkpoint-dir, and the process
// exits 0. A second signal aborts immediately with exit 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memories/internal/addr"
	"memories/internal/service"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr, nil)) }

// run is main with its plumbing exposed: args come from the caller,
// logs go to logw, and ready (when non-nil) receives the bound listen
// address once the server is up — the in-process tests drive it
// exactly like a process.
func run(args []string, logw io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("memoriesd", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addrFlag     = fs.String("addr", ":8080", "HTTP listen address")
		maxSessions  = fs.Int("max-sessions", 1024, "bounded pool of concurrent boards")
		maxDirBytes  = fs.String("max-dir-bytes", "64MB", "per-session emulated directory footprint quota")
		maxInflight  = fs.Int("max-inflight", 8, "per-session ingest queue depth in blocks")
		maxBody      = fs.String("max-body", "8MB", "ingest request body cap")
		ckptDir      = fs.String("checkpoint-dir", "", "drain checkpoints land here (empty: drain without checkpointing)")
		corpusDir    = fs.String("corpus-dir", "", "warm-start checkpoint corpus (empty: warm starts disabled)")
		drainTimeout = fs.Duration("drain-timeout", 60*time.Second, "maximum time to drain sessions on shutdown")
		retryAfter   = fs.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		pprofFlag    = fs.Bool("pprof", false, "expose /debug/pprof endpoints for live profiling")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dirQuota, err := addr.ParseSize(*maxDirBytes)
	if err != nil {
		fmt.Fprintf(logw, "memoriesd: -max-dir-bytes: %v\n", err)
		return 2
	}
	bodyCap, err := addr.ParseSize(*maxBody)
	if err != nil {
		fmt.Fprintf(logw, "memoriesd: -max-body: %v\n", err)
		return 2
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintf(logw, "memoriesd: checkpoint dir: %v\n", err)
			return 1
		}
	}
	srv := service.New(service.Config{
		MaxSessions:       *maxSessions,
		MaxDirectoryBytes: dirQuota,
		MaxInflight:       *maxInflight,
		MaxBodyBytes:      bodyCap,
		CheckpointDir:     *ckptDir,
		CorpusDir:         *corpusDir,
		RetryAfter:        *retryAfter,
		EnablePprof:       *pprofFlag,
	})
	if err := srv.Start(*addrFlag); err != nil {
		fmt.Fprintf(logw, "memoriesd: listen: %v\n", err)
		return 1
	}
	fmt.Fprintf(logw, "memoriesd: serving on %s (pool %d, dir quota %s)\n",
		srv.Addr(), *maxSessions, addr.FormatSize(dirQuota))
	// Catch signals before anyone is told the server is up: a SIGTERM
	// sent on seeing ready must drain, not kill the process.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	if ready != nil {
		ready <- srv.Addr()
	}
	<-sigc
	fmt.Fprintln(logw, "memoriesd: shutdown requested; draining sessions (^C again to abort)")
	go func() {
		<-sigc
		fmt.Fprintln(logw, "memoriesd: aborted")
		os.Exit(130)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	n, err := srv.Drain(ctx)
	if err != nil {
		fmt.Fprintf(logw, "memoriesd: drain: %v\n", err)
		_ = srv.Close()
		return 1
	}
	if *ckptDir != "" {
		fmt.Fprintf(logw, "memoriesd: drained %d sessions; checkpoints in %s\n", n, *ckptDir)
	} else {
		fmt.Fprintf(logw, "memoriesd: drained %d sessions\n", n)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(logw, "memoriesd: close: %v\n", err)
		return 1
	}
	return 0
}
