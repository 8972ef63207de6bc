// Package cli holds the shutdown rule the long-running commands share:
// the first SIGINT/SIGTERM asks the command to finish what it is doing,
// the second aborts the process with exit status 130.
package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// Interrupts starts catching SIGINT/SIGTERM at once. On the first signal
// it writes "<name>: <msg> (^C again to abort)" to w and cancels ctx; on
// the second it writes "<name>: aborted" and exits 130. stop restores the
// default signal handling.
func Interrupts(w io.Writer, name, msg string) (ctx context.Context, stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sigc:
		case <-ctx.Done():
			return // stopped
		}
		fmt.Fprintf(w, "%s: %s (^C again to abort)\n", name, msg)
		cancel()
		<-sigc
		fmt.Fprintf(w, "%s: aborted\n", name)
		os.Exit(130)
	}()
	return ctx, func() {
		signal.Stop(sigc)
		cancel()
	}
}
