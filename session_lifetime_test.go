//go:build go1.24

package memories

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// settleGoroutines waits, briefly, for the goroutine count to fall back
// to want: a worker that has signalled its exit may still be unwinding
// when the call that waited for it returns.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestSessionTapLifetime: the board's worker lives only inside Run. When
// Run returns no goroutine is left behind, and a session dropped after
// Run is collected with its board: nothing outside the session pins the
// directory.
func TestSessionTapLifetime(t *testing.T) {
	before := runtime.NumGoroutine()
	board := func() weak.Pointer[Board] {
		s, err := NewSession(DefaultHostConfig(), SingleL3Board(16*MB, 8, 128), NewTPCC(ScaledTPCCConfig(4096)))
		if err != nil {
			t.Fatal(err)
		}
		for range 3 {
			s.Run(20_000)
			settleGoroutines(t, before)
		}
		return weak.Make(s.Board)
	}()
	runtime.GC()
	if board.Value() != nil {
		t.Fatal("a dropped session's board is still reachable after Run")
	}
}
