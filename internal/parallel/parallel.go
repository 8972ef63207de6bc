// Package parallel provides the small deterministic worker-pool
// primitives the experiment rig runs its sweeps on. The contract that
// matters everywhere in this repository is
// *bit-identical results at any parallelism level*: every task runs
// exactly once, writes only to its own result slot, and error selection
// is by lowest task index — so a sweep run with one worker and the same
// sweep run with eight produce the same values, the same tables, and
// the same failure, in the same order.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Normalize clamps a requested parallelism level to [1, n]: zero or
// negative requests mean "use every core" (GOMAXPROCS), and there is
// never a reason to run more workers than tasks.
func Normalize(par, n int) int {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if par < 1 {
		par = 1
	}
	return par
}

// ForEach runs fn(0) .. fn(n-1) on up to par concurrent workers and
// returns the error of the lowest-index failing task (nil when every
// task succeeded). Unlike errgroup-style helpers it does NOT cancel on
// first error: every task always runs, so side effects (result slots,
// counter snapshots) are identical whether or not an earlier task
// failed, and identical at every parallelism level. With par <= 1 the
// tasks run serially on the calling goroutine in index order — the
// deterministic golden path `-parallel 1` selects.
func ForEach(par, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	par = Normalize(par, n)
	if par == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn over [0, n) with up to par workers and returns the
// results in index order. Error selection follows ForEach: the
// lowest-index failure wins, and every task runs regardless.
func Map[T any](par, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(par, n, func(i int) error {
		v, err := fn(i)
		out[i] = v
		return err
	})
	return out, err
}
