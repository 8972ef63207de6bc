package core

import (
	"fmt"
	"testing"

	"memories/internal/bus"
	"memories/internal/obs"
)

// periodicRetrier is a bus device that retries every memory operation
// whose sequence number is a multiple of every.
type periodicRetrier struct{ every uint64 }

func (r *periodicRetrier) BusID() int { return 30 }
func (r *periodicRetrier) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	if tx.Cmd.IsMemoryOp() && tx.Seq%r.every == 0 {
		return bus.RespRetry
	}
	return bus.RespNull
}

// TestTapMatchesDirectAttach: boards fed by a tap — in batches on their
// own goroutines during Run, one transaction at a time outside it — end
// every run with the counters of twins attached directly to an identical
// bus, and end the stream with the same node views, checkpoint bytes and
// tracer events. Run lengths straddle the batch length, and with another
// device on the bus retrying some transactions, the tap must withdraw
// them as directly attached boards do. Every board traces; the
// shallow-tracer board's ring fills and drops the rest of the stream.
func TestTapMatchesDirectAttach(t *testing.T) {
	cfgs := map[string]func() Config{
		"shallow-tracer": fourNodeConfig,
		"scrub": func() Config {
			cfg := fourNodeConfig()
			cfg.ECC = true
			cfg.ScrubIntervalCycles = 20_000
			return cfg
		},
		"profile": func() Config {
			cfg := fourNodeConfig()
			cfg.ProfileBucketCycles = 50_000
			return cfg
		},
	}
	runs := []int{1, tapBatchLen - 1, tapBatchLen, tapBatchLen + 1, 100_000}
	total := 0
	for _, n := range runs {
		total += n + 100
	}
	for _, retryEvery := range []uint64{0, 997} {
		t.Run(fmt.Sprintf("retry-every=%d", retryEvery), func(t *testing.T) {
			t.Parallel()
			txs := fourNodeStream(total, 0)
			direct, tapped := bus.New(bus.DefaultConfig()), bus.New(bus.DefaultConfig())
			var names []string
			var want, got []*Board
			var wantTrace, gotTrace []*[]obs.Event
			for name, cfg := range cfgs {
				names = append(names, name)
				w, g := MustNewBoard(cfg()), MustNewBoard(cfg())
				depth := 2 * total
				if name == "shallow-tracer" {
					depth = 1 << 12
				}
				wantTrace, gotTrace = append(wantTrace, traceAll(w, depth)), append(gotTrace, traceAll(g, depth))
				direct.Attach(w)
				want, got = append(want, w), append(got, g)
			}
			tap, err := NewTap(got...)
			if err != nil {
				t.Fatal(err)
			}
			tapped.Attach(tap)
			if retryEvery > 0 {
				direct.Attach(&periodicRetrier{retryEvery})
				tapped.Attach(&periodicRetrier{retryEvery})
			}
			issue := func(b *bus.Bus, txs []bus.Transaction) {
				for _, tx := range txs {
					b.Issue(&tx)
					b.AdvanceTo(b.Cycle() + 8)
				}
			}
			done := 0
			for _, n := range runs {
				// n transactions inside Run, then 100 outside it.
				run, after := txs[done:done+n], txs[done+n:done+n+100]
				done += n + 100
				issue(direct, run)
				tap.Run(func() { issue(tapped, run) })
				issue(direct, after)
				issue(tapped, after)
				for i, name := range names {
					label := fmt.Sprintf("%s after %d transactions", name, done)
					diffSnapshots(t, want[i].Counters().Snapshot(), got[i].Counters().Snapshot(), label)
					want[i].Flush()
					got[i].Flush()
					diffSnapshots(t, want[i].Counters().Snapshot(), got[i].Counters().Snapshot(), label+", flushed")
				}
			}
			for i, name := range names {
				checkSameBoard(t, name, want[i], got[i])
				if retryEvery > 0 && want[i].Counters().Value("filter.rejected.retried") == 0 {
					t.Fatalf("%s: the retrier withdrew nothing", name)
				}
				checkSameTrace(t, name, want[i], got[i], wantTrace[i], gotTrace[i])
			}
		})
	}
}

// TestTapRefusesRetryBoards: a board that posts retries must answer in
// each transaction's snoop window, which a batch has long closed.
func TestTapRefusesRetryBoards(t *testing.T) {
	cfg := fourNodeConfig()
	cfg.RetryOnOverflow = true
	if _, err := NewTap(MustNewBoard(fourNodeConfig()), MustNewBoard(cfg)); err == nil {
		t.Fatal("NewTap accepted a RetryOnOverflow board")
	}
	// With no board, no worker would ever return a handed batch.
	if _, err := NewTap(); err == nil {
		t.Fatal("NewTap accepted no boards")
	}
}
