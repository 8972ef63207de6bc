package sdram

import (
	"math/rand"
	"testing"
)

func TestScheduleImmediateWhenIdle(t *testing.T) {
	ts := New(DefaultConfig())
	done := ts.Schedule(100, 0)
	if want := uint64(100 + 46); done != want {
		t.Fatalf("done = %d, want %d", done, want)
	}
	if ts.Stats().StallCycles != 0 {
		t.Fatal("idle op stalled")
	}
}

func TestChannelGapEnforced(t *testing.T) {
	ts := New(Config{Banks: 8, ChannelGap: 10, BankBusy: 12})
	// Different banks so only the channel gap binds.
	ts.Schedule(0, 0)
	done := ts.Schedule(0, 1)
	// Second op starts at 10 (channel), finishes 22.
	if done != 22 {
		t.Fatalf("done = %d, want 22", done)
	}
	if ts.Stats().StallCycles != 10 {
		t.Fatalf("stall = %d, want 10", ts.Stats().StallCycles)
	}
}

func TestBankConflictDelaysBeyondChannel(t *testing.T) {
	ts := New(Config{Banks: 4, ChannelGap: 5, BankBusy: 20})
	ts.Schedule(0, 0)         // bank 0 busy until 20, channel until 5
	done := ts.Schedule(0, 4) // same bank (4 % 4 == 0)
	if done != 40 {
		t.Fatalf("done = %d, want 40 (start 20 + busy 20)", done)
	}
	if ts.Stats().BankConflicts != 1 {
		t.Fatalf("BankConflicts = %d, want 1", ts.Stats().BankConflicts)
	}
}

func TestNonPow2Banks(t *testing.T) {
	ts := New(Config{Banks: 3, ChannelGap: 5, BankBusy: 6})
	// Sets 0..5 must map across all 3 banks without panicking.
	for s := int64(0); s < 6; s++ {
		ts.Schedule(0, s)
	}
	if ts.Stats().Ops != 6 {
		t.Fatalf("Ops = %d", ts.Stats().Ops)
	}
}

func TestIdleAndNextFree(t *testing.T) {
	ts := New(Config{Banks: 4, ChannelGap: 10, BankBusy: 10})
	if ts.NextFree() != 0 {
		t.Fatal("fresh store not idle")
	}
	ts.Schedule(0, 0)
	if ts.NextFree() != 10 {
		t.Fatalf("NextFree = %d, want 10", ts.NextFree())
	}
}

func TestSustainedThroughputMatches42Percent(t *testing.T) {
	// Peak memory-op rate on a 100MHz 6xx bus with 128B lines and a
	// 16B-wide data path: one op per 1+8 = 9.6-ish cycles. The paper's
	// 42% of that is ~0.0437 ops/cycle; our default sustains 1/23.
	got := defaultSustainedOpsPerCycle()
	busPeak := 1.0 / 9.6
	frac := got / busPeak
	if frac < 0.38 || frac > 0.46 {
		t.Fatalf("sustained/buspeak = %.3f, want ~0.42", frac)
	}
}

// defaultSustainedOpsPerCycle is the best-case steady-state rate of the
// default timing: its sixteen banks (16/46 ops per cycle) outrun the
// channel, so the channel gap is the binding constraint.
func defaultSustainedOpsPerCycle() float64 {
	return 1 / float64(DefaultConfig().ChannelGap)
}

func TestSustainedRateUnderRandomLoad(t *testing.T) {
	// Saturate the store with back-to-back random-set ops and measure the
	// realized rate; it must match the nominal rate within 10%.
	ts := New(DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	const ops = 20000
	var now, last uint64
	for i := 0; i < ops; i++ {
		done := ts.Schedule(now, int64(rng.Intn(1<<16)))
		last = done
		// Arrivals are instantaneous (worst-case burst).
	}
	rate := float64(ops) / float64(last)
	want := defaultSustainedOpsPerCycle()
	// Random bank conflicts cost ~ChannelGap/Banks extra per op, so the
	// realized rate sits a few percent under nominal.
	if rate < want*0.85 || rate > want*1.01 {
		t.Fatalf("measured rate %.5f vs nominal %.5f", rate, want)
	}
}

func TestScheduleMonotonicCompletion(t *testing.T) {
	ts := New(DefaultConfig())
	rng := rand.New(rand.NewSource(9))
	var now, prev uint64
	for i := 0; i < 5000; i++ {
		now += uint64(rng.Intn(30))
		done := ts.Schedule(now, int64(rng.Intn(1024)))
		if done < prev {
			// FIFO service: completions may tie but never reorder in a
			// single-channel model.
			t.Fatalf("completion went backwards: %d after %d", done, prev)
		}
		prev = done
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Banks: 0, ChannelGap: 1, BankBusy: 1},
		{Banks: 4, ChannelGap: 0, BankBusy: 1},
		{Banks: 4, ChannelGap: 1, BankBusy: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}
