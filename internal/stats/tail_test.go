package stats

import "testing"

func TestTailKeepsTrailingBuckets(t *testing.T) {
	ts := NewTimeSeries(10)
	for i := 0; i < 10; i++ {
		ts.Observe(uint64(i)*10, uint64(i), 10)
	}
	tail := ts.Tail(0.5)
	if tail.Len() != 5 {
		t.Fatalf("Tail(0.5).Len = %d, want 5", tail.Len())
	}
	if tail.bucketWidth != 10 {
		t.Fatalf("bucketWidth = %d", tail.bucketWidth)
	}
	// The kept buckets are the last five (ratios 0.5..0.9).
	if tail.Ratio(0) != 0.5 || tail.Ratio(4) != 0.9 {
		t.Fatalf("Tail ratios = %v", tail.Ratios())
	}
	// Tail(1) is the whole series.
	if ts.Tail(1).Len() != ts.Len() {
		t.Fatal("Tail(1) truncated")
	}
}

func TestTailRejectsBadFraction(t *testing.T) {
	ts := NewTimeSeries(10)
	for _, frac := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Tail(%v) did not panic", frac)
				}
			}()
			ts.Tail(frac)
		}()
	}
}

func TestTailExcludesWarmupSpikes(t *testing.T) {
	// Declining cold-start ramp then flat: the full series has a steep
	// head; the tail must show no spikes.
	ts := NewTimeSeries(1)
	for i := 0; i < 40; i++ {
		num := uint64(5)
		if i < 8 {
			num = uint64(100 - i*10)
		}
		ts.Observe(uint64(i), num, 100)
	}
	if got := ts.Tail(0.5).Spikes(1.5); len(got) != 0 {
		t.Fatalf("tail has spurious spikes %v", got)
	}
}

func TestTimeSeriesString(t *testing.T) {
	ts := NewTimeSeries(100)
	ts.Observe(0, 1, 4)
	if got := ts.String(); got != "timeseries{buckets=1 width=100 mean=0.2500}" {
		t.Fatalf("String = %q", got)
	}
}
