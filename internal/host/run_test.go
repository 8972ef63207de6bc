package host

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/checkpoint"
	"memories/internal/workload"
)

// runRecorder is a passive snooper that records the bus stream and, for
// each transaction, whether the host already reported a terminal
// condition when it went by.
type runRecorder struct {
	h        *Host
	txs      []bus.Transaction
	errSeens int // transactions snooped while h.Err() was non-nil
}

func (r *runRecorder) BusID() int { return -1 }

func (r *runRecorder) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	r.txs = append(r.txs, *tx)
	if r.h.Err() != nil {
		r.errSeens++
	}
	return bus.RespNull
}

// failAt is a checkpointable stream that fails after left references,
// as a trace reader does at a truncated block.
type failAt struct {
	g    workload.Generator
	left uint64
	err  error
}

var errFailAt = errors.New("stream broke")

func (f *failAt) Name() string     { return "fail-at" }
func (f *failAt) Footprint() int64 { return f.g.Footprint() }
func (f *failAt) Err() error       { return f.err }
func (f *failAt) Next() (workload.Ref, bool) {
	if f.left == 0 {
		f.err = errFailAt
		return workload.Ref{}, false
	}
	f.left--
	return f.g.Next()
}

func (f *failAt) Checkpoint(c *checkpoint.Codec) error {
	c.U64(&f.left)
	failed := f.err != nil
	c.Bool(&failed)
	if failed {
		f.err = errFailAt
	}
	return workload.CheckpointGenerator(c, f.g)
}

// runTwin builds a merged host on gen with IO injection on (so the
// host's own RNG draws between references) and a recorder on its bus.
func runTwin(t *testing.T, gen workload.Generator) (*Host, *runRecorder) {
	t.Helper()
	cfg := testConfig()
	cfg.IOFraction = 0.01
	h := MustNew(cfg, gen)
	rec := &runRecorder{h: h}
	h.Bus().Attach(rec)
	return h, rec
}

func tpccStream() workload.Generator {
	return workload.NewTPCC(workload.ScaledTPCCConfig(4096))
}

// steps is Run as n single Steps: the reference Run's look-ahead must
// match.
func steps(h *Host, n uint64) uint64 {
	var i uint64
	for ; i < n && h.Step(); i++ {
	}
	return i
}

// sameHost fails unless a and b — and their recorders — agree on every
// statistic, the bus stream, the terminal condition and every
// checkpoint byte.
func sameHost(t *testing.T, a, b *Host, ra, rb *runRecorder) {
	t.Helper()
	if a.Stats() != b.Stats() {
		t.Fatalf("host stats differ:\n%+v\n%+v", a.Stats(), b.Stats())
	}
	if a.Bus().Stats() != b.Bus().Stats() || a.Bus().Cycle() != b.Bus().Cycle() {
		t.Fatalf("bus differs: %+v at %d, %+v at %d", a.Bus().Stats(), a.Bus().Cycle(), b.Bus().Stats(), b.Bus().Cycle())
	}
	if !slices.Equal(ra.txs, rb.txs) {
		t.Fatalf("bus streams differ: %d and %d transactions", len(ra.txs), len(rb.txs))
	}
	if ra.errSeens != 0 || rb.errSeens != 0 {
		t.Fatalf("Err was set while transactions still ran: %d and %d seen", ra.errSeens, rb.errSeens)
	}
	if fmt.Sprint(a.Err()) != fmt.Sprint(b.Err()) {
		t.Fatalf("Err differs: %v and %v", a.Err(), b.Err())
	}
	pa, err := checkpoint.Marshal(a.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := checkpoint.Marshal(b.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa, pb) {
		t.Fatalf("checkpoints differ (%d and %d bytes)", len(pa), len(pb))
	}
}

// TestRunMatchesSteps holds the merged host's look-ahead to what it must
// not change: Run(n) draws references a window ahead and hints their
// lines, yet leaves the generator, the host and the bus exactly as n
// Steps do — on every window and hint boundary, on streams that end
// inside a window, on a window edge or before n, and on a stream that
// fails mid-window, whose error must surface only after every reference
// before it has run.
func TestRunMatchesSteps(t *testing.T) {
	const k, w = hintAhead, aheadWindow
	for _, n := range []uint64{1, k - 1, k, k + 1, w - 1, w, w + 1, 3*w + 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			a, ra := runTwin(t, tpccStream())
			b, rb := runTwin(t, tpccStream())
			if got := a.Run(n); got != n {
				t.Fatalf("Run(%d) = %d", n, got)
			}
			steps(b, n)
			if n > k && len(ra.txs) == 0 {
				t.Fatal("no bus traffic: the comparison is empty")
			}
			sameHost(t, a, b, ra, rb)
			if a.Err() != nil {
				t.Fatalf("Err = %v on a live stream", a.Err())
			}
		})
	}

	const n = 3*w + 7
	for _, end := range []struct {
		name string
		gen  func() workload.Generator
		ran  uint64
		err  error
	}{
		{"limit inside a window", func() workload.Generator { return workload.Limit(tpccStream(), w+w/2) }, w + w/2, ErrExhausted},
		{"limit on a window edge", func() workload.Generator { return workload.Limit(tpccStream(), 2*w) }, 2 * w, ErrExhausted},
		{"limit inside the hint distance", func() workload.Generator { return workload.Limit(tpccStream(), k/2) }, k / 2, ErrExhausted},
		{"failure mid-window", func() workload.Generator { return &failAt{g: tpccStream(), left: w + 100} }, w + 100, errFailAt},
	} {
		t.Run(end.name, func(t *testing.T) {
			a, ra := runTwin(t, end.gen())
			b, rb := runTwin(t, end.gen())
			if got := a.Run(n); got != end.ran {
				t.Fatalf("Run(%d) = %d, want %d", n, got, end.ran)
			}
			if got := steps(b, n); got != end.ran {
				t.Fatalf("%d Steps ran %d, want %d", n, got, end.ran)
			}
			if !errors.Is(a.Err(), end.err) {
				t.Fatalf("Err = %v, want %v", a.Err(), end.err)
			}
			sameHost(t, a, b, ra, rb)
			if a.Run(n) != 0 || steps(b, n) != 0 {
				t.Fatal("an ended stream ran again")
			}
			sameHost(t, a, b, ra, rb)
		})
	}

	// A failure just past n stays unseen until a later Run reaches it.
	t.Run("failure just past n", func(t *testing.T) {
		a, ra := runTwin(t, &failAt{g: tpccStream(), left: 50})
		b, rb := runTwin(t, &failAt{g: tpccStream(), left: 50})
		if a.Run(50) != 50 || steps(b, 50) != 50 || a.Err() != nil {
			t.Fatalf("first 50 references: Err = %v", a.Err())
		}
		sameHost(t, a, b, ra, rb)
		if a.Run(50) != 0 || steps(b, 50) != 0 || !errors.Is(a.Err(), errFailAt) {
			t.Fatalf("past the failure: Err = %v", a.Err())
		}
		sameHost(t, a, b, ra, rb)
	})

	// Checkpointed between two Runs and restored into a fresh twin, the
	// host goes on as the Steps reference does.
	t.Run("checkpoint between runs", func(t *testing.T) {
		const first, second = w + 5, 2*w + 3
		a, ra := runTwin(t, tpccStream())
		b, rb := runTwin(t, tpccStream())
		a.Run(first)
		steps(b, first)
		payload, err := checkpoint.Marshal(a.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		c, rc := runTwin(t, tpccStream())
		if err := checkpoint.Unmarshal(payload, c.Checkpoint); err != nil {
			t.Fatal(err)
		}
		c.Run(second)
		steps(b, second)
		// c's recorder saw only the second Run; compare it with b's tail.
		rb.txs = rb.txs[len(ra.txs):]
		sameHost(t, c, b, rc, rb)
	})
}

// TestPresenceHintCoversRowOnPaperHost holds presence.hint's premise: on
// the paper's 8-CPU host with 4-way L2s, the line it hints for an address
// is the line holding that address's row.
func TestPresenceHintCoversRowOnPaperHost(t *testing.T) {
	h := MustNew(DefaultConfig(), tpccStream())
	p := h.pres
	lineOf := func(i int64) uintptr { return uintptr(unsafe.Pointer(&p.rows[i])) / 64 }
	r := workload.NewRNG(3)
	for i := 0; i < 10_000; i++ {
		a := r.Uint64() >> 16
		hinted := int64(a>>p.offBits&p.setMask) * p.setBytes
		if row := cache.Bucket(p.geom, a) * p.stride; lineOf(hinted) != lineOf(row) {
			t.Fatalf("address %#x: hint covers row byte %d, its row is byte %d", a, hinted, row)
		}
	}
}
