package core

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/obs"
	"memories/internal/workload"
	"memories/protocols"
)

// TestBoardObsAllocFree is the ISSUE 5 hot-path acceptance criterion:
// with a registry mirror and a tracer attached, Snoop and SnoopBatch
// stay zero-allocation — tracing disabled (the steady state), tracing
// enabled (ring writes are in-place), and with a sampler actively
// requesting mirror publishes.
func TestBoardObsAllocFree(t *testing.T) {
	reg := obs.NewRegistry()
	b := MustNewBoard(fourNodeConfig())
	if err := b.Observe(reg, func(obs.Event) {}, "board", 4096); err != nil {
		t.Fatal(err)
	}
	txs := fourNodeStream(4096, 48)
	for i := range txs {
		b.Snoop(&txs[i])
	}
	m, tr := b.mirror, b.tracer
	if m == nil || tr == nil {
		t.Fatal("Observe did not attach mirror and tracer")
	}

	cycle := txs[len(txs)-1].Cycle
	i := 0
	snoopOne := func() {
		cycle += 48
		tx := txs[i%len(txs)]
		tx.Cycle = cycle
		b.Snoop(&tx)
		i++
	}

	t.Run("snoop/tracing-off", func(t *testing.T) {
		if allocs := testing.AllocsPerRun(10000, snoopOne); allocs != 0 {
			t.Fatalf("Snoop with obs attached allocates %.2f/op, want 0", allocs)
		}
	})
	t.Run("snoop/mirror-publish", func(t *testing.T) {
		if allocs := testing.AllocsPerRun(2000, func() {
			m.Request() // sampler asking for a publish every transaction
			snoopOne()
		}); allocs != 0 {
			t.Fatalf("Snoop servicing mirror requests allocates %.2f/op, want 0", allocs)
		}
		if m.Requested() {
			t.Fatal("publish path was not exercised: the last request is still pending")
		}
	})
	t.Run("snoop/tracing-on", func(t *testing.T) {
		tr.Enable(obs.Filter{})
		defer tr.Disable()
		if allocs := testing.AllocsPerRun(10000, snoopOne); allocs != 0 {
			t.Fatalf("Snoop with tracing enabled allocates %.2f/op, want 0", allocs)
		}
		if b.Counters().Value("trace.captured") == 0 {
			t.Fatal("tracer captured nothing")
		}
	})

	batch := txs[:64:64]
	snoopBatch := func() {
		for j := range batch {
			cycle += 48
			batch[j].Cycle = cycle
		}
		b.SnoopBatch(batch)
	}
	t.Run("batch/tracing-off", func(t *testing.T) {
		if allocs := testing.AllocsPerRun(500, snoopBatch); allocs != 0 {
			t.Fatalf("SnoopBatch with obs attached allocates %.2f/run, want 0", allocs)
		}
	})
	t.Run("batch/mirror-publish", func(t *testing.T) {
		if allocs := testing.AllocsPerRun(500, func() {
			m.Request()
			snoopBatch()
		}); allocs != 0 {
			t.Fatalf("SnoopBatch servicing mirror requests allocates %.2f/run, want 0", allocs)
		}
	})
	t.Run("batch/tracing-on", func(t *testing.T) {
		tr.Enable(obs.Filter{})
		defer tr.Disable()
		if allocs := testing.AllocsPerRun(500, snoopBatch); allocs != 0 {
			t.Fatalf("SnoopBatch with tracing enabled allocates %.2f/run, want 0", allocs)
		}
	})
}

// TestObserveDoesNotPerturbCounters: the same stream with and without
// an attached registry/tracer yields bit-identical counters — the
// observability layer observes, it never steers. The one difference is
// the trace-collection mode's own count: trace.captured and trace.dropped
// split the accepted transactions between the tracer's ring and its
// overflow.
func TestObserveDoesNotPerturbCounters(t *testing.T) {
	txs := fourNodeStream(20_000, 48)

	plain := MustNewBoard(fourNodeConfig())
	for i := range txs {
		tx := txs[i]
		plain.Snoop(&tx)
	}
	plain.Flush()

	reg := obs.NewRegistry()
	observed := MustNewBoard(fourNodeConfig())
	if err := observed.Observe(reg, func(obs.Event) {}, "board", 256); err != nil {
		t.Fatal(err)
	}
	observed.tracer.Enable(obs.Filter{})
	for i := range txs {
		tx := txs[i]
		observed.Snoop(&tx)
		if i%1000 == 0 {
			observed.mirror.Request()
		}
	}
	observed.Flush()
	observed.PublishObs()

	got := observed.Counters().Snapshot()
	captured, dropped := got["trace.captured"], got["trace.dropped"]
	if captured != 256 || captured+dropped != got["filter.accepted"] {
		t.Fatalf("tracer stored %d and dropped %d of %d accepted; want the ring's 256 stored, the rest dropped",
			captured, dropped, got["filter.accepted"])
	}
	want := plain.Counters().Snapshot()
	want["trace.captured"], want["trace.dropped"] = captured, dropped
	diffSnapshots(t, want, got, "observed")

	// The final registry snapshot equals the bank exactly.
	snap := reg.Snapshot()
	for name, want := range got {
		if got := snap.Value("board." + name); got != want {
			t.Errorf("registry board.%s = %d, bank %d", name, got, want)
		}
	}
}

// stressConfig is the race-stress board: four identical nodes in one
// snoop group, two CPUs each.
func stressConfig() Config {
	var nodes []NodeConfig
	for i := 0; i < 4; i++ {
		nodes = append(nodes, NodeConfig{
			Name:     string(rune('a' + i)),
			CPUs:     []int{2 * i, 2*i + 1},
			Geometry: addr.MustGeometry(4*addr.MB, 128, 4), // 8192 sets
			Policy:   cache.LRU,
			Protocol: protocols.MustLoad("mesi"),
		})
	}
	return Config{Nodes: nodes}
}

// TestObsConcurrentSamplerStress is the race-stress criterion, run under
// -race in CI: four independent boards share one registry, as the session
// service's boards do, and each also has its own tracer, which the service
// does not attach. Each board is driven through SnoopBatch by its own
// writer goroutine while one sampler per board snapshots the shared
// registry and drains that board's live ring, and an extra reader renders
// Prometheus text — all concurrently. After quiesce each board's registry
// view must equal its bank exactly, and its sink must have received every
// record its tracer captured.
func TestObsConcurrentSamplerStress(t *testing.T) {
	const nBoards, batch = 4, 64
	perBoard := 80_000
	if testing.Short() {
		perBoard = 16_000
	}

	reg := obs.NewRegistry()
	boards := make([]*Board, nBoards)
	samplers := make([]*obs.Sampler, nBoards)
	sunk := make([]uint64, nBoards) // each written by its board's sampler only until Stop returns
	for i := range boards {
		boards[i] = MustNewBoard(stressConfig())
		if err := boards[i].Observe(reg, func(obs.Event) { sunk[i]++ }, fmt.Sprintf("board%d", i), 1024); err != nil {
			t.Fatal(err)
		}
		boards[i].Tracer().Enable(obs.Filter{})
		samplers[i] = &obs.Sampler{Reg: reg, Interval: time.Millisecond, Trace: boards[i].Tracer(), JSONL: io.Discard}
		samplers[i].Start()
	}

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Request()
			if err := obs.WriteProm(io.Discard, reg.Snapshot(), nil); err != nil {
				t.Errorf("WriteProm: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for i, b := range boards {
		wg.Add(1)
		go func(i int, b *Board) {
			defer wg.Done()
			rng := workload.NewRNG(uint64(300 + i))
			txs := make([]bus.Transaction, batch)
			cycle := uint64(0)
			for done := 0; done < perBoard; done += batch {
				for j := range txs {
					cycle += 48
					cmd := bus.Read
					if rng.Chance(0.3) {
						cmd = bus.RWITM
					}
					txs[j] = bus.Transaction{
						Cycle: cycle, Cmd: cmd,
						Addr: uint64(rng.Intn(1<<22)) * 128, Size: 128, SrcID: int(rng.Intn(8)),
					}
				}
				b.SnoopBatch(txs)
			}
			b.Flush()
		}(i, b)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	for i, b := range boards {
		b.Tracer().Disable()
		samplers[i].Stop()
	}

	// Quiesced: force-publish; every registry value must match its bank,
	// and the registry must hold nothing the banks do not.
	var accepted, captured, dropped uint64
	want := make(map[string]uint64)
	for i, b := range boards {
		b.PublishObs()
		for name, v := range b.Counters().Snapshot() {
			want[fmt.Sprintf("board%d.%s", i, name)] = v
		}
		accepted += b.Counters().Value("filter.accepted")
		captured += b.Counters().Value("trace.captured")
		dropped += b.Counters().Value("trace.dropped")
		// Stop's final tick drained what the live ticks left in the ring.
		if c := b.Counters().Value("trace.captured"); b.Tracer().Drained() != c || sunk[i] != c {
			t.Errorf("board%d: tracer captured %d, drained %d, sink received %d", i, c, b.Tracer().Drained(), sunk[i])
		}
	}
	got := make(map[string]uint64)
	for _, c := range reg.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	diffSnapshots(t, want, got, "registry")

	// Every accepted transaction was offered to exactly one board's
	// tracer: captured + dropped must equal the accepted total.
	if captured+dropped != accepted {
		t.Errorf("tracer saw %d (%d captured + %d dropped), accepted %d",
			captured+dropped, captured, dropped, accepted)
	}
	if accepted == 0 {
		t.Error("stress run accepted no transactions")
	}
}

// TestObserveAttachmentErrors covers the wiring failure mode: a
// duplicate registry prefix.
func TestObserveAttachmentErrors(t *testing.T) {
	reg := obs.NewRegistry()
	b := MustNewBoard(fourNodeConfig())
	if err := b.Observe(reg, nil, "board", 0); err != nil {
		t.Fatal(err)
	}
	b2 := MustNewBoard(fourNodeConfig())
	if err := b2.Observe(reg, nil, "board", 0); err == nil {
		t.Fatal("duplicate prefix did not error")
	}

	// Without a mirror there is nothing to publish.
	MustNewBoard(fourNodeConfig()).PublishObs()
}
