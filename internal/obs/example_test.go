package obs_test

import (
	"fmt"
	"os"

	"memories/internal/obs"
	"memories/internal/stats"
)

// ExampleRegistry shows the two ways metrics enter a registry: direct
// atomic counters owned by the caller, and mirrors that publish a
// single-owner stats.Bank on request.
func ExampleRegistry() {
	reg := obs.NewRegistry()

	// Direct counters are atomic and safe to bump from any goroutine.
	reg.Counter("ingest.batches").Add(3)

	// A board's stats.Bank is single-owner; a Mirror publishes a copy
	// the registry can read without touching the live counters.
	bank := stats.NewBank()
	bank.Counter("miss").Add(41)
	m := obs.NewMirror(bank)
	if err := reg.AttachMirror("board0", m); err != nil {
		fmt.Println(err)
		return
	}
	bank.Counter("miss").Inc()
	m.Publish() // normally done by the bank owner at a quiesce point

	snap := reg.Snapshot()
	fmt.Print(snap.Dump(""))
	// Output:
	// board0.miss 42
	// ingest.batches 3
}

// ExampleTracer records two bus transactions through an address-range
// filter and drains them into its sink as decoded events.
func ExampleTracer() {
	tr := obs.NewTracer(16, func(ev obs.Event) {
		fmt.Printf("cycle=%d addr=%#x cmd=%d src=%d\n", ev.Cycle, ev.Addr, ev.Cmd, ev.Src)
	})
	var f obs.Filter
	f.AddrLo, f.AddrHi = 0x1000, 0x2000
	tr.Enable(f)

	fmt.Println(tr.Record(100, 0x1440, 2, 1)) // inside the window: stored
	fmt.Println(tr.Record(148, 0x8000, 2, 1)) // outside: filtered out

	tr.Drain()
	// Output:
	// true true
	// false false
	// cycle=100 addr=0x1440 cmd=2 src=1
}

// ExampleWriteProm renders a snapshot in the Prometheus text format that
// the -obs HTTP endpoint serves on /metrics.
func ExampleWriteProm() {
	reg := obs.NewRegistry()
	reg.Counter("board.filter.accepted").Add(7)
	if err := obs.WriteProm(os.Stdout, reg.Snapshot(), nil); err != nil {
		fmt.Println(err)
	}
	// Output:
	// # HELP memories_board_filter_accepted memories counter board.filter.accepted
	// # TYPE memories_board_filter_accepted counter
	// memories_board_filter_accepted 7
}
