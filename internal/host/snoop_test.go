package host

import (
	"testing"

	"memories/internal/bus"
	"memories/internal/workload"
)

// rawIssuer lets tests push hand-crafted transactions at the host's CPUs
// from a phantom device.
func rawIssue(h *Host, cmd bus.Command, a uint64, src int) bus.SnoopResponse {
	return h.Bus().Issue(&bus.Transaction{Cmd: cmd, Addr: a, Size: 128, SrcID: src})
}

func TestSnoopCleanDowngradesModified(t *testing.T) {
	gen := &scriptGen{refs: []workload.Ref{{Addr: 0x70000, CPU: 0, Write: true}}}
	h := MustNew(testConfig(), gen)
	h.Run(1)
	// A Clean from a phantom device (ID 99): cpu0 must answer modified
	// and keep a clean copy.
	if resp := rawIssue(h, bus.Clean, 0x70000, 99); resp != bus.RespModified {
		t.Fatalf("Clean response = %v, want modified", resp)
	}
	if resp := rawIssue(h, bus.Clean, 0x70000, 99); resp != bus.RespNull {
		t.Fatalf("second Clean response = %v, want null (already clean)", resp)
	}
	// The line must still be readable without a new bus read.
	spy := &busSpy{}
	h.Bus().Attach(spy)
	h.SetWorkload(&scriptGen{refs: []workload.Ref{{Addr: 0x70000, CPU: 0}}})
	h.Run(1)
	if len(spy.seen) != 0 {
		t.Fatalf("read after Clean went to the bus: %+v", spy.seen)
	}
}

func TestSnoopFlushInvalidates(t *testing.T) {
	gen := &scriptGen{refs: []workload.Ref{{Addr: 0x80000, CPU: 1, Write: true}}}
	h := MustNew(testConfig(), gen)
	h.Run(1)
	if resp := rawIssue(h, bus.Flush, 0x80000, 99); resp != bus.RespModified {
		t.Fatalf("Flush response = %v, want modified", resp)
	}
	// The line is gone: a re-read must miss to the bus.
	spy := &busSpy{}
	h.Bus().Attach(spy)
	h.SetWorkload(&scriptGen{refs: []workload.Ref{{Addr: 0x80000, CPU: 1}}})
	h.Run(1)
	if len(spy.byCmd(bus.Read)) != 1 {
		t.Fatal("read after Flush did not reach the bus")
	}
	if h.Stats().Invalidations == 0 {
		t.Fatal("Flush invalidation not counted")
	}
}

func TestSnoopIgnoresNonMemoryAndCastout(t *testing.T) {
	gen := &scriptGen{refs: []workload.Ref{{Addr: 0x90000, CPU: 0}}}
	h := MustNew(testConfig(), gen)
	h.Run(1)
	watch := &busSpy{}
	h.Bus().Attach(watch)
	for _, cmd := range []bus.Command{bus.IORead, bus.Interrupt, bus.Sync, bus.Castout, bus.Push} {
		if resp := rawIssue(h, cmd, 0x90000, 99); resp != bus.RespNull {
			t.Fatalf("%v response = %v, want null", cmd, resp)
		}
	}
	// Passive observers see all five; the snoop filter presents the CPUs
	// only the two memory commands, and only to the one holder. Skipped:
	// the three peers of the cold read, and three non-holders twice.
	if probed, skipped := h.SnoopFilter(); len(watch.seen) != 5 || probed != 2 || skipped != 3+2*3 {
		t.Fatalf("observer saw %d of 5; CPUs probed %d (want 2), skipped %d (want 9)", len(watch.seen), probed, skipped)
	}
	// Line still present.
	spy := &busSpy{}
	h.Bus().Attach(spy)
	h.SetWorkload(&scriptGen{refs: []workload.Ref{{Addr: 0x90000, CPU: 0}}})
	h.Run(1)
	if len(spy.seen) != 0 {
		t.Fatal("benign snoops disturbed the cache")
	}
}

func TestL2OffDirtyEvictionStillCastsOut(t *testing.T) {
	cfg := testConfig()
	cfg.L2Enabled = false
	cfg.L1Bytes = 8 << 10 // 8KB direct... 2-way; 32 sets
	gen := &scriptGen{refs: []workload.Ref{
		{Addr: 0x00000, CPU: 0, Write: true},
		{Addr: 0x08000, CPU: 0, Write: true}, // may conflict in 8KB L1
		{Addr: 0x10000, CPU: 0, Write: true}, // forces eviction in 2-way set
	}}
	h := MustNew(cfg, gen)
	spy := &busSpy{}
	h.Bus().Attach(spy)
	h.Run(3)
	if len(spy.byCmd(bus.Castout)) == 0 {
		t.Fatal("dirty eviction from the L1 coherence cache produced no castout")
	}
}

func TestUpgradeRaceLosesCopy(t *testing.T) {
	// cpu0 and cpu1 both hold a line shared; cpu1 writes (DClaim); cpu0's
	// copy must vanish including from its L1.
	gen := &scriptGen{refs: []workload.Ref{
		{Addr: 0xA0000, CPU: 0},
		{Addr: 0xA0000, CPU: 1},
		{Addr: 0xA0000, CPU: 1, Write: true},
		{Addr: 0xA0000, CPU: 0}, // must go to the bus again
	}}
	h := MustNew(testConfig(), gen)
	spy := &busSpy{}
	h.Bus().Attach(spy)
	h.Run(4)
	if got := len(spy.byCmd(bus.Read)); got != 3 {
		t.Fatalf("reads on bus = %d, want 3 (third read re-fetches)", got)
	}
	if bad, violated := h.CheckInclusion(); violated {
		t.Fatalf("inclusion violated at %#x", bad)
	}
}

func TestIntervenedReadFillsShared(t *testing.T) {
	// cpu0 dirty; cpu1 reads (intervention); cpu1 then writes: the write
	// must need a DClaim (proof the fill state was Shared, not Exclusive).
	gen := &scriptGen{refs: []workload.Ref{
		{Addr: 0xB0000, CPU: 0, Write: true},
		{Addr: 0xB0000, CPU: 1},
		{Addr: 0xB0000, CPU: 1, Write: true},
	}}
	h := MustNew(testConfig(), gen)
	spy := &busSpy{}
	h.Bus().Attach(spy)
	h.Run(3)
	if got := len(spy.byCmd(bus.DClaim)); got != 1 {
		t.Fatalf("DClaims = %d, want 1 (fill after intervention must be Shared)", got)
	}
}
