package host

import (
	"sort"
	"testing"
)

// drainWheel pops everything, returning the sequence of events.
func drainWheel(w *eventWheel) []wheelEvent {
	var out []wheelEvent
	for {
		cyc, cpu, ok := w.Pop()
		if !ok {
			return out
		}
		out = append(out, wheelEvent{cycle: cyc, cpu: cpu})
	}
}

func TestWheelOrdersByCycleThenCPU(t *testing.T) {
	w := newEventWheel()
	// Deliberately scheduled out of order, with same-cycle ties and
	// cycles from 0 to 1<<30.
	ins := []wheelEvent{
		{cycle: 1 << 30, cpu: 0},
		{cycle: 3, cpu: 7},
		{cycle: 70000, cpu: 2},
		{cycle: 3, cpu: 1},
		{cycle: 500, cpu: 9},
		{cycle: 0, cpu: 4},
		{cycle: 70000, cpu: 0},
		{cycle: 1 << 30, cpu: 200},
	}
	for _, ev := range ins {
		w.Schedule(ev.cycle, ev.cpu)
	}
	if got, want := w.Len(), len(ins); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	got := drainWheel(w)
	want := append([]wheelEvent(nil), ins...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].cycle != want[j].cycle {
			return want[i].cycle < want[j].cycle
		}
		return want[i].cpu < want[j].cpu
	})
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].cycle != want[i].cycle || got[i].cpu != want[i].cpu {
			t.Fatalf("pop %d = (%d, cpu %d), want (%d, cpu %d)",
				i, got[i].cycle, got[i].cpu, want[i].cycle, want[i].cpu)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", w.Len())
	}
}

func TestWheelClampsPastSchedules(t *testing.T) {
	w := newEventWheel()
	w.Schedule(100, 1)
	if cyc, cpu, _ := w.Pop(); cyc != 100 || cpu != 1 {
		t.Fatalf("pop = (%d, %d), want (100, 1)", cyc, cpu)
	}
	// Scheduling before the popped cycle clamps to it; time never runs
	// backwards.
	if got := w.Schedule(7, 2); got != 100 {
		t.Fatalf("clamped cycle = %d, want 100", got)
	}
	if cyc, _, _ := w.Pop(); cyc != 100 {
		t.Fatalf("clamped pop cycle = %d, want 100", cyc)
	}
	if w.now != 100 {
		t.Fatalf("now = %d, want 100", w.now)
	}
}

func TestWheelInterleavedScheduleAndPop(t *testing.T) {
	// Re-scheduling after each pop (the host's steady state: every actor
	// keeps exactly one event outstanding) must keep global order.
	w := newEventWheel()
	clocks := []uint64{0, 0, 0, 0}
	for i := range clocks {
		w.Schedule(clocks[i], int32(i))
	}
	var last uint64
	for n := 0; n < 10000; n++ {
		cyc, cpu, ok := w.Pop()
		if !ok {
			t.Fatalf("wheel empty at pop %d", n)
		}
		if cyc < last {
			t.Fatalf("pop %d went backwards: %d after %d", n, cyc, last)
		}
		if cyc != clocks[cpu] {
			t.Fatalf("pop %d: cpu %d at cycle %d, want %d", n, cpu, cyc, clocks[cpu])
		}
		last = cyc
		// Deterministic pseudo-random stride of 1 to 100000 cycles.
		stride := uint64(1 + (n*2654435761)%100000)
		clocks[cpu] += stride
		w.Schedule(clocks[cpu], cpu)
	}
}

func TestWheelPeekMatchesPop(t *testing.T) {
	w := newEventWheel()
	for i := int32(0); i < 32; i++ {
		w.Schedule(uint64(i)*977, i%8)
	}
	for w.Len() > 0 {
		pc, pcpu, ok := w.Peek()
		if !ok {
			t.Fatal("Peek empty while Len > 0")
		}
		gc, gcpu, _ := w.Pop()
		if pc != gc || pcpu != gcpu {
			t.Fatalf("Peek (%d, %d) != Pop (%d, %d)", pc, pcpu, gc, gcpu)
		}
	}
	if _, _, ok := w.Peek(); ok {
		t.Fatal("Peek reported an event on an empty wheel")
	}
}

// FuzzEventWheel drives random schedule/pop sequences against a sorted
// reference model: every pop must come out in (cycle, cpuID) order with
// past schedules clamped, and no event may be lost or duplicated. The
// model breaks equal-(cycle, cpuID) ties by schedule order; such events
// are indistinguishable, so any tie order passes.
func FuzzEventWheel(f *testing.F) {
	f.Add([]byte{0x01, 0x10, 0x00, 0x03, 0x00})
	f.Add([]byte{
		0x01, 0xff, 0xff, 0x01, // schedule far
		0x1f, 0x01, 0x00, 0x02, // schedule shifted far past it
		0x00,                   // pop
		0x01, 0x00, 0x00, 0x01, // schedule at now (clamped)
		0x00, 0x00, 0x00, // pops
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reference model is O(n) per pop; cap the op stream so huge
		// generated inputs don't turn the oracle quadratic-slow.
		if len(data) > 2048 {
			data = data[:2048]
		}
		type modelEvent struct {
			cycle, seq uint64
			cpu        int32
		}
		w := newEventWheel()
		var model []modelEvent
		var modelNow, seq uint64

		popBoth := func() {
			cyc, cpu, ok := w.Pop()
			if !ok {
				if len(model) != 0 {
					t.Fatalf("wheel empty with %d events outstanding", len(model))
				}
				return
			}
			best := 0
			for i := 1; i < len(model); i++ {
				m, b := model[i], model[best]
				if m.cycle < b.cycle ||
					(m.cycle == b.cycle && (m.cpu < b.cpu ||
						(m.cpu == b.cpu && m.seq < b.seq))) {
					best = i
				}
			}
			want := model[best]
			model = append(model[:best], model[best+1:]...)
			if cyc != want.cycle || cpu != want.cpu {
				t.Fatalf("pop = (%d, cpu %d), want (%d, cpu %d)",
					cyc, cpu, want.cycle, want.cpu)
			}
			if cyc < modelNow {
				t.Fatalf("pop cycle %d ran backwards past %d", cyc, modelNow)
			}
			modelNow = cyc
		}

		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			if op&1 == 0 {
				popBoth()
				continue
			}
			if len(data) < 3 {
				break
			}
			// delta spans 31 bits: up to 16 bits shifted left by up to
			// 15. op bit 5 schedules into the past to exercise the clamp.
			shift := uint(op>>1) & 15
			delta := uint64(data[0]) | uint64(data[1])<<8
			cpu := int32(data[2])
			data = data[3:]
			cycle := modelNow + delta<<shift
			if op&0x20 != 0 {
				if d := delta << shift; d <= modelNow {
					cycle = modelNow - d
				} else {
					cycle = 0
				}
			}
			want := cycle
			if want < modelNow {
				want = modelNow
			}
			if got := w.Schedule(cycle, cpu); got != want {
				t.Fatalf("Schedule(%d) = %d with now %d, want %d", cycle, got, modelNow, want)
			}
			model = append(model, modelEvent{cycle: want, seq: seq, cpu: cpu})
			seq++
			if len(model) != w.Len() {
				t.Fatalf("Len = %d, model has %d", w.Len(), len(model))
			}
		}
		for len(model) > 0 {
			popBoth()
		}
		if _, _, ok := w.Pop(); ok {
			t.Fatal("wheel still had events after the model drained")
		}
	})
}
