package obs

import (
	"io"
	"testing"
)

func TestFilterString(t *testing.T) {
	var zero Filter
	if got := zero.String(); got != "all addrs, all cpus" {
		t.Fatalf("zero filter = %q", got)
	}
	var cpus CPUMask
	cpus.Set(0)
	cpus.Set(2)
	f := Filter{AddrLo: 0x1000, AddrHi: 0x2000, CPUs: cpus}
	if got := f.String(); got != "addrs [0x1000,0x2000), cpus 0,2" {
		t.Fatalf("bounded filter = %q", got)
	}
}

func TestTracerFilterAccessor(t *testing.T) {
	tr := NewTracer(8)
	f := Filter{AddrLo: 64, AddrHi: 128}
	tr.Enable(f)
	if got := *tr.filter.Load(); got != f {
		t.Fatalf("filter = %+v, want %+v", got, f)
	}
}

func TestHistogramCountSum(t *testing.T) {
	h := NewHistogram([]uint64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	if v := h.view("h"); v.Count != 3 || v.Sum != 555 {
		t.Fatalf("view = %+v, want count 3, sum 555", v)
	}
}

func TestTraceHubEnabledAndTotals(t *testing.T) {
	h := NewTraceHub(io.Discard)
	a, b := NewTracer(4), NewTracer(4)
	h.Add("a", a)
	h.Add("b", b)
	if on, _ := h.Enabled(); on {
		t.Fatal("hub enabled before Enable")
	}
	f := Filter{AddrHi: 1 << 20}
	h.Enable(f)
	on, got := h.Enabled()
	if !on || got != f {
		t.Fatalf("Enabled() = %v, %+v", on, got)
	}
	a.Record(1, 0, 0, 0)
	a.Record(2, 64, 0, 0)
	b.Record(3, 128, 0, 0)
	// Overflow b's 4-slot ring so dropped counts too.
	for i := 0; i < 10; i++ {
		b.Record(uint64(4+i), 0, 0, 0)
	}
	captured, dropped := h.Totals()
	if captured != a.Captured()+b.Captured() || dropped != a.Dropped()+b.Dropped() {
		t.Fatalf("Totals() = %d,%d want %d,%d",
			captured, dropped, a.Captured()+b.Captured(), a.Dropped()+b.Dropped())
	}
	if dropped == 0 {
		t.Fatal("expected drops after overflowing the 4-slot ring")
	}
}

func TestDumpRendersGaugesAndHists(t *testing.T) {
	r := NewRegistry()
	r.Counter("c.total").Add(4)
	r.RegisterGaugeFunc("g.level", func() float64 { return 2.5 })
	r.Histogram("h.lat", []uint64{10}).Observe(7)
	got := r.Snapshot().Dump("")
	want := "c.total 4\ng.level 2.5\nh.lat count=1 sum=7\n"
	if got != want {
		t.Fatalf("Dump() = %q, want %q", got, want)
	}
	if r.Snapshot().Dump("g.") != "g.level 2.5\n" {
		t.Fatalf("prefix dump = %q", r.Snapshot().Dump("g."))
	}
}
