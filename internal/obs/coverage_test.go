package obs

import "testing"

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

// TestTraceHubEnabledAndTotals: Enable reaches every tracer and reports
// its filter, and DrainOnce hands the sink each stored record under its
// tracer's name and totals them in Drained; what a full ring lost never
// reaches the sink.
func TestTraceHubEnabledAndTotals(t *testing.T) {
	perBoard := map[string]int{}
	h := NewTraceHub(func(board string, _ Event) { perBoard[board]++ })
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
	// Overflow b's 4-slot ring.
	dropped := 0
	for i := 0; i < 10; i++ {
		if _, stored := b.Record(uint64(3+i), 0, 0, 0); !stored {
			dropped++
		}
	}
	if n := h.DrainOnce(); n != 6 || h.Drained() != 6 {
		t.Fatalf("DrainOnce() = %d, Drained() = %d; want 6", n, h.Drained())
	}
	if perBoard["a"] != 2 || perBoard["b"] != 4 || dropped != 6 {
		t.Fatalf("sink saw %v with %d dropped; want a:2 b:4 and 6 dropped", perBoard, dropped)
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
