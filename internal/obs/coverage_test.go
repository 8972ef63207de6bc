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
	tr := NewTracer(8, func(Event) {})
	if got := tr.Filter(); got != (Filter{}) {
		t.Fatalf("filter before Enable = %+v, want the zero filter", got)
	}
	f := Filter{AddrLo: 64, AddrHi: 128}
	tr.Enable(f)
	tr.Disable()
	if got := tr.Filter(); got != f {
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
