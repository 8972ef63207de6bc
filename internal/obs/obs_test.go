package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"memories/internal/stats"
)

func TestRegistryCountersGaugesHists(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.events").Add(3)
	r.Counter("a.events").Inc() // same counter
	r.RegisterGaugeFunc("a.level", func() float64 { return 2.5 })
	h := r.Histogram("a.lat", []uint64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	s := r.Snapshot()
	if got := s.Value("a.events"); got != 4 {
		t.Fatalf("a.events = %d, want 4", got)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 2.5 {
		t.Fatalf("gauges = %+v", s.Gauges)
	}
	if len(s.Hists) != 1 {
		t.Fatalf("hists = %+v", s.Hists)
	}
	hv := s.Hists[0]
	if hv.Count != 3 || hv.Sum != 5055 {
		t.Fatalf("hist count=%d sum=%d", hv.Count, hv.Sum)
	}
	if hv.Counts[0] != 1 || hv.Counts[1] != 1 || hv.Counts[2] != 1 {
		t.Fatalf("hist buckets = %v", hv.Counts)
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	NewHistogram([]uint64{10, 10})
}

// mirrorValue returns the last published value of the named counter.
func mirrorValue(m *Mirror, name string) (v uint64) {
	m.Each(func(n string, x uint64) {
		if n == name {
			v = x
		}
	})
	return v
}

func TestMirrorPublishCycle(t *testing.T) {
	bank := stats.NewBank()
	c := bank.Counter("x")
	m := NewMirror(bank)
	if mirrorValue(m, "x") != 0 {
		t.Fatalf("initial mirror value %d", mirrorValue(m, "x"))
	}
	c.Add(7)
	if mirrorValue(m, "x") != 0 {
		t.Fatal("mirror updated without a publish")
	}
	if m.Requested() {
		t.Fatal("fresh mirror has a pending request")
	}
	m.Request()
	if !m.Requested() {
		t.Fatal("request not recorded")
	}
	m.Publish()
	if m.Requested() {
		t.Fatal("publish did not clear the request")
	}
	if mirrorValue(m, "x") != 7 {
		t.Fatalf("mirror value %d after publish, want 7", mirrorValue(m, "x"))
	}

	// Bank growth (console reprogramming) rebuilds the mirror state.
	bank.Counter("y").Add(9)
	m.Publish()
	if mirrorValue(m, "y") != 9 {
		t.Fatalf("mirror missed grown counter: %d", mirrorValue(m, "y"))
	}
}

func TestRegistryMirrorPrefixes(t *testing.T) {
	bank := stats.NewBank()
	bank.Counter("miss").Add(11)
	r := NewRegistry()
	m := NewMirror(bank)
	if err := r.AttachMirror("board0", m); err != nil {
		t.Fatal(err)
	}
	if err := r.AttachMirror("board0", NewMirror(bank)); err == nil {
		t.Fatal("duplicate prefix accepted")
	}
	if err := r.AttachMirror("", m); err == nil {
		t.Fatal("empty prefix accepted")
	}
	if got := r.Snapshot().Value("board0.miss"); got != 11 {
		t.Fatalf("mirrored value %d, want 11", got)
	}
	// RemovePrefix is the one way a mirror leaves the registry.
	if n := r.RemovePrefix("board0"); n != 1 {
		t.Fatalf("RemovePrefix dropped %d entries, want the one mirror", n)
	}
	if got := r.Snapshot().Value("board0.miss"); got != 0 {
		t.Fatalf("removed mirror still visible: %d", got)
	}
}

func TestSnapshotDumpSortedAndFiltered(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.two").Add(2)
	r.Counter("a.one").Add(1)
	s := r.Snapshot()
	if got := s.Dump(""); got != "a.one 1\nb.two 2\n" {
		t.Fatalf("dump = %q", got)
	}
	if got := s.Dump("b."); got != "b.two 2\n" {
		t.Fatalf("filtered dump = %q", got)
	}
}

func TestTracerRecordDrain(t *testing.T) {
	var got []Event
	tr := NewTracer(8, func(ev Event) { got = append(got, ev) })
	if tr.Enabled() {
		t.Fatal("new tracer enabled")
	}
	tr.Enable(Filter{})
	for _, ev := range []Event{{Cycle: 100, Addr: 0x1000, Cmd: 2, Src: 3}, {Cycle: 148, Addr: 0x2000, Cmd: 1, Src: 7}} {
		if matched, stored := tr.Record(ev.Cycle, ev.Addr, ev.Cmd, ev.Src); !matched || !stored {
			t.Fatalf("Record(%+v) = %v, %v; want stored", ev, matched, stored)
		}
	}
	n := tr.Drain()
	if n != 2 || len(got) != 2 || tr.Drained() != 2 {
		t.Fatalf("drained %d", n)
	}
	want0 := Event{Cycle: 100, Addr: 0x1000, Cmd: 2, Src: 3}
	if got[0] != want0 {
		t.Fatalf("event 0 = %+v, want %+v", got[0], want0)
	}
	if got[1].Src != 7 || got[1].Cmd != 1 || got[1].Cycle != 148 {
		t.Fatalf("event 1 = %+v", got[1])
	}
}

func TestTracerDropsWhenFull(t *testing.T) {
	tr := NewTracer(2, func(Event) {}) // 2 slots
	tr.Enable(Filter{})
	for i := 0; i < 5; i++ {
		matched, stored := tr.Record(uint64(i), uint64(i)*64, 0, 0)
		if want := i < 2; !matched || stored != want {
			t.Fatalf("Record #%d = %v, %v; want matched, stored %v", i, matched, stored, want)
		}
	}
	// Draining frees slots for subsequent records.
	if n := tr.Drain(); n != 2 {
		t.Fatalf("drained %d, want the 2 stored", n)
	}
	if _, stored := tr.Record(9, 9*64, 0, 0); !stored {
		t.Fatal("record after a drain was dropped")
	}
}

func TestTracerFilter(t *testing.T) {
	tr := NewTracer(16, func(Event) {})
	var f Filter
	f.AddrLo, f.AddrHi = 0x1000, 0x2000
	f.CPUs.Set(3)
	tr.Enable(f)
	for _, c := range []struct {
		addr  uint64
		src   uint8
		match bool
	}{
		{0x1800, 3, true},
		{0x2800, 3, false}, // addr out of range
		{0x1800, 4, false}, // cpu not selected
	} {
		if matched, stored := tr.Record(1, c.addr, 0, c.src); matched != c.match || stored != c.match {
			t.Fatalf("Record(%#x, src %d) = %v, %v; want %v", c.addr, c.src, matched, stored, c.match)
		}
	}
	if n := tr.Drain(); n != 1 {
		t.Fatalf("drained %d, want 1", n)
	}
	// Zero mask matches all CPUs; AddrHi 0 disables the range.
	tr2 := NewTracer(16, func(Event) {})
	tr2.Enable(Filter{})
	if _, stored := tr2.Record(1, 0xdead_beef, 0, 200); !stored {
		t.Fatal("zero filter rejected a record")
	}
}

func TestTracerSPSCConcurrent(t *testing.T) {
	tr := NewTracer(64, func(ev Event) {
		if ev.Addr != ev.Cycle*64 {
			t.Errorf("torn record: %+v", ev)
		}
	})
	tr.Enable(Filter{})
	const total = 20_000
	var drained int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for drained < total {
			n := tr.Drain()
			drained += n
			if n == 0 {
				runtime.Gosched()
			}
		}
	}()
	sent := uint64(0)
	for i := 0; sent < total; i++ {
		if _, stored := tr.Record(uint64(i), uint64(i)*64, 0, 0); stored {
			sent++
		} else {
			runtime.Gosched()
		}
	}
	// Producer side sent exactly `total` accepted records; wait for the
	// consumer to see them all.
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("drain stalled at %d/%d", drained, total)
	}
}

// TestTracerDrainFormat: Drain hands the sink each record as an Event and
// counts it in Drained; Disable stops the recording, not the draining.
func TestTracerDrainFormat(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(8, func(ev Event) { fmt.Fprintf(&buf, "%+v\n", ev) })
	tr.Enable(Filter{})
	tr.Record(10, 0x40, 2, 1)
	tr.Disable()
	if n := tr.Drain(); n != 1 {
		t.Fatalf("drained %d", n)
	}
	want := "{Cycle:10 Addr:64 Cmd:2 Src:1}\n"
	if buf.String() != want {
		t.Fatalf("line = %q, want %q", buf.String(), want)
	}
	if tr.Drained() != 1 {
		t.Fatalf("drained counter %d", tr.Drained())
	}
}

func TestSamplerTickAndJSONL(t *testing.T) {
	bank := stats.NewBank()
	c := bank.Counter("hits")
	r := NewRegistry()
	m := NewMirror(bank)
	if err := r.AttachMirror("b", m); err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	s := &Sampler{Reg: r, JSONL: &jsonl}
	c.Add(5)
	m.Publish()
	snap := s.Tick()
	if snap.Value("b.hits") != 5 {
		t.Fatalf("tick saw %d", snap.Value("b.hits"))
	}
	var obj map[string]map[string]uint64
	if err := json.Unmarshal(jsonl.Bytes(), &obj); err != nil {
		t.Fatalf("jsonl not valid JSON: %v (%q)", err, jsonl.String())
	}
	if obj["counters"]["b.hits"] != 5 {
		t.Fatalf("jsonl = %v", obj)
	}
	// Tick leaves a publish request pending for the owner.
	if !m.Requested() {
		t.Fatal("tick did not request the next publish")
	}
}

func TestSamplerStartStop(t *testing.T) {
	r := NewRegistry()
	r.Counter("n").Add(1)
	var jsonl bytes.Buffer // written by the sampler goroutine only until Stop returns
	s := &Sampler{Reg: r, Interval: 5 * time.Millisecond, JSONL: &jsonl}
	s.Start()
	s.Start() // idempotent
	time.Sleep(30 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent
	if seen := strings.Count(jsonl.String(), "\n"); seen < 2 {
		t.Fatalf("sampler produced %d snapshots", seen)
	}
}

// TestSamplerDrainsTracer: the sampler is the tracer's drainer. A record
// in the ring reaches the sink while the sampler runs, and one recorded
// just before Stop is flushed by Stop's final tick.
func TestSamplerDrainsTracer(t *testing.T) {
	var addrs []uint64 // appended by the sampler goroutine only until Stop returns
	tr := NewTracer(64, func(ev Event) { addrs = append(addrs, ev.Addr) })
	tr.Enable(Filter{})
	tr.Record(1, 64, 0, 0)
	s := &Sampler{Reg: NewRegistry(), Interval: time.Millisecond, Trace: tr}
	s.Start()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Drained() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sampler never drained the record")
		}
		time.Sleep(time.Millisecond)
	}
	tr.Record(2, 128, 0, 0)
	s.Stop()
	if tr.Drained() != 2 {
		t.Fatalf("Drained() = %d after stop, want 2", tr.Drained())
	}
	if len(addrs) != 2 || addrs[1] != 128 {
		t.Fatalf("sink saw addresses %v, want the final drain's 128 second", addrs)
	}
}

func TestWritePromAndParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("board.shard0.filter.accepted").Add(42)
	r.RegisterGaugeFunc("bus.util", func() float64 { return 0.21 })
	h := r.Histogram("drain.batch", []uint64{1, 8})
	h.Observe(1)
	h.Observe(4)
	h.Observe(100)
	snap := r.Snapshot()

	var buf bytes.Buffer
	if err := WriteProm(&buf, snap, nil); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "memories_board_shard0_filter_accepted 42") {
		t.Fatalf("prom text missing counter:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE memories_bus_util gauge") {
		t.Fatalf("prom text missing gauge TYPE:\n%s", text)
	}
	samples, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	byName := map[string]float64{}
	var infBucket float64
	for _, s := range samples {
		if s.Le == "+Inf" {
			infBucket = s.Value
		} else if s.Le == "" {
			byName[s.Name] = s.Value
		}
	}
	if byName["memories_board_shard0_filter_accepted"] != 42 {
		t.Fatalf("reparsed counter = %v", byName)
	}
	if byName["memories_bus_util"] != 0.21 {
		t.Fatalf("reparsed gauge = %v", byName)
	}
	if infBucket != 3 {
		t.Fatalf("+Inf bucket = %v, want cumulative 3", infBucket)
	}
	if byName["memories_drain_batch_count"] != 3 {
		t.Fatalf("hist count = %v", byName["memories_drain_batch_count"])
	}
}

func TestPromDeterministic(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.Counter(fmt.Sprintf("c%02d", i)).Add(uint64(i))
	}
	var a, b bytes.Buffer
	if err := WriteProm(&a, r.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&b, r.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("prom renderings differ across identical snapshots")
	}
	var ja, jb bytes.Buffer
	if err := WriteJSON(&ja, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() {
		t.Fatal("JSON renderings differ across identical snapshots")
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("up").Add(1)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got := get("/healthz"); got != "ok\n" {
		t.Fatalf("healthz = %q", got)
	}
	if got := get("/metrics"); !strings.Contains(got, "memories_up 1") {
		t.Fatalf("metrics = %q", got)
	}
	jsonBody := get("/metrics.json")
	var obj map[string]any
	if err := json.Unmarshal([]byte(jsonBody), &obj); err != nil {
		t.Fatalf("metrics.json invalid: %v (%q)", err, jsonBody)
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"board0.shard3.miss": "memories_board0_shard3_miss",
		"buffer.high-water":  "memories_buffer_high_water",
		"weird name!":        "memories_weird_name_",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}
