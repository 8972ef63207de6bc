package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestPromLabelKey(t *testing.T) {
	cases := []struct{ in, want string }{
		{"session", "session"},
		{"9lives", "_9lives"},
		{"has-dash.dot", "has_dash_dot"},
		{"", "_"},
		{"ok_name2", "ok_name2"},
	}
	for _, tc := range cases {
		if got := PromLabelKey(tc.in); got != tc.want {
			t.Errorf("PromLabelKey(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestEscapeLabelValueRoundTrip(t *testing.T) {
	values := []string{
		`plain`,
		`back\slash`,
		`quo"te`,
		"new\nline",
		`all\three":` + "\n",
		`trailing\`,
	}
	for _, v := range values {
		line := `m{session="` + EscapeLabelValue(v) + `"} 1`
		samples, err := ParseProm(strings.NewReader(line))
		if err != nil {
			t.Fatalf("%q: %v", v, err)
		}
		if got := samples[0].Label("session"); got != v {
			t.Errorf("round trip %q → %q", v, got)
		}
	}
}

func TestSplitSessionLabel(t *testing.T) {
	cases := []struct {
		in, metric, id string
	}{
		{"session.s-000001.ingest.records", "session.ingest.records", "s-000001"},
		{"session.x.y", "session.y", "x"},
		{"service.sessions.live", "service.sessions.live", ""},
		{"session.noTail", "session.noTail", ""},
		{"board.shard0.miss", "board.shard0.miss", ""},
	}
	for _, tc := range cases {
		m, ls := SplitSessionLabel(tc.in)
		if m != tc.metric {
			t.Errorf("SplitSessionLabel(%q) metric = %q, want %q", tc.in, m, tc.metric)
		}
		if tc.id == "" {
			if len(ls) != 0 {
				t.Errorf("SplitSessionLabel(%q) labels = %v, want none", tc.in, ls)
			}
		} else if len(ls) != 1 || ls[0].Key != "session" || ls[0].Value != tc.id {
			t.Errorf("SplitSessionLabel(%q) labels = %v, want session=%q", tc.in, ls, tc.id)
		}
	}
}

// TestWritePromWithGroupsFamilies proves the exposition invariant of
// WriteProm with a splitter: when two sessions share a metric family, HELP/TYPE appear exactly once and
// the labeled samples sit together under them.
func TestWritePromWithGroupsFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("session.a.hits").Add(1)
	r.Counter("session.b.hits").Add(2)
	r.Counter("service.total").Add(3)
	h1 := r.Histogram("session.a.wait", []uint64{8})
	h1.Observe(4)
	h2 := r.Histogram("session.b.wait", []uint64{8})
	h2.Observe(100)

	var buf bytes.Buffer
	if err := WriteProm(&buf, r.Snapshot(), SplitSessionLabel); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	if n := strings.Count(text, "# TYPE memories_session_hits counter"); n != 1 {
		t.Fatalf("TYPE memories_session_hits appears %d times:\n%s", n, text)
	}
	if n := strings.Count(text, "# TYPE memories_session_wait histogram"); n != 1 {
		t.Fatalf("TYPE memories_session_wait appears %d times:\n%s", n, text)
	}
	for _, want := range []string{
		`memories_session_hits{session="a"} 1`,
		`memories_session_hits{session="b"} 2`,
		"memories_service_total 3",
		`memories_session_wait_bucket{session="b",le="+Inf"} 1`,
		`memories_session_wait_sum{session="a"} 4`,
		`memories_session_wait_count{session="b"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	samples, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	var a, b float64
	for _, s := range samples {
		if s.Name == "memories_session_hits" {
			switch s.Label("session") {
			case "a":
				a = s.Value
			case "b":
				b = s.Value
			}
		}
	}
	if a != 1 || b != 2 {
		t.Fatalf("labeled values a=%v b=%v, want 1, 2", a, b)
	}
}

func TestParsePromLabelErrors(t *testing.T) {
	bad := []string{
		`m{session="unterminated} 1`,
		`m{session=unquoted} 1`,
		`m{=""} 1`,
		`m{session="x"`,
		`m{session="bad\q"} 1`,
	}
	for _, line := range bad {
		if _, err := ParseProm(strings.NewReader(line)); err == nil {
			t.Errorf("ParseProm(%q) accepted malformed input", line)
		}
	}

	// Tolerated: trailing comma, spaces around pairs, '}' inside quotes.
	samples, err := ParseProm(strings.NewReader(`m{ a="1" , b="}" , } 7`))
	if err != nil {
		t.Fatalf("tolerant parse: %v", err)
	}
	if samples[0].Label("b") != "}" {
		t.Fatalf("brace-in-quotes lost: %+v", samples[0])
	}
}

func TestRegistryRemovePrefix(t *testing.T) {
	r := NewRegistry()
	r.Counter("session.a.hits").Inc()
	r.Counter("session.a.misses").Inc()
	r.Counter("session.ab.hits").Inc() // different session, shared prefix string
	r.Counter("service.total").Inc()
	r.Histogram("session.a.wait", []uint64{8}).Observe(1)
	r.RegisterGaugeFunc("session.a.queue", func() float64 { return 1 })

	if n := r.RemovePrefix("session.a."); n != 4 {
		t.Fatalf("RemovePrefix removed %d series, want 4", n)
	}
	snap := r.Snapshot()
	var names []string
	for _, c := range snap.Counters {
		names = append(names, c.Name)
	}
	for _, g := range snap.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range snap.Hists {
		names = append(names, h.Name)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "session.a.") {
			t.Fatalf("series %s survived RemovePrefix", n)
		}
	}
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	if !found["session.ab.hits"] || !found["service.total"] {
		t.Fatalf("RemovePrefix removed unrelated series; left %v", names)
	}

	if n := r.RemovePrefix("session.a."); n != 0 {
		t.Fatalf("second RemovePrefix removed %d, want 0", n)
	}
}
