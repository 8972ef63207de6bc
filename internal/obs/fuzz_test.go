package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzPromText builds a registry from fuzzed inputs, renders it in the
// Prometheus text format, and reparses the output: every render must
// reparse cleanly and preserve the counter values. It also throws the
// raw fuzz input at ParseProm directly — the parser must reject or
// accept, never panic.
func FuzzPromText(f *testing.F) {
	f.Add("board.shard0.miss", uint64(42), uint64(7), "memories_x 1\n")
	f.Add("buffer.high-water", uint64(0), uint64(1<<40), "# comment\n\nname{le=\"8\"} 2\n")
	f.Add("weird name!", uint64(1), uint64(2), `m{le="+Inf"} 3`)
	f.Add("a", uint64(math.MaxUint64), uint64(3), "bad line with junk")
	f.Fuzz(func(t *testing.T, name string, v1, v2 uint64, raw string) {
		// Direct parse of arbitrary text: must not panic.
		ParseProm(strings.NewReader(raw))

		if name == "" || len(name) > 256 {
			return
		}
		r := NewRegistry()
		r.Counter(name).Add(v1)
		r.Counter(name + ".x").Add(v2)
		h := r.Histogram(name+".h", []uint64{8, 64})
		h.Observe(v1 % 1024)
		snap := r.Snapshot()

		var buf bytes.Buffer
		if err := WriteProm(&buf, snap, nil); err != nil {
			t.Fatalf("WriteProm: %v", err)
		}
		samples, err := ParseProm(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("rendered text failed to reparse: %v\n%s", err, buf.String())
		}
		want := map[string]float64{
			PromName(name):                 float64(v1),
			PromName(name + ".x"):          float64(v2),
			PromName(name+".h") + "_count": 1,
		}
		got := map[string]float64{}
		for _, s := range samples {
			if s.Le == "" {
				got[s.Name] = s.Value
			}
		}
		for n, w := range want {
			g, ok := got[n]
			if !ok {
				t.Fatalf("metric %s missing from reparse\n%s", n, buf.String())
			}
			// uint64→float64 loses precision above 2^53; compare in
			// float space, which is what the text format carries.
			if g != w {
				t.Fatalf("metric %s = %v, want %v", n, g, w)
			}
		}

		// JSON-lines path must stay valid single-line JSON.
		var jb bytes.Buffer
		if err := WriteJSON(&jb, snap); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if n := bytes.Count(jb.Bytes(), []byte{'\n'}); n != 1 || !bytes.HasSuffix(jb.Bytes(), []byte{'\n'}) {
			t.Fatalf("JSON-lines framing broken: %d newlines in %q", n, jb.String())
		}

		// Labeled path: treat the fuzzed name as a session ID. The value
		// escaping (backslash, quote, newline) must survive a render →
		// reparse round trip byte-for-byte, and the label split must not
		// lose the sample's value.
		lr := NewRegistry()
		lr.Counter("session." + name + ".hits").Add(v1)
		lr.Counter("service.total").Add(v2)
		lh := lr.Histogram("session."+name+".wait", []uint64{16, 256})
		lh.Observe(v2 % 4096)
		var lb bytes.Buffer
		if err := WriteProm(&lb, lr.Snapshot(), SplitSessionLabel); err != nil {
			t.Fatalf("WriteProm: %v", err)
		}
		lsamples, err := ParseProm(bytes.NewReader(lb.Bytes()))
		if err != nil {
			t.Fatalf("labeled render failed to reparse: %v\n%s", err, lb.String())
		}
		metric, labels := SplitSessionLabel("session." + name + ".hits")
		var found bool
		for _, s := range lsamples {
			if s.Name != PromName(metric) {
				continue
			}
			found = true
			if len(labels) > 0 {
				if got := s.Label("session"); got != labels[0].Value {
					t.Fatalf("session label = %q, want %q\n%s", got, labels[0].Value, lb.String())
				}
			}
			if s.Value != float64(v1) {
				t.Fatalf("labeled counter = %v, want %v", s.Value, float64(v1))
			}
		}
		if !found {
			t.Fatalf("labeled counter %s missing from reparse\n%s", PromName(metric), lb.String())
		}
	})
}
