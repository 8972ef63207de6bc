package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call (spans inside the program are a later change).
// Spans are taken per batch, slice or request — never per transaction —
// so a traced run costs two clock reads per ~64 Ki transactions.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`   // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Work   uint64 `json:"work,omitempty"` // transactions, records or refs covered
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// is the untraced run: every method is a no-op on it, so the measured
// path reads the clock only at op boundaries.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // open span IDs on the (single) driving goroutine
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span and records how much work it covered.
func (t *tracer) end(id int, work uint64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Work = work
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a finished span timed elsewhere (client goroutines time
// their own requests and hand the spans over once they have stopped).
func (t *tracer) add(name string, start, end time.Time, work uint64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Work: work,
	})
}

// spanTotals is what the ledger reads per span name.
type spanTotals struct {
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // Total minus the part children cover
	Work  uint64
}

// totals folds the spans by name. A span's self time is its duration
// minus the union of the intervals its direct children cover, clipped
// to the span: nested children count once through their parent, and
// overlapping children are not subtracted twice.
func totals(spans []span) map[string]spanTotals {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range spans {
		dur := s.End - s.Start
		covered := coveredBy(spans, children[s.ID], s.Start, s.End)
		t := out[s.Name]
		t.Count++
		t.Total += time.Duration(dur)
		t.Self += time.Duration(dur - covered)
		t.Work += s.Work
		out[s.Name] = t
	}
	return out
}

// coveredBy returns the length of the union of the given spans'
// intervals inside [lo, hi].
func coveredBy(spans []span, idx []int, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, lo), min(spans[i].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		sum += v.b - max(v.a, end)
		end = v.b
	}
	return sum
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
