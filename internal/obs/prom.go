package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromNamespace prefixes every exported Prometheus metric name.
const PromNamespace = "memories"

// PromName sanitizes a hierarchical registry name ("board0.nodea.miss")
// into a Prometheus metric name ("memories_board0_nodea_miss"): dots and
// dashes become underscores, any other character outside
// [a-zA-Z0-9_:] becomes '_' as well.
func PromName(name string) string {
	var sb strings.Builder
	sb.Grow(len(PromNamespace) + 1 + len(name))
	sb.WriteString(PromNamespace)
	sb.WriteByte('_')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// Label is one Prometheus label pair attached to a rendered sample.
// Keys are sanitized like metric names; values are escaped, so any
// string (session IDs in particular) is safe as a value.
type Label struct {
	Key   string
	Value string
}

// PromLabelKey sanitizes a raw string into a legal label name
// ([a-zA-Z_][a-zA-Z0-9_]*): illegal characters become '_', and a
// leading digit is prefixed with '_'. Empty input sanitizes to "_".
func PromLabelKey(s string) string {
	if s == "" {
		return "_"
	}
	var sb strings.Builder
	sb.Grow(len(s) + 1)
	if s[0] >= '0' && s[0] <= '9' {
		sb.WriteByte('_')
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// EscapeLabelValue escapes a raw label value per the text-format rules:
// backslash, double quote, and newline must be escaped so a hostile
// value (a user-chosen session ID, say) cannot break line framing or
// terminate the quoted string early.
func EscapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatLabels renders a sanitized, escaped label list without braces:
// `k1="v1",k2="v2"`. Returns "" for an empty list.
func formatLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(PromLabelKey(l.Key))
		sb.WriteString(`="`)
		sb.WriteString(EscapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	return sb.String()
}

// SplitSessionLabel is a WriteProm splitter for the service layer's
// per-session namespaces: a registry name "session.<id>.<rest>" renders
// as the shared metric "session.<rest>" carrying a session="<id>" label,
// so every session shares one time series family and Prometheus can
// aggregate across them. Names outside the session namespace pass
// through unlabeled.
func SplitSessionLabel(name string) (string, []Label) {
	rest, ok := strings.CutPrefix(name, "session.")
	if !ok {
		return name, nil
	}
	id, tail, ok := strings.Cut(rest, ".")
	if !ok || id == "" || tail == "" {
		return name, nil
	}
	return "session." + tail, []Label{{Key: "session", Value: id}}
}

// promSeries is one renderable sample family member after splitting.
type promSeries struct {
	metric string // sanitized metric name
	labels string // rendered label list, "" when unlabeled
	raw    string // original registry name (HELP text)
	idx    int    // index into the source slice
}

// splitSeries applies the splitter to every name and groups samples of
// the same metric contiguously (sorted by metric, then label list), as
// the exposition format requires: one HELP/TYPE block per metric name,
// with all of its labeled children together.
func splitSeries(n int, name func(int) string, split func(string) (string, []Label)) []promSeries {
	out := make([]promSeries, 0, n)
	for i := 0; i < n; i++ {
		raw := name(i)
		m, ls := raw, []Label(nil)
		if split != nil {
			m, ls = split(raw)
		}
		out = append(out, promSeries{metric: PromName(m), labels: formatLabels(ls), raw: raw, idx: i})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].metric != out[j].metric {
			return out[i].metric < out[j].metric
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Output is deterministic for a given snapshot:
// metrics appear sorted by registry name within each section. A non-nil
// split sees every registry name first and may rewrite it and attach
// labels (see SplitSessionLabel); samples sharing a rewritten metric
// name are grouped under a single HELP/TYPE block.
func WriteProm(w io.Writer, s *Snapshot, split func(string) (string, []Label)) error {
	bw := bufio.NewWriter(w)
	series := func(n string, labels string) string {
		if labels == "" {
			return n
		}
		return n + "{" + labels + "}"
	}
	head := func(prev *string, kind, n, raw string) {
		if *prev == n {
			return
		}
		*prev = n
		fmt.Fprintf(bw, "# HELP %s memories %s %s\n", n, kind, escapeHelp(raw))
		fmt.Fprintf(bw, "# TYPE %s %s\n", n, kind)
	}
	var prev string
	for _, ps := range splitSeries(len(s.Counters), func(i int) string { return s.Counters[i].Name }, split) {
		head(&prev, "counter", ps.metric, ps.raw)
		fmt.Fprintf(bw, "%s %d\n", series(ps.metric, ps.labels), s.Counters[ps.idx].Value)
	}
	prev = ""
	for _, ps := range splitSeries(len(s.Gauges), func(i int) string { return s.Gauges[i].Name }, split) {
		head(&prev, "gauge", ps.metric, ps.raw)
		fmt.Fprintf(bw, "%s %s\n", series(ps.metric, ps.labels), formatPromValue(s.Gauges[ps.idx].Value))
	}
	prev = ""
	for _, ps := range splitSeries(len(s.Hists), func(i int) string { return s.Hists[i].Name }, split) {
		head(&prev, "histogram", ps.metric, ps.raw)
		h := s.Hists[ps.idx]
		bucket := func(le string) string {
			if ps.labels == "" {
				return ps.metric + `_bucket{le="` + le + `"}`
			}
			return ps.metric + "_bucket{" + ps.labels + `,le="` + le + `"}`
		}
		cum := uint64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(bw, "%s %d\n", bucket(strconv.FormatUint(b, 10)), cum)
		}
		cum += h.Counts[len(h.Bounds)]
		fmt.Fprintf(bw, "%s %d\n", bucket("+Inf"), cum)
		fmt.Fprintf(bw, "%s %d\n", series(ps.metric+"_sum", ps.labels), h.Sum)
		fmt.Fprintf(bw, "%s %d\n", series(ps.metric+"_count", ps.labels), h.Count)
	}
	return bw.Flush()
}

func formatPromValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a raw registry name for use inside a # HELP comment
// per the text-format rules: backslash and newline must be escaped so a
// hostile name cannot break the line framing.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// jsonSnapshot is the wire shape of a JSON-lines snapshot. Maps render
// with sorted keys under encoding/json, so output is deterministic.
type jsonSnapshot struct {
	Counters map[string]uint64   `json:"counters,omitempty"`
	Gauges   map[string]float64  `json:"gauges,omitempty"`
	Hists    map[string]jsonHist `json:"histograms,omitempty"`
}

type jsonHist struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
}

// WriteJSON renders the snapshot as a single JSON object followed by a
// newline (JSON-lines framing). Deterministic: object keys sort.
func WriteJSON(w io.Writer, s *Snapshot) error {
	js := jsonSnapshot{}
	if len(s.Counters) > 0 {
		js.Counters = make(map[string]uint64, len(s.Counters))
		for _, c := range s.Counters {
			js.Counters[c.Name] = c.Value
		}
	}
	if len(s.Gauges) > 0 {
		js.Gauges = make(map[string]float64, len(s.Gauges))
		for _, g := range s.Gauges {
			js.Gauges[g.Name] = g.Value
		}
	}
	if len(s.Hists) > 0 {
		js.Hists = make(map[string]jsonHist, len(s.Hists))
		for _, h := range s.Hists {
			js.Hists[h.Name] = jsonHist{Bounds: h.Bounds, Counts: h.Counts, Count: h.Count, Sum: h.Sum}
		}
	}
	b, err := json.Marshal(js)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
