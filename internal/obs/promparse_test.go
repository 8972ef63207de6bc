package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The Prometheus text-format parser below is the test suite's reference
// reader for what WriteProm emits; no binary links it.

// PromSample is one parsed sample line from the text format.
type PromSample struct {
	Name   string  // metric name, including any _bucket/_sum/_count suffix
	Le     string  // value of the le label, if present
	Labels []Label // full label set, in input order (includes le)
	Value  float64
}

// Label returns the value of the named label, or "".
func (s *PromSample) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// parseLabelSet parses the inside of a `{...}` label block: a comma-
// separated list of key="value" pairs where values use the \\, \", \n
// escapes. A trailing comma is tolerated (Prometheus accepts it).
func parseLabelSet(labels string) ([]Label, error) {
	var out []Label
	rest := labels
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("missing '=' in label set %q", labels)
		}
		key := strings.TrimSpace(rest[:eq])
		if key == "" {
			return nil, fmt.Errorf("empty label name in %q", labels)
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, fmt.Errorf("unquoted value for label %q", key)
		}
		rest = rest[1:]
		var val strings.Builder
		closed := false
	scan:
		for i := 0; i < len(rest); i++ {
			switch rest[i] {
			case '\\':
				if i+1 >= len(rest) {
					return nil, fmt.Errorf("dangling escape in label %q", key)
				}
				i++
				switch rest[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("bad escape \\%c in label %q", rest[i], key)
				}
			case '"':
				out = append(out, Label{Key: key, Value: val.String()})
				rest = rest[i+1:]
				closed = true
				break scan
			default:
				val.WriteByte(rest[i])
			}
		}
		if !closed {
			return nil, fmt.Errorf("unterminated value for label %q", key)
		}
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		if rest[0] != ',' {
			return nil, fmt.Errorf("junk %q after label %q", rest, key)
		}
		rest = strings.TrimSpace(rest[1:])
	}
	return out, nil
}

// ParseProm parses Prometheus text-format output (the subset WriteProm
// emits: comments, bare samples, and samples with a quoted-and-escaped
// label set) into samples in input order. Malformed
// sample lines return an error; the fuzz suite uses this to prove
// render→parse round-trips, escapes included.
func ParseProm(r io.Reader) ([]PromSample, error) {
	var out []PromSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var s PromSample
		rest := line
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			s.Name = rest[:i]
			// The closing brace must be found respecting escapes: a
			// label value may contain '}' inside its quotes.
			j, err := closingBrace(rest, i)
			if err != nil {
				return nil, fmt.Errorf("obs: prom line %d: %v", lineNo, err)
			}
			s.Labels, err = parseLabelSet(rest[i+1 : j])
			if err != nil {
				return nil, fmt.Errorf("obs: prom line %d: %v", lineNo, err)
			}
			s.Le = s.Label("le")
			rest = strings.TrimSpace(rest[j+1:])
		} else {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				return nil, fmt.Errorf("obs: prom line %d: want 'name value', got %q", lineNo, line)
			}
			s.Name, rest = fields[0], fields[1]
		}
		if s.Name == "" {
			return nil, fmt.Errorf("obs: prom line %d: empty metric name", lineNo)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("obs: prom line %d: bad value: %v", lineNo, err)
		}
		s.Value = v
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// closingBrace finds the index of the '}' terminating the label set
// opened at line[open], skipping over quoted values and their escapes.
func closingBrace(line string, open int) (int, error) {
	inQuote := false
	for i := open + 1; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inQuote {
				i++ // skip escaped char
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("unterminated label set")
}
