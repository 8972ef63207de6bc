package coherence

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Map-file format. One directive per line, '#' comments, blank lines
// ignored:
//
//	protocol <name>
//	<op> <state> <snoop|*> -> <next-state> [action ...]
//
// '*' in the snoop column defines the transition for every snoop input
// (and is how hit transitions, which do not depend on peers, are written).
// Later lines override earlier ones, so a map file can start from a broad
// wildcard and refine. This mirrors the FPGA "table lookup map file"
// loaded at initialization (paper §3.2).

// MapFileString serializes the table in map-file form. Runs of snoop
// inputs with identical entries collapse to '*'.
func MapFileString(t *Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "protocol %s\n", t.Name)
	fmt.Fprintf(&sb, "# op state snoop -> next actions\n")
	for op := 0; op < NumOps; op++ {
		for st := 0; st < NumStates; st++ {
			entries := t.entries[op][st]
			defined := 0
			for sn := 0; sn < NumSnoopIns; sn++ {
				if entries[sn].defined {
					defined++
				}
			}
			if defined == 0 {
				continue
			}
			allSame := defined == NumSnoopIns
			for sn := 1; allSame && sn < NumSnoopIns; sn++ {
				if entries[sn] != entries[0] {
					allSame = false
				}
			}
			if allSame {
				e := entries[0]
				fmt.Fprintf(&sb, "%s %s * -> %s %s\n", Op(op), State(st), e.Next, e.Actions)
				continue
			}
			for sn := 0; sn < NumSnoopIns; sn++ {
				if e := entries[sn]; e.defined {
					fmt.Fprintf(&sb, "%s %s %s -> %s %s\n", Op(op), State(st), SnoopIn(sn), e.Next, e.Actions)
				}
			}
		}
	}
	return sb.String()
}

// ParseError reports a syntactically invalid map file: an unknown op,
// state, snoop or action mnemonic, or a malformed directive. Line is
// the 1-based map-file line, 0 when the defect is not tied to one.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
	}
	return e.Msg
}

// ParseMapFile parses a protocol map file. Syntax defects return a
// typed *ParseError. The returned table is NOT validated; callers
// decide whether to require Compile/Check (the board's console software
// does before loading a table into a node controller).
func ParseMapFile(r io.Reader) (*Table, error) {
	t := &Table{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if strings.EqualFold(fields[0], "protocol") {
			if len(fields) != 2 {
				return nil, &ParseError{Line: lineNo, Msg: "protocol directive needs exactly one name"}
			}
			t.Name = fields[1]
			continue
		}
		if err := parseTransition(t, fields, lineNo); err != nil {
			return nil, &ParseError{Line: lineNo, Msg: err.Error()}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t.Name == "" {
		return nil, &ParseError{Msg: "coherence: map file missing protocol directive"}
	}
	return t, nil
}

func parseTransition(t *Table, fields []string, lineNo int) error {
	// <op> <state> <snoop|*> -> <next> [action...]
	if len(fields) < 5 {
		return fmt.Errorf("transition needs at least 5 fields, got %d", len(fields))
	}
	if fields[3] != "->" {
		return fmt.Errorf("expected '->' in fourth field, got %q", fields[3])
	}
	op, err := ParseOp(fields[0])
	if err != nil {
		return err
	}
	st, err := ParseState(fields[1])
	if err != nil {
		return err
	}
	next, err := ParseState(fields[4])
	if err != nil {
		return err
	}
	var actions Action
	for _, f := range fields[5:] {
		if f == "-" {
			continue
		}
		a, err := ParseAction(f)
		if err != nil {
			return err
		}
		actions |= a
	}
	if fields[2] == "*" {
		t.applyParsed(op, st, -1, next, actions, lineNo)
		return nil
	}
	sn, err := ParseSnoopIn(fields[2])
	if err != nil {
		return err
	}
	t.applyParsed(op, st, int(sn), next, actions, lineNo)
	return nil
}

// ParseMapFileString parses a map file held in a string.
func ParseMapFileString(s string) (*Table, error) {
	return ParseMapFile(strings.NewReader(s))
}
