// Package coherence implements MemorIES's programmable cache-coherence
// engine. Paper §3.2: "The cache state transitions are modeled as a lookup
// table which consists of the type of memory operation, the current state
// of the cache entry, and the resulting state from other cache nodes. The
// table lookup map file is loaded into each cache node controller FPGA
// during the initialization phase."
//
// A Table maps (operation, current line state, snoop result from the other
// caches) to a next state plus an action set. Tables are data: parsed from
// (and written back to) the textual map-file format, compiled into the
// Engine a node controller indexes, and different tables can be loaded
// into different node controllers in the same run — exactly the
// experiment §3.2 describes. The shipped protocols are the map files in
// the top-level protocols package, which is also the one loader; this
// package defines no protocol of its own.
package coherence

import (
	"fmt"
	"sort"
	"strings"
)

// State is a cache-line coherence state. Invalid must be zero so that it
// coincides with cache.StateInvalid.
type State uint8

const (
	// Invalid: no copy present.
	Invalid State = iota
	// Shared: clean copy, other caches may hold it too.
	Shared
	// Exclusive: clean copy, no other cache holds it.
	Exclusive
	// Modified: dirty copy, sole owner.
	Modified
	// Owned: dirty copy, but other caches may hold shared copies; this
	// cache is responsible for the write-back (MOESI only).
	Owned

	// NumStates is the number of coherence states.
	NumStates = int(Owned) + 1
)

var stateNames = [NumStates]string{"I", "S", "E", "M", "O"}

// String returns the single-letter state mnemonic.
func (s State) String() string {
	if int(s) < NumStates {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// ParseState parses a single-letter state mnemonic.
func ParseState(t string) (State, error) {
	for i, n := range stateNames {
		if strings.EqualFold(t, n) {
			return State(i), nil
		}
	}
	return 0, fmt.Errorf("coherence: unknown state %q", t)
}

// IsDirty reports whether the state obliges this cache to supply or write
// back the data.
func (s State) IsDirty() bool { return s == Modified || s == Owned }

// IsValid reports whether a line in this state is present.
func (s State) IsValid() bool { return s != Invalid }

// Op is the class of memory operation presented to the protocol table.
// Local ops come from processors belonging to this emulated node; snoop
// ops are observed from other nodes (or other emulated caches).
type Op uint8

const (
	// LocalRead: a processor of this node issued a cacheable read.
	LocalRead Op = iota
	// LocalWrite: a processor of this node issued RWITM or DClaim.
	LocalWrite
	// LocalCastout: a processor of this node cast out a modified line;
	// the emulated shared cache absorbs it.
	LocalCastout
	// SnoopRead: a processor of a different node read the line.
	SnoopRead
	// SnoopWrite: a processor of a different node claimed the line.
	SnoopWrite
	// SnoopCastout: a different node cast out the line (visible on the
	// shared bus; usually a no-op for this cache).
	SnoopCastout

	// NumOps is the number of operation classes.
	NumOps = int(SnoopCastout) + 1
)

var opNames = [NumOps]string{
	"read", "write", "castout", "snoop-read", "snoop-write", "snoop-castout",
}

// String returns the map-file mnemonic for the op.
func (o Op) String() string {
	if int(o) < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ParseOp parses a map-file op mnemonic.
func ParseOp(t string) (Op, error) {
	for i, n := range opNames {
		if strings.EqualFold(t, n) {
			return Op(i), nil
		}
	}
	return 0, fmt.Errorf("coherence: unknown op %q", t)
}

// IsLocal reports whether the op originates from this node's processors.
func (o Op) IsLocal() bool { return o <= LocalCastout }

// SnoopIn is "the resulting state from other cache nodes" — the combined
// snoop outcome the requesting controller sees from its peers.
type SnoopIn uint8

const (
	// SnoopNone: no other cache holds the line.
	SnoopNone SnoopIn = iota
	// SnoopShared: at least one other cache holds a clean copy.
	SnoopShared
	// SnoopModified: another cache owns the line dirty and intervenes.
	SnoopModified

	// NumSnoopIns is the number of snoop-input classes.
	NumSnoopIns = int(SnoopModified) + 1
)

var snoopNames = [NumSnoopIns]string{"none", "shared", "modified"}

// String returns the map-file mnemonic.
func (s SnoopIn) String() string {
	if int(s) < NumSnoopIns {
		return snoopNames[s]
	}
	return fmt.Sprintf("snoop(%d)", uint8(s))
}

// ParseSnoopIn parses a map-file snoop mnemonic.
func ParseSnoopIn(t string) (SnoopIn, error) {
	for i, n := range snoopNames {
		if strings.EqualFold(t, n) {
			return SnoopIn(i), nil
		}
	}
	return 0, fmt.Errorf("coherence: unknown snoop input %q", t)
}

// Action is a bit set of side effects a transition requests from the node
// controller.
type Action uint16

const (
	// ActAllocate: install the line in the cache (on miss).
	ActAllocate Action = 1 << iota
	// ActFetchMemory: data comes from memory.
	ActFetchMemory
	// ActFetchIntervention: data comes from a peer cache (cache-to-cache
	// transfer; Figure 12's mod-int / shr-int events).
	ActFetchIntervention
	// ActInvalidateOthers: peers must drop their copies.
	ActInvalidateOthers
	// ActWriteback: this cache must write dirty data back to memory
	// (downgrade or replacement).
	ActWriteback
	// ActRespondShared: snoop side — answer "shared" on the bus.
	ActRespondShared
	// ActRespondModified: snoop side — answer "modified" and supply data.
	ActRespondModified
)

var actionNames = []struct {
	bit  Action
	name string
}{
	{ActAllocate, "allocate"},
	{ActFetchMemory, "fetch-memory"},
	{ActFetchIntervention, "fetch-intervention"},
	{ActInvalidateOthers, "invalidate-others"},
	{ActWriteback, "writeback"},
	{ActRespondShared, "respond-shared"},
	{ActRespondModified, "respond-modified"},
}

// Has reports whether all bits in a are set.
func (a Action) Has(bits Action) bool { return a&bits == bits }

// String renders the action set as space-separated mnemonics, "-" if empty.
func (a Action) String() string {
	if a == 0 {
		return "-"
	}
	var parts []string
	for _, an := range actionNames {
		if a.Has(an.bit) {
			parts = append(parts, an.name)
		}
	}
	return strings.Join(parts, " ")
}

// ParseAction parses a single action mnemonic.
func ParseAction(t string) (Action, error) {
	for _, an := range actionNames {
		if strings.EqualFold(t, an.name) {
			return an.bit, nil
		}
	}
	return 0, fmt.Errorf("coherence: unknown action %q", t)
}

// Entry is one transition: the next state and the actions to perform.
type Entry struct {
	Next    State
	Actions Action
	defined bool
}

// Table is a complete protocol lookup table. Index with Lookup; the zero
// value is an empty table to be populated with Set or by the parser.
type Table struct {
	// Name identifies the protocol ("mesi", "mosi", custom names from map
	// files).
	Name    string
	entries [NumOps][NumStates][NumSnoopIns]Entry

	// Rule provenance, recorded only by the map-file parser so Compile
	// can distinguish a legal wildcard-then-refine sequence from two
	// rules that genuinely disagree. Programmatic Set calls leave it
	// zero: last-wins, never ambiguous.
	prov  [NumOps][NumStates][NumSnoopIns]ruleProv
	ambig []ambiguity
}

// ruleProv records which kind of map-file rule last wrote a cell.
type ruleProv struct {
	level uint8 // 0 = programmatic/none, 1 = '*' wildcard, 2 = exact snoop
	line  int32
}

// ambiguity records a conflict between two parsed rules of equal or
// inverted specificity claiming the same cell with different entries.
type ambiguity struct {
	op             Op
	st             State
	sn             SnoopIn
	line, prevLine int32
}

// applyParsed installs a parsed rule (snoopIdx < 0 means the '*'
// wildcard), tracking provenance. A more specific rule overriding a
// less specific one is the documented refinement idiom; an equally or
// less specific rule that changes an existing cell is recorded as an
// ambiguity for Compile to reject. Restating an identical entry is
// always legal.
func (t *Table) applyParsed(op Op, st State, snoopIdx int, next State, actions Action, line int) {
	level, lo, hi := uint8(2), snoopIdx, snoopIdx+1
	if snoopIdx < 0 {
		level, lo, hi = 1, 0, NumSnoopIns
	}
	for sn := lo; sn < hi; sn++ {
		e := Entry{Next: next, Actions: actions, defined: true}
		old := t.prov[op][st][sn]
		if old.level != 0 && level <= old.level && t.entries[op][st][sn] != e &&
			len(t.ambig) < 16 {
			t.ambig = append(t.ambig, ambiguity{
				op: op, st: st, sn: SnoopIn(sn),
				line: int32(line), prevLine: old.line,
			})
		}
		t.entries[op][st][sn] = e
		t.prov[op][st][sn] = ruleProv{level: level, line: int32(line)}
	}
}

// Set defines the transition for (op, cur, snoop).
func (t *Table) Set(op Op, cur State, snoop SnoopIn, next State, actions Action) {
	t.entries[op][cur][snoop] = Entry{Next: next, Actions: actions, defined: true}
}

// Lookup returns the transition for (op, cur, snoop) and whether it is
// defined. It is the reference the conformance suite holds
// Engine.Lookup against; controllers index the compiled Engine.
func (t *Table) Lookup(op Op, cur State, snoop SnoopIn) (Entry, bool) {
	e := t.entries[op][cur][snoop]
	return e, e.defined
}

// States returns the set of states reachable from Invalid under the table,
// i.e. the states the protocol actually uses.
func (t *Table) States() []State {
	seen := [NumStates]bool{}
	seen[Invalid] = true
	changed := true
	for changed {
		changed = false
		for op := 0; op < NumOps; op++ {
			for st := 0; st < NumStates; st++ {
				if !seen[st] {
					continue
				}
				for sn := 0; sn < NumSnoopIns; sn++ {
					e := t.entries[op][st][sn]
					if e.defined && !seen[e.Next] {
						seen[e.Next] = true
						changed = true
					}
				}
			}
		}
	}
	var out []State
	for st := 0; st < NumStates; st++ {
		if seen[st] {
			out = append(out, State(st))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
