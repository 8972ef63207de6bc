package coherence

// The protocol compiler. ParseMapFile produces a Table — a sparse,
// provenance-carrying rule set. Compile lowers it into an Engine: the
// dense op×state×snoop transition array a node controller FPGA consumes
// (paper §3.2 — "the table lookup map file is loaded into each cache
// node controller FPGA during the initialization phase"). Compilation is
// where a protocol is judged: unknown mnemonics are caught by the
// parser, and everything structural — missing transitions, ambiguous
// rules left over after wildcard expansion, states that can never be
// reached, transitions that violate bus invariants — is a typed
// *CompileError here, never a silent default at lookup time.

import "fmt"

// CompileErrKind classifies what a CompileError rejected.
type CompileErrKind uint8

const (
	// ErrUnnamed: the table has no protocol name.
	ErrUnnamed CompileErrKind = iota
	// ErrMissingTransition: a reachable (op, state, snoop) cell is
	// undefined.
	ErrMissingTransition
	// ErrAmbiguousRule: after wildcard expansion two map-file rules
	// claim the same cell with different transitions and neither is more
	// specific than the other (or a late wildcard tramples an earlier
	// exact rule).
	ErrAmbiguousRule
	// ErrUnreachableState: a state has transition rules but can never be
	// entered from Invalid.
	ErrUnreachableState
	// ErrSnoopWriteKeepsCopy: a snoop-write (another cache claimed
	// exclusive ownership) leaves this cache with a valid copy.
	ErrSnoopWriteKeepsCopy
	// ErrNoDataSource: an allocation has neither fetch-memory nor
	// fetch-intervention.
	ErrNoDataSource
	// ErrLeavesInvalid: a transition leaves Invalid without allocating.
	ErrLeavesInvalid
	// ErrHiddenDirty: a dirty line answers a snoop-read without
	// respond-modified or a writeback, hiding ownership from the bus.
	ErrHiddenDirty
)

var compileErrNames = [...]string{
	ErrUnnamed:             "unnamed protocol",
	ErrMissingTransition:   "missing transition",
	ErrAmbiguousRule:       "ambiguous rule",
	ErrUnreachableState:    "unreachable state",
	ErrSnoopWriteKeepsCopy: "snoop-write keeps copy",
	ErrNoDataSource:        "allocation without data source",
	ErrLeavesInvalid:       "leaves Invalid without allocating",
	ErrHiddenDirty:         "dirty line hides ownership",
}

// String returns a short description of the error kind.
func (k CompileErrKind) String() string {
	if int(k) < len(compileErrNames) {
		return compileErrNames[k]
	}
	return fmt.Sprintf("compile-error(%d)", uint8(k))
}

// CompileError reports why a table failed to compile. Op/State/Snoop
// identify the offending cell when HasCell is true; Line and PrevLine
// carry map-file line numbers when the table came from the parser (zero
// for programmatically built tables).
type CompileError struct {
	Protocol string
	Kind     CompileErrKind
	Op       Op
	State    State
	Snoop    SnoopIn
	HasCell  bool
	Line     int
	PrevLine int
	Detail   string
}

func (e *CompileError) Error() string {
	s := fmt.Sprintf("protocol %s: %s", e.Protocol, e.Kind)
	if e.HasCell {
		s += fmt.Sprintf(": %s/%s/%s", e.Op, e.State, e.Snoop)
	}
	if e.Line > 0 {
		s += fmt.Sprintf(" (line %d", e.Line)
		if e.PrevLine > 0 {
			s += fmt.Sprintf(" vs line %d", e.PrevLine)
		}
		s += ")"
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// Engine is a compiled protocol: the dense transition array the board's
// hot path indexes directly. Compile guarantees every cell for a state
// the protocol uses is defined, so Lookup is total over used states —
// no existence check, no branch, no allocation.
type Engine struct {
	name     string
	usedMask uint8
	entries  [NumOps * NumStates * NumSnoopIns]Entry
}

// Name returns the compiled protocol's name.
func (e *Engine) Name() string { return e.name }

// Lookup returns the transition for (op, cur, snoop). For states the
// protocol does not use the entry is the identity transition (stay,
// no actions); callers guard with Uses when the state byte can be
// corrupt.
func (e *Engine) Lookup(op Op, cur State, snoop SnoopIn) Entry {
	return e.entries[(int(op)*NumStates+int(cur))*NumSnoopIns+int(snoop)]
}

// Uses reports whether the protocol can put a line into state s. The
// mask lets controllers sanitize directory bytes: a state outside the
// compiled protocol's reachable set is corruption, even if it is a
// legal state for some other protocol.
func (e *Engine) Uses(s State) bool {
	return int(s) < NumStates && e.usedMask>>uint(s)&1 != 0
}

// Compile validates a table and lowers it into an Engine. All
// structural defects are *CompileError values:
//
//   - the table must be named (ErrUnnamed);
//   - map-file rules must be unambiguous after wildcard expansion
//     (ErrAmbiguousRule) — an exact rule may refine an earlier
//     wildcard, but two rules of equal specificity that disagree, or a
//     wildcard overriding an earlier exact rule, are rejected;
//   - every state with transition rules must be reachable from Invalid
//     (ErrUnreachableState);
//   - every (op, state, snoop) cell of every reachable state must be
//     defined (ErrMissingTransition);
//   - a snoop-write always leaves the line Invalid — another cache
//     claimed exclusive ownership (ErrSnoopWriteKeepsCopy);
//   - a local read or write that allocates from Invalid fetches its
//     data from memory or by intervention (ErrNoDataSource);
//   - a transition out of Invalid allocates (ErrLeavesInvalid);
//   - a dirty state answers a snoop-read with respond-modified or a
//     writeback — ownership must be visible (ErrHiddenDirty).
func Compile(t *Table) (*Engine, error) {
	if t.Name == "" {
		return nil, &CompileError{Protocol: "(unnamed)", Kind: ErrUnnamed}
	}
	if len(t.ambig) > 0 {
		a := t.ambig[0]
		return nil, &CompileError{
			Protocol: t.Name, Kind: ErrAmbiguousRule,
			Op: a.op, State: a.st, Snoop: a.sn, HasCell: true,
			Line: int(a.line), PrevLine: int(a.prevLine),
			Detail: "rules of equal or lower specificity disagree",
		}
	}
	var usedMask uint8
	used := [NumStates]bool{}
	for _, s := range t.States() {
		used[s] = true
		usedMask |= 1 << uint(s)
	}
	for st := 0; st < NumStates; st++ {
		if used[st] {
			continue
		}
		for op := 0; op < NumOps; op++ {
			for sn := 0; sn < NumSnoopIns; sn++ {
				if t.entries[op][st][sn].defined {
					return nil, &CompileError{
						Protocol: t.Name, Kind: ErrUnreachableState,
						Op: Op(op), State: State(st), Snoop: SnoopIn(sn), HasCell: true,
						Line:   int(t.prov[op][st][sn].line),
						Detail: fmt.Sprintf("state %s has rules but is never entered from %s", State(st), Invalid),
					}
				}
			}
		}
	}
	eng := &Engine{name: t.Name, usedMask: usedMask}
	for op := 0; op < NumOps; op++ {
		for st := 0; st < NumStates; st++ {
			for sn := 0; sn < NumSnoopIns; sn++ {
				idx := (op*NumStates+st)*NumSnoopIns + sn
				if !used[st] {
					eng.entries[idx] = Entry{Next: State(st)}
					continue
				}
				e := t.entries[op][st][sn]
				if !e.defined {
					return nil, &CompileError{
						Protocol: t.Name, Kind: ErrMissingTransition,
						Op: Op(op), State: State(st), Snoop: SnoopIn(sn), HasCell: true,
					}
				}
				if err := t.lintCell(Op(op), State(st), SnoopIn(sn), e); err != nil {
					return nil, err
				}
				eng.entries[idx] = e
			}
		}
	}
	return eng, nil
}

// lintCell applies the bus-invariant checks to one defined cell,
// returning a typed *CompileError on violation.
func (t *Table) lintCell(op Op, st State, sn SnoopIn, e Entry) error {
	mk := func(kind CompileErrKind, detail string) error {
		return &CompileError{
			Protocol: t.Name, Kind: kind,
			Op: op, State: st, Snoop: sn, HasCell: true,
			Line:   int(t.prov[op][st][sn].line),
			Detail: detail,
		}
	}
	switch {
	case op == SnoopWrite && st != Invalid && e.Next != Invalid:
		return mk(ErrSnoopWriteKeepsCopy, fmt.Sprintf("snoop-write must invalidate, got next=%s", e.Next))
	case op.IsLocal() && st == Invalid && e.Actions.Has(ActAllocate) &&
		op != LocalCastout &&
		!e.Actions.Has(ActFetchMemory) && !e.Actions.Has(ActFetchIntervention):
		return mk(ErrNoDataSource, "allocation without a data source")
	case st == Invalid && !e.Actions.Has(ActAllocate) && e.Next != Invalid:
		return mk(ErrLeavesInvalid, "leaves Invalid without allocating")
	case op == SnoopRead && st.IsDirty() &&
		!e.Actions.Has(ActRespondModified) && !e.Actions.Has(ActWriteback):
		return mk(ErrHiddenDirty, "dirty line must surface ownership on snoop-read")
	}
	return nil
}
