package coherence

import (
	"errors"
	"strings"
	"testing"
)

func TestStateRoundTrip(t *testing.T) {
	for s := State(0); int(s) < NumStates; s++ {
		got, err := ParseState(s.String())
		if err != nil || got != s {
			t.Errorf("ParseState(%q) = %v,%v", s.String(), got, err)
		}
	}
	if _, err := ParseState("Q"); err == nil {
		t.Error("ParseState accepted unknown state")
	}
}

func TestOpRoundTrip(t *testing.T) {
	for o := Op(0); int(o) < NumOps; o++ {
		got, err := ParseOp(o.String())
		if err != nil || got != o {
			t.Errorf("ParseOp(%q) = %v,%v", o.String(), got, err)
		}
	}
	if !LocalRead.IsLocal() || !LocalCastout.IsLocal() {
		t.Error("local ops misclassified")
	}
	if SnoopRead.IsLocal() || SnoopCastout.IsLocal() {
		t.Error("snoop ops misclassified")
	}
}

func TestSnoopInRoundTrip(t *testing.T) {
	for s := SnoopIn(0); int(s) < NumSnoopIns; s++ {
		got, err := ParseSnoopIn(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSnoopIn(%q) = %v,%v", s.String(), got, err)
		}
	}
}

func TestStatePredicates(t *testing.T) {
	if Invalid.IsValid() {
		t.Error("Invalid.IsValid")
	}
	for _, s := range []State{Shared, Exclusive, Modified, Owned} {
		if !s.IsValid() {
			t.Errorf("%v.IsValid = false", s)
		}
	}
	if !Modified.IsDirty() || !Owned.IsDirty() {
		t.Error("dirty states misclassified")
	}
	if Shared.IsDirty() || Exclusive.IsDirty() || Invalid.IsDirty() {
		t.Error("clean states misclassified")
	}
}

func TestActionStringAndParse(t *testing.T) {
	a := ActAllocate | ActFetchMemory
	s := a.String()
	if !strings.Contains(s, "allocate") || !strings.Contains(s, "fetch-memory") {
		t.Fatalf("Action.String = %q", s)
	}
	if Action(0).String() != "-" {
		t.Fatal("empty action should render as '-'")
	}
	got, err := ParseAction("invalidate-others")
	if err != nil || got != ActInvalidateOthers {
		t.Fatalf("ParseAction = %v,%v", got, err)
	}
	if _, err := ParseAction("explode"); err == nil {
		t.Fatal("ParseAction accepted unknown action")
	}
}

func TestBuiltinsValidate(t *testing.T) {
	for name, tab := range shippedTables(t) {
		if _, err := Compile(tab); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBuiltinStateSets(t *testing.T) {
	cases := []struct {
		name string
		want []State
	}{
		{"msi", []State{Invalid, Shared, Modified}},
		{"mesi", []State{Invalid, Shared, Exclusive, Modified}},
		{"moesi", []State{Invalid, Shared, Exclusive, Modified, Owned}},
		{"write-once", []State{Invalid, Shared, Exclusive, Modified}},
	}
	for _, c := range cases {
		got := shipped(t, c.name).States()
		if len(got) != len(c.want) {
			t.Errorf("%s uses states %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s uses states %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestMESIKeyTransitions(t *testing.T) {
	tab := shipped(t, "mesi")
	cases := []struct {
		op       Op
		cur      State
		snoop    SnoopIn
		wantNext State
		wantActs Action
	}{
		{LocalRead, Invalid, SnoopNone, Exclusive, ActAllocate | ActFetchMemory},
		{LocalRead, Invalid, SnoopShared, Shared, ActAllocate | ActFetchMemory},
		{LocalRead, Invalid, SnoopModified, Shared, ActAllocate | ActFetchIntervention},
		{LocalWrite, Shared, SnoopNone, Modified, ActInvalidateOthers},
		{LocalWrite, Exclusive, SnoopNone, Modified, 0},
		{SnoopRead, Modified, SnoopNone, Shared, ActRespondModified | ActWriteback},
		{SnoopWrite, Shared, SnoopNone, Invalid, 0},
		{SnoopWrite, Modified, SnoopNone, Invalid, ActRespondModified},
	}
	for _, c := range cases {
		e := oracle(t, tab, c.op, c.cur, c.snoop)
		if e.Next != c.wantNext || e.Actions != c.wantActs {
			t.Errorf("%s/%s/%s -> (%s,%s), want (%s,%s)",
				c.op, c.cur, c.snoop, e.Next, e.Actions, c.wantNext, c.wantActs)
		}
	}
}

func TestMSIReadsAllocateShared(t *testing.T) {
	e := oracle(t, shipped(t, "msi"), LocalRead, Invalid, SnoopNone)
	if e.Next != Shared {
		t.Fatalf("MSI read-miss allocates %v, want S", e.Next)
	}
}

func TestMOESIKeepsDirtyDataOnSnoopRead(t *testing.T) {
	e := oracle(t, shipped(t, "moesi"), SnoopRead, Modified, SnoopNone)
	if e.Next != Owned {
		t.Fatalf("MOESI M snoop-read -> %v, want O", e.Next)
	}
	if e.Actions.Has(ActWriteback) {
		t.Fatal("MOESI must not write back on snoop-read")
	}
	if !e.Actions.Has(ActRespondModified) {
		t.Fatal("MOESI owner must intervene")
	}
}

// wantCompileErr asserts Compile rejects tab with a *CompileError of
// the given kind.
func wantCompileErr(t *testing.T, tab *Table, kind CompileErrKind) {
	t.Helper()
	_, err := Compile(tab)
	var ce *CompileError
	if !errors.As(err, &ce) || ce.Kind != kind {
		t.Fatalf("Compile(%s) = %v, want %s", tab.Name, err, kind)
	}
}

// setAllSnoops defines the same transition for every snoop input.
func setAllSnoops(t *Table, op Op, cur, next State, actions Action) {
	for s := 0; s < NumSnoopIns; s++ {
		t.Set(op, cur, SnoopIn(s), next, actions)
	}
}

func TestValidateCatchesMissingTransition(t *testing.T) {
	partial := &Table{Name: "partial"}
	partial.Set(LocalRead, Invalid, SnoopNone, Shared, ActAllocate|ActFetchMemory)
	wantCompileErr(t, partial, ErrMissingTransition)
}

func TestValidateCatchesSnoopWriteKeepingLine(t *testing.T) {
	tab := shipped(t, "mesi")
	setAllSnoops(tab, SnoopWrite, Shared, Shared, 0) // illegal: must invalidate
	wantCompileErr(t, tab, ErrSnoopWriteKeepsCopy)
}

func TestValidateCatchesAllocationWithoutSource(t *testing.T) {
	tab := shipped(t, "mesi")
	tab.Set(LocalRead, Invalid, SnoopNone, Exclusive, ActAllocate) // no data source
	wantCompileErr(t, tab, ErrNoDataSource)
}

func TestValidateCatchesHiddenDirtyOwner(t *testing.T) {
	tab := shipped(t, "mesi")
	setAllSnoops(tab, SnoopRead, Modified, Shared, 0) // silent downgrade
	wantCompileErr(t, tab, ErrHiddenDirty)
}

func TestValidateIgnoresUnusedStates(t *testing.T) {
	// MSI never reaches E or O; Compile must not demand transitions for
	// them.
	if _, err := Compile(shipped(t, "msi")); err != nil {
		t.Fatalf("MSI rejected over unused states: %v", err)
	}
}
