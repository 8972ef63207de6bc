package coherence

import (
	"math/rand"
	"testing"
)

// randomTable builds an arbitrary fully-populated (not necessarily
// semantically sane) protocol table from a seed.
func randomTable(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{Name: "fuzz"}
	actions := []Action{
		0, ActAllocate | ActFetchMemory, ActAllocate | ActFetchIntervention,
		ActInvalidateOthers, ActWriteback, ActRespondShared, ActRespondModified,
		ActAllocate | ActFetchMemory | ActInvalidateOthers,
	}
	for op := 0; op < NumOps; op++ {
		for st := 0; st < NumStates; st++ {
			for sn := 0; sn < NumSnoopIns; sn++ {
				t.Set(Op(op), State(st), SnoopIn(sn),
					State(rng.Intn(NumStates)), actions[rng.Intn(len(actions))])
			}
		}
	}
	return t
}

// TestMapFileRoundTripRandomTables: serialize -> parse must be the
// identity for arbitrary tables, not just the shipped protocols.
func TestMapFileRoundTripRandomTables(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		orig := randomTable(seed)
		text := MapFileString(orig)
		parsed, err := ParseMapFileString(text)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !tablesEqual(orig, parsed) {
			t.Fatalf("seed %d: round trip changed the table", seed)
		}
	}
}

// TestValidateNeverPanics: Compile must reject or accept arbitrary
// tables without panicking, and every cell of a table it accepts is
// defined.
func TestValidateNeverPanics(t *testing.T) {
	valid := 0
	for seed := int64(0); seed < 200; seed++ {
		tab := randomTable(seed)
		if _, err := Compile(tab); err != nil {
			continue
		}
		valid++
		for op := 0; op < NumOps; op++ {
			for st := 0; st < NumStates; st++ {
				for sn := 0; sn < NumSnoopIns; sn++ {
					oracle(t, tab, Op(op), State(st), SnoopIn(sn))
				}
			}
		}
	}
	t.Logf("%d of 200 random tables compiled clean", valid)
}

// TestStatesReachabilityStopsAtInvalidOnlyTable: a table whose every
// transition stays Invalid uses exactly one state.
func TestStatesReachabilityStopsAtInvalidOnlyTable(t *testing.T) {
	tab := &Table{Name: "inert"}
	for op := 0; op < NumOps; op++ {
		for st := 0; st < NumStates; st++ {
			setAllSnoops(tab, Op(op), State(st), Invalid, 0)
		}
	}
	states := tab.States()
	if len(states) != 1 || states[0] != Invalid {
		t.Fatalf("States() = %v", states)
	}
}
