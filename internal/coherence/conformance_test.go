package coherence

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shippedTables loads every protocols/*.map into a freshly parsed
// Table (the in-package tests cannot import package protocols, which
// imports this one). The shipped files are the only protocol
// definitions in the repository.
func shippedTables(t testing.TB) map[string]*Table {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "protocols", "*.map"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Table{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := ParseMapFileString(string(data))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[tab.Name] = tab
	}
	if len(out) < 4 {
		t.Fatalf("expected at least 4 shipped protocols, found %d", len(out))
	}
	return out
}

// shipped returns one shipped protocol, parsed fresh so the caller may
// mutate it.
func shipped(t testing.TB, name string) *Table {
	t.Helper()
	tab := shippedTables(t)[name]
	if tab == nil {
		t.Fatalf("no shipped protocol %q", name)
	}
	return tab
}

// oracle is the reference lookup: the sparse Table, which must define
// every cell the engine is asked about.
func oracle(t testing.TB, tab *Table, op Op, st State, sn SnoopIn) Entry {
	t.Helper()
	e, ok := tab.Lookup(op, st, sn)
	if !ok {
		t.Fatalf("%s: undefined transition %s/%s/%s", tab.Name, op, st, sn)
	}
	return e
}

// assertEngineMatchesTable checks cell-by-cell equality: for every
// (op, state, snoop) over the table's used states the compiled engine
// must return exactly the table's entry, and for unused states the
// identity transition.
func assertEngineMatchesTable(t *testing.T, tab *Table) {
	t.Helper()
	eng, err := Compile(tab)
	if err != nil {
		t.Fatalf("compile %s: %v", tab.Name, err)
	}
	used := map[State]bool{}
	for _, s := range tab.States() {
		used[s] = true
	}
	for op := 0; op < NumOps; op++ {
		for st := 0; st < NumStates; st++ {
			for sn := 0; sn < NumSnoopIns; sn++ {
				got := eng.Lookup(Op(op), State(st), SnoopIn(sn))
				if !used[State(st)] {
					if got.Next != State(st) || got.Actions != 0 {
						t.Fatalf("%s: unused state %s not identity: %s/%s/%s -> %s %v",
							tab.Name, State(st), Op(op), State(st), SnoopIn(sn), got.Next, got.Actions)
					}
					continue
				}
				want := oracle(t, tab, Op(op), State(st), SnoopIn(sn))
				if got.Next != want.Next || got.Actions != want.Actions {
					t.Fatalf("%s: engine diverges at %s/%s/%s: engine %s %v, table %s %v",
						tab.Name, Op(op), State(st), SnoopIn(sn),
						got.Next, got.Actions, want.Next, want.Actions)
				}
			}
		}
	}
}

// TestEngineConformsShipped proves the compiled engine bit-identical to
// the parsed table for every shipped protocol file.
func TestEngineConformsShipped(t *testing.T) {
	for name, tab := range shippedTables(t) {
		t.Run(name, func(t *testing.T) { assertEngineMatchesTable(t, tab) })
	}
}

// randomCompilableTable builds a fully random table that nonetheless
// satisfies every compile-time invariant: all five states are forced
// reachable, snoop-writes invalidate, Invalid is only left by an
// allocating local op, and dirty snoop-reads surface ownership.
// Everything else — next states, action sets — is drawn from rng.
func randomCompilableTable(rng *rand.Rand, name string) *Table {
	tab := &Table{Name: name}
	all := []State{Invalid, Shared, Exclusive, Modified, Owned}
	randActions := func() Action {
		return Action(rng.Intn(1<<7)) &^ (ActAllocate | ActFetchMemory | ActFetchIntervention)
	}
	for op := 0; op < NumOps; op++ {
		for _, st := range all {
			for sn := 0; sn < NumSnoopIns; sn++ {
				o, s := Op(op), st
				var next State
				var acts Action
				switch {
				case s == Invalid && o.IsLocal():
					if rng.Intn(2) == 0 {
						next, acts = Invalid, 0
					} else {
						next = all[1+rng.Intn(4)]
						acts = ActAllocate | ActFetchMemory | randActions()
					}
				case s == Invalid: // snoop ops never allocate
					next, acts = Invalid, 0
				case o == SnoopWrite:
					next, acts = Invalid, randActions()
				case o == SnoopRead && s.IsDirty():
					next = all[rng.Intn(5)]
					acts = ActWriteback | randActions()
				default:
					next = all[rng.Intn(5)]
					acts = randActions()
				}
				tab.Set(o, s, SnoopIn(sn), next, acts)
			}
		}
	}
	// Force reachability of every state regardless of the random draws
	// above (castout-allocate needs no data source: L2 deposits data).
	tab.Set(LocalCastout, Invalid, SnoopNone, Shared, ActAllocate)
	tab.Set(LocalCastout, Invalid, SnoopShared, Exclusive, ActAllocate)
	tab.Set(LocalCastout, Invalid, SnoopModified, Modified, ActAllocate)
	tab.Set(LocalRead, Invalid, SnoopNone, Owned, ActAllocate|ActFetchMemory)
	return tab
}

// TestEngineConformsRandomTables compiles randomly generated (valid)
// tables and demands exhaustive engine/table equality on each.
func TestEngineConformsRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		tab := randomCompilableTable(rng, fmt.Sprintf("rand%d", i))
		assertEngineMatchesTable(t, tab)
	}
}

// diffState is one side of the differential controller pair: per-cache
// line states evolved exactly the way internal/core's node does it
// (snoop-in derived from peer states; peers snoop with SnoopNone).
type diffState struct {
	st [4]State
}

func (d *diffState) snoopIn(self int) SnoopIn {
	in := SnoopNone
	for i, s := range d.st {
		if i == self || !s.IsValid() {
			continue
		}
		if s.IsDirty() {
			return SnoopModified
		}
		in = SnoopShared
	}
	return in
}

// TestEngineTableDifferentialStream drives a table-backed and an
// engine-backed controller through identical randomized op streams (the
// legacy_test.go pattern: the old path as reference model) and demands
// bit-identical transitions and states at every step, for all four
// shipped protocols across several seeds.
func TestEngineTableDifferentialStream(t *testing.T) {
	localOps := []Op{LocalRead, LocalWrite, LocalCastout}
	snoopFor := map[Op]Op{LocalRead: SnoopRead, LocalWrite: SnoopWrite, LocalCastout: SnoopCastout}
	for name, tab := range shippedTables(t) {
		eng, err := Compile(tab)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var tabSide, engSide diffState
				for step := 0; step < 5000; step++ {
					self := rng.Intn(len(tabSide.st))
					op := localOps[rng.Intn(len(localOps))]

					in := tabSide.snoopIn(self)
					if got := engSide.snoopIn(self); got != in {
						t.Fatalf("step %d: snoop-in diverged: table %s, engine %s", step, in, got)
					}
					te := oracle(t, tab, op, tabSide.st[self], in)
					ee := eng.Lookup(op, engSide.st[self], in)
					if te != ee {
						t.Fatalf("step %d: %s/%s/%s: table %s %v, engine %s %v",
							step, op, tabSide.st[self], in, te.Next, te.Actions, ee.Next, ee.Actions)
					}
					tabSide.st[self], engSide.st[self] = te.Next, ee.Next

					sop := snoopFor[op]
					for peer := range tabSide.st {
						if peer == self {
							continue
						}
						tp := oracle(t, tab, sop, tabSide.st[peer], SnoopNone)
						ep := eng.Lookup(sop, engSide.st[peer], SnoopNone)
						if tp != ep {
							t.Fatalf("step %d peer %d: %s/%s: table %s %v, engine %s %v",
								step, peer, sop, tabSide.st[peer], tp.Next, tp.Actions, ep.Next, ep.Actions)
						}
						tabSide.st[peer], engSide.st[peer] = tp.Next, ep.Next
					}
					if tabSide != engSide {
						t.Fatalf("step %d: controller states diverged: table %v, engine %v",
							step, tabSide.st, engSide.st)
					}
				}
			})
		}
	}
}

// mutation is one seeded single-rule edit of a shipped map file. old is
// replaced by new (new == "" deletes the rule); the mutated source must
// then be rejected at the stated layer with the stated typed error.
type mutation struct {
	name  string
	proto string // shipped protocol the mutation applies to
	old   string // verbatim rule line to replace
	new   string // replacement (may hold two lines; empty deletes)

	wantParse     bool           // expect a *ParseError
	wantCompile   CompileErrKind // valid when wantParse is false and wantViolation is false
	wantCheck     bool
	wantViolation ViolationKind // valid when wantCheck is true
}

var mutations = []mutation{
	// --- msi ---
	{name: "msi-drop-writeback", proto: "msi",
		old:       "snoop-read M * -> S writeback respond-modified",
		new:       "snoop-read M * -> S respond-modified",
		wantCheck: true, wantViolation: ViolationStaleRead},
	{name: "msi-snoop-write-keeps-copy", proto: "msi",
		old:         "snoop-write S * -> I -",
		new:         "snoop-write S * -> S -",
		wantCompile: ErrSnoopWriteKeepsCopy},
	{name: "msi-hidden-dirty", proto: "msi",
		old:         "snoop-read M * -> S writeback respond-modified",
		new:         "snoop-read M * -> M -",
		wantCompile: ErrHiddenDirty},
	{name: "msi-leaves-invalid", proto: "msi",
		old:         "read I none -> S allocate fetch-memory",
		new:         "read I none -> S fetch-memory",
		wantCompile: ErrLeavesInvalid},
	{name: "msi-no-data-source", proto: "msi",
		old:         "read I none -> S allocate fetch-memory",
		new:         "read I none -> S allocate",
		wantCompile: ErrNoDataSource},
	{name: "msi-read-thrash-livelock", proto: "msi",
		old:       "read S * -> S -",
		new:       "read S * -> I -",
		wantCheck: true, wantViolation: ViolationLivelock},
	{name: "msi-unknown-state", proto: "msi",
		old:       "read M * -> M -",
		new:       "read Q * -> Q -",
		wantParse: true},
	{name: "msi-missing-transition", proto: "msi",
		old:         "write M * -> M -",
		new:         "",
		wantCompile: ErrMissingTransition},

	// --- mesi ---
	{name: "mesi-drop-writeback", proto: "mesi",
		old:       "snoop-read M * -> S writeback respond-modified",
		new:       "snoop-read M * -> S respond-modified",
		wantCheck: true, wantViolation: ViolationStaleRead},
	{name: "mesi-exclusive-while-shared", proto: "mesi",
		old:       "read I shared -> S allocate fetch-memory",
		new:       "read I shared -> E allocate fetch-memory",
		wantCheck: true, wantViolation: ViolationConflictingCopies},
	{name: "mesi-snoop-write-keeps-exclusive", proto: "mesi",
		old:         "snoop-write E * -> I -",
		new:         "snoop-write E * -> E -",
		wantCompile: ErrSnoopWriteKeepsCopy},
	{name: "mesi-silent-write-on-exclusive", proto: "mesi",
		old:       "write E * -> M -",
		new:       "write E * -> E -",
		wantCheck: true, wantViolation: ViolationLostWrite},
	{name: "mesi-silent-write-on-shared", proto: "mesi",
		old:       "write S * -> M invalidate-others",
		new:       "write S * -> S invalidate-others",
		wantCheck: true, wantViolation: ViolationLostWrite},
	{name: "mesi-ambiguous-restatement", proto: "mesi",
		old:         "read S * -> S -",
		new:         "read S * -> S -\nread S * -> I -",
		wantCompile: ErrAmbiguousRule},
	{name: "mesi-unreachable-owned", proto: "mesi",
		old:         "snoop-castout M * -> M -",
		new:         "snoop-castout M * -> M -\nsnoop-castout O * -> O -",
		wantCompile: ErrUnreachableState},

	// --- moesi ---
	{name: "moesi-owner-hides-dirty", proto: "moesi",
		old:         "snoop-read O * -> O respond-modified",
		new:         "snoop-read O * -> O -",
		wantCompile: ErrHiddenDirty},
	{name: "moesi-snoop-write-keeps-owned", proto: "moesi",
		old:         "snoop-write O * -> I respond-modified",
		new:         "snoop-write O * -> O respond-modified",
		wantCompile: ErrSnoopWriteKeepsCopy},
	{name: "moesi-demote-owner-to-shared", proto: "moesi",
		// Rerouting M's snoop-read to S leaves O defined but unreachable.
		old:         "snoop-read M * -> O respond-modified",
		new:         "snoop-read M * -> S respond-modified",
		wantCompile: ErrUnreachableState},
	{name: "moesi-read-drops-owner", proto: "moesi",
		// The dropped owner re-reads stale memory while a fresh S peer
		// still holds the line, so the checker hits the stale read
		// before any write is actually lost.
		old:       "read O * -> O -",
		new:       "read O * -> I -",
		wantCheck: true, wantViolation: ViolationStaleRead},
	{name: "moesi-unknown-action", proto: "moesi",
		old:       "write O * -> M invalidate-others",
		new:       "write O * -> M invalidate_others",
		wantParse: true},

	// --- write-once ---
	{name: "write-once-drop-writeback", proto: "write-once",
		old:       "snoop-read M * -> S writeback respond-modified",
		new:       "snoop-read M * -> S respond-modified",
		wantCheck: true, wantViolation: ViolationStaleRead},
	{name: "write-once-exclusive-from-dirty-peer", proto: "write-once",
		old:       "read I modified -> S allocate fetch-intervention",
		new:       "read I modified -> E allocate fetch-intervention",
		wantCheck: true, wantViolation: ViolationConflictingCopies},
	{name: "write-once-missing-transition", proto: "write-once",
		old:         "read E * -> E -",
		new:         "",
		wantCompile: ErrMissingTransition},
	{name: "write-once-snoop-write-keeps-copy", proto: "write-once",
		old:         "snoop-write E * -> I -",
		new:         "snoop-write E * -> S -",
		wantCompile: ErrSnoopWriteKeepsCopy},
}

// TestCheckRejectsMutations seeds single-rule incoherence into each
// shipped map and asserts the load-time gauntlet rejects every mutant
// at the right layer with the right typed error. The unmutated sources
// all pass (assets_test.go), so each rejection is attributable to its
// one-line edit.
func TestCheckRejectsMutations(t *testing.T) {
	sources := map[string]string{}
	for name, tab := range shippedTables(t) {
		src := MapFileString(tab)
		sources[name] = src
	}
	perProto := map[string]int{}
	for _, m := range mutations {
		perProto[m.proto]++
		m := m
		t.Run(m.name, func(t *testing.T) {
			src, ok := sources[m.proto]
			if !ok {
				t.Fatalf("no shipped protocol %q", m.proto)
			}
			mutated := strings.Replace(src, m.old+"\n", m.new+"\n", 1)
			if m.new != "" && !strings.Contains(mutated, m.new) {
				t.Fatalf("mutation did not apply: %q not found in %s", m.old, m.proto)
			}
			if mutated == src {
				t.Fatalf("mutation is a no-op: %q", m.old)
			}

			tab, err := ParseMapFileString(mutated)
			if m.wantParse {
				var pe *ParseError
				if !errors.As(err, &pe) {
					t.Fatalf("want *ParseError, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("mutant failed to parse (wanted a later-stage rejection): %v", err)
			}

			err = Check(tab)
			if err == nil {
				t.Fatal("incoherent mutant accepted")
			}
			if m.wantCheck {
				var ce *CheckError
				if !errors.As(err, &ce) {
					t.Fatalf("want *CheckError, got %T: %v", err, err)
				}
				if ce.Kind != m.wantViolation {
					t.Fatalf("violation = %s, want %s (%v)", ce.Kind, m.wantViolation, err)
				}
				if len(ce.Trace) == 0 {
					t.Fatalf("violation carries no counterexample trace: %v", err)
				}
				return
			}
			var comp *CompileError
			if !errors.As(err, &comp) {
				t.Fatalf("want *CompileError, got %T: %v", err, err)
			}
			if comp.Kind != m.wantCompile {
				t.Fatalf("compile error = %s, want %s (%v)", comp.Kind, m.wantCompile, err)
			}
		})
	}
	if len(mutations) < 20 {
		t.Fatalf("mutation suite shrank to %d entries; keep at least 20", len(mutations))
	}
	for proto, n := range perProto {
		if n < 4 {
			t.Fatalf("protocol %s has only %d mutations; every shipped map needs at least 4", proto, n)
		}
	}
}
