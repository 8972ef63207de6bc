package coherence

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParseMapFile throws arbitrary text at the map-file parser. The
// parser guards the console's protocol-load path, so it must never
// panic, and any input it accepts must survive a serialize/re-parse
// round trip (the re-serialized form is the fixed point).
func FuzzParseMapFile(f *testing.F) {
	for _, t := range shippedTables(f) {
		text := MapFileString(t)
		f.Add(text)
	}
	f.Add("protocol p\nread I * -> S -\n")
	f.Add("protocol p\nread I * -> S fetch\nwrite S hit -> M -\n")
	f.Add("# comment only\n")
	f.Add("protocol\n")
	f.Add("protocol p extra\n")
	f.Add("read I * -> S\nprotocol late\n")
	f.Add("read I bogus -> S -\n")
	f.Add("read I * => S -\n")
	f.Add("read I * -> S unknown-action\n")
	f.Add(strings.Repeat("read I * -> S -\n", 100))
	f.Add("protocol p\nREAD i * -> s -\n")

	f.Fuzz(func(t *testing.T, input string) {
		tab, err := ParseMapFileString(input)
		if err != nil {
			return
		}
		if tab.Name == "" {
			t.Fatal("accepted a table with no protocol name")
		}
		text := MapFileString(tab)
		tab2, err := ParseMapFileString(text)
		if err != nil {
			t.Fatalf("serialized form does not re-parse: %v\n%s", err, text)
		}
		text2 := MapFileString(tab2)
		if text != text2 {
			t.Fatalf("round trip not a fixed point:\n--- first\n%s\n--- second\n%s", text, text2)
		}
	})
}

// FuzzProtocolCompile throws arbitrary map text at the full parse +
// compile pipeline. Neither stage may panic; compilation must be
// deterministic; and any table that compiles must yield an engine whose
// every used-state cell is bit-identical to the table (the conformance
// property, under fuzz).
func FuzzProtocolCompile(f *testing.F) {
	for _, t := range shippedTables(f) {
		text := MapFileString(t)
		f.Add(text)
	}
	// A deliberately incoherent map: the dirty line answers the snoop
	// but the writeback is gone, so memory is never made current.
	f.Add("protocol bad\n" +
		"read I none -> S allocate fetch-memory\n" +
		"read I shared -> S allocate fetch-memory\n" +
		"read I modified -> S allocate fetch-intervention\n" +
		"read S * -> S -\nread M * -> M -\n" +
		"write I * -> M allocate fetch-memory invalidate-others\n" +
		"write S * -> M invalidate-others\nwrite M * -> M -\n" +
		"castout I * -> M allocate\ncastout S * -> M -\ncastout M * -> M -\n" +
		"snoop-read I * -> I -\nsnoop-read S * -> S respond-shared\n" +
		"snoop-read M * -> S respond-modified\n" +
		"snoop-write I * -> I -\nsnoop-write S * -> I -\nsnoop-write M * -> I respond-modified\n" +
		"snoop-castout I * -> I -\nsnoop-castout S * -> S -\nsnoop-castout M * -> M -\n")
	f.Add("protocol p\nread I * -> S -\n")                     // leaves Invalid without allocating
	f.Add("protocol p\nread I * -> S allocate\n")              // allocation without a data source
	f.Add("protocol p\nsnoop-write S * -> S -\n")              // snoop-write keeps the copy
	f.Add("protocol p\nread S * -> S -\nread S none -> M -\n") // refinement, legal
	f.Add("protocol p\nread S none -> M -\nread S * -> S -\n") // wildcard tramples exact: ambiguous
	f.Add("protocol p\nsnoop-castout O * -> O -\n")            // unreachable state

	f.Fuzz(func(t *testing.T, input string) {
		tab, err := ParseMapFileString(input)
		if err != nil {
			return
		}
		eng, cerr := Compile(tab)
		eng2, cerr2 := Compile(tab)
		if (cerr == nil) != (cerr2 == nil) {
			t.Fatalf("compile verdict not deterministic: %v vs %v", cerr, cerr2)
		}
		if cerr != nil {
			var comp *CompileError
			if !errors.As(cerr, &comp) {
				t.Fatalf("compile rejection is not a *CompileError: %T %v", cerr, cerr)
			}
			if comp.Error() != cerr2.Error() {
				t.Fatalf("compile error not deterministic: %q vs %q", comp.Error(), cerr2.Error())
			}
			return
		}
		used := map[State]bool{}
		for _, s := range tab.States() {
			used[s] = true
		}
		for op := 0; op < NumOps; op++ {
			for st := 0; st < NumStates; st++ {
				for sn := 0; sn < NumSnoopIns; sn++ {
					got := eng.Lookup(Op(op), State(st), SnoopIn(sn))
					if got != eng2.Lookup(Op(op), State(st), SnoopIn(sn)) {
						t.Fatal("two compiles of one table disagree")
					}
					if !used[State(st)] {
						if got.Next != State(st) || got.Actions != 0 {
							t.Fatalf("unused state %s not identity at %s/%s", State(st), Op(op), SnoopIn(sn))
						}
						continue
					}
					want := oracle(t, tab, Op(op), State(st), SnoopIn(sn))
					if got.Next != want.Next || got.Actions != want.Actions {
						t.Fatalf("engine diverges from table at %s/%s/%s", Op(op), State(st), SnoopIn(sn))
					}
				}
			}
		}
	})
}

// FuzzModelCheck runs the exhaustive checker on arbitrary parsed map
// text: it must never panic, its verdict (including the rendered
// counterexample) must be deterministic, and acceptance implies the
// table compiled — Check's contract is a superset of Compile's.
func FuzzModelCheck(f *testing.F) {
	for _, t := range shippedTables(f) {
		text := MapFileString(t)
		f.Add(text)
	}
	// The same deliberately incoherent map as FuzzProtocolCompile: it
	// compiles cleanly and only the state-space search catches it.
	f.Add("protocol bad\n" +
		"read I none -> S allocate fetch-memory\n" +
		"read I shared -> S allocate fetch-memory\n" +
		"read I modified -> S allocate fetch-intervention\n" +
		"read S * -> S -\nread M * -> M -\n" +
		"write I * -> M allocate fetch-memory invalidate-others\n" +
		"write S * -> M invalidate-others\nwrite M * -> M -\n" +
		"castout I * -> M allocate\ncastout S * -> M -\ncastout M * -> M -\n" +
		"snoop-read I * -> I -\nsnoop-read S * -> S respond-shared\n" +
		"snoop-read M * -> S respond-modified\n" +
		"snoop-write I * -> I -\nsnoop-write S * -> I -\nsnoop-write M * -> I respond-modified\n" +
		"snoop-castout I * -> I -\nsnoop-castout S * -> S -\nsnoop-castout M * -> M -\n")
	f.Add("protocol p\nread I * -> S allocate fetch-memory\n")
	f.Add("protocol livelock\nread I none -> S allocate fetch-memory\nread S * -> I -\n")

	f.Fuzz(func(t *testing.T, input string) {
		tab, err := ParseMapFileString(input)
		if err != nil {
			return
		}
		err1 := Check(tab)
		err2 := Check(tab)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("check verdict not deterministic: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("check error not deterministic:\n%q\n%q", err1.Error(), err2.Error())
			}
			return
		}
		if _, cerr := Compile(tab); cerr != nil {
			t.Fatalf("Check accepted a table Compile rejects: %v", cerr)
		}
	})
}
