package coherence

import (
	"strings"
	"testing"
)

func tablesEqual(a, b *Table) bool {
	if a.Name != b.Name {
		return false
	}
	for op := 0; op < NumOps; op++ {
		for st := 0; st < NumStates; st++ {
			for sn := 0; sn < NumSnoopIns; sn++ {
				if a.entries[op][st][sn] != b.entries[op][st][sn] {
					return false
				}
			}
		}
	}
	return true
}

func TestMapFileRoundTripBuiltins(t *testing.T) {
	for name, orig := range shippedTables(t) {
		text := MapFileString(orig)
		parsed, err := ParseMapFileString(text)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", name, err, text)
		}
		if !tablesEqual(orig, parsed) {
			t.Fatalf("%s: round trip changed the table:\n%s", name, text)
		}
		if _, err := Compile(parsed); err != nil {
			t.Fatalf("%s: parsed table invalid: %v", name, err)
		}
	}
}

func TestParseMapFileComments(t *testing.T) {
	src := `
# a custom protocol
protocol demo
read I * -> S allocate fetch-memory   # trailing comment
read S * -> S -
`
	tab, err := ParseMapFileString(src)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name != "demo" {
		t.Fatalf("Name = %q", tab.Name)
	}
	e, ok := tab.Lookup(LocalRead, Invalid, SnoopShared)
	if !ok || e.Next != Shared || !e.Actions.Has(ActAllocate|ActFetchMemory) {
		t.Fatalf("wildcard transition wrong: %+v ok=%v", e, ok)
	}
	e, ok = tab.Lookup(LocalRead, Shared, SnoopNone)
	if !ok || e.Next != Shared || e.Actions != 0 {
		t.Fatalf("dash-action transition wrong: %+v ok=%v", e, ok)
	}
}

func TestParseMapFileOverride(t *testing.T) {
	src := `protocol demo
read I * -> S allocate fetch-memory
read I modified -> S allocate fetch-intervention
`
	tab, err := ParseMapFileString(src)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := tab.Lookup(LocalRead, Invalid, SnoopModified)
	if !e.Actions.Has(ActFetchIntervention) {
		t.Fatal("later specific line did not override wildcard")
	}
	e, _ = tab.Lookup(LocalRead, Invalid, SnoopNone)
	if !e.Actions.Has(ActFetchMemory) {
		t.Fatal("override clobbered unrelated snoop input")
	}
}

func TestParseMapFileErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"missing protocol", "read I * -> S allocate fetch-memory\n"},
		{"bad op", "protocol p\nfrobnicate I * -> S\n"},
		{"bad state", "protocol p\nread Z * -> S allocate fetch-memory\n"},
		{"bad snoop", "protocol p\nread I maybe -> S allocate fetch-memory\n"},
		{"missing arrow", "protocol p\nread I * S allocate\n"},
		{"bad action", "protocol p\nread I * -> S levitate\n"},
		{"short line", "protocol p\nread I *\n"},
		{"protocol extra args", "protocol a b\n"},
	}
	for _, c := range cases {
		if _, err := ParseMapFileString(c.src); err == nil {
			t.Errorf("%s: parse succeeded, want error", c.name)
		}
	}
}

func TestMapFileOutputIsStable(t *testing.T) {
	a := MapFileString(shipped(t, "mesi"))
	b := MapFileString(shipped(t, "mesi"))
	if a != b {
		t.Fatal("map file serialization not deterministic")
	}
	if !strings.Contains(a, "protocol mesi") {
		t.Fatalf("missing protocol header:\n%s", a)
	}
	// Wildcard collapsing: hit transitions should use '*'.
	if !strings.Contains(a, "read S * -> S") {
		t.Fatalf("expected collapsed wildcard for read-hit:\n%s", a)
	}
}

// TestCustomProtocolFromMapFile types a write-through-style protocol
// inline and checks the compiler flags nothing.
func TestCustomProtocolFromMapFile(t *testing.T) {
	src := `protocol write-once
read I none -> E allocate fetch-memory
read I shared -> S allocate fetch-memory
read I modified -> S allocate fetch-intervention
read S * -> S -
read E * -> E -
read M * -> M -
write I * -> M allocate fetch-memory invalidate-others
write S * -> M invalidate-others
write E * -> M -
write M * -> M -
castout I * -> M allocate
castout S * -> M -
castout E * -> M -
castout M * -> M -
snoop-read I * -> I -
snoop-read S * -> S respond-shared
snoop-read E * -> S respond-shared
snoop-read M * -> S respond-modified writeback
snoop-write I * -> I -
snoop-write S * -> I -
snoop-write E * -> I -
snoop-write M * -> I respond-modified
snoop-castout I * -> I -
snoop-castout S * -> S -
snoop-castout E * -> E -
snoop-castout M * -> M -
`
	tab, err := ParseMapFileString(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(tab); err != nil {
		t.Fatal(err)
	}
	if tab.Name != "write-once" {
		t.Fatalf("Name = %q", tab.Name)
	}
}
