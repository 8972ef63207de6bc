package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 || c.saturated {
		t.Fatal("zero value not clean")
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("Value = %d, want 42", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("Reset left %d", c.Value())
	}
}

func TestCounterSaturates(t *testing.T) {
	var c Counter
	c.Add(CounterMax - 1)
	if c.saturated {
		t.Fatal("saturated too early")
	}
	c.Add(1)
	if c.Value() != CounterMax {
		t.Fatalf("Value = %d, want max", c.Value())
	}
	if c.saturated {
		t.Fatal("exact max should not set saturated flag") // landing exactly on max is representable
	}
	c.Inc()
	if c.Value() != CounterMax || !c.saturated {
		t.Fatalf("overflow: value=%d saturated=%v", c.Value(), c.saturated)
	}
	c.Add(1 << 50)
	if c.Value() != CounterMax {
		t.Fatal("counter exceeded 40 bits")
	}
}

func TestCounterNeverExceeds40Bits(t *testing.T) {
	f := func(adds []uint64) bool {
		var c Counter
		for _, n := range adds {
			c.Add(n)
			if c.Value() > CounterMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCounterResetClearsSaturation(t *testing.T) {
	var c Counter
	c.Add(CounterMax)
	c.Inc()
	if !c.saturated {
		t.Fatal("expected saturation")
	}
	c.Reset()
	if c.saturated || c.Value() != 0 {
		t.Fatal("Reset did not clear saturation")
	}
}

func TestBankCreateAndLookup(t *testing.T) {
	b := NewBank()
	c1 := b.Counter("node0.read.miss")
	c2 := b.Counter("node0.read.miss")
	if c1 != c2 {
		t.Fatal("Counter not idempotent")
	}
	c1.Add(7)
	if b.Value("node0.read.miss") != 7 {
		t.Fatal("Value mismatch")
	}
	if b.Lookup("nope") != nil {
		t.Fatal("Lookup of absent name not nil")
	}
	if b.Value("nope") != 0 {
		t.Fatal("Value of absent name not 0")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestBankGroupPrefixBoundary(t *testing.T) {
	b := NewBank()
	b.Counter("node0.read.miss").Inc()
	b.Counter("node0.read.hit").Inc()
	b.Counter("node01.read.miss").Inc()
	g := b.Group("node0")
	if len(g) != 2 {
		t.Fatalf("Group(node0) = %v, want 2 entries", g)
	}
	for _, name := range g {
		if strings.HasPrefix(name, "node01") {
			t.Fatalf("Group(node0) leaked %q", name)
		}
	}
}

func TestBankNamesOrderAndSnapshot(t *testing.T) {
	b := NewBank()
	names := []string{"z", "a", "m"}
	for i, n := range names {
		b.Counter(n).Add(uint64(i + 1))
	}
	got, _ := b.Ordered()
	for i := range names {
		if got[i] != names[i] {
			t.Fatalf("Ordered() = %v, want creation order %v", got, names)
		}
	}
	snap := b.Snapshot()
	if snap["z"] != 1 || snap["a"] != 2 || snap["m"] != 3 {
		t.Fatalf("Snapshot = %v", snap)
	}
	// Snapshot is a copy: mutating it must not affect the bank.
	snap["z"] = 99
	if b.Value("z") != 1 {
		t.Fatal("Snapshot aliases bank storage")
	}
}

func TestBankResetAll(t *testing.T) {
	b := NewBank()
	b.Counter("a").Add(5)
	b.Counter("b").Add(9)
	b.ResetAll()
	if b.Value("a") != 0 || b.Value("b") != 0 {
		t.Fatal("ResetAll left nonzero counters")
	}
}

func TestBankDump(t *testing.T) {
	b := NewBank()
	b.Counter("bus.cycles").Add(100)
	b.Counter("bus.reads").Add(60)
	b.Counter("node0.miss").Add(3)
	dump := b.Dump("bus.")
	if !strings.Contains(dump, "bus.cycles 100") || !strings.Contains(dump, "bus.reads 60") {
		t.Fatalf("Dump missing entries:\n%s", dump)
	}
	if strings.Contains(dump, "node0") {
		t.Fatalf("Dump prefix filter leaked:\n%s", dump)
	}
	// Sorted order.
	if strings.Index(dump, "bus.cycles") > strings.Index(dump, "bus.reads") {
		t.Fatalf("Dump not sorted:\n%s", dump)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio with zero denominator should be 0")
	}
	if got := Ratio(1, 4); got != 0.25 {
		t.Fatalf("Ratio(1,4) = %v", got)
	}
}
