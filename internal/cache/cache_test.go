package cache

import (
	"math/rand"
	"testing"

	"memories/internal/addr"
)

func mkCache(t *testing.T, size, line int64, assoc int, p Policy) *Cache {
	t.Helper()
	c, err := New(Config{Geometry: addr.MustGeometry(size, line, assoc), Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// lineFor builds an address that maps to the given set with the given tag.
func lineFor(c *Cache, set int64, tag uint64) uint64 {
	return c.Geometry().Rebuild(tag, set)
}

func TestFillAndProbe(t *testing.T) {
	c := mkCache(t, 4096, 128, 2, LRU)
	a := lineFor(c, 3, 7)
	if c.Probe(a) != StateInvalid {
		t.Fatal("empty cache probe should miss")
	}
	if _, ev := c.Fill(a, 2); ev {
		t.Fatal("fill into empty set evicted")
	}
	if got := c.Probe(a); got != 2 {
		t.Fatalf("Probe = %d, want 2", got)
	}
	if got := c.Probe(a + 64); got != 2 {
		t.Fatal("probe within same line should hit")
	}
	if got := c.Probe(a + 128); got != StateInvalid {
		t.Fatal("next line should miss")
	}
}

// TestKeyedCallsMatchAddressCalls: the address calls split an address
// with the cache's own shifts, the keyed calls take the geometry's Index
// and Tag, and across line sizes, set counts and associativities the two
// name the same line. A line filled by key is found by address at every
// byte of it and rebuilt to its own address, and one filled by address is
// found by key.
func TestKeyedCallsMatchAddressCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []addr.Geometry{
		addr.MustGeometry(4*addr.KB, 64, 1),
		addr.MustGeometry(64*addr.KB, 128, 4),
		addr.MustGeometry(2*addr.MB, 128, 8),
		addr.MustGeometry(16*addr.MB, 16*addr.KB, 2),
	} {
		c := MustNew(Config{Geometry: g, Policy: LRU})
		for i := 0; i < 200; i++ {
			a := g.LineAddr(rng.Uint64() >> 9)
			set, tag := g.Index(a), g.Tag(a)
			if i%2 == 0 {
				c.FillIn(set, tag, NoSlot, 1)
			} else {
				c.FillAt(a, NoSlot, 1)
			}
			slot, st := c.FindIn(set, tag)
			if st != 1 {
				t.Fatalf("%v: %#x not found by key after fill", g, a)
			}
			for _, off := range []uint64{0, uint64(g.LineSize) - 1} {
				if s, _ := c.Find(a + off); s != slot {
					t.Fatalf("%v: Find(%#x) slot %d, FindIn slot %d", g, a+off, s, slot)
				}
			}
			if s, _ := c.AccessSlot(a); s != slot {
				t.Fatalf("%v: AccessSlot(%#x) slot %d, want %d", g, a, s, slot)
			}
			if got := g.Rebuild(c.words[slot].Tag(), set); got != a {
				t.Fatalf("%v: slot %d rebuilds to %#x, want %#x", g, slot, got, a)
			}
		}
	}
}

func TestAccessCountsHitsAndMisses(t *testing.T) {
	c := mkCache(t, 4096, 128, 2, LRU)
	a := lineFor(c, 0, 1)
	c.Access(a) // miss
	c.Fill(a, 1)
	c.Access(a) // hit
	s := c.Stats()
	if s.Probes != 2 || s.Hits != 1 || s.Fills != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFillSameLineUpdatesStateNoEvict(t *testing.T) {
	c := mkCache(t, 4096, 128, 2, LRU)
	a := lineFor(c, 1, 9)
	c.Fill(a, 1)
	v, ev := c.Fill(a, 3)
	if ev {
		t.Fatalf("refill of resident line evicted %+v", v)
	}
	if got := c.Probe(a); got != 3 {
		t.Fatalf("state = %d, want 3", got)
	}
	if c.ValidCount() != 1 {
		t.Fatalf("ValidCount = %d, want 1", c.ValidCount())
	}
}

func TestEvictionReturnsVictim(t *testing.T) {
	c := mkCache(t, 1024, 128, 2, LRU) // 4 sets, 2 ways
	a0 := lineFor(c, 2, 10)
	a1 := lineFor(c, 2, 20)
	a2 := lineFor(c, 2, 30)
	c.Fill(a0, 1)
	c.Fill(a1, 2)
	v, ev := c.Fill(a2, 1)
	if !ev {
		t.Fatal("full set fill did not evict")
	}
	if v.Addr != a0 || v.State != 1 {
		t.Fatalf("victim = %+v, want addr %#x state 1 (LRU)", v, a0)
	}
	if c.Probe(a0) != StateInvalid || c.Probe(a1) == StateInvalid || c.Probe(a2) == StateInvalid {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestLRUTouchChangesVictim(t *testing.T) {
	c := mkCache(t, 1024, 128, 2, LRU)
	a0, a1, a2 := lineFor(c, 0, 1), lineFor(c, 0, 2), lineFor(c, 0, 3)
	c.Fill(a0, 1)
	c.Fill(a1, 1)
	c.Access(a0) // a1 becomes LRU
	v, ev := c.Fill(a2, 1)
	if !ev || v.Addr != a1 {
		t.Fatalf("victim = %+v, want %#x", v, a1)
	}
}

func TestSetStateAndInvalidate(t *testing.T) {
	c := mkCache(t, 1024, 128, 2, LRU)
	a := lineFor(c, 1, 5)
	if c.SetState(a, 2) {
		t.Fatal("SetState on absent line returned true")
	}
	c.Fill(a, 1)
	if !c.SetState(a, 4) {
		t.Fatal("SetState on resident line failed")
	}
	prior, found := c.Invalidate(a)
	if !found || prior != 4 {
		t.Fatalf("Invalidate = (%d,%v)", prior, found)
	}
	if _, found := c.Invalidate(a); found {
		t.Fatal("double invalidate found line")
	}
	if c.Stats().Invalidates != 1 {
		t.Fatalf("Invalidates = %d", c.Stats().Invalidates)
	}
}

func TestSetStateInvalidPanics(t *testing.T) {
	c := mkCache(t, 1024, 128, 2, LRU)
	defer func() {
		if recover() == nil {
			t.Fatal("SetState(invalid) did not panic")
		}
	}()
	c.SetState(0, StateInvalid)
}

func TestFillInvalidPanics(t *testing.T) {
	c := mkCache(t, 1024, 128, 2, LRU)
	defer func() {
		if recover() == nil {
			t.Fatal("Fill(invalid) did not panic")
		}
	}()
	c.Fill(0, StateInvalid)
}

func TestFIFOIgnoresTouches(t *testing.T) {
	c := mkCache(t, 1024, 128, 2, FIFO)
	a0, a1, a2 := lineFor(c, 0, 1), lineFor(c, 0, 2), lineFor(c, 0, 3)
	c.Fill(a0, 1)
	c.Fill(a1, 1)
	c.Access(a0) // must NOT protect a0 under FIFO
	v, ev := c.Fill(a2, 1)
	if !ev || v.Addr != a0 {
		t.Fatalf("FIFO victim = %+v, want oldest %#x", v, a0)
	}
	// Next eviction takes a1.
	a3 := lineFor(c, 0, 4)
	v, _ = c.Fill(a3, 1)
	if v.Addr != a1 {
		t.Fatalf("second FIFO victim = %#x, want %#x", v.Addr, a1)
	}
}

func TestPLRURequiresPow2Assoc(t *testing.T) {
	g, err := addr.NewGeometry(768, 128, 3)
	if err != nil {
		t.Skip("geometry itself rejects this shape")
	}
	if _, err := New(Config{Geometry: g, Policy: PLRU}); err == nil {
		t.Fatal("PLRU accepted non-power-of-two associativity")
	}
}

func TestPLRUVictimIsNotMostRecent(t *testing.T) {
	c := mkCache(t, 4096, 128, 4, PLRU) // 8 sets? 4096/128=32 lines /4 = 8 sets
	addrs := make([]uint64, 4)
	for i := range addrs {
		addrs[i] = lineFor(c, 0, uint64(i+1))
		c.Fill(addrs[i], 1)
	}
	for trial := 0; trial < 4; trial++ {
		mru := addrs[trial]
		c.Access(mru)
		newLine := lineFor(c, 0, uint64(100+trial))
		v, ev := c.Fill(newLine, 1)
		if !ev {
			t.Fatal("expected eviction")
		}
		if v.Addr == mru {
			t.Fatalf("PLRU evicted the most recently used line %#x", mru)
		}
		// Keep set full for next trial: replace evicted address in our list.
		for i := range addrs {
			if addrs[i] == v.Addr {
				addrs[i] = newLine
			}
		}
	}
}

func TestRandomDeterministicForSeed(t *testing.T) {
	run := func(seed uint64) []uint64 {
		c := MustNew(Config{Geometry: addr.MustGeometry(1024, 128, 4), Policy: Random, Seed: seed})
		var victims []uint64
		for i := 0; i < 50; i++ {
			v, ev := c.Fill(lineFor(c, 0, uint64(i+1)), 1)
			if ev {
				victims = append(victims, v.Addr)
			}
		}
		return victims
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("different victim counts for same seed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random replacement not deterministic for fixed seed")
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("seeds 42 and 43 produced identical victim sequences (possible but unlikely)")
	}
}

func TestForEachValid(t *testing.T) {
	c := mkCache(t, 1024, 128, 2, LRU)
	want := map[uint64]uint8{
		lineFor(c, 0, 1): 1,
		lineFor(c, 1, 2): 2,
		lineFor(c, 2, 3): 3,
	}
	for a, s := range want {
		c.Fill(a, s)
	}
	got := map[uint64]uint8{}
	c.ForEachValid(func(a uint64, s uint8) { got[a] = s })
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d", len(got), len(want))
	}
	for a, s := range want {
		if got[a] != s {
			t.Fatalf("line %#x state = %d, want %d", a, got[a], s)
		}
	}
}

// refModel is a trivially correct fully-explicit model of an LRU
// set-associative cache used for differential testing.
type refModel struct {
	geom addr.Geometry
	sets []([]refLine) // per-set MRU-first list
}

type refLine struct {
	tag   uint64
	state uint8
}

func newRefModel(g addr.Geometry) *refModel {
	return &refModel{geom: g, sets: make([][]refLine, g.Sets)}
}

func (m *refModel) access(a uint64) uint8 {
	set, tag := m.geom.Index(a), m.geom.Tag(a)
	lines := m.sets[set]
	for i, l := range lines {
		if l.tag == tag {
			// Move to front (MRU).
			copy(lines[1:i+1], lines[:i])
			lines[0] = l
			return l.state
		}
	}
	return StateInvalid
}

func (m *refModel) fill(a uint64, s uint8) (victimAddr uint64, victimState uint8, evicted bool) {
	set, tag := m.geom.Index(a), m.geom.Tag(a)
	lines := m.sets[set]
	for i, l := range lines {
		if l.tag == tag {
			copy(lines[1:i+1], lines[:i])
			lines[0] = refLine{tag, s}
			return 0, 0, false
		}
	}
	if len(lines) == m.geom.Assoc {
		v := lines[len(lines)-1]
		lines = lines[:len(lines)-1]
		m.sets[set] = append([]refLine{{tag, s}}, lines...)
		return m.geom.Rebuild(v.tag, set), v.state, true
	}
	m.sets[set] = append([]refLine{{tag, s}}, lines...)
	return 0, 0, false
}

// TestDifferentialVsReferenceModel drives the real cache and the reference
// model with the same random access/fill stream and demands identical
// behaviour: hit/miss outcomes, states, and victims.
func TestDifferentialVsReferenceModel(t *testing.T) {
	g := addr.MustGeometry(8192, 128, 4)
	c := MustNew(Config{Geometry: g, Policy: LRU})
	m := newRefModel(g)
	rng := rand.New(rand.NewSource(7))
	// Confine addresses to 16 sets' worth of lines x 8 tags to force heavy
	// set conflict.
	for i := 0; i < 200000; i++ {
		a := g.Rebuild(uint64(rng.Intn(8)+1), int64(rng.Intn(int(g.Sets))))
		if rng.Intn(3) == 0 {
			st := uint8(rng.Intn(3) + 1)
			vAddr, vState, ev := m.fill(a, st)
			v, ev2 := c.Fill(a, st)
			if ev != ev2 {
				t.Fatalf("step %d: evicted %v vs ref %v", i, ev2, ev)
			}
			if ev && (v.Addr != vAddr || v.State != vState) {
				t.Fatalf("step %d: victim (%#x,%d) vs ref (%#x,%d)", i, v.Addr, v.State, vAddr, vState)
			}
		} else {
			got, want := c.Access(a), m.access(a)
			if got != want {
				t.Fatalf("step %d: access(%#x) = %d, ref %d", i, a, got, want)
			}
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Policy
	}{{"lru", LRU}, {"LRU", LRU}, {"plru", PLRU}, {"fifo", FIFO}, {"random", Random}, {"rand", Random}} {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v,%v", c.in, got, err)
		}
	}
	if _, err := ParsePolicy("mru"); err == nil {
		t.Error("ParsePolicy accepted unknown policy")
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || PLRU.String() != "plru" || FIFO.String() != "fifo" || Random.String() != "random" {
		t.Fatal("policy names wrong")
	}
}

func TestNewRejectsZeroGeometry(t *testing.T) {
	if _, err := New(Config{Policy: LRU}); err == nil {
		t.Fatal("New accepted zero geometry")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := mkCache(t, 1024, 128, 1, LRU) // 8 sets, direct mapped
	a := lineFor(c, 5, 1)
	b := lineFor(c, 5, 2)
	c.Fill(a, 1)
	v, ev := c.Fill(b, 1)
	if !ev || v.Addr != a {
		t.Fatalf("direct-mapped conflict: victim %+v evicted=%v", v, ev)
	}
}

// BucketOccupied(a) must agree with a walk of the whole cache: true
// exactly when some resident line has a's bucket. Buckets stay in range,
// keep a set's lines in that set's slice of the numbering, and the query
// leaves the statistics alone.
func TestBucketOccupiedMatchesWalk(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8} {
		g := addr.MustGeometry(int64(assoc)*8*128, 128, assoc) // 8 sets
		c := MustNew(Config{Geometry: g, Policy: LRU})
		rng := rand.New(rand.NewSource(int64(assoc)))
		per := int64(assoc) * BucketsPerWay
		line := func() uint64 {
			// Few sets, tags spread over low and high bits.
			return uint64(rng.Intn(8))<<7 | uint64(rng.Intn(40))<<10 | uint64(rng.Intn(3))<<34
		}
		for op := 0; op < 4000; op++ {
			switch a := line(); rng.Intn(3) {
			case 0, 1:
				c.Fill(a, 1)
			default:
				c.Invalidate(a)
			}
			a := line()
			b := Bucket(g, a)
			if b < 0 || b >= Buckets(g) || b/per != g.Index(a) {
				t.Fatalf("assoc %d: Bucket(%#x) = %d with %d buckets, set %d", assoc, a, b, Buckets(g), g.Index(a))
			}
			want := false
			c.ForEachValid(func(l uint64, _ uint8) { want = want || Bucket(g, l) == b })
			before := c.Stats()
			if got := c.BucketOccupied(a); got != want {
				t.Fatalf("assoc %d op %d: BucketOccupied(%#x) = %v, a walk says %v", assoc, op, a, got, want)
			}
			if c.Stats() != before {
				t.Fatal("BucketOccupied moved the statistics")
			}
		}
	}
}

// The tag hash must spread tags that differ only in a few bits — the shape
// real regions give (ISSUE 16 measured ~3 bits of entropy in the low tag
// bits of the benchmark streams) — over most of a set's buckets.
func TestBucketSpreadsNarrowTags(t *testing.T) {
	g := addr.MustGeometry(1*addr.MB, 128, 4)
	per := 4 * BucketsPerWay
	for _, shift := range []uint{18, 30, 40} { // tag bit 0, 12 and 22
		seen := map[int64]bool{}
		for i := uint64(0); i < uint64(per); i++ {
			seen[Bucket(g, i<<shift)] = true
		}
		if len(seen) < per/2 {
			t.Errorf("%d consecutive tags at bit %d fall in %d of %d buckets", per, shift, len(seen), per)
		}
	}
}
