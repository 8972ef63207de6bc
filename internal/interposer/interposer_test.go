package interposer

import (
	"strings"
	"testing"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/core"
	"memories/protocols"
)

func testBoard(t *testing.T) *core.Board {
	t.Helper()
	return core.MustNewBoard(core.Config{Nodes: []core.NodeConfig{{
		Name:     "a",
		CPUs:     []int{0, 1, 2, 3},
		Geometry: addr.MustGeometry(64*addr.KB, 128, 4),
		Policy:   cache.LRU,
		Protocol: protocols.MustLoad("mesi"),
	}}})
}

func mustNewCard(t *testing.T, cmap *CommandMap, target bus.Snooper) *Card {
	t.Helper()
	c, err := New(cmap, target)
	if err != nil {
		t.Fatalf("interposer.New: %v", err)
	}
	return c
}

func TestFSBCommandRoundTrip(t *testing.T) {
	for c := FSBCommand(0); int(c) < NumFSBCommands(); c++ {
		got, err := ParseFSBCommand(c.String())
		if err != nil || got != c {
			t.Errorf("ParseFSBCommand(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseFSBCommand("halt"); err == nil {
		t.Error("unknown FSB command accepted")
	}
}

func TestP6MapTranslations(t *testing.T) {
	m := P6Map()
	want := map[FSBCommand]bus.Command{
		BRL:       bus.Read,
		BRIL:      bus.RWITM,
		BIL:       bus.DClaim,
		BWL:       bus.Castout,
		IORead32:  bus.IORead,
		IOWrite32: bus.IOWrite,
		IntA:      bus.Interrupt,
	}
	for from, to := range want {
		got, ok := m.Lookup(from)
		if !ok || got != to {
			t.Errorf("P6Map[%v] = %v,%v want %v", from, got, ok, to)
		}
	}
	for _, unmapped := range []FSBCommand{MemRead8, MemWrite8, Special} {
		if _, ok := m.Lookup(unmapped); ok {
			t.Errorf("%v should be unmapped", unmapped)
		}
	}
}

func TestCardForwardsToBoard(t *testing.T) {
	b := testBoard(t)
	card := mustNewCard(t, P6Map(), b)
	cycle := uint64(0)
	issue := func(cmd FSBCommand, a uint64, agent int) {
		cycle += 100
		card.Observe(Transaction{Cmd: cmd, Addr: a, AgentID: agent, Size: 64, Cycle: cycle})
	}
	issue(BRL, 0x4000, 0)   // read miss
	issue(BRL, 0x4000, 1)   // read hit
	issue(BRIL, 0x8000, 0)  // write miss
	issue(BIL, 0x4000, 2)   // upgrade (write hit on shared)
	issue(BWL, 0xC000, 3)   // castout allocate
	issue(MemRead8, 0x0, 0) // dropped on the card
	issue(IORead32, 0x0, 0) // forwarded, filtered by the board
	b.Flush()

	v := b.Node(0)
	if v.ReadMiss != 1 || v.ReadHit != 1 {
		t.Fatalf("reads: %+v", v)
	}
	if v.WriteMiss != 1 || v.WriteHit != 1 {
		t.Fatalf("writes: %+v", v)
	}
	bank := b.Counters()
	if bank.Value("nodea.castout.allocated") != 1 {
		t.Fatal("BWL did not become a castout")
	}
	if bank.Value("filter.rejected.io") != 1 {
		t.Fatal("translated IORead32 not filtered by the board")
	}
	st := card.Stats()
	if st.Observed != 7 || st.Dropped != 1 || st.Translated != 6 {
		t.Fatalf("card stats: %+v", st)
	}
}

func TestCardPropagatesRetry(t *testing.T) {
	bcfg := core.Config{
		Nodes: []core.NodeConfig{{
			Name:     "a",
			CPUs:     []int{0},
			Geometry: addr.MustGeometry(64*addr.KB, 128, 4),
			Policy:   cache.LRU,
			Protocol: protocols.MustLoad("mesi"),
		}},
		BufferDepth:     2,
		RetryOnOverflow: true,
	}
	b := core.MustNewBoard(bcfg)
	card := mustNewCard(t, P6Map(), b)
	sawRetry := false
	for i := 0; i < 32; i++ {
		resp := card.Observe(Transaction{Cmd: BRL, Addr: uint64(i) * 128, AgentID: 0, Size: 64, Cycle: uint64(i)})
		if resp == bus.RespRetry {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("overflow retry did not propagate through the card")
	}
}

func TestMapFileRoundTrip(t *testing.T) {
	var sb strings.Builder
	if err := WriteMapFile(&sb, "p6", P6Map()); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "command-map p6") || !strings.Contains(text, "map brl read") {
		t.Fatalf("map file:\n%s", text)
	}
	name, m, err := ParseMapFile(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if name != "p6" {
		t.Fatalf("name = %q", name)
	}
	for c := 0; c < NumFSBCommands(); c++ {
		want, wantOK := P6Map().Lookup(FSBCommand(c))
		got, gotOK := m.Lookup(FSBCommand(c))
		if want != got || wantOK != gotOK {
			t.Fatalf("command %v: (%v,%v) vs (%v,%v)", FSBCommand(c), got, gotOK, want, wantOK)
		}
	}
}

func TestParseMapFileErrors(t *testing.T) {
	cases := []string{
		"map brl read\n",                    // missing directive
		"command-map x\nmap zap read\n",     // bad FSB command
		"command-map x\nmap brl explode\n",  // bad 6xx command
		"command-map x\nnonsense line ok\n", // unparseable
	}
	for _, src := range cases {
		if _, _, err := ParseMapFile(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
	// Comments and overrides work.
	src := "command-map y # a custom platform\nmap brl read\nmap brl rwitm\n"
	_, m, err := ParseMapFile(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Lookup(BRL); got != bus.RWITM {
		t.Fatal("later map line did not override")
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil, testBoard(t)); err == nil {
		t.Fatal("nil map accepted")
	}
	if _, err := New(P6Map(), nil); err == nil {
		t.Fatal("nil target accepted")
	}
}
