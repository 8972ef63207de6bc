package bus

import (
	"testing"
	"testing/quick"
)

// fakeSnooper records what it sees and returns a fixed response.
type fakeSnooper struct {
	id   int
	resp SnoopResponse
	seen []Transaction
}

func (f *fakeSnooper) BusID() int { return f.id }
func (f *fakeSnooper) Snoop(tx *Transaction) SnoopResponse {
	f.seen = append(f.seen, *tx)
	return f.resp
}

func TestCommandClassification(t *testing.T) {
	memOps := []Command{Read, RWITM, DClaim, Castout, Push, Clean, Flush}
	nonMem := []Command{IORead, IOWrite, Interrupt, Sync, TLBSync}
	for _, c := range memOps {
		if !c.IsMemoryOp() {
			t.Errorf("%v should be a memory op", c)
		}
	}
	for _, c := range nonMem {
		if c.IsMemoryOp() {
			t.Errorf("%v should not be a memory op", c)
		}
	}
	if DClaim.CarriesData() {
		t.Error("DClaim carries no data")
	}
	if !Read.CarriesData() || !Castout.CarriesData() {
		t.Error("Read/Castout carry data")
	}
	for _, c := range []Command{RWITM, DClaim, Castout, IOWrite} {
		if !c.IsWrite() {
			t.Errorf("%v should be a write", c)
		}
	}
	if Read.IsWrite() || Push.IsWrite() {
		t.Error("Read/Push are not writes")
	}
}

func TestCommandString(t *testing.T) {
	if Read.String() != "read" || RWITM.String() != "rwitm" {
		t.Fatal("command names wrong")
	}
	if Command(200).String() != "command(200)" {
		t.Fatal("out-of-range command name")
	}
	if NumCommands() != int(TLBSync)+1 {
		t.Fatal("NumCommands inconsistent")
	}
	names := map[string]bool{}
	for c := 0; c < NumCommands(); c++ {
		n := Command(c).String()
		if names[n] {
			t.Fatalf("duplicate command name %q", n)
		}
		names[n] = true
	}
}

func TestSnoopResponseString(t *testing.T) {
	want := map[SnoopResponse]string{
		RespNull: "null", RespShared: "shared", RespModified: "modified", RespRetry: "retry",
	}
	for r, n := range want {
		if r.String() != n {
			t.Fatalf("%v.String() = %q", r, r.String())
		}
	}
	if SnoopResponse(9).String() != "resp(9)" {
		t.Fatal("out-of-range response name")
	}
}

func TestBusConfigAccessor(t *testing.T) {
	b := New(Config{ClockMHz: 50, WidthBytes: 8})
	if got := b.cfg; got.ClockMHz != 50 || got.WidthBytes != 8 {
		t.Fatalf("cfg = %+v", got)
	}
	if b.Utilization() != 0 {
		t.Fatal("fresh bus utilization nonzero")
	}
}

func TestCombinePriority(t *testing.T) {
	order := []SnoopResponse{RespNull, RespShared, RespModified, RespRetry}
	for i, lo := range order {
		for _, hi := range order[i:] {
			if got := Combine(lo, hi); got != hi {
				t.Errorf("Combine(%v,%v) = %v, want %v", lo, hi, got, hi)
			}
			if got := Combine(hi, lo); got != hi {
				t.Errorf("Combine(%v,%v) = %v, want %v", hi, lo, got, hi)
			}
		}
	}
}

func TestCombineCommutativeAssociative(t *testing.T) {
	f := func(a, b, c uint8) bool {
		x, y, z := SnoopResponse(a%4), SnoopResponse(b%4), SnoopResponse(c%4)
		if Combine(x, y) != Combine(y, x) {
			return false
		}
		return Combine(Combine(x, y), z) == Combine(x, Combine(y, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBusSelfSnoopSuppressed(t *testing.T) {
	b := New(DefaultConfig())
	self := &fakeSnooper{id: 3}
	other := &fakeSnooper{id: 4}
	passive := &fakeSnooper{id: -1}
	b.Attach(self)
	b.Attach(other)
	b.Attach(passive)

	b.Issue(&Transaction{Cmd: Read, Addr: 0x1000, Size: 128, SrcID: 3})
	if len(self.seen) != 0 {
		t.Error("source device snooped its own transaction")
	}
	if len(other.seen) != 1 {
		t.Errorf("other device saw %d transactions, want 1", len(other.seen))
	}
	if len(passive.seen) != 1 {
		t.Errorf("passive observer saw %d transactions, want 1", len(passive.seen))
	}
}

func TestBusPassiveObserverSeesEverything(t *testing.T) {
	b := New(DefaultConfig())
	passive := &fakeSnooper{id: -1}
	b.Attach(passive)
	for src := 0; src < 8; src++ {
		b.Issue(&Transaction{Cmd: Read, Addr: uint64(src) << 12, Size: 128, SrcID: src})
	}
	if len(passive.seen) != 8 {
		t.Fatalf("passive saw %d, want 8", len(passive.seen))
	}
}

func TestBusCombinedResponse(t *testing.T) {
	b := New(DefaultConfig())
	b.Attach(&fakeSnooper{id: 0, resp: RespShared})
	b.Attach(&fakeSnooper{id: 1, resp: RespModified})
	b.Attach(&fakeSnooper{id: 2, resp: RespNull})
	got := b.Issue(&Transaction{Cmd: Read, Addr: 0, Size: 128, SrcID: 7})
	if got != RespModified {
		t.Fatalf("combined = %v, want modified", got)
	}
}

func TestBusRetryCounted(t *testing.T) {
	b := New(DefaultConfig())
	b.Attach(&fakeSnooper{id: 0, resp: RespRetry})
	b.Issue(&Transaction{Cmd: Read, Addr: 0, Size: 128, SrcID: 1})
	if b.Stats().Retries != 1 {
		t.Fatalf("Retries = %d, want 1", b.Stats().Retries)
	}
}

func TestBusCycleAccounting(t *testing.T) {
	b := New(Config{ClockMHz: 100, WidthBytes: 16})
	// Read of 128B: 1 address cycle + 8 data beats = 9 busy cycles.
	b.Issue(&Transaction{Cmd: Read, Addr: 0, Size: 128, SrcID: 0})
	if b.Cycle() != 9 {
		t.Fatalf("cycle = %d, want 9", b.Cycle())
	}
	// DClaim: address only.
	b.Issue(&Transaction{Cmd: DClaim, Addr: 0, SrcID: 0})
	if b.Cycle() != 10 {
		t.Fatalf("cycle = %d, want 10", b.Cycle())
	}
	if got := b.Stats().BusyCycles; got != 10 {
		t.Fatalf("busy = %d, want 10", got)
	}
}

func TestBusRetriedTransactionSkipsDataTenure(t *testing.T) {
	b := New(Config{ClockMHz: 100, WidthBytes: 16})
	b.Attach(&fakeSnooper{id: 0, resp: RespRetry})
	b.Issue(&Transaction{Cmd: Read, Addr: 0, Size: 128, SrcID: 1})
	if b.Cycle() != 1 {
		t.Fatalf("retried read consumed %d cycles, want 1 (address tenure only)", b.Cycle())
	}
}

func TestBusUtilization(t *testing.T) {
	b := New(Config{ClockMHz: 100, WidthBytes: 16})
	b.Issue(&Transaction{Cmd: Read, Addr: 0, Size: 128, SrcID: 0}) // 9 busy
	b.AdvanceTo(b.Cycle() + 91)                                    // total 100
	if got := b.Utilization(); got != 0.09 {
		t.Fatalf("utilization = %v, want 0.09", got)
	}
}

func TestBusAdvanceToNeverRewinds(t *testing.T) {
	b := New(DefaultConfig())
	b.AdvanceTo(b.Cycle() + 50)
	b.AdvanceTo(40)
	if b.Cycle() != 50 {
		t.Fatalf("AdvanceTo rewound clock to %d", b.Cycle())
	}
	b.AdvanceTo(60)
	if b.Cycle() != 60 {
		t.Fatalf("AdvanceTo failed to advance: %d", b.Cycle())
	}
}

func TestBusSequenceAndCycleStamping(t *testing.T) {
	b := New(DefaultConfig())
	passive := &fakeSnooper{id: -1}
	b.Attach(passive)
	for i := 0; i < 5; i++ {
		b.Issue(&Transaction{Cmd: DClaim, Addr: uint64(i), SrcID: 0})
	}
	for i, tx := range passive.seen {
		if tx.Seq != uint64(i) {
			t.Fatalf("seq[%d] = %d", i, tx.Seq)
		}
		if i > 0 && tx.Cycle <= passive.seen[i-1].Cycle {
			t.Fatalf("cycles not monotone: %d then %d", passive.seen[i-1].Cycle, tx.Cycle)
		}
	}
}

func TestBusPerCommandStats(t *testing.T) {
	b := New(DefaultConfig())
	b.Issue(&Transaction{Cmd: Read, Size: 128})
	b.Issue(&Transaction{Cmd: Read, Size: 128})
	b.Issue(&Transaction{Cmd: Castout, Size: 128})
	s := b.Stats()
	if s.ByCommand[Read] != 2 || s.ByCommand[Castout] != 1 {
		t.Fatalf("per-command stats wrong: %+v", s.ByCommand)
	}
	if s.Transactions != 3 {
		t.Fatalf("Transactions = %d", s.Transactions)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero clock did not panic")
		}
	}()
	New(Config{ClockMHz: 0, WidthBytes: 16})
}

func TestDataBeatsRounding(t *testing.T) {
	b := New(Config{ClockMHz: 100, WidthBytes: 16})
	cases := []struct {
		size int
		want uint64
	}{
		{0, 0}, {1, 1}, {16, 1}, {17, 2}, {128, 8}, {1024, 64},
	}
	for _, c := range cases {
		if got := b.dataBeats(c.size); got != c.want {
			t.Errorf("dataBeats(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

// observingSnooper is a fakeSnooper that also records combined responses.
type observingSnooper struct {
	fakeSnooper
	combined []SnoopResponse
}

func (o *observingSnooper) ObserveResponse(tx *Transaction, combined SnoopResponse) {
	o.combined = append(o.combined, combined)
}

// IssueAt is AdvanceTo + Issue: the event-ordered arbitration entry for
// the discrete-event host. The clock jumps forward to the scheduled
// cycle when the bus is free, and stays put (arbitration: the actor
// contends at the later, current cycle) when the bus has already moved
// past it.
func TestBusIssueAt(t *testing.T) {
	b := New(DefaultConfig())
	snooper := &fakeSnooper{id: 1}
	b.Attach(snooper)

	// Future cycle: the clock advances to it and stamps the tenure there.
	tx := Transaction{Cmd: Read, Addr: 0x1000, Size: 128, SrcID: 0}
	b.IssueAt(500, &tx)
	if tx.Cycle != 500 {
		t.Fatalf("tx stamped at cycle %d, want 500", tx.Cycle)
	}
	after := b.Cycle()
	if want := uint64(500 + 1 + 8); after != want { // addr tenure + 128B/16B beats
		t.Fatalf("bus cycle %d after issue, want %d", after, want)
	}

	// Past cycle: the clock must not run backwards; the transaction
	// issues at the current (later) cycle.
	tx2 := Transaction{Cmd: DClaim, Addr: 0x2000, SrcID: 0}
	b.IssueAt(100, &tx2)
	if tx2.Cycle != after {
		t.Fatalf("past-scheduled tx stamped at %d, want current cycle %d", tx2.Cycle, after)
	}
	if tx2.Seq != tx.Seq+1 {
		t.Fatalf("seq %d, want %d", tx2.Seq, tx.Seq+1)
	}
}

// rowPresence is a Presence that answers every transaction with one fixed
// row.
type rowPresence struct{ row []byte }

func (p *rowPresence) Holders(*Transaction) []byte { return p.row }

// A filtered snooper is presented exactly the transactions whose row
// names it (its own never); snoopers attached the plain way — passive
// observers, and devices with CPU-like positive IDs the summary knows
// nothing about — are presented everything, whatever the row says.
func TestBusFilteredSnoopersFollowTheRow(t *testing.T) {
	b := New(DefaultConfig())
	cpus := []*fakeSnooper{{id: 0}, {id: 1}, {id: 2}}
	p := &rowPresence{}
	b.AttachFiltered(p, []Snooper{cpus[0], cpus[1], cpus[2]})
	outsider := &fakeSnooper{id: 1, resp: RespRetry} // same ID as a CPU, not in the summary
	passive := &observingSnooper{fakeSnooper: fakeSnooper{id: -1}}
	b.Attach(outsider)
	b.Attach(passive)

	for _, tc := range []struct {
		row  []byte
		src  int
		want [3]int // snoops each CPU has seen after this transaction
	}{
		{nil, 7, [3]int{0, 0, 0}},
		{[]byte{0b101}, 7, [3]int{1, 0, 1}},
		{[]byte{0b111}, 0, [3]int{1, 1, 2}}, // CPU 0's own
		{[]byte{0b010}, 1, [3]int{1, 1, 2}}, // the only holder is the requester
		{[]byte{0}, 2, [3]int{1, 1, 2}},
	} {
		p.row = tc.row
		b.Issue(&Transaction{Cmd: Read, Addr: 0x1000, Size: 128, SrcID: tc.src})
		for i, c := range cpus {
			if len(c.seen) != tc.want[i] {
				t.Fatalf("row %08b src %d: CPU %d has seen %d snoops, want %d", tc.row, tc.src, i, len(c.seen), tc.want[i])
			}
		}
	}
	// The outsider skipped only its own ID's transaction; the passive
	// observer saw, and was told the outcome of, all five.
	if len(outsider.seen) != 4 {
		t.Fatalf("unfiltered device saw %d of 5 transactions, want 4 (all but SrcID 1)", len(outsider.seen))
	}
	if len(passive.seen) != 5 || len(passive.combined) != 5 {
		t.Fatalf("passive observer saw %d snoops and %d combined responses, want 5 and 5", len(passive.seen), len(passive.combined))
	}
	if passive.combined[0] != RespRetry || passive.combined[3] != RespNull {
		t.Fatalf("combined responses %v: the outsider's Retry must count whenever it is snooped", passive.combined)
	}
}

// For every subset of four CPUs holding a line (two Shared, one Modified,
// one Retry-posting) and every requester, a bus that snoops only the
// holders combines to the same response as one that snoops everybody —
// provided, as the Presence contract demands, that non-holders answer
// Null.
func TestBusFilteredCombineMatchesExhaustive(t *testing.T) {
	held := [4]SnoopResponse{RespShared, RespShared, RespModified, RespRetry}
	for holders := 0; holders < 16; holders++ {
		for src := 0; src < 5; src++ { // 4 is a device outside the summary
			mk := func() []Snooper {
				ss := make([]Snooper, 4)
				for i := range ss {
					f := &fakeSnooper{id: i}
					if holders>>i&1 == 1 {
						f.resp = held[i]
					}
					ss[i] = f
				}
				return ss
			}
			filtered, exhaustive := New(DefaultConfig()), New(DefaultConfig())
			fs := mk()
			filtered.AttachFiltered(&rowPresence{row: []byte{byte(holders)}}, fs)
			for _, s := range mk() {
				exhaustive.Attach(s)
			}
			tx := Transaction{Cmd: RWITM, Addr: 0x4000, Size: 128, SrcID: src}
			tx2 := tx
			if got, want := filtered.Issue(&tx), exhaustive.Issue(&tx2); got != want {
				t.Fatalf("holders %04b, requester %d: filtered bus combined %v, exhaustive %v", holders, src, got, want)
			}
			if filtered.Stats() != exhaustive.Stats() || filtered.Cycle() != exhaustive.Cycle() {
				t.Fatalf("holders %04b, requester %d: bus stats or clock differ", holders, src)
			}
			for i, s := range fs {
				want := 0
				if holders>>i&1 == 1 && i != src {
					want = 1
				}
				if got := len(s.(*fakeSnooper).seen); got != want {
					t.Fatalf("holders %04b, requester %d: CPU %d snooped %d times, want %d", holders, src, i, got, want)
				}
			}
		}
	}
}

func TestBusOneSummaryPerBus(t *testing.T) {
	b := New(DefaultConfig())
	b.AttachFiltered(&rowPresence{}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second AttachFiltered did not panic")
		}
	}()
	b.AttachFiltered(&rowPresence{}, nil)
}
