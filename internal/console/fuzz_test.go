package console

import (
	"io"
	"strconv"
	"strings"
	"testing"

	"memories/internal/obs"
)

// FuzzConsoleCommand throws arbitrary command lines at a fully wired
// console (board + registry + tracer): any input must either execute
// or return an error — never panic, never corrupt the board.
//
// Some commands are skipped, not because they crash but because they are
// unsuitable for a fuzz loop: `reprogram` with a fuzzed size can
// legitimately allocate a directory of many gigabytes, `loadmap` enters
// line mode, and a valid `watch` can sleep for minutes.
func FuzzConsoleCommand(f *testing.F) {
	seeds := []string{
		"help",
		"metrics",
		"metrics board.filter",
		"watch board 2 0",
		"trace on addr=0x0:64KB cpus=0,1",
		"trace status",
		"trace off",
		"trace on addr=1MB:2MB",
		"stats nodea.read",
		"nodes",
		"node 0",
		"occupancy 0",
		"dirstat 0",
		"profile 0",
		"protocol 0 moesi",
		"reset-counters",
		"trace",
		"trace on cpus=3",
		"# comment",
		"",
		"version",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		fields := strings.Fields(line)
		if len(fields) > 0 {
			switch fields[0] {
			case "reprogram", "loadmap":
				return // can allocate unbounded directory / enter line mode
			case "watch":
				if watchSleepBudgetMS(fields) > 20 {
					return // a valid watch can sleep count × interval
				}
			}
		}
		b := testBoard(t)
		reg := obs.NewRegistry()
		if err := b.Observe(reg, func(obs.Event) {}, "board", 64); err != nil {
			t.Fatal(err)
		}
		c := New(b, io.Discard)
		c.SetObs(reg, b.PublishObs)
		_ = c.Execute(line) // errors are fine; panics are not
		// The board must still work after whatever just happened.
		feed(b, 4)
		if got := b.Counters().Value("filter.accepted"); got != 4 {
			t.Fatalf("board broken after %q: accepted = %d", line, got)
		}
	})
}

// watchSleepBudgetMS mirrors the watch command's argument parsing and
// returns the total sleep it would perform, in milliseconds; forms that
// error out sleep nothing.
func watchSleepBudgetMS(fields []string) int {
	count, intervalMS := 5, 500
	if len(fields) >= 3 {
		v, err := strconv.Atoi(fields[2])
		if err != nil || v < 1 {
			return 0
		}
		count = v
	}
	if len(fields) >= 4 {
		v, err := strconv.Atoi(fields[3])
		if err != nil || v < 0 {
			return 0
		}
		intervalMS = v
	}
	if count > watchMaxCount {
		count = watchMaxCount
	}
	if intervalMS > watchMaxIntervalMS {
		intervalMS = watchMaxIntervalMS
	}
	return (count - 1) * intervalMS
}
