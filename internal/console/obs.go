package console

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"memories/internal/addr"
	"memories/internal/obs"
)

// This file implements the console's live-observability commands:
// `metrics`, `watch`, and the `trace on/off/status` controls for the
// snoop event tracer. metrics and watch bind to an obs.Registry via
// SetObs, and trace drives the board's own tracer (core.Board.Observe
// builds it); without them the commands report that observability is not
// attached (the classic board's console could always read counters
// because it WAS the sampler; here sampling is opt-in).

// obsBinding carries the console's view of the observability layer.
type obsBinding struct {
	reg *obs.Registry
	// publish forces a fresh mirror publish at a quiesce point before a
	// synchronous read, so `metrics` shows exact current values when the
	// board is idle. May be nil when only live sampling is wanted.
	publish func()
}

// SetObs binds the console to the observability layer. publish, when
// non-nil, is invoked before each synchronous snapshot to force-refresh
// mirror values (safe only when the board is quiescent, which holds for
// the interactive console between `run` steps).
func (c *Console) SetObs(reg *obs.Registry, publish func()) {
	c.obs = &obsBinding{reg: reg, publish: publish}
}

func (c *Console) snapshotNow() (*obs.Snapshot, error) {
	if c.obs == nil || c.obs.reg == nil {
		return nil, fmt.Errorf("observability not attached (start with -obs)")
	}
	if c.obs.publish != nil {
		c.obs.publish()
	} else {
		c.obs.reg.Request()
	}
	return c.obs.reg.Snapshot(), nil
}

// metrics dumps the registry snapshot as "name value" lines, optionally
// filtered by prefix.
func (c *Console) metrics(args []string) error {
	prefix := ""
	if len(args) > 0 {
		prefix = args[0]
	}
	snap, err := c.snapshotNow()
	if err != nil {
		return err
	}
	out := snap.Dump(prefix)
	if out == "" {
		fmt.Fprintf(c.out, "no metrics match prefix %q\n", prefix)
		return nil
	}
	fmt.Fprint(c.out, out)
	return nil
}

const (
	watchMaxCount      = 1000
	watchMaxIntervalMS = 60_000
)

// watch prints a metric prefix repeatedly: `watch <prefix> [count]
// [interval-ms]` (defaults: 5 samples, 500ms). Counts and intervals are
// clamped to keep scripted consoles bounded.
func (c *Console) watch(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: watch <prefix> [count] [interval-ms]")
	}
	prefix := args[0]
	count, intervalMS := 5, 500
	var err error
	if len(args) > 1 {
		if count, err = strconv.Atoi(args[1]); err != nil || count < 1 {
			return fmt.Errorf("bad count %q", args[1])
		}
	}
	if len(args) > 2 {
		if intervalMS, err = strconv.Atoi(args[2]); err != nil || intervalMS < 0 {
			return fmt.Errorf("bad interval %q", args[2])
		}
	}
	if count > watchMaxCount {
		count = watchMaxCount
	}
	if intervalMS > watchMaxIntervalMS {
		intervalMS = watchMaxIntervalMS
	}
	for i := 0; i < count; i++ {
		if i > 0 {
			time.Sleep(time.Duration(intervalMS) * time.Millisecond)
		}
		snap, err := c.snapshotNow()
		if err != nil {
			return err
		}
		fmt.Fprintf(c.out, "--- sample %d/%d ---\n", i+1, count)
		out := snap.Dump(prefix)
		if out == "" {
			fmt.Fprintf(c.out, "no metrics match prefix %q\n", prefix)
		} else {
			fmt.Fprint(c.out, out)
		}
	}
	return nil
}

// trace handles `trace on|off|status`: control of the board's snoop
// event tracer, its one trace recorder. The captured and dropped totals
// are the board's trace.captured and trace.dropped counters.
func (c *Console) trace(args []string) error {
	tr := c.board.Tracer()
	if tr == nil {
		return fmt.Errorf("snoop tracing not attached (start with -obs)")
	}
	verb := ""
	if len(args) > 0 {
		verb = args[0]
	}
	switch verb {
	case "on":
		f, err := parseTraceFilter(args[1:])
		if err != nil {
			return err
		}
		tr.Enable(f)
		fmt.Fprintf(c.out, "snoop trace on: %s\n", f.String())
		return nil
	case "off":
		tr.Disable()
		fallthrough
	case "status":
		state := "off"
		if tr.Enabled() {
			f := tr.Filter()
			state = "on (" + f.String() + ")"
		}
		bank := c.board.Counters()
		fmt.Fprintf(c.out, "snoop trace %s: %d captured, %d dropped, %d drained\n",
			state, bank.Value("trace.captured"), bank.Value("trace.dropped"), tr.Drained())
		return nil
	}
	return fmt.Errorf("usage: trace on [addr=<lo>:<hi>] [cpus=<a,b,...>] | trace off | trace status")
}

// parseTraceFilter parses `addr=<lo>:<hi>` (sizes accepted: 64KB:1MB)
// and `cpus=<a,b,...>` arguments into an obs.Filter.
func parseTraceFilter(args []string) (obs.Filter, error) {
	var f obs.Filter
	for _, kv := range args {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return f, fmt.Errorf("expected key=value, got %q", kv)
		}
		switch k {
		case "addr":
			lo, hi, ok := strings.Cut(v, ":")
			if !ok {
				return f, fmt.Errorf("expected addr=<lo>:<hi>, got %q", kv)
			}
			l, err := parseAddr(lo)
			if err != nil {
				return f, err
			}
			h, err := parseAddr(hi)
			if err != nil {
				return f, err
			}
			if h <= l {
				return f, fmt.Errorf("empty address range %q", v)
			}
			f.AddrLo, f.AddrHi = l, h
		case "cpus":
			for _, s := range strings.Split(v, ",") {
				id, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || id < 0 || id > 255 {
					return f, fmt.Errorf("bad cpu list %q", v)
				}
				f.CPUs.Set(id)
			}
		default:
			return f, fmt.Errorf("unknown trace parameter %q", k)
		}
	}
	return f, nil
}

// parseAddr accepts hex (0x...), decimal, or size notation (64KB).
func parseAddr(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err := strconv.ParseUint(s[2:], 16, 64)
		if err != nil {
			return 0, fmt.Errorf("bad address %q", s)
		}
		return v, nil
	}
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return v, nil
	}
	if v, err := addr.ParseSize(s); err == nil {
		return uint64(v), nil
	}
	return 0, fmt.Errorf("bad address %q", s)
}
