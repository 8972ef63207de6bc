// Package console implements the MemorIES console software: the paper's
// operating environment drives the board from a PC over an AMCC parallel
// port, performing "power-up initialization of the MemorIES board, cache
// parameter setting, and statistics extraction" (§2).
//
// The parallel port is replaced by a line-oriented text protocol over any
// io.Reader/io.Writer pair, so the same command set works interactively
// (cmd/console), in scripts, and in tests.
package console

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"memories/internal/addr"
	"memories/internal/cache"
	"memories/internal/core"
	"memories/protocols"
)

// errNoCheckpoint answers checkpoint/restore on a console nothing has
// bound a snapshot format to (see SetCheckpoint).
var errNoCheckpoint = errors.New("no session attached (checkpoint and restore snapshot a session)")

// Console binds a command interpreter to a board.
type Console struct {
	board *core.Board
	out   io.Writer
	// pendingMap accumulates a multi-line "loadmap" protocol definition.
	pendingMap  []string
	pendingNode int
	// obs binds the live-observability commands (metrics, watch,
	// trace on/off); nil until SetObs.
	obs *obsBinding
	// saveCkpt/loadCkpt back the checkpoint/restore commands; nil until
	// SetCheckpoint binds them to whatever owns the snapshot format.
	saveCkpt func(path string) error
	loadCkpt func(path string) (core.RestoreReport, error)
}

// New creates a console for the given board, writing replies to out.
func New(b *core.Board, out io.Writer) *Console {
	return &Console{board: b, out: out}
}

// SetCheckpoint binds the checkpoint/restore commands. A console has no
// snapshot format of its own: the session that embeds it decides what a
// snapshot holds (memories.Session.Console binds its Checkpoint and
// Restore). Until then both commands answer with an error.
func (c *Console) SetCheckpoint(save func(path string) error, load func(path string) (core.RestoreReport, error)) {
	c.saveCkpt, c.loadCkpt = save, load
}

// Restore is the restore command: it loads the snapshot at path through
// the bound session and reports any ECC repairs the load made.
func (c *Console) Restore(path string) error {
	if c.loadCkpt == nil {
		return errNoCheckpoint
	}
	rep, err := c.loadCkpt(path)
	if err != nil {
		return err
	}
	if rep.ECCCorrected+rep.ECCInvalidated > 0 {
		fmt.Fprintf(c.out, "restore: ECC repaired %d word(s), invalidated %d\n",
			rep.ECCCorrected, rep.ECCInvalidated)
	}
	fmt.Fprintf(c.out, "state restored from %s\n", path)
	return nil
}

// Run reads commands from r until EOF or the "quit" command.
func (c *Console) Run(r io.Reader) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "quit" || line == "exit" {
			return nil
		}
		if err := c.Execute(line); err != nil {
			fmt.Fprintf(c.out, "error: %v\n", err)
		}
	}
	return sc.Err()
}

// Execute runs a single command line.
func (c *Console) Execute(line string) error {
	if c.pendingMap != nil {
		if strings.TrimSpace(line) == "end" {
			return c.finishLoadMap()
		}
		c.pendingMap = append(c.pendingMap, line)
		return nil
	}
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return nil
	}
	switch fields[0] {
	case "help":
		c.help()
		return nil
	case "stats":
		prefix := ""
		if len(fields) > 1 {
			prefix = fields[1]
		}
		fmt.Fprint(c.out, c.board.Counters().Dump(prefix))
		return nil
	case "nodes":
		c.nodes()
		return nil
	case "node":
		return c.node(fields[1:])
	case "occupancy":
		return c.occupancy(fields[1:])
	case "dirstat":
		return c.dirstat(fields[1:])
	case "profile":
		return c.profile(fields[1:])
	case "reprogram":
		return c.reprogram(fields[1:])
	case "protocol":
		return c.protocol(fields[1:])
	case "loadmap":
		return c.loadMap(fields[1:])
	case "reset-counters":
		c.board.Counters().ResetAll()
		fmt.Fprintln(c.out, "counters cleared")
		return nil
	case "scrub":
		if !c.board.Config().ECC {
			return fmt.Errorf("ECC disabled on this board (enable core.Config.ECC)")
		}
		corrected, invalidated := c.board.ScrubNow()
		fmt.Fprintf(c.out, "scrub: %d corrected, %d invalidated\n", corrected, invalidated)
		return nil
	case "checkpoint":
		if len(fields) != 2 {
			return fmt.Errorf("usage: checkpoint <path>")
		}
		if c.saveCkpt == nil {
			return errNoCheckpoint
		}
		if err := c.saveCkpt(fields[1]); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "checkpoint written to %s\n", fields[1])
		return nil
	case "restore":
		if len(fields) != 2 {
			return fmt.Errorf("usage: restore <path>")
		}
		return c.Restore(fields[1])
	case "metrics":
		return c.metrics(fields[1:])
	case "watch":
		return c.watch(fields[1:])
	case "trace":
		return c.trace(fields[1:])
	case "version":
		fmt.Fprintln(c.out, "MemorIES console, board revision 1 (software emulation)")
		return nil
	default:
		return fmt.Errorf("unknown command %q (try help)", fields[0])
	}
}

func (c *Console) help() {
	fmt.Fprint(c.out, `commands:
  help                          this text
  version                       board/console revision
  nodes                         summary of all emulated nodes
  node <i>                      details of node i
  stats [prefix]                dump counters (optionally filtered)
  occupancy <i>                 directory occupancy of node i
  dirstat [i]                   directory geometry and footprint (all nodes
                                without an index); occupancy is O(1)
  profile <i>                   miss-ratio profile sparkline of node i
  reprogram <i> k=v ...         set cache parameters of node i
                                (size, assoc, line, policy, group, cpus, protocol)
  protocol <i> <name>           load a shipped protocol (msi, mesi, moesi, write-once)
  loadmap <i>                   load a protocol map file; end with "end"
  reset-counters                clear the counter bank
  scrub                         run an ECC scrub pass over every directory
  checkpoint <path>             write a crash-safe session snapshot (workload,
                                host, board, counters)
  restore <path>                restore a session snapshot (from checkpoint,
                                Session.Checkpoint or console -checkpoint)
  metrics [prefix]              dump the live metrics registry (needs -obs)
  watch <prefix> [n] [ms]       sample a metric prefix n times every ms
  trace on [addr=lo:hi] [cpus=a,b]  enable the snoop event tracer
  trace off                     disable the snoop event tracer
  trace status                  snoop tracer state and totals
                                (cmd/tracegen writes a trace file)
  quit                          leave the console
`)
}

func (c *Console) nodes() {
	for i := 0; i < c.board.NumNodes(); i++ {
		v := c.board.Node(i)
		fmt.Fprintf(c.out, "node %d (%s): %s, protocol %s, refs %d, miss ratio %.4f\n",
			i, v.Name, v.Geometry, v.Protocol, v.Refs(), v.MissRatio())
	}
}

func (c *Console) node(args []string) error {
	i, err := c.nodeIndex(args)
	if err != nil {
		return err
	}
	v := c.board.Node(i)
	fmt.Fprintf(c.out, "node %d (%s)\n", i, v.Name)
	fmt.Fprintf(c.out, "  cache      %s\n", v.Geometry)
	fmt.Fprintf(c.out, "  protocol   %s\n", v.Protocol)
	fmt.Fprintf(c.out, "  reads      %d hit / %d miss\n", v.ReadHit, v.ReadMiss)
	fmt.Fprintf(c.out, "  writes     %d hit / %d miss\n", v.WriteHit, v.WriteMiss)
	fmt.Fprintf(c.out, "  miss ratio %.4f\n", v.MissRatio())
	fmt.Fprintf(c.out, "  satisfied  l3 %d, mod-int %d, shr-int %d, memory %d\n",
		v.SatL3, v.SatModInt, v.SatShrInt, v.SatMemory)
	fmt.Fprintf(c.out, "  castouts   %d, evictions %d\n", v.Castouts, v.Evictions)
	return nil
}

func (c *Console) occupancy(args []string) error {
	i, err := c.nodeIndex(args)
	if err != nil {
		return err
	}
	total := c.board.DirectoryOccupancy(i)
	v := c.board.Node(i)
	fmt.Fprintf(c.out, "node %d: %d valid lines\n", i, total)
	bank := c.board.Counters()
	names := bank.Group("node" + v.Name + ".occupancy")
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(c.out, "  %s %d\n", name, bank.Value(name))
	}
	return nil
}

// dirstat prints each directory's geometry, packed-slot footprint, and
// occupancy. The resident count comes from the directory's O(1) counter,
// so dirstat stays cheap even on an 8 GB (64M-slot) directory.
func (c *Console) dirstat(args []string) error {
	first, last := 0, c.board.NumNodes()-1
	if len(args) > 0 {
		i, err := c.nodeIndex(args)
		if err != nil {
			return err
		}
		first, last = i, i
	}
	var totalBytes int64
	for i := first; i <= last; i++ {
		v := c.board.Node(i)
		slots := c.board.DirectorySlots(i)
		bytes := c.board.DirectoryBytes(i)
		resident := c.board.DirectoryResident(i)
		fmt.Fprintf(c.out, "node %d (%s): %s\n", i, v.Name, v.Geometry)
		fmt.Fprintf(c.out, "  slots      %d\n", slots)
		fmt.Fprintf(c.out, "  bytes/slot %.2f\n", float64(bytes)/float64(slots))
		fmt.Fprintf(c.out, "  footprint  %s\n", addr.FormatSize(bytes))
		fmt.Fprintf(c.out, "  resident   %d lines (%.1f%% occupancy)\n",
			resident, 100*float64(resident)/float64(slots))
		totalBytes += bytes
	}
	if first != last {
		fmt.Fprintf(c.out, "total directory footprint %s\n", addr.FormatSize(totalBytes))
	}
	return nil
}

func (c *Console) profile(args []string) error {
	i, err := c.nodeIndex(args)
	if err != nil {
		return err
	}
	prof := c.board.Profile(i)
	if prof == nil {
		return fmt.Errorf("profiling disabled (set ProfileBucketCycles)")
	}
	fmt.Fprintf(c.out, "buckets %d, mean %.4f\n", prof.Len(), prof.Mean())
	fmt.Fprintf(c.out, "[%s]\n", prof.Sparkline())
	if period := prof.DominantPeriod(2); period > 0 {
		fmt.Fprintf(c.out, "periodic spikes every ~%d buckets\n", period)
	}
	return nil
}

func (c *Console) nodeIndex(args []string) (int, error) {
	if len(args) < 1 {
		return 0, fmt.Errorf("node index required")
	}
	i, err := strconv.Atoi(args[0])
	if err != nil || i < 0 || i >= c.board.NumNodes() {
		return 0, fmt.Errorf("bad node index %q", args[0])
	}
	return i, nil
}

// reprogram parses "k=v" pairs and reconfigures the node.
func (c *Console) reprogram(args []string) error {
	i, err := c.nodeIndex(args)
	if err != nil {
		return err
	}
	nc := c.board.Config().Nodes[i]
	size, line, assoc := nc.Geometry.SizeBytes, nc.Geometry.LineSize, nc.Geometry.Assoc
	for _, kv := range args[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("expected key=value, got %q", kv)
		}
		switch k {
		case "size":
			if size, err = addr.ParseSize(v); err != nil {
				return err
			}
		case "line":
			if line, err = addr.ParseSize(v); err != nil {
				return err
			}
		case "assoc":
			if assoc, err = strconv.Atoi(v); err != nil {
				return fmt.Errorf("bad assoc %q", v)
			}
		case "policy":
			if nc.Policy, err = cache.ParsePolicy(v); err != nil {
				return err
			}
		case "group":
			if nc.Group, err = strconv.Atoi(v); err != nil {
				return fmt.Errorf("bad group %q", v)
			}
		case "protocol":
			if nc.Protocol, err = protocols.Load(v); err != nil {
				return err
			}
		case "cpus":
			var cpus []int
			for _, s := range strings.Split(v, ",") {
				id, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					return fmt.Errorf("bad cpu list %q", v)
				}
				cpus = append(cpus, id)
			}
			nc.CPUs = cpus
		default:
			return fmt.Errorf("unknown parameter %q", k)
		}
	}
	g, err := addr.NewGeometry(size, line, assoc)
	if err != nil {
		return err
	}
	nc.Geometry = g
	if err := c.board.Reprogram(i, nc); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "node %d reprogrammed: %s\n", i, g)
	return nil
}

func (c *Console) protocol(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: protocol <node> <name>")
	}
	return c.reprogram([]string{args[0], "protocol=" + args[1]})
}

func (c *Console) loadMap(args []string) error {
	i, err := c.nodeIndex(args)
	if err != nil {
		return err
	}
	c.pendingMap = []string{}
	c.pendingNode = i
	fmt.Fprintln(c.out, "enter protocol map, finish with \"end\"")
	return nil
}

func (c *Console) finishLoadMap() error {
	text := strings.Join(c.pendingMap, "\n")
	c.pendingMap = nil
	// A user-typed protocol must be proven coherent before it reaches a
	// node controller.
	tab, err := protocols.Verify(text)
	if err != nil {
		return err
	}
	nc := c.board.Config().Nodes[c.pendingNode]
	nc.Protocol = tab
	if err := c.board.Reprogram(c.pendingNode, nc); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "node %d protocol loaded: %s\n", c.pendingNode, tab.Name)
	return nil
}
