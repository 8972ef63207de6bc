package memories

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/checkpoint"
	"memories/internal/core"
	"memories/internal/host"
	"memories/internal/sdram"
	"memories/internal/simbase"
	"memories/internal/stats"
	"memories/internal/tracefile"
	"memories/internal/workload"
	"memories/protocols"
)

// ckptObject is one checkpointable object seen from outside: save
// renders its checkpoint (a section payload, or a whole container for
// boards and sessions), load applies one.
type ckptObject struct {
	save func() ([]byte, error)
	load func([]byte) error
}

// walked is the ckptObject of anything with a one-function Codec walk.
func walked(walk func(*checkpoint.Codec) error) ckptObject {
	return ckptObject{
		save: func() ([]byte, error) { return checkpoint.Marshal(walk) },
		load: func(p []byte) error { return checkpoint.Unmarshal(p, walk) },
	}
}

func walkedCache(c *cache.Cache) ckptObject {
	return walked(func(k *checkpoint.Codec) error {
		_, err := c.Checkpoint(k)
		return err
	})
}

func boardObject(b *core.Board) ckptObject {
	return ckptObject{
		save: func() ([]byte, error) {
			var buf bytes.Buffer
			err := b.WriteCheckpoint(&buf)
			return buf.Bytes(), err
		},
		load: func(p []byte) error {
			snap, err := checkpoint.Decode(p)
			if err != nil {
				return err
			}
			_, err = core.RestoreBoard(b, snap)
			return err
		},
	}
}

func sessionObject(t *testing.T, s *Session) ckptObject {
	path := filepath.Join(t.TempDir(), "session.ckpt")
	return ckptObject{
		save: func() ([]byte, error) {
			if err := s.Checkpoint(path); err != nil {
				return nil, err
			}
			return os.ReadFile(path)
		},
		load: func(p []byte) error {
			snap, err := checkpoint.Decode(p)
			if err != nil {
				return err
			}
			_, err = s.RestoreSnapshot(snap)
			return err
		},
	}
}

// ckptHost is a 4-way host with caches small enough that every prefix
// of its section can be tried.
func ckptHost() host.Config {
	cfg := host.DefaultConfig()
	cfg.NumCPUs = 4
	cfg.L1Bytes = 1 * addr.KB
	cfg.L2Bytes = 4 * addr.KB
	cfg.IOFraction = 0.01
	return cfg
}

func ckptBoard(ecc bool) core.Config {
	cfg := SingleL3Board(64*addr.KB, 4, 128)
	cfg.ECC = ecc
	return cfg
}

// checkpointCases lists every checkpointable object. build returns a
// fresh, identically configured instance each call; when warm is set it
// is first driven far enough that every field it checkpoints has moved
// off its initial value.
func checkpointCases(t *testing.T) map[string]func(warm bool) ckptObject {
	cases := map[string]func(warm bool) ckptObject{}

	tpcc := func() workload.Generator {
		cfg := workload.ScaledTPCCConfig(4096)
		cfg.NumCPUs = 4
		return workload.NewTPCC(cfg)
	}
	disturbance := workload.DisturbanceConfig{PeriodRefs: 500, BurstRefs: 50, JournalBytes: 256 * addr.MB}
	for name, mk := range map[string]func() workload.Generator{
		"uniform": func() workload.Generator {
			return workload.NewUniform(workload.UniformConfig{NumCPUs: 4, FootprintByte: 8 * addr.MB, WriteFraction: 0.3, Seed: 5})
		},
		"stride": func() workload.Generator {
			return workload.NewStride(workload.StrideConfig{NumCPUs: 4, FootprintByte: 8 * addr.MB, Seed: 5})
		},
		"zipf": func() workload.Generator {
			return workload.NewZipfian(workload.ZipfConfig{NumCPUs: 4, FootprintByte: 8 * addr.MB, Seed: 5})
		},
		"tpcc":           tpcc,
		"tpch":           func() workload.Generator { return workload.NewTPCH(workload.ScaledTPCHConfig(4096)) },
		"web":            func() workload.Generator { return workload.NewWeb(workload.ScaledWebConfig(4096)) },
		"limited-tpcc":   func() workload.Generator { return workload.Limit(tpcc(), 100_000) },
		"disturbed-tpcc": func() workload.Generator { return workload.WithDisturbance(tpcc(), disturbance) },
	} {
		cases["gen/"+name] = func(warm bool) ckptObject {
			g := mk()
			for i := 0; warm && i < 1234; i++ {
				g.Next()
			}
			return walked(g.(workload.Checkpointer).Checkpoint)
		}
	}

	cases["bus"] = func(warm bool) ckptObject {
		b := bus.New(bus.DefaultConfig())
		for i := 0; warm && i < 100; i++ {
			b.Issue(&bus.Transaction{Cmd: bus.Command(i % bus.NumCommands()), Addr: uint64(i) * 128, Size: 128, SrcID: i % 4})
		}
		return walked(b.Checkpoint)
	}
	cases["tagstore"] = func(warm bool) ckptObject {
		ts := sdram.New(sdram.DefaultConfig())
		for i := 0; warm && i < 100; i++ {
			ts.Schedule(uint64(i), int64(i*7))
		}
		return walked(ts.Checkpoint)
	}
	cases["bank"] = func(warm bool) ckptObject {
		b := stats.NewBank()
		snoops, hits := b.Counter("snoops"), b.Counter("hits")
		b.Counter("zero")
		if warm {
			snoops.Add(12345)
			hits.Add(stats.CounterMax + 99) // saturates
		}
		return walked(func(c *checkpoint.Codec) error { return core.WalkBank(c, b) })
	}
	for pol := cache.LRU; pol <= cache.Random; pol++ {
		for _, ecc := range []bool{false, true} {
			cfg := cache.Config{Geometry: addr.MustGeometry(2*addr.KB, 128, 4), Policy: pol, Seed: 9, ECC: ecc}
			cases[fmt.Sprintf("cache/%s/ecc=%v", pol, ecc)] = func(warm bool) ckptObject {
				c := cache.MustNew(cfg)
				for i := uint64(0); warm && i < 500; i++ {
					a := (i * 2654435761 % 256) * 128
					switch {
					case i%7 == 6:
						c.Invalidate(a)
					case c.Access(a) == cache.StateInvalid:
						c.Fill(a, uint8(1+i%3))
					}
				}
				return walkedCache(c)
			}
		}
	}
	cases["tracesim"] = func(warm bool) ckptObject {
		var nodes []simbase.TraceNodeConfig
		for i := 0; i < 2; i++ {
			nodes = append(nodes, simbase.TraceNodeConfig{
				CPUs:     []int{2 * i, 2*i + 1},
				Geometry: addr.MustGeometry(2*addr.KB, 128, 2),
				Policy:   cache.LRU,
				Protocol: protocols.MustLoad("mesi"),
			})
		}
		s := simbase.MustNewTraceSim(nodes)
		for i := uint64(0); warm && i < 2000; i++ {
			rec := tracefile.Record{Addr: (i * 2654435761 % 512) * 128, Cmd: bus.Read, SrcID: uint8(i % 5)}
			if i%3 == 0 {
				rec.Cmd = bus.RWITM
			}
			s.Process(rec)
		}
		return walked(s.Checkpoint)
	}

	cases["host/merged"] = func(warm bool) ckptObject {
		h := host.MustNew(ckptHost(), tpcc())
		if warm {
			h.Run(5_000)
		}
		return walked(h.Checkpoint)
	}
	cases["host/percpu-wheel"] = func(warm bool) ckptObject {
		streams := make([]workload.Generator, 4) // CPU 3 idle
		for i := 0; i < 3; i++ {
			streams[i] = workload.NewZipfian(workload.ZipfConfig{NumCPUs: 1, FootprintByte: addr.MB, WriteFraction: 0.3, Seed: 11 + uint64(i)})
		}
		h := host.MustNewPerCPU(ckptHost(), streams, host.EngineWheel)
		if warm {
			h.RunCycles(20_000)
		}
		return walked(h.Checkpoint)
	}

	for _, ecc := range []bool{false, true} {
		cases[fmt.Sprintf("board/ecc=%v", ecc)] = func(warm bool) ckptObject {
			b := core.MustNewBoard(ckptBoard(ecc))
			for i := uint64(0); warm && i < 3000; i++ {
				b.Snoop(&bus.Transaction{Cmd: bus.Command(i % 3), Addr: (i * 2654435761 % 4096) * 128, Size: 128, SrcID: int(i % 8), Cycle: 48 * i})
			}
			b.Flush()
			return boardObject(b)
		}
	}
	session := func(faulty, shadow, withObs bool) func(bool) ckptObject {
		return func(warm bool) ckptObject {
			var (
				s   *Session
				err error
			)
			if faulty {
				s, _, err = NewFaultSession(ckptHost(), ckptBoard(true), FaultConfig{
					Seed: 3, DropProb: 0.01, DupProb: 0.01, BitFlipProb: 0.005, Shadow: shadow,
				}, tpcc())
			} else {
				s, err = NewSession(ckptHost(), ckptBoard(false), tpcc())
			}
			if err != nil {
				t.Fatal(err)
			}
			if withObs {
				h, err := s.EnableObs("", time.Hour, io.Discard, nil)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { h.Close() })
			}
			if warm {
				s.Run(5_000)
				// Loading verifies ECC and repairs latent bit flips, so a
				// byte-exact round trip needs them healed before the save.
				s.Board.ScrubNow()
			}
			return sessionObject(t, s)
		}
	}
	cases["session"] = session(false, false, false)
	cases["session/obs"] = session(false, false, true)
	cases["session/faults"] = session(true, false, false)
	cases["session/faults+shadow"] = session(true, true, false)
	cases["session/faults+shadow+obs"] = session(true, true, true)
	// The injector's own section, ± the shadow model it carries.
	for _, shadow := range []bool{false, true} {
		cases[fmt.Sprintf("injector/shadow=%v", shadow)] = func(warm bool) ckptObject {
			s, inj, err := NewFaultSession(ckptHost(), ckptBoard(true), FaultConfig{Seed: 3, DropProb: 0.01, Shadow: shadow}, tpcc())
			if err != nil {
				t.Fatal(err)
			}
			if warm {
				s.Run(5_000)
			}
			return walked(inj.Checkpoint)
		}
	}
	return cases
}

// TestCheckpointRoundTripProperty holds every checkpointable object to
// the same three properties. (1) Save → load into a fresh twin → save
// again gives identical bytes: the one field list reads what it writes.
// (2) Every strict prefix of the payload (a sample of them when it is
// large) fails with a *CorruptError and never panics. (3) After those
// failed, half-applied loads, one good load into the same twin brings it
// to identical bytes again — a restore overwrites everything, the
// guarantee Codec's doc comment asks of every walker.
func TestCheckpointRoundTripProperty(t *testing.T) {
	for name, build := range checkpointCases(t) {
		t.Run(name, func(t *testing.T) {
			want, err := build(true).save()
			if err != nil {
				t.Fatal(err)
			}
			twin := build(false)
			if cold, err := twin.save(); err != nil || bytes.Equal(cold, want) {
				t.Fatalf("warm-up moved nothing (err %v): the round trip would prove nothing", err)
			}
			reload := func(when string) {
				t.Helper()
				if err := twin.load(want); err != nil {
					t.Fatalf("%s: load: %v", when, err)
				}
				if got, err := twin.save(); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: re-saved twin differs from the original (%d vs %d bytes, err %v)", when, len(got), len(want), err)
				}
			}
			reload("fresh twin")

			step := 1
			if len(want) > 4096 {
				step = len(want) / 251
			}
			for n := 0; n < len(want); n += step {
				var ce *checkpoint.CorruptError
				if err := twin.load(want[:n]); !errors.As(err, &ce) {
					t.Fatalf("prefix %d of %d: err = %v, want *checkpoint.CorruptError", n, len(want), err)
				}
				if n+step >= len(want) && step > 1 {
					step = 1 // the last stretch byte by byte
				}
			}
			reload("after failed loads")
		})
	}
}

// TestFailedRestoreThenGoodRestore applies a snapshot that mismatches
// half-way — same host and generator, different board, so session.meta
// and host.state are applied before board.meta refuses — and then a good
// one: the session must end exactly where the good snapshot was taken.
func TestFailedRestoreThenGoodRestore(t *testing.T) {
	mk := func(l3 int64, refs uint64) (*Session, ckptObject) {
		s, err := NewSession(ckptHost(), SingleL3Board(l3, 4, 128), NewTPCC(ScaledTPCCConfig(4096)))
		if err != nil {
			t.Fatal(err)
		}
		s.Run(refs)
		return s, sessionObject(t, s)
	}
	_, other := mk(128*addr.KB, 9_000)
	mismatching, err := other.save()
	if err != nil {
		t.Fatal(err)
	}
	_, orig := mk(64*addr.KB, 5_000)
	good, err := orig.save()
	if err != nil {
		t.Fatal(err)
	}

	s, twin := mk(64*addr.KB, 0)
	var ce *checkpoint.CorruptError
	if err := twin.load(mismatching); !errors.As(err, &ce) || ce.Section != "board.meta" {
		t.Fatalf("mismatching snapshot: err = %v, want board.meta *checkpoint.CorruptError", err)
	}
	if s.Host.Stats().Refs != 9_000 {
		t.Fatalf("host refs %d after the refused snapshot; the test needs it half-applied (9000)", s.Host.Stats().Refs)
	}
	if err := twin.load(good); err != nil {
		t.Fatal(err)
	}
	if got, err := twin.save(); err != nil || !bytes.Equal(got, good) {
		t.Fatalf("session after refused + good restore differs from the good snapshot (err %v)", err)
	}
}
