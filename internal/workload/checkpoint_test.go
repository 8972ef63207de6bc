package workload

import (
	"errors"
	"strings"
	"testing"

	"memories/internal/addr"
	"memories/internal/checkpoint"
)

// generators under test: every Checkpointer implementation, including
// the wrappers.
func checkpointableGenerators() map[string]func() Generator {
	return map[string]func() Generator{
		"uniform": func() Generator {
			return NewUniform(UniformConfig{NumCPUs: 4, FootprintByte: 8 * addr.MB, WriteFraction: 0.3, Seed: 5})
		},
		"stride": func() Generator {
			return NewStride(StrideConfig{NumCPUs: 4, FootprintByte: 8 * addr.MB, Seed: 5})
		},
		"zipf": func() Generator {
			return NewZipfian(ZipfConfig{NumCPUs: 4, FootprintByte: 8 * addr.MB, Seed: 5})
		},
		"tpcc": func() Generator { return NewTPCC(ScaledTPCCConfig(4096)) },
		"tpch": func() Generator { return NewTPCH(ScaledTPCHConfig(4096)) },
		"web":  func() Generator { return NewWeb(ScaledWebConfig(4096)) },
		"limited-tpcc": func() Generator {
			return Limit(NewTPCC(ScaledTPCCConfig(4096)), 100_000)
		},
		"disturbed-tpcc": func() Generator {
			cfg := DisturbanceConfig{PeriodRefs: 500, BurstRefs: 50, JournalBytes: 256 * addr.MB}
			return WithDisturbance(NewTPCC(ScaledTPCCConfig(4096)), cfg)
		},
	}
}

// TestGeneratorCheckpointContinuation: saving a generator mid-stream
// and restoring into a fresh twin must continue the exact sequence the
// original produces.
func TestGeneratorCheckpointContinuation(t *testing.T) {
	for name, mk := range checkpointableGenerators() {
		t.Run(name, func(t *testing.T) {
			orig := mk()
			for i := 0; i < 5000; i++ {
				if _, ok := orig.Next(); !ok {
					t.Fatal("stream ended early")
				}
			}
			ck, ok := orig.(Checkpointer)
			if !ok {
				t.Fatalf("%s does not implement Checkpointer", name)
			}
			payload, err := checkpoint.Marshal(ck.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			fresh := mk()
			if err := checkpoint.Unmarshal(payload, fresh.(Checkpointer).Checkpoint); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5000; i++ {
				want, wok := orig.Next()
				got, gok := fresh.Next()
				if got != want || gok != wok {
					t.Fatalf("ref %d diverged: got %+v/%v, want %+v/%v", i, got, gok, want, wok)
				}
			}
		})
	}
}

// TestLimitedRejectsNonCheckpointable: a wrapper over a generator whose
// position cannot be serialized (a splash kernel, say) must report it,
// not silently snapshot its own half.
func TestLimitedRejectsNonCheckpointable(t *testing.T) {
	g := Limit(&fake{}, 10)
	if _, err := checkpoint.Marshal(g.(Checkpointer).Checkpoint); err == nil {
		t.Fatal("limited over non-checkpointable generator saved")
	}
}

// TestGeneratorRestoreRejectsWiderCursor: Name() does not carry the CPU
// count, so the round-robin cursor is the only witness that a snapshot
// came from a generator built with more CPUs. Clamping it would resume
// the stream at a different point without a word.
func TestGeneratorRestoreRejectsWiderCursor(t *testing.T) {
	for name, mk := range map[string]func(ncpu int) Generator{
		"uniform": func(n int) Generator {
			return NewUniform(UniformConfig{NumCPUs: n, FootprintByte: 8 * addr.MB, Seed: 5})
		},
		"zipf": func(n int) Generator {
			return NewZipfian(ZipfConfig{NumCPUs: n, FootprintByte: 8 * addr.MB, Seed: 5})
		},
		"tpcc": func(n int) Generator {
			cfg := ScaledTPCCConfig(4096)
			cfg.NumCPUs = n
			return NewTPCC(cfg)
		},
	} {
		t.Run(name, func(t *testing.T) {
			wide := mk(8)
			for i := 0; i < 7; i++ { // cursor now at CPU 7
				wide.Next()
			}
			payload, err := checkpoint.Marshal(wide.(Checkpointer).Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			err = checkpoint.Unmarshal(payload, mk(4).(Checkpointer).Checkpoint)
			var ce *checkpoint.CorruptError
			if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "cpu cursor 7, generator has 4 CPUs") {
				t.Fatalf("err = %v, want cpu-cursor *checkpoint.CorruptError", err)
			}
		})
	}
}

// TestGeneratorRestoreRejectsForeignPosition: TPCH's scan cursors and
// Web's connection numbers index their regions without a wrap, so a
// snapshot taken from a generator with bigger partitions or more
// connections must be refused rather than addressed outside the region.
func TestGeneratorRestoreRejectsForeignPosition(t *testing.T) {
	web := func(conns int) Generator {
		cfg := ScaledWebConfig(4096)
		cfg.Connections = conns
		return NewWeb(cfg)
	}
	for name, c := range map[string]struct {
		from, into Generator
		refs       int
		want       string
	}{
		"tpch": {NewTPCH(ScaledTPCHConfig(100)), NewTPCH(ScaledTPCHConfig(4096)), 600_000, "outside its 3276800-byte partition"},
		"web":  {web(4096), web(16), 1000, "server has 16"},
	} {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < c.refs; i++ {
				c.from.Next()
			}
			payload, err := checkpoint.Marshal(c.from.(Checkpointer).Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			err = checkpoint.Unmarshal(payload, c.into.(Checkpointer).Checkpoint)
			var ce *checkpoint.CorruptError
			if !errors.As(err, &ce) || !strings.Contains(ce.Reason, c.want) {
				t.Fatalf("err = %v, want *checkpoint.CorruptError containing %q", err, c.want)
			}
		})
	}
}

type fake struct{}

func (f *fake) Name() string      { return "fake" }
func (f *fake) Next() (Ref, bool) { return Ref{}, false }
func (f *fake) Footprint() int64  { return 0 }

// TestRNGStateRoundTrip covers the zero-state remap.
func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(77)
	r.Uint64()
	s := r.state
	r2 := NewRNG(1)
	r2.SetState(s)
	if r.Uint64() != r2.Uint64() {
		t.Fatal("restored RNG diverged")
	}
	r3 := NewRNG(1)
	r3.SetState(0)
	if r3.Uint64() == 0 {
		t.Fatal("zero state not remapped")
	}
}
