package workload

import (
	"strings"
	"testing"

	"memories/internal/addr"
)

// TestGeneratorNamesAndFootprints exercises the Name/Footprint contract
// of every generator in the package.
func TestGeneratorNamesAndFootprints(t *testing.T) {
	gens := []struct {
		g          Generator
		wantName   string
		wantedSize int64 // minimum footprint
	}{
		{NewUniform(UniformConfig{NumCPUs: 2, FootprintByte: 8 * addr.MB}), "uniform", 8 * addr.MB},
		{NewStride(StrideConfig{NumCPUs: 2, FootprintByte: 8 * addr.MB}), "stride", 8 * addr.MB},
		{NewZipfian(ZipfConfig{NumCPUs: 2, FootprintByte: 8 * addr.MB}), "zipf", 8 * addr.MB},
		{NewTPCC(ScaledTPCCConfig(4096)), "tpcc-", 30 * addr.MB},
		{NewTPCH(ScaledTPCHConfig(4096)), "tpch-", 20 * addr.MB},
		{NewWeb(ScaledWebConfig(4096)), "web-", 4 * addr.MB},
	}
	for _, c := range gens {
		if !strings.HasPrefix(c.g.Name(), c.wantName) {
			t.Errorf("Name = %q, want prefix %q", c.g.Name(), c.wantName)
		}
		if c.g.Footprint() < c.wantedSize {
			t.Errorf("%s: footprint %d below %d", c.g.Name(), c.g.Footprint(), c.wantedSize)
		}
	}
}

func TestDefaultConfigsArePaperScale(t *testing.T) {
	if DefaultTPCCConfig().DatabaseBytes != 150*addr.GB {
		t.Error("TPC-C default must be the paper's 150GB")
	}
	if DefaultTPCHConfig().FactBytes != 100*addr.GB {
		t.Error("TPC-H default must be the paper's 100GB")
	}
	if DefaultWebConfig().DocBytes != 16*addr.GB {
		t.Error("web default changed")
	}
}

func TestGeneratorPanicsOnBadConfig(t *testing.T) {
	cases := []func(){
		func() { NewUniform(UniformConfig{NumCPUs: 0, FootprintByte: addr.MB}) },
		func() { NewStride(StrideConfig{NumCPUs: 0, FootprintByte: addr.MB}) },
		func() { NewZipfian(ZipfConfig{NumCPUs: 0, FootprintByte: addr.MB}) },
		func() { NewTPCC(TPCCConfig{}) },
		func() { NewTPCH(TPCHConfig{}) },
		func() { NewWeb(WebConfig{}) },
		func() {
			WithDisturbance(NewUniform(UniformConfig{NumCPUs: 1, FootprintByte: addr.MB}),
				DisturbanceConfig{})
		},
		func() { NewRNG(1).Intn(0) },
		func() { NewZipf(NewRNG(1), 0.5, 100) },
		func() { NewZipf(NewRNG(1), 1.5, 0) },
		func() { NewLayout().Region(0) },
		func() { Region{}.At(0) },
		func() { Region{Base: 0, Size: 64}.Slot(0, 128) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
