// Package byname is the one place a workload name becomes a generator.
// It sits beside the generators rather than in package workload because
// the SPLASH2 kernels (workload/splash) import workload.
package byname

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/workload"
	"memories/internal/workload/splash"
)

// New builds the named workload model for ncpu host processors: tpcc,
// tpch, web, uniform, or a SPLASH2 kernel (splash.Names).
//
// scale divides the paper-size footprint of tpcc/tpch/web, and sizes
// uniform like them: 150 GB / scale, at least 1 MB, 30 % writes.
// splashSize is the kernels' problem size: paper, classic or test.
//
// The name and numbers come from command-line flags, so whatever the
// generators' constructors would panic on is an error: an unknown name,
// or a scale so large that a table it divides has no bytes left.
func New(name string, scale int64, seed uint64, ncpu int, splashSize string) (workload.Generator, error) {
	switch name {
	case "tpcc":
		cfg := workload.ScaledTPCCConfig(scale)
		if cfg.DatabaseBytes <= 0 {
			return nil, emptyAt(name, scale, "database")
		}
		cfg.NumCPUs, cfg.Seed = ncpu, seed
		return workload.NewTPCC(cfg), nil
	case "tpch":
		cfg := workload.ScaledTPCHConfig(scale)
		if cfg.FactBytes <= 0 || cfg.DimBytes <= 0 {
			return nil, emptyAt(name, scale, "fact or dimension tables")
		}
		cfg.NumCPUs, cfg.Seed = ncpu, seed
		return workload.NewTPCH(cfg), nil
	case "web":
		cfg := workload.ScaledWebConfig(scale)
		cfg.NumCPUs, cfg.Seed = ncpu, seed
		return workload.NewWeb(cfg), nil
	case "uniform":
		footprint := 150 * addr.GB
		if scale > 1 {
			footprint = max(footprint/scale, addr.MB)
		}
		return workload.NewUniform(workload.UniformConfig{
			NumCPUs:       ncpu,
			FootprintByte: footprint,
			WriteFraction: 0.3,
			Seed:          seed,
		}), nil
	}
	var size splash.Size
	switch splashSize {
	case "paper":
		size = splash.SizePaper
	case "classic":
		size = splash.SizeClassic
	case "test":
		size = splash.SizeTest
	default:
		return nil, fmt.Errorf("workload: unknown splash size %q (want paper, classic, test)", splashSize)
	}
	if g := splash.New(name, size, ncpu, seed); g != nil {
		return g, nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q (want tpcc, tpch, web, uniform, or one of %v)",
		name, splash.Names())
}

func emptyAt(name string, scale int64, what string) error {
	return fmt.Errorf("workload: scale %d leaves %s no %s", scale, name, what)
}
