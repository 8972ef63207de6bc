package service

import (
	"encoding/json"
	"fmt"

	"memories/internal/addr"
	"memories/internal/workload"
	"memories/internal/workload/byname"
)

// WorkloadSpec is the JSON alternative to raw trace ingest: instead of
// streaming bus records in, the tenant asks the session's modeled host
// to run one of the built-in workload models for a number of
// references. Specs queue like trace blocks and run in order; each may
// switch the generator.
type WorkloadSpec struct {
	// Workload selects the model: tpcc, tpch, web, uniform, or a
	// SPLASH2 kernel name.
	Workload string `json:"workload"`
	// Refs is how many references to run (required, bounded).
	Refs uint64 `json:"refs"`
	// Scale divides the paper-size footprint for tpcc/tpch/web
	// (default 2048, which fits CI).
	Scale int64 `json:"scale,omitempty"`
	// Footprint sizes the uniform workload ("64MB"; default 16MB).
	Footprint string `json:"footprint,omitempty"`
	// WriteFraction is the uniform workload's write probability.
	WriteFraction float64 `json:"write_fraction,omitempty"`
	// Seed drives generator randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Size picks the SPLASH2 problem size: paper, classic, test
	// (default test — service sessions want bounded setup cost).
	Size string `json:"size,omitempty"`
}

// MaxSpecRefs bounds one workload block so a single request cannot
// monopolize a session worker for minutes.
const MaxSpecRefs = 50_000_000

func parseWorkloadSpec(body []byte) (*WorkloadSpec, error) {
	var spec WorkloadSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, fmt.Errorf("service: body is neither a MIES trace nor a workload spec: %v", err)
	}
	if spec.Workload == "" {
		return nil, fmt.Errorf("service: workload spec missing \"workload\"")
	}
	if spec.Refs == 0 {
		return nil, fmt.Errorf("service: workload spec missing \"refs\"")
	}
	if spec.Refs > MaxSpecRefs {
		return nil, fmt.Errorf("service: refs %d exceeds per-block cap %d", spec.Refs, MaxSpecRefs)
	}
	return &spec, nil
}

// build constructs the generator for ncpu host processors, filling in
// the service's defaults for the fields the tenant left out.
func (spec *WorkloadSpec) build(ncpu int) (workload.Generator, error) {
	scale := spec.Scale
	if scale <= 0 {
		scale = 2048
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	size := spec.Size
	if size == "" {
		size = "test"
	}
	foot := int64(16 << 20)
	if spec.Footprint != "" {
		var err error
		if foot, err = addr.ParseSize(spec.Footprint); err != nil {
			return nil, err
		}
	}
	return byname.New(spec.Workload, scale, seed, ncpu, size, foot, spec.WriteFraction)
}
