package experiments

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/core"
	"memories/internal/stats"
	"memories/internal/workload"
	"memories/protocols"
)

// runProtocolCompare exercises the board's defining feature — the
// protocol is a loadable table, not wired logic (§3.2) — by running the
// identical TPC-C stream (the fig8 workload) under all four shipped
// protocols on a two-node snooping board and comparing the coherence
// traffic each table generates. Every table is loaded from its map
// file through the full compile + model-check gauntlet, exactly the
// path a user-supplied protocol takes.
func runProtocolCompare(p Preset) (*Result, error) {
	hcfg := dbHostConfig(p)
	if hcfg.NumCPUs%2 != 0 {
		return nil, fmt.Errorf("protocolcompare: need an even CPU count, got %d", hcfg.NumCPUs)
	}
	half := hcfg.NumCPUs / 2
	cpusA, cpusB := core.CPURange(hcfg.NumCPUs)[:half], core.CPURange(hcfg.NumCPUs)[half:]
	cacheBytes := p.Fig9CacheMB * addr.MB
	refs := p.Fig8Short

	names := []string{"msi", "mesi", "moesi", "write-once"}
	type row struct {
		name                string
		refs, misses        uint64
		upgrades            uint64
		invalidations       uint64
		writebacks          uint64
		satModInt, satShrIn uint64
	}
	// All four protocol boards ride one TPC-C stream. Two nodes per
	// board share snoop group 0, so cross-node references to TPC-C's
	// shared tables produce real snoop traffic.
	bcfgs := make([]core.Config, len(names))
	for i, name := range names {
		tab, err := protocols.Load(name)
		if err != nil {
			return nil, err
		}
		pp := p
		pp.Protocol = tab
		bcfgs[i] = core.Config{Nodes: []core.NodeConfig{
			stdNode(pp, "a", cpusA, cacheBytes, 128, 8, 0),
			stdNode(pp, "b", cpusB, cacheBytes, 128, 8, 0),
		}}
	}
	newGen := func() workload.Generator { return workload.NewTPCC(workload.ScaledTPCCConfig(p.TPCCFactor)) }
	boards, err := streamRun(p, names, hcfg, newGen, bcfgs, refs)
	if err != nil {
		return nil, err
	}
	rows := make([]row, len(boards))
	for i, b := range boards {
		r := row{name: names[i]}
		for n := 0; n < b.NumNodes(); n++ {
			v := b.Node(n)
			r.refs += v.Refs()
			r.misses += v.Misses()
		}
		snap := b.Counters().Snapshot()
		for _, node := range []string{"nodea.", "nodeb."} {
			r.upgrades += snap[node+"upgrades"]
			r.invalidations += snap[node+"snoop.invalidated"]
			r.writebacks += snap[node+"writeback"]
			r.satModInt += snap[node+"satisfied.mod-int"]
			r.satShrIn += snap[node+"satisfied.shr-int"]
		}
		rows[i] = r
	}

	t := stats.NewTable(
		"PROTOCOL COMPARISON. Identical TPC-C stream, four loadable protocol tables",
		"protocol", "miss ratio", "upgrades", "invalidations", "writebacks", "mod-int", "shr-int")
	for _, r := range rows {
		t.AddRow(r.name, stats.Ratio(r.misses, r.refs),
			r.upgrades, r.invalidations, r.writebacks, r.satModInt, r.satShrIn)
	}
	res := &Result{Tables: []*stats.Table{t}}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"2 nodes x %d CPUs, %s per node, %d refs; every table loaded from protocols/*.map via compile + model check",
		half, addr.FormatSize(cacheBytes), refs))

	// Shape checks.
	byName := map[string]row{}
	for _, r := range rows {
		byName[r.name] = r
	}
	msi, mesi, moesi, wonce := byName["msi"], byName["mesi"], byName["moesi"], byName["write-once"]

	// Same deterministic stream: every protocol must see the same
	// references (protocols change sourcing and traffic, not the
	// reference stream).
	for _, r := range rows {
		if r.refs != mesi.refs {
			return nil, fmt.Errorf("protocolcompare: %s saw %d refs, mesi %d — streams diverged",
				r.name, r.refs, mesi.refs)
		}
	}
	// MSI has no Exclusive state, so a read followed by a private write
	// always pays an S->M upgrade that MESI's silent E->M avoids.
	if msi.upgrades <= mesi.upgrades {
		return nil, fmt.Errorf("protocolcompare: msi upgrades (%d) not above mesi (%d)",
			msi.upgrades, mesi.upgrades)
	}
	// MOESI's Owned state keeps dirty data supplying interventions
	// instead of writing back on a snooped read.
	if moesi.writebacks > mesi.writebacks {
		return nil, fmt.Errorf("protocolcompare: moesi writebacks (%d) above mesi (%d)",
			moesi.writebacks, mesi.writebacks)
	}
	if moesi.satModInt < mesi.satModInt {
		return nil, fmt.Errorf("protocolcompare: moesi mod-int satisfaction (%d) below mesi (%d)",
			moesi.satModInt, mesi.satModInt)
	}
	// Write-once differs from MESI only in where a write miss sources
	// its data (memory, never intervention), which this counter model
	// does not price — identical miss counts are the expected result
	// and prove the stream really is protocol-independent.
	if wonce.misses != mesi.misses {
		return nil, fmt.Errorf("protocolcompare: write-once misses (%d) diverge from mesi (%d)",
			wonce.misses, mesi.misses)
	}
	res.Notes = append(res.Notes,
		"shape: msi pays upgrades mesi avoids via E; moesi trades writebacks for dirty interventions; write-once tracks mesi at this abstraction")
	return res, nil
}
