// Protocol study: the board's headline programmability (§3.2) — load
// different coherence protocols into the node controllers and evaluate
// them against the same workload. Each protocol is measured on a two-node
// board (4 CPUs per emulated node, one snoop group) running the
// sharing-heavy FMM kernel; because the workload generators are
// deterministic, every protocol sees the identical reference stream.
package main

import (
	"fmt"
	"log"

	"memories"
)

type result struct {
	name               string
	missRatio          float64
	upgrades           uint64
	writebacks         uint64
	interventions      uint64
	invalidationsTaken uint64
}

func study(tab *memories.ProtocolTable) result {
	bcfg := memories.BoardConfig{Nodes: []memories.NodeConfig{
		{
			Name: "x", CPUs: []int{0, 1, 2, 3},
			Geometry: memories.MustGeometry(16*memories.MB, 128, 4),
			Policy:   memories.LRU, Protocol: tab,
		},
		{
			Name: "y", CPUs: []int{4, 5, 6, 7},
			Geometry: memories.MustGeometry(16*memories.MB, 128, 4),
			Policy:   memories.LRU, Protocol: tab,
		},
	}}
	hcfg := memories.DefaultHostConfig()
	hcfg.L2Bytes = 256 * memories.KB // small L2: the board sees the sharing
	s, err := memories.NewSession(hcfg, bcfg, memories.NewSplash("fmm", "classic", 8, 3))
	if err != nil {
		log.Fatal(err)
	}
	s.Run(2_000_000)

	bank := s.Board.Counters()
	var r result
	r.name = tab.Name
	var miss, refs uint64
	for _, n := range []string{"nodex.", "nodey."} {
		miss += bank.Value(n+"read.miss") + bank.Value(n+"write.miss")
		refs += bank.Value(n+"read.miss") + bank.Value(n+"write.miss") +
			bank.Value(n+"read.hit") + bank.Value(n+"write.hit")
		r.upgrades += bank.Value(n + "upgrades")
		r.writebacks += bank.Value(n + "writeback")
		r.interventions += bank.Value(n+"intervention.supplied.mod") + bank.Value(n+"intervention.supplied.shr")
		r.invalidationsTaken += bank.Value(n + "snoop.invalidated")
	}
	r.missRatio = float64(miss) / float64(refs)
	return r
}

func main() {
	protocols := []*memories.ProtocolTable{memories.MSI(), memories.MESI(), memories.MOESI()}
	if custom, err := memories.LoadProtocolFile("protocols/write-once.map"); err == nil {
		protocols = append(protocols, custom)
	}

	fmt.Println("FMM (classic size), two 16MB 4-way nodes x 4 CPUs, identical streams")
	fmt.Println()
	fmt.Println("protocol     missratio  upgrades  interventions  writebacks  invalidated")
	fmt.Println("--------------------------------------------------------------------------")
	var mesiWB, moesiWB uint64
	for _, tab := range protocols {
		r := study(tab)
		fmt.Printf("%-11s  %.4f     %-8d  %-13d  %-10d  %d\n",
			r.name, r.missRatio, r.upgrades, r.interventions, r.writebacks, r.invalidationsTaken)
		switch r.name {
		case "mesi":
			mesiWB = r.writebacks
		case "moesi":
			moesiWB = r.writebacks
		}
	}
	fmt.Println()
	if moesiWB < mesiWB {
		fmt.Printf("MOESI writes back %.1f%% less than MESI: its Owned state keeps dirty lines\n",
			(1-float64(moesiWB)/float64(mesiWB))*100)
		fmt.Println("in cache across read-sharing instead of cleaning them through memory —")
		fmt.Println("the quantitative case for cache-to-cache transfers the paper draws from FMM.")
	} else {
		fmt.Println("note: MOESI showed no writeback advantage on this stream")
	}
}
