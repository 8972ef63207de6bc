// OS performance debugging (case study 2, §5.2): the board's miss-ratio
// profiling catches a periodic disturbance — an OS journaling bug — that
// short traces would never see, because the spikes recur on a timescale
// far beyond any conventional trace window.
package main

import (
	"fmt"
	"log"

	"memories"
	"memories/internal/workload"
)

func profile(buggy bool) *memories.Board {
	gen := memories.Generator(workload.NewTPCC(workload.ScaledTPCCConfig(2048)))
	if buggy {
		gen = workload.WithDisturbance(gen, workload.DisturbanceConfig{
			PeriodRefs:   400_000,
			BurstRefs:    40_000,
			JournalBytes: 64 * memories.MB,
		})
	}
	// Two cache sizes in separate snoop groups: the spikes must show at
	// both for the "this is software, not cache design" diagnosis.
	bcfg := memories.MultiConfigBoard([]int{0, 1, 2, 3, 4, 5, 6, 7}, 128, 8,
		8*memories.MB, 64*memories.MB)
	bcfg.ProfileBucketCycles = 2_000_000

	hcfg := memories.DefaultHostConfig()
	hcfg.L2Bytes = 1 * memories.MB
	hcfg.L2Assoc = 1
	s, err := memories.NewSession(hcfg, bcfg, gen)
	if err != nil {
		log.Fatal(err)
	}
	s.Run(4_000_000)
	return s.Board
}

func main() {
	fmt.Println("Profiling a TPC-C run for periodic miss-ratio spikes (Figure 10)...")
	buggy := profile(true)
	fixed := profile(false)

	labels := []string{"8MB direct-mapped L3", "64MB 8-way L3"}
	for i := 0; i < 2; i++ {
		prof := buggy.Profile(i).Tail(0.6)
		fixedProf := fixed.Profile(i).Tail(0.6)
		fmt.Printf("\n%s\n", labels[i])
		fmt.Printf("  with bug:  mean %.3f, %2d spikes, period ~%d buckets  [%s]\n",
			prof.Mean(), len(prof.Spikes(1.3)), prof.DominantPeriod(1.3), prof.Sparkline())
		fmt.Printf("  after fix: mean %.3f, %2d spikes                      [%s]\n",
			fixedProf.Mean(), len(fixedProf.Spikes(1.3)), fixedProf.Sparkline())
	}

	fmt.Println()
	fmt.Println("The spikes appear at every cache size with one common period — the")
	fmt.Println("signature of an OS-level cause. The paper's team correlated exactly")
	fmt.Println("such a profile with file-system journaling, fixed the OS, and the")
	fmt.Println("spikes (and the performance loss) disappeared.")
}
