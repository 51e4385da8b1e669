// tlbstudy: size a translation buffer for a workload before committing to
// hardware. One simulation pass measures every candidate (size,
// organization) pair at once through an observer bank — the methodology
// behind the paper's Figure 8 — and prints the miss curve plus the point of
// diminishing returns.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"vcoma"
	"vcoma/internal/experiments"
	"vcoma/internal/report"
	"vcoma/internal/tlb"
)

func main() {
	benchName := flag.String("bench", "FFT", "workload: RADIX, FFT, FMM, OCEAN, RAYTRACE, BARNES")
	schemeStr := flag.String("scheme", "vcoma", "translation scheme: l0, l1, l2, l3, vcoma")
	flag.Parse()

	scheme := map[string]vcoma.Scheme{
		"l0": vcoma.L0TLB, "l1": vcoma.L1TLB, "l2": vcoma.L2TLB,
		"l3": vcoma.L3TLB, "vcoma": vcoma.VCOMA,
	}[strings.ToLower(*schemeStr)]

	cfg := experiments.ConfigForScale(vcoma.Baseline(), vcoma.ScaleSmall).
		WithScheme(scheme).WithTLB(512, vcoma.FullyAssoc)
	bench, err := vcoma.BenchmarkByName(strings.ToUpper(*benchName), vcoma.ScaleSmall)
	if err != nil {
		log.Fatal(err)
	}

	// One pass, every candidate size in both organizations.
	res, err := vcoma.Run(context.Background(), cfg, bench, vcoma.RunOptions{Specs: tlb.PaperSpecs()})
	if err != nil {
		log.Fatal(err)
	}
	merged := tlb.Merge(res.Machine.ObserverBanks())

	fmt.Printf("%s on %v — translation requests per node: %.0f\n\n",
		bench.Name(), scheme, float64(merged.TotalAccesses())/float64(cfg.Geometry.Nodes()))

	var rows [][]string
	var prev float64
	knee := 0
	for _, n := range tlb.PaperSizes {
		fa := merged.MissesPerNode(tlb.Spec{Entries: n, Org: vcoma.FullyAssoc})
		dm := merged.MissesPerNode(tlb.Spec{Entries: n, Org: vcoma.DirectMapped})
		marker := ""
		if prev > 0 && fa > prev*0.9 && knee == 0 {
			knee = n / 2
			marker = "<- diminishing returns"
		}
		rows = append(rows, []string{
			fmt.Sprint(n), report.Count(fa), report.Count(dm),
			fmt.Sprintf("%.2f%%", 100*fa*float64(cfg.Geometry.Nodes())/float64(merged.TotalAccesses())),
			marker,
		})
		prev = fa
	}
	fmt.Println(report.Table([]string{"entries", "FA misses/node", "DM misses/node", "FA miss ratio", ""}, rows))
	if knee > 0 {
		fmt.Printf("suggested size: %d entries (doubling past this buys <10%% fewer misses)\n", knee)
	} else {
		fmt.Println("the miss curve is still dropping at 512 entries; this workload wants a bigger buffer")
	}
}
