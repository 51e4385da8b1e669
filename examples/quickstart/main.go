// Quickstart: build the paper's 32-node baseline machine as a V-COMA,
// run the RADIX workload on it, and print where the time and the
// translation work went — in a dozen lines of API.
package main

import (
	"context"
	"fmt"
	"log"

	"vcoma"
)

func main() {
	// The paper's §5.1 machine, configured as V-COMA: no TLBs anywhere,
	// an 8-entry DLB at each home node.
	cfg := vcoma.Baseline().WithScheme(vcoma.VCOMA).WithTLB(8, vcoma.FullyAssoc)

	// The RADIX integer sort at a small scale (use ScalePaper for the
	// paper's -n524288 -r2048 -m1048576 run).
	bench, err := vcoma.BenchmarkByName("RADIX", vcoma.ScaleSmall)
	if err != nil {
		log.Fatal(err)
	}

	res, err := vcoma.Run(context.Background(), cfg, bench, vcoma.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	tot := res.Sim.TotalProc()
	ms := res.Machine.TotalStats()
	fmt.Printf("ran %s: %.2f MB shared data, %d references\n",
		bench.Name(), res.SharedMB(), ms.Refs)
	fmt.Printf("execution time: %d cycles (%.2f ms at 200 MHz)\n",
		res.ExecTime(), float64(res.ExecTime())/200e3)
	fmt.Printf("time:  busy %d  sync %d  local %d  remote %d  translation %d\n",
		tot.Busy, tot.Sync, tot.StallLocal, tot.StallRemote, tot.Trans)

	// The headline: how often did address translation miss?
	var lookups, misses uint64
	for n := 0; n < cfg.Geometry.Nodes(); n++ {
		st := res.Machine.Engine(vcoma.Node(n)).Stats()
		lookups += st.Lookups
		misses += st.Misses
	}
	fmt.Printf("DLB:   %d lookups, %d misses — %.4f%% of all references\n",
		lookups, misses, 100*float64(misses)/float64(ms.Refs))
	fmt.Println("\ncompare with the traditional design:")

	l0, err := vcoma.Run(context.Background(), cfg.WithScheme(vcoma.L0TLB), bench, vcoma.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	l0s := l0.Machine.TotalStats()
	fmt.Printf("L0-TLB: %d TLB misses — %.2f%% of all references, %d stall cycles on translation\n",
		l0s.TLBMisses, 100*float64(l0s.TLBMisses)/float64(l0s.Refs),
		l0.Sim.TotalProc().Trans)
}
