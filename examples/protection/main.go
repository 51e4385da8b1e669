// protection: measure what page-table maintenance costs under each
// translation scheme. Garbage-collected runtimes, copy-on-write forks and
// memory-mapped I/O all change page protections and mappings constantly;
// on a multiprocessor every such change must reach every stale TLB entry.
// The TLB schemes pay a machine-wide shootdown; V-COMA updates one home
// node's page table and DLB (paper §1, §4.3).
package main

import (
	"fmt"
	"log"

	"vcoma"
	"vcoma/internal/experiments"
)

func main() {
	n := experiments.MgmtSamplePages
	fmt.Printf("warming each machine with BARNES, then timing %d protection\n", n)
	fmt.Printf("changes and %d demaps per scheme...\n", n)
	fmt.Println()

	suite := &experiments.Suite{
		Cfg:        vcoma.Baseline(),
		Scale:      vcoma.ScaleTest,
		Benchmarks: []string{"BARNES"},
		Only:       []string{"mgmt"},
	}
	res, err := suite.Run()
	if err != nil {
		log.Fatal(err)
	}
	rows := res.Mgmt
	fmt.Println(experiments.RenderMgmt(rows, false))

	var l0, vc experiments.MgmtRow
	for _, r := range rows {
		switch r.Scheme {
		case vcoma.L0TLB:
			l0 = r
		case vcoma.VCOMA:
			vc = r
		}
	}
	fmt.Printf("a protection change costs %.1fx less on V-COMA than on L0-TLB\n",
		l0.ProtChangeCycles/vc.ProtChangeCycles)
	fmt.Printf("an L0 change invalidates %.1f TLB entries machine-wide; V-COMA touches %.1f\n\n",
		l0.ProtShootdowns, vc.ProtShootdowns)

	fmt.Println("the paper's §6 tag-cost caveat, for completeness:")
	fmt.Println()
	fmt.Print(experiments.RenderTagOverhead(false))
}
