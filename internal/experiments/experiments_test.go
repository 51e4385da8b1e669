package experiments

import (
	"strings"
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/tlb"
	"vcoma/internal/workload"
)

// syntheticBank builds a MergedBank with prescribed per-node miss counts by
// feeding crafted page streams. For interpolation tests a direct fixture is
// simpler: build a bank from a page stream sized to produce a known curve.
func observedFixture(t *testing.T) *Observed {
	t.Helper()
	obs, err := runPlan(t, func(p *Plan) error { return p.AddObserve("RADIX") }).Observed("RADIX")
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

func TestObserveProducesAllSchemes(t *testing.T) {
	obs := observedFixture(t)
	if obs.Benchmark != "RADIX" || obs.RefsPerNode <= 0 {
		t.Fatalf("metadata: %+v", obs)
	}
	for _, sch := range config.Schemes() {
		if obs.Banks[sch] == nil {
			t.Fatalf("missing bank for %v", sch)
		}
		if obs.Banks[sch].TotalAccesses() == 0 {
			t.Fatalf("%v observed no translation requests", sch)
		}
	}
	if obs.L2NoWb == nil {
		t.Fatal("missing L2/no_wback bank")
	}
	// The no-writeback stream is a subset of the L2 stream.
	if obs.L2NoWb.TotalAccesses() > obs.Banks[config.L2TLB].TotalAccesses() {
		t.Fatal("no_wback saw more requests than L2")
	}
}

func TestFigure8And9Shapes(t *testing.T) {
	obs := observedFixture(t)
	f8 := Figure8(obs)
	if len(f8.Series) != 6 { // five schemes + no_wback
		t.Fatalf("figure 8 has %d series", len(f8.Series))
	}
	// V-COMA must beat L0-TLB at every size (the paper's headline).
	var l0, vc Series
	for _, s := range f8.Series {
		switch s.Label {
		case "L0-TLB":
			l0 = s
		case "V-COMA":
			vc = s
		}
	}
	for _, n := range f8.Sizes {
		if vc.Points[n] > l0.Points[n] {
			t.Fatalf("V-COMA (%f) above L0-TLB (%f) at %d entries", vc.Points[n], l0.Points[n], n)
		}
	}

	f9 := Figure9(obs)
	if len(f9.Series) != 10 {
		t.Fatalf("figure 9 has %d series", len(f9.Series))
	}
	// DM never beats FA of the same scheme and size by more than noise:
	// check DM >= FA for L0 at the smallest size, where conflicts bite.
	var l0fa, l0dm Series
	for _, s := range f9.Series {
		switch s.Label {
		case "L0-TLB":
			l0fa = s
		case "L0-TLB/DM":
			l0dm = s
		}
	}
	if l0dm.Points[8] < l0fa.Points[8] {
		t.Fatalf("L0 DM (%f) below FA (%f) at 8 entries", l0dm.Points[8], l0fa.Points[8])
	}
}

func TestTable2RatesBounded(t *testing.T) {
	obs := observedFixture(t)
	row := Table2(obs)
	for _, size := range Table2Sizes {
		for _, sch := range config.Schemes() {
			r := row.Rate[size][sch]
			if r < 0 || r > 100 {
				t.Fatalf("rate %v/%d = %f", sch, size, r)
			}
		}
		// V-COMA is the smallest rate at every size here.
		for _, sch := range []config.Scheme{config.L0TLB, config.L1TLB} {
			if row.Rate[size][config.VCOMA] > row.Rate[size][sch] {
				t.Fatalf("V-COMA rate above %v at size %d", sch, size)
			}
		}
	}
}

func TestEquivalentSizeInterpolation(t *testing.T) {
	// Build a bank whose curve is known exactly: feed one pass over N
	// distinct pages so that misses(n) = N for any n >= N (cold only),
	// and larger for smaller n.
	specs := tlb.PaperSpecs()
	bank, err := tlb.NewBank(specs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		for p := 0; p < 64; p++ {
			bank.Access(addr.PageNum(p))
		}
	}
	merged := tlb.Merge([]*tlb.Bank{bank})

	// A target below the flat cold floor is unreachable: -1.
	if got := equivalentSize(merged, 1); got != -1 {
		t.Fatalf("unreachable target gave %f", got)
	}
	// A target equal to the 64-entry miss count interpolates to <= 64.
	m64 := merged.MissesPerNode(tlb.Spec{Entries: 64, Org: config.FullyAssoc})
	got := equivalentSize(merged, m64)
	if got <= 0 || got > 64 {
		t.Fatalf("equivalent size %f for the 64-entry miss count", got)
	}
	// A huge target is satisfied by the smallest size.
	if got := equivalentSize(merged, 1e12); got != 8 {
		t.Fatalf("easy target gave %f", got)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	obs := observedFixture(t)
	f8 := Figure8(obs).Render(false)
	if !strings.Contains(f8, "Figure 8") || !strings.Contains(f8, "V-COMA") {
		t.Fatal("figure 8 render incomplete")
	}
	f8md := Figure8(obs).Render(true)
	if !strings.Contains(f8md, "| --- |") {
		t.Fatal("figure 8 markdown render missing table")
	}
	t2 := RenderTable2([]Table2Row{Table2(obs)}, false)
	if !strings.Contains(t2, "RADIX") {
		t.Fatal("table 2 render incomplete")
	}
	t3 := RenderTable3([]Table3Row{Table3(obs)}, true)
	if !strings.Contains(t3, "L3-TLB") {
		t.Fatal("table 3 render incomplete")
	}
}

func TestPaperDataComplete(t *testing.T) {
	for _, name := range workload.Names() {
		if _, ok := PaperTable2[name]; !ok {
			t.Errorf("PaperTable2 missing %s", name)
		}
		if _, ok := PaperTable3[name]; !ok {
			t.Errorf("PaperTable3 missing %s", name)
		}
		if _, ok := PaperTable4[name]; !ok {
			t.Errorf("PaperTable4 missing %s", name)
		}
		if PaperTable1SharedMB[name] == 0 {
			t.Errorf("PaperTable1SharedMB missing %s", name)
		}
	}
}
