package experiments

import (
	"context"
	"strings"
	"testing"

	"vcoma/internal/config"
	"vcoma/internal/runner"
	"vcoma/internal/workload"
)

func testCfg() config.Config {
	return ConfigForScale(config.SmallTest(), workload.ScaleTest)
}

// runPlan enumerates passes with add on a fresh test-scale plan and runs
// them through the runner, the path the report takes.
func runPlan(tb testing.TB, add func(p *Plan) error) *PlanResult {
	tb.Helper()
	p := NewPlan(testCfg(), workload.ScaleTest)
	if err := add(p); err != nil {
		tb.Fatal(err)
	}
	pr, err := p.Run(context.Background(), runner.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return pr
}

func TestTimedBreakdownSumsToExecScale(t *testing.T) {
	bench, _ := workload.ByName("RADIX", workload.ScaleTest)
	b, err := Timed(context.Background(), testCfg().WithScheme(config.VCOMA), bench, "x")
	if err != nil {
		t.Fatal(err)
	}
	if b.Label != "x" || b.Exec == 0 {
		t.Fatalf("breakdown %+v", b)
	}
	// The per-processor average total is within [busy, exec]: processors
	// finish near the exec time under barrier synchronization.
	if b.Total() > float64(b.Exec)*1.01 {
		t.Fatalf("total %f exceeds exec %d", b.Total(), b.Exec)
	}
	if b.Total() < float64(b.Exec)*0.5 {
		t.Fatalf("total %f far below exec %d: accounting leak", b.Total(), b.Exec)
	}
}

func TestTable4Shape(t *testing.T) {
	row, err := runPlan(t, func(p *Plan) error { return p.AddTable4("FMM") }).Table4("FMM")
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range Table4Sizes {
		l0 := row.Ratio[size]["L0-TLB"]
		dlb := row.Ratio[size]["DLB"]
		if l0 <= 0 {
			t.Fatalf("L0 ratio at %d: %f", size, l0)
		}
		if dlb >= l0 {
			t.Fatalf("DLB ratio (%f) not below L0 (%f) at size %d", dlb, l0, size)
		}
	}
	out := RenderTable4([]Table4Row{row}, false)
	if !strings.Contains(out, "FMM") {
		t.Fatal("render incomplete")
	}
}

func TestFigure10Variants(t *testing.T) {
	r, err := runPlan(t, func(p *Plan) error { return p.AddFigure10("RAYTRACE") }).Figure10("RAYTRACE")
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"TLB/8", "TLB/8/DM", "DLB/8", "DLB/8/DM", "DLB/8/V2"}
	if len(r.Breakdowns) != len(labels) {
		t.Fatalf("breakdowns: %d", len(r.Breakdowns))
	}
	for i, b := range r.Breakdowns {
		if b.Label != labels[i] {
			t.Fatalf("breakdown %d label %q, want %q", i, b.Label, labels[i])
		}
		if b.Total() == 0 {
			t.Fatalf("%s: empty breakdown", b.Label)
		}
	}
	// The DLB configurations must carry less translation time than TLB/8.
	if r.Breakdowns[2].Trans >= r.Breakdowns[0].Trans {
		t.Fatalf("DLB/8 translation (%f) not below TLB/8 (%f)",
			r.Breakdowns[2].Trans, r.Breakdowns[0].Trans)
	}
	// Busy time is scheme-independent (same instruction stream).
	if r.Breakdowns[0].Busy != r.Breakdowns[2].Busy {
		t.Fatalf("busy differs across schemes: %f vs %f",
			r.Breakdowns[0].Busy, r.Breakdowns[2].Busy)
	}
	if !strings.Contains(r.Render(true), "normalized") {
		t.Fatal("render incomplete")
	}

	// Non-RAYTRACE benchmarks have no V2 bar.
	r2, err := runPlan(t, func(p *Plan) error { return p.AddFigure10("FFT") }).Figure10("FFT")
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Breakdowns) != 4 {
		t.Fatalf("FFT breakdowns: %d", len(r2.Breakdowns))
	}
}

func TestFigure11Profile(t *testing.T) {
	bench, _ := workload.ByName("FFT", workload.ScaleTest)
	cfg := testCfg()
	r, err := Figure11(cfg, bench)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pressure) != cfg.Geometry.GlobalPageSets() {
		t.Fatalf("profile length %d", len(r.Pressure))
	}
	if r.MaxSlots != cfg.Geometry.PageSlotsPerGlobalSet() {
		t.Fatalf("capacity %d", r.MaxSlots)
	}
	var sum float64
	for _, v := range r.Pressure {
		if v < 0 {
			t.Fatalf("negative pressure %f", v)
		}
		sum += v
	}
	// Total pressure equals total pages / capacity.
	prog, _ := bench.Build(cfg.Geometry, cfg.Geometry.Nodes())
	pages := 0
	for _, reg := range prog.Layout().Regions() {
		first := cfg.Geometry.Page(reg.Base)
		last := cfg.Geometry.Page(reg.End() - 1)
		pages += int(last-first) + 1
	}
	want := float64(pages) / float64(r.MaxSlots)
	if sum < want*0.99 || sum > want*1.01 {
		t.Fatalf("profile sums to %f, want %f", sum, want)
	}
	if !strings.Contains(r.Render(false), "pressure") {
		t.Fatal("render incomplete")
	}
}

func TestSuiteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run")
	}
	s := &Suite{Cfg: config.Baseline(), Scale: workload.ScaleTest, Benchmarks: []string{"RADIX"}}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	md := res.RenderMarkdown()
	for _, want := range []string{
		"## Figure 8", "## Figure 9", "## Table 2", "## Table 3",
		"## Table 4", "## Figure 10", "## Figure 11", "PowerPC", "Management study",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(res.Mgmt) == 0 {
		t.Error("suite skipped the management study")
	}
}
