package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"vcoma/internal/config"
	"vcoma/internal/fsio"
	"vcoma/internal/report"
	"vcoma/internal/runner"
	"vcoma/internal/sim"
	"vcoma/internal/workload"
)

// MgmtSamplePages is the number of pages the suite's management study
// samples per scheme.
const MgmtSamplePages = 16

// DLBOrgSizes are the DLB sizes the suite's organisation sweep covers.
var DLBOrgSizes = []int{8, 16, 32, 64}

// SectionIDs names the report's sections in rendering order; Suite.Only
// selects among them. The last two, the ablation and DLB-organisation
// sweeps, are extensions the default report leaves out.
var SectionIDs = []string{"fig8", "fig9", "table2", "table3", "table4", "fig10", "fig11", "tags", "mgmt", "ablation", "dlborg"}

// Suite runs the paper's complete evaluation and renders a Markdown report
// with paper-vs-measured numbers for every table and figure. Passes execute
// through the experiment runner: in parallel on a bounded worker pool, with
// optional on-disk result caching. The rendered report is byte-identical
// regardless of worker count or cache state.
type Suite struct {
	Cfg        config.Config
	Scale      workload.Scale
	Benchmarks []string // nil = all six
	// Only selects report sections by SectionIDs entry; the suite plans
	// just the passes they read and renders just them, in report order.
	// Empty means the default report: every section but ablation and
	// dlborg.
	Only []string
	// Log, if non-nil, receives per-job progress lines.
	Log io.Writer
	// Jobs is the worker-pool width; 0 means GOMAXPROCS.
	Jobs int
	// CacheDir, if non-empty, enables the content-addressed result cache
	// rooted there.
	CacheDir string
	// FS is the filesystem seam the cache opens through (nil = plain
	// durable I/O); arm it with failpoints to rehearse storage faults.
	FS *fsio.FS
	// Progress, if non-nil, observes the run (overrides the reporter the
	// suite would otherwise build from Log).
	Progress *runner.Progress
	// Context, if non-nil, bounds the run; cancellation skips pending
	// passes and returns the cause.
	Context context.Context
	// Metrics instruments each freshly-computed pass and writes its time
	// series next to the cache entry (see runner.Options.Metrics). The
	// rendered report is unaffected.
	Metrics bool
	// MetricsInterval is the sampler epoch in simulated cycles; 0 uses
	// runner.DefaultMetricsInterval.
	MetricsInterval uint64
	// KeepGoing degrades gracefully instead of failing fast: every pass
	// whose dependencies succeeded still runs, failed cells are collected
	// into SuiteResult.Failures, and Run returns the partial result
	// alongside the joined error so the caller can render what survived
	// (with the failures explicitly marked) and exit nonzero.
	KeepGoing bool
	// JobTimeout bounds each pass with a context deadline (see
	// runner.Options.JobTimeout). 0 means unbounded.
	JobTimeout time.Duration
	// Retry is the transient-failure retry policy (see
	// runner.Options.Retry).
	Retry runner.Retry
	// Budget arms the simulation watchdog of every pass: cycle, event,
	// forward-progress and wall-clock limits, tripping with a structured
	// diagnostic dump. The zero budget is disarmed.
	Budget sim.Budget
	// Journal, if non-nil, records every completed pass for -resume.
	Journal *runner.Journal
	// Chaos, if non-nil, wraps every pass with the configured fault
	// injections (testing and the -chaos flag only).
	Chaos *runner.Chaos
}

// CellFailure names one failed (or skipped) cell of a partial suite run.
type CellFailure struct {
	// Section is the report section the cell belongs to ("figures 8/9 +
	// tables 2/3", "table 4", "figure 10", "figure 11", "management study",
	// "ablation", "DLB organisation sweep").
	Section string
	// Benchmark is the cell's workload.
	Benchmark string
	// Err is the failure rendered as text.
	Err string
}

// ConfigForScale adapts a machine configuration to a workload scale by
// shrinking the attraction memory with the data sets, as the paper does.
func ConfigForScale(cfg config.Config, scale workload.Scale) config.Config {
	cfg.Geometry.AMSetBits = scale.AMSetBits()
	return cfg
}

// Cell names one simulation the way the front ends spell it: vcoma-sim's
// flags and vcoma-serve's requests both resolve through Cell.Resolve, so a
// spelling simulates the same machine whichever front end it reaches.
type Cell struct {
	// Bench is a benchmark name (case-insensitive); Scheme, Scale and Org
	// are parsed by config.ParseScheme, workload.ParseScale and
	// config.ParseOrg.
	Bench, Scheme, Scale, Org string
	// TLB is the TLB/DLB entry count; 0 keeps the baseline's.
	TLB int
	// Seed overrides the baseline seed when nonzero.
	Seed uint64
}

// Resolve validates the cell and assembles its inputs: the baseline
// machine with its attraction memory scaled to the workload
// (ConfigForScale), the scheme, TLB and seed overrides, and the benchmark.
// The configuration goes through config.Validate.
func (c Cell) Resolve() (config.Config, workload.Benchmark, workload.Scale, error) {
	fail := func(err error) (config.Config, workload.Benchmark, workload.Scale, error) {
		return config.Config{}, nil, 0, err
	}
	scale, err := workload.ParseScale(c.Scale)
	if err != nil {
		return fail(err)
	}
	scheme, err := config.ParseScheme(c.Scheme)
	if err != nil {
		return fail(err)
	}
	org, err := config.ParseOrg(c.Org)
	if err != nil {
		return fail(err)
	}
	bench, err := workload.ByName(strings.ToUpper(strings.TrimSpace(c.Bench)), scale)
	if err != nil {
		return fail(err)
	}
	cfg := ConfigForScale(config.Baseline(), scale).WithScheme(scheme)
	entries := cfg.TLBEntries
	if c.TLB != 0 {
		entries = c.TLB
	}
	cfg = cfg.WithTLB(entries, org)
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}
	return cfg, bench, scale, nil
}

func (s *Suite) names() []string {
	if len(s.Benchmarks) > 0 {
		return s.Benchmarks
	}
	return workload.Names()
}

// sections resolves Only into the selected section set.
func (s *Suite) sections() (map[string]bool, error) {
	ids := s.Only
	if len(ids) == 0 {
		ids = SectionIDs[:len(SectionIDs)-2]
	}
	sel := make(map[string]bool)
	for _, id := range ids {
		id = strings.ToLower(strings.TrimSpace(id))
		if !slices.Contains(SectionIDs, id) {
			return nil, fmt.Errorf("experiments: unknown section %q (want %s)", id, strings.Join(SectionIDs, ", "))
		}
		sel[id] = true
	}
	return sel, nil
}

// passGroup is one kind of pass the report reads: the sections that need
// it, how to enumerate it for a benchmark, and how to assemble its result.
type passGroup struct {
	sections []string
	// label names the group in CellFailure.Section.
	label string
	// once runs the group on the first benchmark only, after every
	// per-benchmark group.
	once     bool
	add      func(p *Plan, name string) error
	assemble func(pr *PlanResult, res *SuiteResult, name string) error
}

// passGroups lists the report's pass groups in plan order. The order fixes
// every job's position in the plan, and so the plan key a -resume journal
// checks: append new groups, never reorder.
var passGroups = []passGroup{
	{[]string{"fig8", "fig9", "table2", "table3"}, "figures 8/9 + tables 2/3", false, (*Plan).AddObserve,
		func(pr *PlanResult, res *SuiteResult, name string) error {
			obs, err := pr.Observed(name)
			if err != nil {
				return err
			}
			res.Observed[name] = obs
			res.Fig8 = append(res.Fig8, Figure8(obs))
			res.Fig9 = append(res.Fig9, Figure9(obs))
			res.Tab2 = append(res.Tab2, Table2(obs))
			res.Tab3 = append(res.Tab3, Table3(obs))
			return nil
		}},
	{[]string{"table4"}, "table 4", false, (*Plan).AddTable4,
		func(pr *PlanResult, res *SuiteResult, name string) error {
			t4, err := pr.Table4(name)
			if err == nil {
				res.Tab4 = append(res.Tab4, t4)
			}
			return err
		}},
	{[]string{"fig10"}, "figure 10", false, (*Plan).AddFigure10,
		func(pr *PlanResult, res *SuiteResult, name string) error {
			f10, err := pr.Figure10(name)
			if err == nil {
				res.Fig10 = append(res.Fig10, f10)
			}
			return err
		}},
	{[]string{"fig11"}, "figure 11", false, (*Plan).AddFigure11,
		func(pr *PlanResult, res *SuiteResult, name string) error {
			f11, err := pr.Figure11(name)
			if err == nil {
				res.Fig11 = append(res.Fig11, f11)
			}
			return err
		}},
	{[]string{"ablation"}, "ablation", false, (*Plan).AddAblation,
		func(pr *PlanResult, res *SuiteResult, name string) error {
			rows, err := pr.Ablation(name)
			if err == nil {
				res.Ablation[name] = rows
			}
			return err
		}},
	{[]string{"dlborg"}, "DLB organisation sweep", false,
		func(p *Plan, name string) error { return p.AddDLBOrg(name, DLBOrgSizes) },
		func(pr *PlanResult, res *SuiteResult, name string) error {
			misses, err := pr.DLBOrg(name)
			if err == nil {
				res.DLBOrg[name] = misses
			}
			return err
		}},
	{[]string{"mgmt"}, "management study", true,
		func(p *Plan, name string) error { return p.AddMgmt(name, MgmtSamplePages) },
		func(pr *PlanResult, res *SuiteResult, name string) error {
			rows, err := pr.Mgmt(name)
			if err == nil {
				res.Mgmt = rows
			}
			return err
		}},
}

// eachCell visits every (pass group, benchmark) cell the selection needs,
// in plan order: benchmark by benchmark through the per-benchmark groups,
// then the once-only groups on the first benchmark.
func (s *Suite) eachCell(sel map[string]bool, f func(g *passGroup, name string) error) error {
	names := s.names()
	visit := func(once bool, names []string) error {
		for _, name := range names {
			for i := range passGroups {
				g := &passGroups[i]
				if g.once != once || !slices.ContainsFunc(g.sections, func(id string) bool { return sel[id] }) {
					continue
				}
				if err := f(g, name); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := visit(false, names); err != nil || len(names) == 0 {
		return err
	}
	return visit(true, names[:1])
}

// SuiteResult holds everything the evaluation produced.
type SuiteResult struct {
	Scale workload.Scale
	// Benchmarks is the suite's benchmark list, in report order.
	Benchmarks []string
	Observed   map[string]*Observed
	Fig8       []Figure8Result
	Fig9       []Figure9Result
	Tab2       []Table2Row
	Tab3       []Table3Row
	Tab4       []Table4Row
	Fig10      []Figure10Result
	Fig11      []Figure11Result
	Mgmt       []MgmtRow
	// Ablation and DLBOrg map each benchmark to its extension sweep.
	Ablation map[string][]AblationRow
	DLBOrg   map[string]map[config.TLBOrg]map[int]uint64
	// Failures lists the cells a KeepGoing run could not compute, in
	// benchmark order. A complete run has none, so complete reports are
	// byte-identical whether or not KeepGoing was set.
	Failures []CellFailure
	// Elapsed and CacheHits describe the run, not the results; neither
	// appears in the rendered report.
	Elapsed   time.Duration
	CacheHits int
	// sel is the set of sections to render.
	sel map[string]bool
}

// Partial reports whether any cell failed.
func (r *SuiteResult) Partial() bool { return len(r.Failures) > 0 }

// Plan enumerates the selected sections' passes as runner jobs.
func (s *Suite) Plan() (*Plan, error) {
	sel, err := s.sections()
	if err != nil {
		return nil, err
	}
	p := NewPlan(ConfigForScale(s.Cfg, s.Scale), s.Scale)
	err = s.eachCell(sel, func(g *passGroup, name string) error { return g.add(p, name) })
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Run executes the selected sections' passes through the runner and
// assembles the results in benchmark order. Without KeepGoing, any failure
// aborts the run and Run returns (nil, err). With KeepGoing, Run always
// returns the assembled partial result; the error is non-nil exactly when
// the result is partial (SuiteResult.Failures lists the missing cells).
func (s *Suite) Run() (*SuiteResult, error) {
	start := time.Now()
	ctx := s.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ctx = WithBudget(ctx, s.Budget)
	plan, err := s.Plan()
	if err != nil {
		return nil, err
	}
	sel, _ := s.sections() // Plan has validated the selection
	plan.ApplyChaos(s.Chaos)
	prog := s.Progress
	if prog == nil {
		prog = runner.NewProgress(s.Log)
	}
	var cache *runner.Cache
	if s.CacheDir != "" {
		cache, err = runner.OpenCacheFS(s.CacheDir, s.FS)
		if err != nil {
			return nil, err
		}
	}
	policy := runner.FailFast
	if s.KeepGoing {
		policy = runner.CollectAll
	}
	pr, runErr := plan.Run(ctx, runner.Options{
		Workers:         s.Jobs,
		Cache:           cache,
		Policy:          policy,
		Progress:        prog,
		Metrics:         s.Metrics,
		MetricsInterval: s.MetricsInterval,
		JobTimeout:      s.JobTimeout,
		Retry:           s.Retry,
		Journal:         s.Journal,
	})
	if pr == nil || (runErr != nil && !s.KeepGoing) {
		return nil, runErr
	}

	res := &SuiteResult{
		Scale:      s.Scale,
		Benchmarks: s.names(),
		Observed:   make(map[string]*Observed),
		Ablation:   make(map[string][]AblationRow),
		DLBOrg:     make(map[string]map[config.TLBOrg]map[int]uint64),
		sel:        sel,
	}
	// A failed cell is recorded, not fatal, when the suite is degrading
	// gracefully; the visitor never fails, so neither does the walk.
	_ = s.eachCell(sel, func(g *passGroup, name string) error {
		if err := g.assemble(pr, res, name); err != nil {
			res.Failures = append(res.Failures, CellFailure{Section: g.label, Benchmark: name, Err: err.Error()})
		}
		return nil
	})
	res.Elapsed = time.Since(start)
	res.CacheHits = pr.Raw().CacheHits
	return res, runErr
}

// RenderMarkdown produces the paper-vs-measured report for the selected
// sections, in report order. The output depends only on the results, never
// on how they were computed: no wall times, worker counts or cache
// statistics appear, so reruns with any `-jobs` value or cache state render
// byte-identical reports.
func (r *SuiteResult) RenderMarkdown() string {
	var b []byte
	w := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format+"\n", args...)...)
	}
	sel := r.sel

	w("# Experiments — paper vs. measured")
	w("")
	w("Workload scale: **%v** (see `internal/workload.Scale`; `paper` is Table 1 of the paper).", r.Scale)
	w("All numbers regenerate with `go run ./cmd/vcoma-report -scale %v`.", r.Scale)
	w("")

	if sel["fig8"] {
		w("## Figure 8 — translation misses per node vs TLB/DLB size")
		w("")
		w("Paper shape: %s", ExpectedShapes["fig8"])
		w("")
		for _, f := range r.Fig8 {
			w("%s", f.Render(true))
		}
	}

	if sel["fig9"] {
		w("## Figure 9 — direct-mapped vs fully-associative")
		w("")
		w("Paper shape: %s", ExpectedShapes["fig9"])
		w("")
		for _, f := range r.Fig9 {
			w("%s", f.Render(true))
		}
	}

	if sel["table2"] {
		w("## Table 2 — miss rates per processor reference (%%)")
		w("")
		w("%s", RenderTable2(r.Tab2, true))
		w("Paper's Table 2 for comparison:")
		w("")
		w("%s", RenderTable2(paperTable2Rows(r.Benchmarks), true))
	}

	if sel["table3"] {
		w("## Table 3 — TLB size equivalent to an 8-entry DLB")
		w("")
		w("%s", RenderTable3(r.Tab3, true))
		w("Paper's Table 3 for comparison:")
		w("")
		w("%s", RenderTable3(paperTable3Rows(r.Benchmarks), true))
	}

	if sel["table4"] {
		w("## Table 4 — translation time / total stall time (%%)")
		w("")
		w("%s", RenderTable4(r.Tab4, true))
		w("Paper's Table 4 for comparison:")
		w("")
		w("%s", renderPaperTable4(r.Benchmarks))
	}

	if sel["fig10"] {
		w("## Figure 10 — execution time breakdown")
		w("")
		w("Paper shape: %s", ExpectedShapes["fig10"])
		w("")
		for _, f := range r.Fig10 {
			w("%s", f.Render(true))
		}
	}

	if sel["fig11"] {
		w("## Figure 11 — global page set pressure")
		w("")
		w("Paper shape: %s", ExpectedShapes["fig11"])
		w("")
		for _, f := range r.Fig11 {
			w("%s", f.Render(true))
		}
	}

	if len(r.Failures) > 0 {
		w("## Failed cells — PARTIAL REPORT")
		w("")
		w("The cells below could not be computed; every other section reflects")
		w("only the jobs that completed. Rerun with `-resume` to fill them in.")
		w("")
		w("| section | benchmark | error |")
		w("|---|---|---|")
		for _, f := range r.Failures {
			w("| %s | %s | %s |", f.Section, f.Benchmark, strings.ReplaceAll(f.Err, "|", "\\|"))
		}
		w("")
	}

	if !sel["tags"] && !sel["mgmt"] && !sel["ablation"] && !sel["dlborg"] {
		return string(b)
	}
	w("## Extensions beyond the paper's tables")
	w("")
	if sel["tags"] {
		w("%s", RenderTagOverhead(true))
	}
	if len(r.Mgmt) > 0 {
		w("%s", RenderMgmt(r.Mgmt, true))
		w("Protection changes and demaps in the TLB schemes interrupt every")
		w("processor (a shootdown); V-COMA updates one home node's page table")
		w("and DLB and notifies only the nodes the directory says hold blocks")
		w("of the page (paper §1 motivation, §4.3 protocol).")
		w("")
	}
	for _, name := range r.Benchmarks {
		if rows, ok := r.Ablation[name]; ok {
			w("%s", RenderAblation(name, rows, true))
		}
	}
	for _, name := range r.Benchmarks {
		if misses, ok := r.DLBOrg[name]; ok {
			w("%s", RenderDLBOrg(name, misses, DLBOrgSizes, true))
		}
	}
	return string(b)
}

func paperTable2Rows(names []string) []Table2Row {
	var rows []Table2Row
	for _, n := range names {
		if data, ok := PaperTable2[n]; ok {
			rows = append(rows, Table2Row{Benchmark: n, Rate: data})
		}
	}
	return rows
}

func paperTable3Rows(names []string) []Table3Row {
	var rows []Table3Row
	for _, n := range names {
		if data, ok := PaperTable3[n]; ok {
			rows = append(rows, Table3Row{Benchmark: n, Equivalent: data})
		}
	}
	return rows
}

func renderPaperTable4(names []string) string {
	headers := []string{"system"}
	var present []string
	for _, n := range names {
		if _, ok := PaperTable4[n]; ok {
			headers = append(headers, n)
			present = append(present, n)
		}
	}
	var out [][]string
	for _, sys := range []string{"L0-TLB/8", "DLB/8", "L0-TLB/16", "DLB/16"} {
		row := []string{sys}
		for _, n := range present {
			row = append(row, fmt.Sprintf("%.2f", PaperTable4[n][sys]))
		}
		out = append(out, row)
	}
	return report.MarkdownTable(headers, out)
}
