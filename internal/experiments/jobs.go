package experiments

import (
	"context"
	"fmt"

	"vcoma/internal/config"
	"vcoma/internal/runner"
	"vcoma/internal/workload"
)

// resultsVersion salts every job key. Bump it whenever a change to the
// simulator or to a result type invalidates previously cached results —
// old entries then simply miss and everything recomputes.
const resultsVersion = "results-v1"

// Plan enumerates experiment passes as runner jobs and reassembles their
// results. Every pass is keyed by a content hash of (results version, job
// kind, exact machine configuration, benchmark, scale, and any
// pass-specific parameters), so re-running a sweep after editing one
// scheme's configuration only re-simulates the affected cells, and results
// are identical no matter which worker — or which earlier cached run —
// produced them.
type Plan struct {
	cfg   config.Config
	scale workload.Scale
	jobs  []runner.Job
	// fig10Labels remembers each benchmark's variant labels in rendering
	// order so assembly can rebuild the figure without re-deriving them.
	fig10Labels map[string][]string
	// dlbSizes remembers each benchmark's sweep sizes.
	dlbSizes map[string][]int
}

// NewPlan starts an empty plan for a scale-adapted configuration.
func NewPlan(cfg config.Config, scale workload.Scale) *Plan {
	return &Plan{
		cfg:         cfg,
		scale:       scale,
		fig10Labels: make(map[string][]string),
		dlbSizes:    make(map[string][]int),
	}
}

// Jobs returns the enumerated jobs.
func (p *Plan) Jobs() []runner.Job { return p.jobs }

// Key content-hashes the plan's job list for journal verification: a
// resumed run must re-enumerate the exact plan it is resuming.
func (p *Plan) Key() runner.Key { return runner.PlanKey(p.jobs) }

// ApplyChaos wraps every planned job with c's fault injections; nil is a
// no-op. Job names and keys are untouched, so cache and journal identity
// survive the wrapping. Testing and the -chaos flag only.
func (p *Plan) ApplyChaos(c *runner.Chaos) {
	if c != nil {
		p.jobs = c.Wrap(p.jobs)
	}
}

// key hashes a job's full input identity.
func (p *Plan) key(kind string, cfg config.Config, bench string, extra ...any) runner.Key {
	parts := []any{resultsVersion, kind, cfg, bench, p.scale.String()}
	return runner.KeyOf(append(parts, extra...)...)
}

// bench resolves a benchmark name at the plan's scale.
func (p *Plan) bench(name string) (workload.Benchmark, error) {
	return workload.ByName(name, p.scale)
}

// AddObserve enumerates the five observer passes of one benchmark
// (Figures 8/9, Tables 2/3).
func (p *Plan) AddObserve(name string) error {
	bench, err := p.bench(name)
	if err != nil {
		return err
	}
	for _, sch := range config.Schemes() {
		sch := sch
		p.jobs = append(p.jobs, runner.New(
			fmt.Sprintf("observe/%s/%v", name, sch),
			p.key("observe", ObservePassConfig(p.cfg, sch), name),
			func(ctx context.Context) (SchemePass, error) {
				return ObserveScheme(ctx, p.cfg, bench, sch)
			}))
	}
	return nil
}

// AddTable4 enumerates the four timed cells of one benchmark's Table 4 row.
func (p *Plan) AddTable4(name string) error {
	bench, err := p.bench(name)
	if err != nil {
		return err
	}
	for _, c := range table4Cells() {
		cellCfg := p.cfg.WithScheme(c.Scheme).WithTLB(c.Size, config.FullyAssoc)
		p.jobs = append(p.jobs, runner.New(
			fmt.Sprintf("table4/%s/%s", name, c.key()),
			p.key("timed", cellCfg, name),
			func(ctx context.Context) (Breakdown, error) {
				// The label is stamped at assembly so cells can share
				// cache entries with identically configured passes.
				return Timed(ctx, cellCfg, bench, "")
			}))
	}
	return nil
}

// AddFigure10 enumerates one benchmark's Figure 10 variants (4, plus the
// RAYTRACE V2 relayout).
func (p *Plan) AddFigure10(name string) error {
	variants, err := Figure10Variants(p.cfg, name, p.scale)
	if err != nil {
		return err
	}
	var labels []string
	for _, v := range variants {
		v := v
		labels = append(labels, v.Label)
		// The V2 variant runs a rebuilt benchmark; its label is part of
		// the key because the configuration alone cannot distinguish it.
		var extra []any
		if v.Bench.Name() != name || v.Label == "DLB/8/V2" {
			extra = append(extra, v.Label)
		}
		p.jobs = append(p.jobs, runner.New(
			fmt.Sprintf("fig10/%s/%s", name, v.Label),
			p.key("timed", v.Cfg, name, extra...),
			func(ctx context.Context) (Breakdown, error) {
				return Timed(ctx, v.Cfg, v.Bench, "")
			}))
	}
	p.fig10Labels[name] = labels
	return nil
}

// AddFigure11 adds one benchmark's pressure-profile job (layout only, no
// simulation).
func (p *Plan) AddFigure11(name string) error {
	bench, err := p.bench(name)
	if err != nil {
		return err
	}
	p.jobs = append(p.jobs, runner.New(
		fmt.Sprintf("fig11/%s", name),
		p.key("fig11", p.cfg, name),
		func(context.Context) (Figure11Result, error) {
			return Figure11(p.cfg, bench)
		}))
	return nil
}

// AddMgmt enumerates the five per-scheme management-study passes of one
// benchmark.
func (p *Plan) AddMgmt(name string, samplePages int) error {
	bench, err := p.bench(name)
	if err != nil {
		return err
	}
	for _, sch := range config.Schemes() {
		sch := sch
		p.jobs = append(p.jobs, runner.New(
			fmt.Sprintf("mgmt/%s/%v", name, sch),
			p.key("mgmt", p.cfg.WithScheme(sch).WithTLB(64, config.FullyAssoc), name, samplePages),
			func(ctx context.Context) (MgmtRow, error) {
				return MgmtStudyScheme(ctx, p.cfg, bench, sch, samplePages)
			}))
	}
	return nil
}

// AddAblation enumerates one benchmark's ablation variants.
func (p *Plan) AddAblation(name string) error {
	bench, err := p.bench(name)
	if err != nil {
		return err
	}
	for _, v := range AblationVariants(p.cfg) {
		v := v
		p.jobs = append(p.jobs, runner.New(
			fmt.Sprintf("ablation/%s/%s", name, v.Label),
			p.key("ablation", v.Cfg, name, v.Label),
			func(ctx context.Context) (AblationRow, error) {
				return AblationRun(ctx, v, bench)
			}))
	}
	return nil
}

// AddDLBOrg enumerates one benchmark's (organization × size) sweep cells.
func (p *Plan) AddDLBOrg(name string, sizes []int) error {
	bench, err := p.bench(name)
	if err != nil {
		return err
	}
	for _, org := range DLBOrgs {
		for _, size := range sizes {
			org, size := org, size
			p.jobs = append(p.jobs, runner.New(
				fmt.Sprintf("dlborg/%s/%v/%d", name, org, size),
				p.key("dlborg", p.cfg.WithScheme(config.VCOMA).WithTLB(size, org), name),
				func(ctx context.Context) (uint64, error) {
					return DLBOrgCell(ctx, p.cfg, bench, size, org)
				}))
		}
	}
	p.dlbSizes[name] = append([]int(nil), sizes...)
	return nil
}

// Run executes the plan's jobs through the runner. Under CollectAll the
// result is returned alongside the joined error so callers can assemble
// whatever completed.
func (p *Plan) Run(ctx context.Context, opt runner.Options) (*PlanResult, error) {
	rr, err := runner.Run(ctx, p.jobs, opt)
	if rr == nil {
		return nil, err
	}
	return &PlanResult{plan: p, run: rr}, err
}

// PlanResult reassembles typed experiment results from a finished run.
// Every accessor is deterministic: it orders sub-results by the paper's
// fixed enumeration, never by completion order.
type PlanResult struct {
	plan *Plan
	run  *runner.RunResult
}

// Raw exposes the underlying runner result (cache hits, per-job walls).
func (r *PlanResult) Raw() *runner.RunResult { return r.run }

// Observed assembles one benchmark's five scheme passes.
func (r *PlanResult) Observed(name string) (*Observed, error) {
	passes := make(map[config.Scheme]SchemePass)
	for _, sch := range config.Schemes() {
		pass, err := runner.ValueOf[SchemePass](r.run, fmt.Sprintf("observe/%s/%v", name, sch))
		if err != nil {
			return nil, err
		}
		passes[sch] = pass
	}
	return AssembleObserved(name, passes), nil
}

// Table4 assembles one benchmark's stall-ratio row.
func (r *PlanResult) Table4(name string) (Table4Row, error) {
	cells := make(map[string]Breakdown)
	for _, c := range table4Cells() {
		b, err := runner.ValueOf[Breakdown](r.run, fmt.Sprintf("table4/%s/%s", name, c.key()))
		if err != nil {
			return Table4Row{}, err
		}
		cells[c.key()] = b
	}
	return table4FromBreakdowns(name, cells), nil
}

// Figure10 assembles one benchmark's execution-time breakdowns in
// rendering order, stamping the variant labels.
func (r *PlanResult) Figure10(name string) (Figure10Result, error) {
	labels, ok := r.plan.fig10Labels[name]
	if !ok {
		return Figure10Result{}, fmt.Errorf("experiments: no Figure 10 jobs planned for %s", name)
	}
	res := Figure10Result{Benchmark: name}
	for _, label := range labels {
		b, err := runner.ValueOf[Breakdown](r.run, fmt.Sprintf("fig10/%s/%s", name, label))
		if err != nil {
			return Figure10Result{}, err
		}
		b.Label = label
		res.Breakdowns = append(res.Breakdowns, b)
	}
	return res, nil
}

// Figure11 returns one benchmark's pressure profile.
func (r *PlanResult) Figure11(name string) (Figure11Result, error) {
	return runner.ValueOf[Figure11Result](r.run, fmt.Sprintf("fig11/%s", name))
}

// Mgmt assembles the management study's rows in paper scheme order.
func (r *PlanResult) Mgmt(name string) ([]MgmtRow, error) {
	var rows []MgmtRow
	for _, sch := range config.Schemes() {
		row, err := runner.ValueOf[MgmtRow](r.run, fmt.Sprintf("mgmt/%s/%v", name, sch))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Ablation assembles one benchmark's ablation rows, baseline first, and
// normalizes against it.
func (r *PlanResult) Ablation(name string) ([]AblationRow, error) {
	var rows []AblationRow
	for _, v := range AblationVariants(r.plan.cfg) {
		row, err := runner.ValueOf[AblationRow](r.run, fmt.Sprintf("ablation/%s/%s", name, v.Label))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return NormalizeAblation(rows), nil
}

// DLBOrg assembles one benchmark's associativity sweep.
func (r *PlanResult) DLBOrg(name string) (map[config.TLBOrg]map[int]uint64, error) {
	sizes, ok := r.plan.dlbSizes[name]
	if !ok {
		return nil, fmt.Errorf("experiments: no DLB sweep planned for %s", name)
	}
	out := make(map[config.TLBOrg]map[int]uint64)
	for _, org := range DLBOrgs {
		out[org] = make(map[int]uint64)
		for _, size := range sizes {
			misses, err := runner.ValueOf[uint64](r.run, fmt.Sprintf("dlborg/%s/%v/%d", name, org, size))
			if err != nil {
				return nil, err
			}
			out[org][size] = misses
		}
	}
	return out, nil
}
