// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): the address-translation miss curves of Figure 8, the
// direct-mapped comparison of Figure 9, the miss-rate Table 2, the
// equivalent-TLB-size Table 3, the stall-ratio Table 4, the execution-time
// breakdown of Figure 10 (including the RAYTRACE "V2" relayout), and the
// global-set pressure profile of Figure 11.
//
// Two harness styles are used, mirroring the paper's methodology:
//
//   - Observed passes: one simulation per (benchmark, scheme) with an
//     observer bank of every TLB/DLB size and organization attached to the
//     scheme's translation tap points. Miss counting does not feed back
//     into timing, so one pass yields a whole curve (Figs 8/9, Tables 2/3).
//     L0-TLB needs no simulation at all: its banks see each processor's
//     references in program order, so its pass is computed from the
//     reference streams alone.
//   - Timed passes: one simulation per exact configuration with the
//     translation penalty in the loop (Table 4, Figure 10).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"vcoma/internal/config"
	"vcoma/internal/machine"
	"vcoma/internal/obs"
	"vcoma/internal/sim"
	"vcoma/internal/tlb"
	"vcoma/internal/trace"
	"vcoma/internal/workload"
)

// ObserveTLBEntries is the timed-TLB size used during observer passes:
// large, so the in-loop translation penalty is negligible and the observers
// see an interleaving close to translation-free execution.
const ObserveTLBEntries = 512

// Observed holds one benchmark's five observer passes.
type Observed struct {
	Benchmark string
	// RefsPerNode is the average number of processor references per node
	// (identical across schemes: the reference streams are deterministic).
	RefsPerNode float64
	// Banks maps each scheme to its merged per-node observer statistics.
	Banks map[config.Scheme]*tlb.MergedBank
	// L2NoWb is the L2-TLB stream without SLC writebacks.
	L2NoWb *tlb.MergedBank
}

// budgetCtxKey carries a sim.Budget through a runner context into every
// simulation pass of a plan.
type budgetCtxKey struct{}

// WithBudget arms the watchdog of every simulation pass run under ctx:
// jobs read the budget back out with BudgetFrom and install it on their
// engine. A zero budget is equivalent to not calling WithBudget.
func WithBudget(ctx context.Context, b sim.Budget) context.Context {
	if b.Zero() {
		return ctx
	}
	return context.WithValue(ctx, budgetCtxKey{}, b)
}

// BudgetFrom returns the watchdog budget installed by WithBudget, or the
// zero (disarmed) budget.
func BudgetFrom(ctx context.Context) sim.Budget {
	b, _ := ctx.Value(budgetCtxKey{}).(sim.Budget)
	return b
}

// Pass is the single pass implementation behind every study and the root
// package's Run: it builds a machine for cfg, attaches the observer banks
// for specs (if any) and the sink o (nil = plain pass), builds and preloads
// bench, and simulates it under ctx — cancellation and deadline abort the
// pass, deadlines with a watchdog diagnostic — and any WithBudget budget.
// It also returns the built program so callers can report the workload's
// layout. Supervision and instrumentation are purely observational: a
// supervised, instrumented pass that does not trip computes the same result
// as a plain one, which is what lets metrics-enabled and watchdog-guarded
// runs share cache entries.
func Pass(ctx context.Context, cfg config.Config, bench workload.Benchmark, specs []tlb.Spec, o *obs.Observer) (*machine.Machine, *workload.Program, sim.Result, error) {
	// Request-scoped tracing: when a service request's span rides the
	// context, the pass's phases nest under it (all no-ops otherwise).
	parent := obs.SpanFrom(ctx)

	sp := parent.StartChild("build")
	sp.SetAttr("bench", bench.Name())
	m, err := machine.New(cfg)
	if err != nil {
		sp.End()
		return nil, nil, sim.Result{}, err
	}
	prog, err := bench.Build(cfg.Geometry, cfg.Geometry.Nodes())
	sp.End()
	if err != nil {
		return nil, nil, sim.Result{}, err
	}
	if specs != nil {
		if err := m.AttachObserverBanks(specs); err != nil {
			return nil, nil, sim.Result{}, err
		}
	}
	m.AttachObserver(o)
	m.Preload(prog.Layout())
	eng, err := sim.New(m, prog.Streams())
	if err != nil {
		return nil, nil, sim.Result{}, err
	}
	eng.SetBudget(BudgetFrom(ctx))
	eng.SetContext(ctx)
	eng.SetObserver(o)
	simSp := parent.StartChild("simulate")
	simSp.SetAttr("scheme", cfg.Scheme.String())
	eng.SetSpan(simSp)
	res, err := eng.Run()
	simSp.End()
	if err != nil {
		return nil, nil, sim.Result{}, fmt.Errorf("experiments: %s/%v: %w", bench.Name(), cfg.Scheme, err)
	}
	return m, prog, res, nil
}

// SchemePass is the serializable result of one observer pass: one
// (benchmark, scheme) simulation with the paper's observer grid attached.
// It is the unit the experiment runner schedules and caches; five passes
// assemble into an Observed.
type SchemePass struct {
	// RefsPerNode is the average number of processor references per node.
	RefsPerNode float64 `json:"refsPerNode"`
	// Bank is the merged per-node observer statistics of the pass.
	Bank *tlb.MergedBank `json:"bank"`
	// NoWb is the L2-TLB stream without SLC writebacks (L2-TLB pass only).
	NoWb *tlb.MergedBank `json:"noWb,omitempty"`
}

// ObservePassConfig returns the exact machine configuration an observer
// pass runs: the scheme under study with a large timed TLB so the in-loop
// translation penalty is negligible.
func ObservePassConfig(cfg config.Config, sch config.Scheme) config.Config {
	return cfg.WithScheme(sch).WithTLB(ObserveTLBEntries, config.FullyAssoc)
}

// ObserveScheme runs one benchmark under one scheme with the full paper
// observer grid attached, under ctx (cancellation, deadline, watchdog
// budget). L0-TLB is computed from the reference streams alone (observeL0);
// every other scheme simulates the machine.
func ObserveScheme(ctx context.Context, cfg config.Config, bench workload.Benchmark, sch config.Scheme) (SchemePass, error) {
	if sch == config.L0TLB {
		return observeL0(ctx, ObservePassConfig(cfg, sch), bench)
	}
	return observeMachine(ctx, cfg, bench, sch)
}

// observeMachine is the observer pass on a simulated machine: Pass with
// the paper grid attached at the scheme's tap points.
func observeMachine(ctx context.Context, cfg config.Config, bench workload.Benchmark, sch config.Scheme) (SchemePass, error) {
	m, _, _, err := Pass(ctx, ObservePassConfig(cfg, sch), bench, tlb.PaperSpecs(), nil)
	if err != nil {
		return SchemePass{}, err
	}
	pass := SchemePass{
		RefsPerNode: float64(m.TotalStats().Refs) / float64(cfg.Geometry.Nodes()),
		Bank:        tlb.Merge(m.ObserverBanks()),
	}
	if sch == config.L2TLB {
		pass.NoWb = tlb.Merge(m.NoWritebackBanks())
	}
	return pass, nil
}

// observeL0 computes the L0-TLB observer pass without a machine. At L0
// every processor reference is translated before it reaches the caches, so
// node n's bank sees exactly processor n's reads and writes in program
// order, and each buffer draws its replacements from its own PRNG: timing
// cannot change the result. Each stream is therefore fed straight into a
// bank seeded as the machine seeds node n's (machine.ObserverBankSeed), and
// the result equals observeMachine's for L0-TLB.
//
// The pass honours ctx and the WithBudget budget the way the engine does:
// it counts every event (compute and synchronization included), polls ctx
// every 4096 events, and trips a *sim.WatchdogError once MaxEvents is
// exceeded or the deadline passes. MaxCycles and StallEvents do not apply,
// since no clock is simulated; nor is a deadlock detected, since locks and
// barriers are not arbitrated.
func observeL0(ctx context.Context, cfg config.Config, bench workload.Benchmark) (SchemePass, error) {
	if err := cfg.Validate(); err != nil {
		return SchemePass{}, err
	}
	prog, err := bench.Build(cfg.Geometry, cfg.Geometry.Nodes())
	if err != nil {
		return SchemePass{}, err
	}
	streams := prog.Streams()
	defer func() {
		for _, s := range streams {
			trace.CloseStream(s)
		}
	}()
	pass, err := feedL0(ctx, cfg, streams)
	if err != nil {
		return SchemePass{}, fmt.Errorf("experiments: %s/%v: %w", bench.Name(), cfg.Scheme, err)
	}
	return pass, nil
}

// feedL0 drains each stream in turn into its node's bank.
func feedL0(ctx context.Context, cfg config.Config, streams []trace.Stream) (SchemePass, error) {
	g := cfg.Geometry
	budget := BudgetFrom(ctx)
	banks := make([]*tlb.Bank, len(streams))
	var events, refs uint64
	// trip mirrors the engine's watchdog abort; a stream-only pass has no
	// clocks, queues or memory system to dump.
	trip := func(reason string) error {
		return &sim.WatchdogError{Dump: &sim.Dump{Reason: reason, Budget: budget, Events: events}}
	}
	for n, s := range streams {
		bank, err := tlb.NewBank(tlb.PaperSpecs(), 0, machine.ObserverBankSeed(cfg.Seed, n))
		if err != nil {
			return SchemePass{}, err
		}
		banks[n] = bank
		next := batches(s)
		for {
			batch, ok := next()
			if !ok {
				break
			}
			for _, ev := range batch {
				events++
				if k := ev.Kind(); k == trace.Read || k == trace.Write {
					refs++
					bank.Access(g.Page(ev.Addr()))
				}
				if budget.MaxEvents > 0 && events > budget.MaxEvents {
					return SchemePass{}, trip(fmt.Sprintf("event budget exceeded (%d > %d retired events)", events, budget.MaxEvents))
				}
				if events%4096 == 0 { // the engine's context-poll period
					if err := ctx.Err(); errors.Is(err, context.DeadlineExceeded) {
						return SchemePass{}, trip("context deadline exceeded")
					} else if err != nil {
						return SchemePass{}, err
					}
				}
			}
		}
		if f, ok := s.(trace.Failer); ok && f.Err() != nil {
			return SchemePass{}, fmt.Errorf("sim: proc %d: %w", n, f.Err())
		}
	}
	return SchemePass{
		RefsPerNode: float64(refs) / float64(g.Nodes()),
		Bank:        tlb.Merge(banks),
	}, nil
}

// batches returns a function handing out s's events a batch at a time,
// through trace.BatchStream when s implements it.
func batches(s trace.Stream) func() ([]trace.Event, bool) {
	if bs, ok := s.(trace.BatchStream); ok {
		return bs.NextBatch
	}
	var one [1]trace.Event
	return func() ([]trace.Event, bool) {
		ev, ok := s.Next()
		one[0] = ev
		return one[:], ok
	}
}

// AssembleObserved combines the five scheme passes of one benchmark. The
// reference streams are deterministic and scheme-independent, so
// RefsPerNode is taken from the first scheme in paper order.
func AssembleObserved(benchmark string, passes map[config.Scheme]SchemePass) *Observed {
	obs := &Observed{
		Benchmark: benchmark,
		Banks:     make(map[config.Scheme]*tlb.MergedBank),
	}
	for _, sch := range config.Schemes() {
		p, ok := passes[sch]
		if !ok {
			continue
		}
		obs.Banks[sch] = p.Bank
		if sch == config.L2TLB {
			obs.L2NoWb = p.NoWb
		}
		if obs.RefsPerNode == 0 {
			obs.RefsPerNode = p.RefsPerNode
		}
	}
	return obs
}

// --- Figure 8: translation misses per node vs TLB/DLB size ---

// Series is one curve of Figure 8 or 9: a label and misses-per-node by
// buffer size.
type Series struct {
	Label  string
	Points map[int]float64
}

// Figure8 extracts the fully-associative miss curves: L0..L3, V-COMA, and
// L2-TLB/no_wback.
type Figure8Result struct {
	Benchmark string
	Sizes     []int
	Series    []Series
}

// Figure8 builds the Figure 8 curves from an observed benchmark.
func Figure8(obs *Observed) Figure8Result {
	r := Figure8Result{Benchmark: obs.Benchmark, Sizes: tlb.PaperSizes}
	for _, sch := range config.Schemes() {
		r.Series = append(r.Series, curve(sch.String(), obs.Banks[sch], config.FullyAssoc))
	}
	if obs.L2NoWb != nil {
		s := curve("L2-TLB/no_wback", obs.L2NoWb, config.FullyAssoc)
		r.Series = append(r.Series, s)
	}
	return r
}

func curve(label string, bank *tlb.MergedBank, org config.TLBOrg) Series {
	s := Series{Label: label, Points: make(map[int]float64)}
	for _, n := range tlb.PaperSizes {
		s.Points[n] = bank.MissesPerNode(tlb.Spec{Entries: n, Org: org})
	}
	return s
}

// --- Figure 9: direct-mapped vs fully-associative ---

// Figure9Result holds, per scheme, the FA and DM curves.
type Figure9Result struct {
	Benchmark string
	Sizes     []int
	Series    []Series // pairs: "<scheme>" (FA) and "<scheme>/DM"
}

// Figure9 builds the Figure 9 comparison from an observed benchmark.
func Figure9(obs *Observed) Figure9Result {
	r := Figure9Result{Benchmark: obs.Benchmark, Sizes: tlb.PaperSizes}
	for _, sch := range config.Schemes() {
		r.Series = append(r.Series,
			curve(sch.String(), obs.Banks[sch], config.FullyAssoc),
			curve(sch.String()+"/DM", obs.Banks[sch], config.DirectMapped))
	}
	return r
}

// --- Table 2: miss rates per processor reference (%) ---

// Table2Sizes are the buffer sizes reported in the paper's Table 2.
var Table2Sizes = []int{8, 32, 128}

// Table2Row is one benchmark's miss rates: [size][scheme] in percent.
type Table2Row struct {
	Benchmark string
	// Rate[size][scheme] = misses / processor references * 100.
	Rate map[int]map[config.Scheme]float64
}

// Table2 computes miss rates per processor reference from an observed
// benchmark.
func Table2(obs *Observed) Table2Row {
	row := Table2Row{Benchmark: obs.Benchmark, Rate: make(map[int]map[config.Scheme]float64)}
	for _, size := range Table2Sizes {
		row.Rate[size] = make(map[config.Scheme]float64)
		for _, sch := range config.Schemes() {
			mpn := obs.Banks[sch].MissesPerNode(tlb.Spec{Entries: size, Org: config.FullyAssoc})
			row.Rate[size][sch] = 100 * mpn / obs.RefsPerNode
		}
	}
	return row
}

// --- Table 3: TLB size equivalent to an 8-entry DLB ---

// Table3Row is one benchmark's equivalent TLB sizes per scheme. A value of
// -1 means "beyond 512" (no measured size reaches the DLB's miss count).
type Table3Row struct {
	Benchmark  string
	Equivalent map[config.Scheme]float64
}

// Table3 finds, for each TLB scheme, the (log-interpolated) TLB size whose
// per-node miss count equals the 8-entry DLB's in V-COMA.
func Table3(obs *Observed) Table3Row {
	target := obs.Banks[config.VCOMA].MissesPerNode(tlb.Spec{Entries: 8, Org: config.FullyAssoc})
	row := Table3Row{Benchmark: obs.Benchmark, Equivalent: make(map[config.Scheme]float64)}
	for _, sch := range []config.Scheme{config.L0TLB, config.L1TLB, config.L2TLB, config.L3TLB} {
		row.Equivalent[sch] = equivalentSize(obs.Banks[sch], target)
	}
	return row
}

// equivalentSize log-linearly interpolates the buffer size at which the
// scheme's miss curve crosses target.
func equivalentSize(bank *tlb.MergedBank, target float64) float64 {
	sizes := append([]int(nil), tlb.PaperSizes...)
	sort.Ints(sizes)
	prevSize, prevMiss := 0, 0.0
	for i, n := range sizes {
		miss := bank.MissesPerNode(tlb.Spec{Entries: n, Org: config.FullyAssoc})
		if miss <= target {
			if i == 0 {
				return float64(n)
			}
			// Interpolate between (prevSize, prevMiss) and (n, miss).
			if prevMiss <= miss {
				return float64(n)
			}
			frac := (prevMiss - target) / (prevMiss - miss)
			return float64(prevSize) + frac*float64(n-prevSize)
		}
		prevSize, prevMiss = n, miss
	}
	return -1 // beyond the largest measured size
}
