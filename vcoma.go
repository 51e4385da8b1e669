// Package vcoma is a from-scratch reproduction of "Options for Dynamic
// Address Translation in COMAs" (Qiu & Dubois, USC CENG 98-08, 1998): a
// cycle-level simulator of a 32-node Cache-Only Memory Architecture that
// compares five placements of the dynamic address-translation mechanism —
// L0-TLB, L1-TLB, L2-TLB, L3-TLB and the paper's proposed V-COMA, in which
// the TLB disappears and translation happens at the home node inside the
// cache coherence protocol.
//
// The root package is the public API: build a machine (Baseline, NewMachine),
// pick a workload (Benchmarks, BenchmarkByName), and run it with the single
// entry point Run(ctx, cfg, b, RunOptions{}); RunOptions adds an observer,
// a watchdog budget or an observer-bank grid. The experiment harness that
// regenerates every table and figure of the paper lives behind the cmd/
// tools.
package vcoma

import (
	"context"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/experiments"
	"vcoma/internal/machine"
	"vcoma/internal/obs"
	"vcoma/internal/sim"
	"vcoma/internal/tlb"
	"vcoma/internal/vm"
	"vcoma/internal/workload"
)

// Re-exported configuration vocabulary. These aliases are the supported
// public names for the simulator's configuration types.
type (
	// Config is the full machine configuration.
	Config = config.Config
	// Scheme selects one of the paper's five translation designs.
	Scheme = config.Scheme
	// TLBOrg is a translation buffer organization.
	TLBOrg = config.TLBOrg
	// Geometry is the machine's address geometry.
	Geometry = addr.Geometry
	// Node identifies a processing node.
	Node = addr.Node
	// Machine is the simulated memory system.
	Machine = machine.Machine
	// Benchmark is a runnable workload.
	Benchmark = workload.Benchmark
	// Program is a built workload.
	Program = workload.Program
	// Scale selects workload parameter sets.
	Scale = workload.Scale
)

// The five translation schemes (paper §3).
const (
	L0TLB = config.L0TLB
	L1TLB = config.L1TLB
	L2TLB = config.L2TLB
	L3TLB = config.L3TLB
	VCOMA = config.VCOMA
)

// TLB/DLB organizations (paper §5.1, Figure 9).
const (
	FullyAssoc   = config.FullyAssoc
	DirectMapped = config.DirectMapped
)

// Workload scales.
const (
	ScaleTest  = workload.ScaleTest
	ScaleSmall = workload.ScaleSmall
	ScalePaper = workload.ScalePaper
)

// TLBSpec names one (size, organization) pair for an observer bank.
type TLBSpec = tlb.Spec

// PaperTLBSizes are the buffer sizes swept in Figures 8 and 9.
func PaperTLBSizes() []int { return tlb.PaperSizes }

// PaperTLBSpecs is the full observer grid of the paper: every size in
// PaperTLBSizes, fully associative and direct mapped.
func PaperTLBSpecs() []TLBSpec { return tlb.PaperSpecs() }

// MergeBanks aggregates the per-node observer banks of a run with
// RunOptions.Specs into machine totals.
func MergeBanks(banks []*tlb.Bank) *tlb.MergedBank { return tlb.Merge(banks) }

// Workload parameter types, re-exported for callers that build custom
// benchmark instances (e.g. the RAYTRACE layout variants).
type (
	// RadixParams configures the RADIX sort.
	RadixParams = workload.RadixParams
	// FFTParams configures the FFT.
	FFTParams = workload.FFTParams
	// FMMParams configures the fast multipole method.
	FMMParams = workload.FMMParams
	// OceanParams configures the ocean simulation.
	OceanParams = workload.OceanParams
	// RaytraceParams configures the ray tracer (including the ray-stack
	// alignment behind the paper's Figure 10 "V2" experiment).
	RaytraceParams = workload.RaytraceParams
	// BarnesParams configures the Barnes-Hut N-body simulation.
	BarnesParams = workload.BarnesParams
)

// Custom-parameter benchmark constructors.
func NewRadix(p RadixParams) Benchmark       { return workload.NewRadix(p) }
func NewFFT(p FFTParams) Benchmark           { return workload.NewFFT(p) }
func NewFMM(p FMMParams) Benchmark           { return workload.NewFMM(p) }
func NewOcean(p OceanParams) Benchmark       { return workload.NewOcean(p) }
func NewRaytrace(p RaytraceParams) Benchmark { return workload.NewRaytrace(p) }
func NewBarnes(p BarnesParams) Benchmark     { return workload.NewBarnes(p) }

// Baseline returns the paper's §5.1 machine configuration.
func Baseline() Config { return config.Baseline() }

// SmallConfig returns a scaled-down machine for experimentation and tests.
func SmallConfig() Config { return config.SmallTest() }

// Schemes lists the five schemes in paper order.
func Schemes() []Scheme { return config.Schemes() }

// NewMachine builds a machine from a configuration.
func NewMachine(cfg Config) (*Machine, error) { return machine.New(cfg) }

// Benchmarks returns the paper's six SPLASH-2 workloads at the given scale.
func Benchmarks(s Scale) []Benchmark { return workload.Registry(s) }

// BenchmarkByName returns one of RADIX, FFT, FMM, OCEAN, RAYTRACE, BARNES.
func BenchmarkByName(name string, s Scale) (Benchmark, error) {
	return workload.ByName(name, s)
}

// BenchmarkNames lists the workload names in Table 1 order.
func BenchmarkNames() []string { return workload.Names() }

// RunResult is a completed simulation.
type RunResult struct {
	// Machine is the machine after the run, with all counters populated.
	Machine *Machine
	// Sim is the engine's per-processor accounting.
	Sim sim.Result
	// Program is the workload that ran.
	Program *Program
}

// ExecTime returns the parallel execution time in processor cycles.
func (r *RunResult) ExecTime() uint64 { return r.Sim.ExecTime }

// SharedMB returns the workload's shared-data footprint in megabytes
// (the paper's Table 1 column).
func (r *RunResult) SharedMB() float64 {
	return float64(r.Program.Layout().TotalBytes()) / (1 << 20)
}

// Budget bounds a supervised run: simulated-cycle, retired-event,
// forward-progress (livelock) and wall-clock limits. The zero value is
// unbounded.
type Budget = sim.Budget

// WatchdogError is the structured abort a supervised run raises when its
// budget trips; its Dump field is the full diagnostic (blocked processors,
// lock and barrier queues, per-node memory-system state).
type WatchdogError = sim.WatchdogError

// Observer is the simulator-wide instrumentation sink (metrics registry,
// epoch sampler, trace-event buffer). Build one with NewObserver.
type Observer = obs.Observer

// ObserverOptions configures an Observer.
type ObserverOptions = obs.Options

// NewObserver builds an instrumentation sink for RunOptions.Observer.
func NewObserver(opt ObserverOptions) *Observer { return obs.New(opt) }

// RunOptions collects the optional parts of a run. The zero value is a
// plain run: no observer, no watchdog, no observer banks.
type RunOptions struct {
	// Observer attaches an observability sink through every layer:
	// per-node and per-processor metrics sampled each epoch, latency
	// histograms, and Chrome-trace events. Nil runs uninstrumented.
	Observer *Observer
	// Budget arms the watchdog: the run aborts with a *WatchdogError
	// diagnostic when any limit is exceeded, instead of spinning on a
	// diverging or livelocked workload. The zero value is unbounded.
	Budget Budget
	// Specs attaches a translation-observer bank grid to the scheme's tap
	// points, so one pass measures every (size, organization) listed. Used
	// by the Figure 8/9 and Table 2/3 experiments; read the banks back
	// with MergeBanks(res.Machine.ObserverBanks()).
	Specs []TLBSpec
}

// Run builds a machine for cfg, builds and preloads b, and simulates it to
// completion. ctx bounds the run: a deadline aborts it with a
// *WatchdogError diagnostic, cancellation with ctx's error. Observers and
// budgets are purely observational: a run that does not trip computes the
// same result as a plain one.
func Run(ctx context.Context, cfg Config, b Benchmark, opt RunOptions) (*RunResult, error) {
	m, prog, res, err := experiments.Pass(experiments.WithBudget(ctx, opt.Budget), cfg, b, opt.Specs, opt.Observer)
	if err != nil {
		return nil, err
	}
	return &RunResult{Machine: m, Sim: res, Program: prog}, nil
}

// PressureProfile returns the Figure 11 global-page-set pressure profile of
// a finished run.
func (r *RunResult) PressureProfile() []float64 { return r.Machine.PressureProfile() }

// Layout returns the workload's shared-memory layout.
func (r *RunResult) Layout() *vm.Layout { return r.Program.Layout() }
