package check

import (
	"fmt"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/machine"
	"vcoma/internal/sim"
	"vcoma/internal/trace"
	"vcoma/internal/workload"
)

// Options configures a checked run.
type Options struct {
	// ScanEvery is the full-invariant-scan period in references
	// (0 = scan only after preload and at the end).
	ScanEvery uint64
	// MaxViolations caps recorded failures (<=0 means 16).
	MaxViolations int
	// CollectValues enables the per-reference value digest (needed by the
	// differential oracle for race-free workloads).
	CollectValues bool
	// NoInvariants disables invariant validation and SC assertions,
	// keeping only shadow-memory bookkeeping and digests. The differential
	// oracle sets this to prove it catches bugs without the checker's help.
	NoInvariants bool
	// Mutate, if non-nil, runs on the freshly built machine before the
	// checker attaches — the hook negative tests use to inject protocol
	// bugs.
	Mutate func(*machine.Machine)
}

// Outcome is a completed checked run: the simulation results plus the
// architectural fingerprints the oracles compare.
type Outcome struct {
	Machine *machine.Machine
	Sim     sim.Result
	Program *workload.Program
	Checker *Checker

	// RefsByProc is the number of shared references each processor issued
	// — scheme-invariant because streams are pregenerated.
	RefsByProc []uint64
	// StreamDigests fingerprints each processor's executed event sequence
	// (kind, address, cycles, id) — scheme-invariant for the same reason.
	StreamDigests []uint64
	// ValueDigests fingerprints each processor's (block, version)
	// observations in program order; empty digests unless
	// Options.CollectValues. Scheme-invariant only for race-free workloads.
	ValueDigests []uint64
	// Image is the final memory image as per-virtual-block write counts.
	Image map[addr.Virtual]uint64
}

// RunChecked builds a machine for cfg, attaches a Checker, runs bench to
// completion, and returns the outcome. The returned error is non-nil for
// build/run failures and for recorded checker violations; the Outcome is
// still returned alongside a violation error so callers can inspect it.
func RunChecked(cfg config.Config, bench workload.Benchmark, opt Options) (*Outcome, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	prog, err := bench.Build(cfg.Geometry, cfg.Geometry.Nodes())
	if err != nil {
		return nil, err
	}
	if opt.Mutate != nil {
		opt.Mutate(m)
	}

	ck := Attach(m, opt.ScanEvery, opt.MaxViolations)
	if opt.NoInvariants {
		ck.DisableInvariants()
	}
	if opt.CollectValues {
		ck.CollectValues()
	}

	m.Preload(prog.Layout())
	ck.Settle()

	eng, err := sim.New(m, prog.Streams())
	if err != nil {
		return nil, err
	}
	nodes := cfg.Geometry.Nodes()
	digests := make([]uint64, nodes)
	for i := range digests {
		digests[i] = fnvOffset
	}
	eng.SetStepObserver(func(proc int, ev trace.Event) {
		d := digests[proc]
		d = fnvMix(d, uint64(ev.Kind()))
		d = fnvMix(d, uint64(ev.Addr()))
		d = fnvMix(d, ev.Cycles())
		d = fnvMix(d, uint64(ev.ID()))
		digests[proc] = d
	})

	res, err := eng.Run()
	if err != nil {
		return nil, fmt.Errorf("check: running %s on %v: %w", prog.Name(), cfg.Scheme, err)
	}
	ck.Final()

	out := &Outcome{
		Machine:       m,
		Sim:           res,
		Program:       prog,
		Checker:       ck,
		RefsByProc:    ck.RefsByProc(),
		StreamDigests: digests,
		ValueDigests:  ck.ValueDigests(),
		Image:         ck.Image(),
	}
	return out, ck.Err()
}
