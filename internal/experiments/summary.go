package experiments

import (
	"context"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/machine"
	"vcoma/internal/report"
	"vcoma/internal/runner"
	"vcoma/internal/sim"
	"vcoma/internal/vm"
	"vcoma/internal/workload"
)

// RunSummaryOf renders one finished simulation in the report.RunSummary
// schema — the same schema vcoma-sim -json emits and the service's artifact
// store caches, so a CLI summary, a cached cell and a served result are
// directly comparable.
//
// SimSeconds is left zero: host wall time is not a property of the result,
// and excluding it keeps the summary deterministic (byte-identical across
// reruns, machines and restarts), which is what lets the artifact store
// deduplicate and re-serve it. Callers that want wall time stamp it after.
func RunSummaryOf(cfg config.Config, benchName string, scale workload.Scale, lay *vm.Layout, m *machine.Machine, res sim.Result) report.RunSummary {
	tot := res.TotalProc()
	ms := m.TotalStats()
	ps := m.Protocol().Stats()
	nproc := float64(len(res.Procs))

	sum := report.RunSummary{
		Benchmark:  benchName,
		Scheme:     cfg.Scheme.String(),
		Scale:      scale.String(),
		TLBEntries: cfg.TLBEntries,
		TLBOrg:     cfg.TLBOrg.String(),
		Seed:       cfg.Seed,
		SharedMB:   float64(lay.TotalBytes()) / (1 << 20),
		Regions:    len(lay.Regions()),
		ExecCycles: res.ExecTime,
		Breakdown: report.Breakdown{
			Busy:   float64(tot.Busy) / nproc,
			Sync:   float64(tot.Sync) / nproc,
			Local:  float64(tot.StallLocal) / nproc,
			Remote: float64(tot.StallRemote) / nproc,
			Trans:  float64(tot.Trans) / nproc,
			Exec:   res.ExecTime,
		},
		Refs:     ms.Refs,
		WritePct: 100 * float64(ms.Writes) / float64(ms.Refs),
		Hits: report.HitRates{
			FLC:     100 * float64(ms.FLCHits) / float64(ms.Refs),
			SLC:     100 * float64(ms.SLCHits) / float64(ms.Refs),
			LocalAM: 100 * float64(ms.LocalAM) / float64(ms.Refs),
			Remote:  100 * float64(ms.Remote) / float64(ms.Refs),
		},
		Protocol: report.ProtocolSummary{
			RemoteReads:   ps.RemoteReads,
			Upgrades:      ps.Upgrades,
			WriteFetches:  ps.WriteFetches,
			Invalidations: ps.Invalidations,
			SharedDrops:   ps.SharedDrops,
			Relocations:   ps.Relocations,
			Injections:    ps.Injections,
			InjectionHops: ps.InjectionHops,
			Swaps:         ps.Swaps,
		},
	}
	if ms.TLBAccesses > 0 {
		sum.TLB = &report.TranslationStats{
			Accesses:      ms.TLBAccesses,
			Misses:        ms.TLBMisses,
			MissPctOfRefs: 100 * float64(ms.TLBMisses) / float64(ms.Refs),
		}
	}
	if cfg.Scheme == config.VCOMA {
		var lookups, misses uint64
		for n := 0; n < cfg.Geometry.Nodes(); n++ {
			st := m.Engine(addr.Node(n)).Stats()
			lookups += st.Lookups
			misses += st.Misses
		}
		sum.DLB = &report.TranslationStats{
			Accesses:      lookups,
			Misses:        misses,
			MissPctOfRefs: 100 * float64(misses) / float64(ms.Refs),
		}
	}
	return sum
}

// Simulate runs one benchmark on one exact configuration under a runner
// context — cancellation and deadline abort the pass, any WithBudget
// watchdog budget is armed, and a runner-installed observability sink
// instruments the run — and returns its machine-readable summary. This is
// the pass behind every vcoma-serve job.
func Simulate(ctx context.Context, cfg config.Config, bench workload.Benchmark, scale workload.Scale) (report.RunSummary, error) {
	m, prog, res, err := Pass(ctx, cfg, bench, nil, runner.ObserverFrom(ctx))
	if err != nil {
		return report.RunSummary{}, err
	}
	return RunSummaryOf(cfg, prog.Name(), scale, prog.Layout(), m, res), nil
}
