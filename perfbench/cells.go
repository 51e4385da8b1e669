package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"vcoma"
	"vcoma/internal/addr"
	"vcoma/internal/experiments"
	"vcoma/internal/obs"
	"vcoma/internal/sim"
)

// paperCells are the cells of the paper-cells workload: FFT and RADIX, each
// under L0-TLB and V-COMA. The two cells of a pair replay identical
// reference streams and differ only in where translation happens.
var paperCells = []struct {
	bench  string
	scheme vcoma.Scheme
}{
	{"FFT", vcoma.L0TLB}, {"FFT", vcoma.VCOMA},
	{"RADIX", vcoma.L0TLB}, {"RADIX", vcoma.VCOMA},
}

// cellRun is one measured cell.
type cellRun struct {
	name                         string // e.g. "FFT/L0-TLB"
	scheme                       vcoma.Scheme
	newD, buildD, preloadD, runD time.Duration
	allocMB                      float64
	gcCycles                     uint32
	expect                       cellExpect
}

// cellExpect is what a cell must produce: the digest of its run summary
// (host time excluded) and its simulated counts.
type cellExpect struct {
	SummarySHA256 string            `json:"summary_sha256"`
	Counts        map[string]uint64 `json:"counts"`
}

// cellSetup is a cell set up and ready to simulate.
type cellSetup struct {
	cellRun
	mc   vcoma.Config
	m    *vcoma.Machine
	prog *vcoma.Program
}

// setupCell sets one cell up through the public entry points NewMachine,
// Benchmark.Build and Machine.Preload, each timed and, when tracing,
// wrapped in a span of the same name under sp.
func setupCell(cfg runConfig, sp *obs.Span, bench string, scheme vcoma.Scheme) (*cellSetup, error) {
	c := &cellSetup{cellRun: cellRun{name: bench + "/" + scheme.String(), scheme: scheme}}
	c.mc = experiments.ConfigForScale(vcoma.Baseline(), cfg.scale).WithScheme(scheme)
	b, err := vcoma.BenchmarkByName(bench, cfg.scale)
	if err != nil {
		return nil, err
	}
	// Start every cell from a collected heap, as a fresh process would.
	runtime.GC()
	if err := timedCall(sp, "machine.new", &c.newD, func() (err error) { c.m, err = vcoma.NewMachine(c.mc); return }); err != nil {
		return nil, err
	}
	if err := timedCall(sp, "workload.build", &c.buildD, func() (err error) {
		c.prog, err = b.Build(c.mc.Geometry, c.mc.Geometry.Nodes())
		return
	}); err != nil {
		return nil, err
	}
	timedCall(sp, "machine.preload", &c.preloadD, func() error { c.m.Preload(c.prog.Layout()); return nil })
	return c, nil
}

// timedCall times f into d and, when tracing, records it as a span under
// parent.
func timedCall(parent *obs.Span, name string, d *time.Duration, f func() error) error {
	s := parent.StartChild(name)
	defer s.End()
	t := time.Now()
	err := f()
	*d = time.Since(t)
	return err
}

// runCell sets up one cell and simulates it with the engine's Run, then
// records what the run must reproduce: the digest of its run summary and
// its simulated counts.
func runCell(cfg runConfig, parent *obs.Span, bench string, scheme vcoma.Scheme) (cellRun, error) {
	sp := parent.StartChild("cell")
	sp.SetAttr("cell", bench+"/"+scheme.String())
	defer sp.End()
	cs, err := setupCell(cfg, sp, bench, scheme)
	if err != nil {
		return cellRun{}, err
	}
	c, mc, m, prog := cs.cellRun, cs.mc, cs.m, cs.prog

	var res sim.Result
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := timedCall(sp, "sim.run", &c.runD, func() error {
		eng, err := sim.New(m, prog.Streams())
		if err != nil {
			return err
		}
		res, err = eng.Run()
		return err
	}); err != nil {
		return c, fmt.Errorf("running %s: %w", c.name, err)
	}
	runtime.ReadMemStats(&after)
	c.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	c.gcCycles = after.NumGC - before.NumGC

	sum := experiments.RunSummaryOf(mc, prog.Name(), cfg.scale, prog.Layout(), m, res)
	sum.SimSeconds = 0
	raw, err := json.Marshal(sum)
	if err != nil {
		return c, err
	}
	h := sha256.Sum256(raw)
	c.expect.SummarySHA256 = hex.EncodeToString(h[:])

	ms := m.TotalStats()
	ps := m.Protocol().Stats()
	ns := m.Protocol().Fabric().Stats()
	var dlbLookups, dlbMisses uint64
	if scheme == vcoma.VCOMA {
		for n := 0; n < mc.Geometry.Nodes(); n++ {
			st := m.Engine(addr.Node(n)).Stats()
			dlbLookups += st.Lookups
			dlbMisses += st.Misses
		}
	}
	c.expect.Counts = map[string]uint64{
		"sim.events":              res.Events,
		"sim.exec_cycles":         res.ExecTime,
		"machine.refs":            ms.Refs,
		"tlb.accesses":            ms.TLBAccesses,
		"tlb.misses":              ms.TLBMisses,
		"core.dlb_lookups":        dlbLookups,
		"core.dlb_misses":         dlbMisses,
		"machine.flc_hits":        ms.FLCHits,
		"machine.slc_hits":        ms.SLCHits,
		"machine.local_am":        ms.LocalAM,
		"machine.remote":          ms.Remote,
		"coherence.remote_reads":  ps.RemoteReads,
		"coherence.invalidations": ps.Invalidations,
		"coherence.injections":    ps.Injections,
		"coherence.swaps":         ps.Swaps,
		"network.requests":        ns.Requests,
		"network.blocks":          ns.Blocks,
		"network.queue_cycles":    ns.QueueCycles,
	}
	return c, nil
}

// cellSetups is how many set-up-only rounds precede the timed rounds.
const cellSetups = 3

// runCells is the paper-cells workload: rounds of the four cells, run one
// after another in an order the seed shuffles, until the timed phase is
// spent. Only whole rounds count, so every figure covers the same cells.
func runCells(cfg runConfig) (*outcome, error) {
	want, err := loadExpected()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	out := &outcome{}
	var rounds [][]cellRun
	var roundRun, roundSetup []float64
	// Set-up alone, a few times before the timed rounds, so setup_s is a
	// median of several samples even when only two rounds fit.
	for i := 0; i < cellSetups; i++ {
		sp := cfg.trace.StartSpan("setup")
		var setup time.Duration
		for _, pc := range paperCells {
			cs, err := setupCell(cfg, sp, pc.bench, pc.scheme)
			if err != nil {
				return nil, err
			}
			setup += cs.newD + cs.buildD + cs.preloadD
		}
		sp.End()
		roundSetup = append(roundSetup, seconds(setup))
	}
	err = timedLoop(cfg.seconds, func() (time.Duration, error) {
		sp := cfg.trace.StartSpan("round")
		defer sp.End()
		var round []cellRun
		var run, setup time.Duration
		for _, i := range rng.Perm(len(paperCells)) {
			pc := paperCells[i]
			c, err := runCell(cfg, sp, pc.bench, pc.scheme)
			out.attempted++
			if err != nil {
				return 0, err
			}
			exp, ok := want.Cells[cfg.scale.String()][c.name]
			switch {
			case !ok:
				out.mismatch("cell %s at %v scale: no expected value recorded (got %+v)", c.name, cfg.scale, c.expect)
			case exp.SummarySHA256 != c.expect.SummarySHA256 || !equalCounts(exp.Counts, c.expect.Counts):
				out.mismatch("cell %s at %v scale: got %+v, want %+v", c.name, cfg.scale, c.expect, exp)
			}
			round = append(round, c)
			run += c.runD
			setup += c.newD + c.buildD + c.preloadD
		}
		rounds = append(rounds, round)
		roundRun = append(roundRun, millis(run))
		roundSetup = append(roundSetup, seconds(setup))
		return run + setup, nil
	})
	if err != nil {
		return nil, err
	}

	out.e2e = map[string]float64{
		"setup_s":     median(roundSetup),
		"peak_rss_mb": peakRSSMB(),
		"op_p50_ms":   median(roundRun),
	}
	out.layer = cellLayers(rounds)
	return out, nil
}

// cellLayers turns the measured rounds into per-layer metrics: timings are
// medians over rounds of each round's total, counts are one round's total
// (every round's counts are equal, or the run has already failed).
func cellLayers(rounds [][]cellRun) map[string]float64 {
	per := func(f func(cellRun) float64) float64 {
		var xs []float64
		for _, r := range rounds {
			s := 0.0
			for _, c := range r {
				s += f(c)
			}
			xs = append(xs, s)
		}
		return median(xs)
	}
	onScheme := func(s vcoma.Scheme) func(cellRun) float64 {
		return func(c cellRun) float64 {
			if c.scheme != s {
				return 0
			}
			return seconds(c.runD)
		}
	}
	l := map[string]float64{
		"workload.build_s":  per(func(c cellRun) float64 { return seconds(c.buildD) }),
		"machine.new_s":     per(func(c cellRun) float64 { return seconds(c.newD) }),
		"machine.preload_s": per(func(c cellRun) float64 { return seconds(c.preloadD) }),
		"sim.run_s.L0-TLB":  per(onScheme(vcoma.L0TLB)),
		"sim.run_s.V-COMA":  per(onScheme(vcoma.VCOMA)),
		"sim.alloc_mb":      per(func(c cellRun) float64 { return c.allocMB }),
		"sim.gc_cycles":     per(func(c cellRun) float64 { return float64(c.gcCycles) }),
	}
	l["translation.l0_extra_s"] = l["sim.run_s.L0-TLB"] - l["sim.run_s.V-COMA"]
	for _, c := range rounds[0] {
		for k, v := range c.expect.Counts {
			l[k] += float64(v)
		}
	}
	runS := per(func(c cellRun) float64 { return seconds(c.runD) })
	l["sim.ns_per_event"] = runS * 1e9 / l["sim.events"]
	l["sim.mrefs_per_s"] = l["machine.refs"] / 1e6 / runS
	return l
}

func equalCounts(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
