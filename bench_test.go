// Benchmarks regenerating each of the paper's tables and figures, plus
// microbenchmarks of the simulator's hot paths.
//
// Each BenchmarkTableN / BenchmarkFigureN runs the corresponding experiment
// end to end at the test workload scale (the full-size reproduction is
// `go run ./cmd/vcoma-report -scale paper`, which takes minutes). Custom
// metrics report the experiment's headline quantities alongside ns/op.
package vcoma

import (
	"context"
	"fmt"
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/cache"
	"vcoma/internal/config"
	"vcoma/internal/experiments"
	"vcoma/internal/obs"
	"vcoma/internal/prng"
	"vcoma/internal/runner"
	"vcoma/internal/tlb"
	"vcoma/internal/trace"
	"vcoma/internal/workload"
)

func benchConfig() Config {
	return experiments.ConfigForScale(Baseline(), ScaleTest)
}

func mustBench(b *testing.B, name string) Benchmark {
	b.Helper()
	w, err := BenchmarkByName(name, ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// runPlan enumerates passes with add on a fresh test-scale plan and runs
// them through the runner, the path vcoma-report takes.
func runPlan(b *testing.B, add func(p *experiments.Plan) error) *experiments.PlanResult {
	b.Helper()
	p := experiments.NewPlan(benchConfig(), ScaleTest)
	if err := add(p); err != nil {
		b.Fatal(err)
	}
	pr, err := p.Run(context.Background(), runner.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return pr
}

// observe runs the five scheme passes (the shared harness behind Figure 8,
// Figure 9, Table 2 and Table 3).
func observe(b *testing.B, name string) *experiments.Observed {
	b.Helper()
	obs, err := runPlan(b, func(p *experiments.Plan) error { return p.AddObserve(name) }).Observed(name)
	if err != nil {
		b.Fatal(err)
	}
	return obs
}

// BenchmarkFigure8 regenerates the translation-miss-per-node curves
// (misses vs TLB/DLB size for all five schemes).
func BenchmarkFigure8(b *testing.B) {
	for _, name := range BenchmarkNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				obs := observe(b, name)
				f := experiments.Figure8(obs)
				l0 := f.Series[0].Points[8]
				vc := f.Series[4].Points[8]
				b.ReportMetric(l0, "L0misses/node")
				b.ReportMetric(vc, "VCOMAmisses/node")
			}
		})
	}
}

// BenchmarkFigure9 regenerates the direct-mapped vs fully-associative
// comparison.
func BenchmarkFigure9(b *testing.B) {
	name := "RADIX"
	for i := 0; i < b.N; i++ {
		obs := observe(b, name)
		f := experiments.Figure9(obs)
		if len(f.Series) != 10 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkTable2 regenerates the miss-rate-per-reference table.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := experiments.Table2(observe(b, "FFT"))
		b.ReportMetric(row.Rate[8][config.L0TLB], "L0rate%")
		b.ReportMetric(row.Rate[8][config.VCOMA], "Vrate%")
	}
}

// BenchmarkTable3 regenerates the equivalent-TLB-size table.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := experiments.Table3(observe(b, "BARNES"))
		if eq := row.Equivalent[config.L0TLB]; eq != 0 {
			b.ReportMetric(eq, "eqL0entries")
		}
	}
}

// BenchmarkTable4 regenerates the translation-time/stall-time ratios
// (timed runs, L0-TLB vs V-COMA at 8 and 16 entries).
func BenchmarkTable4(b *testing.B) {
	for _, name := range []string{"RADIX", "FMM"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row, err := runPlan(b, func(p *experiments.Plan) error { return p.AddTable4(name) }).Table4(name)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(row.Ratio[8]["L0-TLB"], "L0ratio%")
				b.ReportMetric(row.Ratio[8]["DLB"], "DLBratio%")
			}
		})
	}
}

// BenchmarkFigure10 regenerates the execution-time breakdowns (including
// the RAYTRACE V2 relayout).
func BenchmarkFigure10(b *testing.B) {
	for _, name := range []string{"OCEAN", "RAYTRACE"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := runPlan(b, func(p *experiments.Plan) error { return p.AddFigure10(name) }).Figure10(name)
				if err != nil {
					b.Fatal(err)
				}
				base := r.Breakdowns[0].Total()
				vc := r.Breakdowns[2].Total()
				b.ReportMetric(vc/base, "VCOMA/L0time")
			}
		})
	}
}

// BenchmarkFigure11 regenerates the global-page-set pressure profile.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure11(benchConfig(), mustBench(b, "FFT"))
		if err != nil {
			b.Fatal(err)
		}
		var mean float64
		for _, v := range r.Pressure {
			mean += v
		}
		b.ReportMetric(mean/float64(len(r.Pressure)), "meanPressure")
	}
}

// BenchmarkTimedRun measures end-to-end simulation throughput per scheme
// (events per second drive how large a scale is practical).
func BenchmarkTimedRun(b *testing.B) {
	for _, sch := range Schemes() {
		b.Run(fmt.Sprint(sch), func(b *testing.B) {
			bench := mustBench(b, "OCEAN")
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), benchConfig().WithScheme(sch), bench, RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Sim.Events), "events/run")
			}
		})
	}
}

// BenchmarkObsOverhead measures what the observability layer costs an
// end-to-end RADIX run at test scale. "plain" is Run with no observer, so
// every instrument call site executes its nil-receiver no-op. "enabled"
// turns on the sampler and tracer to show the full price of observation. The
// "noop-calls" sub-benchmark isolates the per-call no-op cost itself, which
// must report 0 allocs/op (the same contract TestObsDisabledZeroAlloc gates
// in CI).
func BenchmarkObsOverhead(b *testing.B) {
	cfg := benchConfig()
	bench := mustBench(b, "RADIX")
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := Run(context.Background(), cfg, bench, RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Sim.Events), "events/run")
		}
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := NewObserver(ObserverOptions{MetricsInterval: 10000, TraceCapacity: 1 << 16})
			res, err := Run(context.Background(), cfg, bench, RunOptions{Observer: o})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Sim.Events), "events/run")
			b.ReportMetric(float64(o.Tracer.Len()), "traceEvents/run")
		}
	})
	b.Run("noop-calls", func(b *testing.B) {
		b.ReportAllocs()
		var (
			c *obs.Counter
			h *obs.Histogram
			t *obs.Tracer
			s *obs.Sampler
		)
		for i := 0; i < b.N; i++ {
			c.Inc()
			c.Add(3)
			h.Observe(uint64(i))
			if t.Enabled("coh") {
				b.Fatal("nil tracer claims enabled")
			}
			t.Instant("coh", "remote-read", 0, 0, uint64(i))
			s.Tick(uint64(i))
		}
	})
}

// --- microbenchmarks of the simulator substrate ---

func BenchmarkCacheRead(b *testing.B) {
	c := cache.New(config.Baseline().SLC)
	rng := prng.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = rng.Uint64n(1 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(addrs[i%len(addrs)])
	}
}

func BenchmarkTLBAccessFA(b *testing.B) {
	buf := tlb.NewFullyAssoc(64, 1)
	rng := prng.New(2)
	pages := make([]uint64, 1024)
	for i := range pages {
		pages[i] = rng.Uint64n(256)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Access(addr.PageNum(pages[i%len(pages)]))
	}
}

func BenchmarkTLBAccessDM(b *testing.B) {
	buf := tlb.NewDirectMapped(64, 0)
	rng := prng.New(3)
	pages := make([]uint64, 1024)
	for i := range pages {
		pages[i] = rng.Uint64n(256)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Access(addr.PageNum(pages[i%len(pages)]))
	}
}

func BenchmarkGeneratorThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := trace.NewGenerator(func(e *trace.Emitter) {
			for j := 0; j < 100000; j++ {
				e.Read(0x10000)
			}
		})
		n := 0
		for {
			if _, ok := g.Next(); !ok {
				break
			}
			n++
		}
		if n != 100000 {
			b.Fatal("short stream")
		}
	}
}

func BenchmarkWorkloadBuild(b *testing.B) {
	g := benchConfig().Geometry
	for _, name := range BenchmarkNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := workload.ByName(name, ScaleTest)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.Build(g, g.Nodes()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
