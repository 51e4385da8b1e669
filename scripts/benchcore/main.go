// Command benchcore measures the simulator core's hot paths — the TLB
// access loop, the SLC read path, the trace generator and the end-to-end
// engine per scheme — via in-process testing.Benchmark, and prints a JSON
// snapshot for BENCH_core.json. Run via `make bench-snapshot-core`; compare
// two snapshots with `go run ./scripts/benchdiff old.json new.json`.
//
// The numbers are wall-clock and machine-dependent; each scenario records
// the fastest of several repetitions so the snapshot is stable enough for
// the `make perf-gate` CI check (>10% ns_op regression on the sim_run_* and
// tlb_access_* scenarios fails the build). The metric fields (events per
// run, refs per run) are exact and deterministic.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"vcoma"
	"vcoma/internal/addr"
	"vcoma/internal/cache"
	"vcoma/internal/config"
	"vcoma/internal/experiments"
	"vcoma/internal/prng"
	"vcoma/internal/tlb"
	"vcoma/internal/trace"
)

type scenario struct {
	Name string `json:"name"`
	// NsOp is testing.Benchmark's ns/op for the scenario's inner loop.
	NsOp float64 `json:"ns_op"`
	// AllocsOp/BytesOp are allocations per op — 0 for the steady-state
	// paths (TLB, cache), nonzero where a run builds fresh state.
	AllocsOp int64   `json:"allocs_op"`
	BytesOp  int64   `json:"bytes_op"`
	Metrics  float64 `json:"metric,omitempty"`
	// MetricName labels Metrics (events/run, refs/run, ...).
	MetricName string `json:"metric_name,omitempty"`
	Note       string `json:"note,omitempty"`
}

type snapshot struct {
	Schema    string     `json:"schema"`
	GoVersion string     `json:"go"`
	OS        string     `json:"os"`
	Arch      string     `json:"arch"`
	CPUs      int        `json:"cpus"`
	Scale     string     `json:"scale"`
	Scenarios []scenario `json:"scenarios"`
}

// measureReps is how many times each scenario is benchmarked; the snapshot
// records the fastest repetition. Wall-clock noise on shared machines is
// one-sided (interference only ever slows a run down), so min-of-N is the
// stable estimator — single-shot numbers drift ±10% run to run, which would
// eat the whole perf-gate threshold.
const measureReps = 5

func measure(name, note string, f func(b *testing.B)) scenario {
	s := scenario{Name: name, Note: note}
	for rep := 0; rep < measureReps; rep++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			f(b)
		})
		// Float division, not r.NsPerOp(): integer truncation turns a
		// 2.4-vs-2.6ns rerun of the sub-10ns TLB scenarios into a phantom
		// ±50% swing at the perf gate.
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if rep == 0 || ns < s.NsOp {
			s.NsOp = ns
			s.AllocsOp = r.AllocsPerOp()
			s.BytesOp = r.AllocedBytesPerOp()
		}
	}
	return s
}

func run() error {
	var snap snapshot
	snap.Schema = "vcoma-bench-core-v1"
	snap.GoVersion = runtime.Version()
	snap.OS = runtime.GOOS
	snap.Arch = runtime.GOARCH
	snap.CPUs = runtime.NumCPU()
	snap.Scale = "test"

	cfg := experiments.ConfigForScale(vcoma.Baseline(), vcoma.ScaleTest)
	bench, err := vcoma.BenchmarkByName("RADIX", vcoma.ScaleTest)
	if err != nil {
		return err
	}

	// End-to-end engine per scheme: machine build + full simulation of the
	// RADIX test-scale workload. events/run is exact — a drifting value
	// means the change is not observational.
	for _, sch := range []config.Scheme{config.L0TLB, config.VCOMA} {
		sch := sch
		var events float64
		s := measure(fmt.Sprintf("sim_run_%v", sch), "end-to-end RADIX, machine build + simulate", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := vcoma.Run(context.Background(), cfg.WithScheme(sch), bench, vcoma.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				events = float64(res.Sim.Events)
			}
		})
		s.Metrics, s.MetricName = events, "events/run"
		snap.Scenarios = append(snap.Scenarios, s)
	}

	// Synchronization-heavy end-to-end run: BARNES takes per-leaf locks and
	// hits many barriers, so this scenario exercises the dense lock/barrier
	// tables and the scheduler's wakeup path, which the RADIX runs above
	// barely touch.
	{
		syncBench, err := vcoma.BenchmarkByName("BARNES", vcoma.ScaleTest)
		if err != nil {
			return err
		}
		var events float64
		s := measure("sim_run_sync_BARNES", "end-to-end BARNES (lock/barrier heavy), machine build + simulate", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := vcoma.Run(context.Background(), cfg.WithScheme(config.L0TLB), syncBench, vcoma.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				events = float64(res.Sim.Events)
			}
		})
		s.Metrics, s.MetricName = events, "events/run"
		snap.Scenarios = append(snap.Scenarios, s)
	}

	// TLB access loop, fully-associative and direct-mapped: the innermost
	// per-reference operation of every translation scheme.
	snap.Scenarios = append(snap.Scenarios, measure("tlb_access_fa", "64-entry fully-associative, 1024-page working set", func(b *testing.B) {
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
	}))
	// Hot-hit variant: a working set that fits entirely in the buffer, so
	// every access after warmup takes the last-page memo or probe-hit fast
	// path — the common case inside a simulation's reference bursts.
	snap.Scenarios = append(snap.Scenarios, measure("tlb_access_fa_hot", "64-entry fully-associative, 32-page resident working set", func(b *testing.B) {
		buf := tlb.NewFullyAssoc(64, 1)
		rng := prng.New(4)
		pages := make([]uint64, 1024)
		for i := range pages {
			pages[i] = rng.Uint64n(32)
		}
		for _, p := range pages {
			buf.Access(addr.PageNum(p))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Access(addr.PageNum(pages[i%len(pages)]))
		}
	}))
	snap.Scenarios = append(snap.Scenarios, measure("tlb_access_dm", "64-entry direct-mapped, 1024-page working set", func(b *testing.B) {
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
	}))

	// SLC read path: the attraction-memory lookup behind every reference.
	snap.Scenarios = append(snap.Scenarios, measure("cache_read", "baseline SLC, 4096-address working set", func(b *testing.B) {
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
	}))

	// Trace generator: coroutine-style reference production, 100k refs per
	// op. refs/run is exact.
	{
		const refs = 100000
		s := measure("generator_throughput", "100k-reference synthetic stream", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := trace.NewGenerator(func(e *trace.Emitter) {
					for j := 0; j < refs; j++ {
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
				if n != refs {
					b.Fatal("short stream")
				}
			}
		})
		s.Metrics, s.MetricName = refs, "refs/run"
		snap.Scenarios = append(snap.Scenarios, s)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchcore:", err)
		os.Exit(1)
	}
}
