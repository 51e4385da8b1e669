package check

import (
	"reflect"
	"strings"
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/check/fuzzgen"
	"vcoma/internal/coherence"
	"vcoma/internal/config"
	"vcoma/internal/machine"
	"vcoma/internal/sim"
	"vcoma/internal/trace"
	"vcoma/internal/workload"
)

// benchConfig matches the benchmark-suite test configuration: SmallTest
// geometry with the AM sized for the scale (see experiments.ConfigForScale).
func benchConfig(s config.Scheme) config.Config {
	cfg := config.SmallTest().WithScheme(s)
	cfg.Geometry.AMSetBits = workload.ScaleTest.AMSetBits()
	return cfg
}

// plainRun mirrors the top-level run path with no checker attached — the
// baseline for the observational-purity test.
func plainRun(t *testing.T, cfg config.Config, bench workload.Benchmark) (sim.Result, machine.NodeStats) {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bench.Build(cfg.Geometry, cfg.Geometry.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	m.Preload(prog.Layout())
	eng, err := sim.New(m, prog.Streams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, m.TotalStats()
}

// TestCheckerOnBenchmarks runs the full invariant checker and shadow-memory
// oracle over every benchmark of the suite under every scheme.
func TestCheckerOnBenchmarks(t *testing.T) {
	schemes := config.Schemes()
	if testing.Short() {
		schemes = []config.Scheme{config.L0TLB, config.VCOMA}
	}
	for _, bench := range workload.Registry(workload.ScaleTest) {
		for _, s := range schemes {
			t.Run(bench.Name()+"/"+s.String(), func(t *testing.T) {
				out, err := RunChecked(benchConfig(s), bench, Options{ScanEvery: 4096})
				if err != nil {
					t.Fatal(err)
				}
				if out.Checker.Refs() == 0 {
					t.Fatal("checker observed no references")
				}
			})
		}
	}
}

// TestSchemesAgreeOnBenchmarks runs the differential oracle over the suite:
// all five schemes must produce identical streams, reference counts, and
// final memory images. Values are not compared — the benchmarks use locks,
// so per-reference values are timing-dependent.
func TestSchemesAgreeOnBenchmarks(t *testing.T) {
	benches := workload.Registry(workload.ScaleTest)
	if testing.Short() {
		benches = benches[:2]
	}
	for _, bench := range benches {
		t.Run(bench.Name(), func(t *testing.T) {
			res, err := Differential(benchConfig(config.L0TLB), bench, DiffOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckerIsObservational proves attaching the checker changes nothing:
// execution time, event count, and every machine counter are identical with
// and without it. This is what lets checked and unchecked runs share runner
// caches.
func TestCheckerIsObservational(t *testing.T) {
	bench, err := workload.ByName("RADIX", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	fuzz := fuzzgen.Derive(3, uint64(fuzzgen.Thrash), 64)
	for _, s := range config.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			for _, w := range []workload.Benchmark{bench, fuzz} {
				cfg := benchConfig(s)
				plain, stats := plainRun(t, cfg, w)
				out, err := RunChecked(cfg, w, Options{ScanEvery: 512, CollectValues: true})
				if err != nil {
					t.Fatalf("%s: %v", w.Name(), err)
				}
				if out.Sim.ExecTime != plain.ExecTime {
					t.Errorf("%s: checked run took %d cycles, plain run %d", w.Name(), out.Sim.ExecTime, plain.ExecTime)
				}
				if out.Sim.Events != plain.Events {
					t.Errorf("%s: checked run executed %d events, plain run %d", w.Name(), out.Sim.Events, plain.Events)
				}
				if got := out.Machine.TotalStats(); !reflect.DeepEqual(got, stats) {
					t.Errorf("%s: machine counters differ between checked and plain runs:\n checked %+v\n plain   %+v", w.Name(), got, stats)
				}
			}
		})
	}
}

// TestCheckerManySeeds soaks the checker over seeded random workloads,
// cycling scenarios and schemes (the acceptance floor is 1000 seeds).
func TestCheckerManySeeds(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 150
	}
	for seed := 0; seed < n; seed++ {
		w := fuzzgen.Derive(uint64(seed), uint64(seed), uint64(seed)*31)
		cfg := config.SmallTest().WithScheme(config.Scheme(seed % 5))
		if _, err := RunChecked(cfg, w, Options{ScanEvery: 512}); err != nil {
			t.Fatalf("seed %d (%s under %v): %v", seed, w.Name(), cfg.Scheme, err)
		}
	}
}

// TestSchemesAgreeOnFuzzSeeds runs the differential oracle over seeded
// random workloads, with per-reference value comparison on the race-free
// scenarios.
func TestSchemesAgreeOnFuzzSeeds(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 6
	}
	for seed := 0; seed < n; seed++ {
		w := fuzzgen.Derive(uint64(seed), uint64(seed), uint64(seed)*17)
		res, err := Differential(config.SmallTest(), w, DiffOptions{
			CompareValues: w.RaceFree(),
			ScanEvery:     2048,
		})
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, w.Name(), err)
		}
		if err := res.Err(); err != nil {
			t.Fatalf("seed %d (%s): %v", seed, w.Name(), err)
		}
	}
}

// TestInjectedBugCaughtByChecker proves the invariant checker detects
// deliberately broken protocol behaviour. Each subtest first runs clean to
// show the workload actually exercises the sabotaged path.
func TestInjectedBugCaughtByChecker(t *testing.T) {
	t.Run("DropLastCopy", func(t *testing.T) {
		w := fuzzgen.Derive(7, uint64(fuzzgen.Pathological), 64)
		cfg := config.SmallTest().WithScheme(config.VCOMA)
		clean, err := RunChecked(cfg, w, Options{ScanEvery: 256})
		if err != nil {
			t.Fatalf("clean run: %v", err)
		}
		if st := clean.Machine.Protocol().Stats(); st.Injections+st.Swaps == 0 {
			t.Fatal("workload does not exercise sole-copy master eviction; the bug would never trigger")
		}
		out, err := RunChecked(cfg, w, Options{ScanEvery: 256, Mutate: func(m *machine.Machine) {
			m.Protocol().InjectTestBug(coherence.BugDropLastCopy)
		}})
		if err == nil {
			t.Fatal("checker missed the injected last-copy drop")
		}
		if !violationMentions(out, "last copy", "stale", "no local") {
			t.Errorf("violations do not describe the data loss: %v", err)
		}
	})
	t.Run("SkipInvalidate", func(t *testing.T) {
		w := fuzzgen.Derive(11, uint64(fuzzgen.Partitioned), 80)
		cfg := config.SmallTest().WithScheme(config.VCOMA)
		clean, err := RunChecked(cfg, w, Options{ScanEvery: 256})
		if err != nil {
			t.Fatalf("clean run: %v", err)
		}
		if st := clean.Machine.Protocol().Stats(); st.Invalidations == 0 {
			t.Fatal("workload performs no invalidations; the bug would never trigger")
		}
		_, err = RunChecked(cfg, w, Options{ScanEvery: 256, Mutate: func(m *machine.Machine) {
			m.Protocol().InjectTestBug(coherence.BugSkipInvalidate)
		}})
		if err == nil {
			t.Fatal("checker missed the injected skipped invalidation")
		}
	})
}

func violationMentions(out *Outcome, words ...string) bool {
	if out == nil {
		return false
	}
	for _, v := range out.Checker.Violations() {
		for _, w := range words {
			if strings.Contains(v.Msg, w) {
				return true
			}
		}
	}
	return false
}

// TestInjectedBugCaughtByDifferential proves the cross-scheme oracle
// catches the same injected bug with the invariant checker switched off:
// breaking one scheme makes its observed values diverge from the others.
func TestInjectedBugCaughtByDifferential(t *testing.T) {
	w := fuzzgen.Derive(7, uint64(fuzzgen.Pathological), 64)
	clean, err := Differential(config.SmallTest(), w, DiffOptions{CompareValues: true})
	if err != nil {
		t.Fatalf("clean differential: %v", err)
	}
	if err := clean.Err(); err != nil {
		t.Fatalf("clean differential: %v", err)
	}
	res, err := Differential(config.SmallTest(), w, DiffOptions{
		CompareValues: true,
		Mutate: func(s config.Scheme, m *machine.Machine) {
			if s == config.VCOMA {
				m.Protocol().InjectTestBug(coherence.BugDropLastCopy)
			}
		},
	})
	if err != nil {
		t.Fatalf("mutated differential: %v", err)
	}
	if res.Err() == nil {
		t.Fatal("differential oracle missed the injected last-copy drop")
	}
}

// TestFuzzgenDeterministic proves a derived workload is bit-for-bit
// reproducible: two independent builds emit identical event streams.
func TestFuzzgenDeterministic(t *testing.T) {
	for sc := fuzzgen.Scenario(0); sc < fuzzgen.NumScenarios; sc++ {
		w := fuzzgen.Derive(42, uint64(sc), 77)
		a := drainAll(t, w)
		b := drainAll(t, w)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two builds emitted different streams", w.Name())
		}
	}
}

func drainAll(t *testing.T, w *fuzzgen.Workload) [][]trace.Event {
	t.Helper()
	cfg := config.SmallTest()
	prog, err := w.Build(cfg.Geometry, cfg.Geometry.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	streams := prog.Streams()
	out := make([][]trace.Event, len(streams))
	for i, s := range streams {
		for {
			ev, ok := s.Next()
			if !ok {
				break
			}
			out[i] = append(out[i], ev)
		}
	}
	return out
}

// BenchmarkCheckerPerReference pins the checker's per-reference cost after
// a test-scale preload. Preload touches every block of the workload, so any
// per-reference work proportional to the blocks touched since the checker
// attached (rather than to the blocks this reference touched) shows up here.
func BenchmarkCheckerPerReference(b *testing.B) {
	cfg := benchConfig(config.L0TLB)
	bench, err := workload.ByName("FFT", workload.ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bench.Build(cfg.Geometry, cfg.Geometry.Nodes())
	if err != nil {
		b.Fatal(err)
	}
	ck := Attach(m, 0, 0)
	m.Preload(prog.Layout())
	ck.Settle()
	base := prog.Layout().Regions()[0].Base
	blk := cfg.Geometry.AMBlockSize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := base + addr.Virtual(uint64(i%64)*blk)
		m.Access(uint64(i), addr.Node(i%cfg.Geometry.Nodes()), va, i%4 == 0)
	}
	b.StopTimer()
	if err := ck.Err(); err != nil {
		b.Fatal(err)
	}
}
