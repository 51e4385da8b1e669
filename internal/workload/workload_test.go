package workload

import (
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/trace"
)

func testGeometry() addr.Geometry {
	return config.SmallTest().Geometry
}

func TestRegistryAndNames(t *testing.T) {
	benches := Registry(ScaleTest)
	if len(benches) != 6 {
		t.Fatalf("registry has %d benchmarks", len(benches))
	}
	for i, name := range Names() {
		if benches[i].Name() != name {
			t.Fatalf("order mismatch: %s vs %s", benches[i].Name(), name)
		}
		b, err := ByName(name, ScaleTest)
		if err != nil || b.Name() != name {
			t.Fatalf("ByName(%s): %v", name, err)
		}
	}
	if _, err := ByName("NOPE", ScaleTest); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestChunkPartition(t *testing.T) {
	for _, tc := range []struct{ n, procs int }{{10, 3}, {32, 32}, {7, 8}, {100, 1}} {
		covered := 0
		prevHi := 0
		for p := 0; p < tc.procs; p++ {
			lo, hi := chunk(tc.n, tc.procs, p)
			if lo != prevHi {
				t.Fatalf("chunk(%d,%d,%d): gap at %d", tc.n, tc.procs, p, lo)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.n || prevHi != tc.n {
			t.Fatalf("chunk(%d,%d) covered %d", tc.n, tc.procs, covered)
		}
	}
}

// checkProgram drains every stream of a program and validates the global
// structural invariants every benchmark must satisfy:
//   - all memory references fall inside allocated regions;
//   - every processor passes the same barriers in the same order;
//   - lock acquires and releases are balanced and properly nested per lock;
//   - the program is deterministic (two stream sets produce identical
//     event sequences).
func checkProgram(t *testing.T, pr *Program) {
	t.Helper()
	l := pr.Layout()

	first := pr.Streams()
	second := pr.Streams()
	var barrierSeqs [][]int
	totalRefs := uint64(0)

	for p := 0; p < pr.Procs(); p++ {
		evs := trace.Drain(first[p])
		evs2 := trace.Drain(second[p])
		if len(evs) != len(evs2) {
			t.Fatalf("proc %d: nondeterministic length %d vs %d", p, len(evs), len(evs2))
		}
		for i := range evs {
			if evs[i] != evs2[i] {
				t.Fatalf("proc %d: nondeterministic at event %d", p, i)
			}
		}

		var barriers []int
		held := map[int]bool{}
		for i, ev := range evs {
			switch ev.Kind() {
			case trace.Read, trace.Write:
				totalRefs++
				if _, ok := l.Find(ev.Addr()); !ok {
					t.Fatalf("proc %d event %d: address %#x outside every region", p, i, uint64(ev.Addr()))
				}
			case trace.Barrier:
				if len(held) != 0 {
					t.Fatalf("proc %d: barrier %d reached holding locks %v", p, ev.ID(), held)
				}
				barriers = append(barriers, ev.ID())
			case trace.LockAcquire:
				if held[ev.ID()] {
					t.Fatalf("proc %d: recursive lock %d", p, ev.ID())
				}
				held[ev.ID()] = true
			case trace.LockRelease:
				if !held[ev.ID()] {
					t.Fatalf("proc %d: releasing unheld lock %d", p, ev.ID())
				}
				delete(held, ev.ID())
			}
		}
		if len(held) != 0 {
			t.Fatalf("proc %d: locks still held at end: %v", p, held)
		}
		barrierSeqs = append(barrierSeqs, barriers)
	}

	for p := 1; p < pr.Procs(); p++ {
		if len(barrierSeqs[p]) != len(barrierSeqs[0]) {
			t.Fatalf("proc %d passes %d barriers, proc 0 passes %d",
				p, len(barrierSeqs[p]), len(barrierSeqs[0]))
		}
		for i := range barrierSeqs[p] {
			if barrierSeqs[p][i] != barrierSeqs[0][i] {
				t.Fatalf("proc %d barrier %d is %d, proc 0's is %d",
					p, i, barrierSeqs[p][i], barrierSeqs[0][i])
			}
		}
	}
	if totalRefs == 0 {
		t.Fatal("program emits no memory references")
	}
}

func TestAllBenchmarksStructure(t *testing.T) {
	g := testGeometry()
	for _, bench := range Registry(ScaleTest) {
		bench := bench
		t.Run(bench.Name(), func(t *testing.T) {
			pr, err := bench.Build(g, g.Nodes())
			if err != nil {
				t.Fatal(err)
			}
			if pr.Name() != bench.Name() || pr.Procs() != g.Nodes() {
				t.Fatalf("program metadata: %s/%d", pr.Name(), pr.Procs())
			}
			checkProgram(t, pr)
		})
	}
}

func TestPaperFootprints(t *testing.T) {
	// Table 1: shared-memory footprints at paper scale (tolerance: the
	// paper's own accounting includes allocator overheads we do not
	// model, so match within a factor of two).
	want := map[string]float64{
		"RADIX": 6.12, "FFT": 51.29, "FMM": 29.23,
		"OCEAN": 15.52, "RAYTRACE": 34.86, "BARNES": 3.94,
	}
	g := config.Baseline().Geometry
	for _, bench := range Registry(ScalePaper) {
		pr, err := bench.Build(g, g.Nodes())
		if err != nil {
			t.Fatal(err)
		}
		mb := float64(pr.Layout().TotalBytes()) / (1 << 20)
		w := want[bench.Name()]
		if mb < w/2 || mb > w*2 {
			t.Errorf("%s footprint %.2f MB, paper %.2f MB", bench.Name(), mb, w)
		}
	}
}

func TestScales(t *testing.T) {
	for _, s := range []Scale{ScaleTest, ScaleSmall, ScalePaper} {
		if s.String() == "" || s.AMSetBits() == 0 {
			t.Fatalf("scale %d incomplete", s)
		}
	}
	if ScalePaper.AMSetBits() != 13 {
		t.Fatal("paper scale must keep the 4 MB attraction memory")
	}
}

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{
		"test": ScaleTest, "small": ScaleSmall, "paper": ScalePaper,
		" Paper ": ScalePaper, "SMALL": ScaleSmall, "\tTest\n": ScaleTest,
	} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"bogus", "", "tests", "pap er"} {
		if _, err := ParseScale(in); err == nil {
			t.Errorf("ParseScale(%q) accepted", in)
		}
	}
}
