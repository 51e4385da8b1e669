package vcoma

import (
	"context"
	"testing"

	"vcoma/internal/experiments"
	"vcoma/internal/tlb"
)

// testConfig is the scaled-down machine the integration tests run on.
func testConfig() Config {
	return experiments.ConfigForScale(Baseline(), ScaleTest)
}

func TestAllSchemesRunAllBenchmarks(t *testing.T) {
	for _, bench := range Benchmarks(ScaleTest) {
		for _, sch := range Schemes() {
			res, err := Run(context.Background(), testConfig().WithScheme(sch), bench, RunOptions{})
			if err != nil {
				t.Fatalf("%s/%v: %v", bench.Name(), sch, err)
			}
			if res.ExecTime() == 0 {
				t.Fatalf("%s/%v: zero execution time", bench.Name(), sch)
			}
			if err := res.Machine.CheckInvariants(); err != nil {
				t.Fatalf("%s/%v: %v", bench.Name(), sch, err)
			}
			ts := res.Machine.TotalStats()
			if ts.Refs == 0 {
				t.Fatalf("%s/%v: no references", bench.Name(), sch)
			}
			tot := res.Sim.TotalProc()
			if ts.Refs != tot.Refs {
				t.Fatalf("%s/%v: machine saw %d refs, engine issued %d",
					bench.Name(), sch, ts.Refs, tot.Refs)
			}
		}
	}
}

func TestSchemesSeeSameReferenceStream(t *testing.T) {
	// The reference streams are deterministic, so every scheme must
	// process exactly the same references — the property the one-pass
	// observer methodology relies on.
	bench, _ := BenchmarkByName("FFT", ScaleTest)
	var refs []uint64
	for _, sch := range Schemes() {
		res, err := Run(context.Background(), testConfig().WithScheme(sch), bench, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, res.Machine.TotalStats().Refs)
	}
	for i := 1; i < len(refs); i++ {
		if refs[i] != refs[0] {
			t.Fatalf("scheme %v saw %d refs, scheme %v saw %d",
				Schemes()[i], refs[i], Schemes()[0], refs[0])
		}
	}
}

func TestVCOMABeatsL0OnTranslationOverhead(t *testing.T) {
	// The paper's central claim, end to end: with equal 8-entry buffers,
	// V-COMA's translation overhead is far below L0-TLB's on every
	// benchmark.
	for _, bench := range Benchmarks(ScaleTest) {
		var trans [2]uint64
		for i, sch := range []Scheme{L0TLB, VCOMA} {
			res, err := Run(context.Background(), testConfig().WithScheme(sch).WithTLB(8, FullyAssoc), bench, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			trans[i] = res.Sim.TotalProc().Trans
		}
		if trans[1] >= trans[0] {
			t.Errorf("%s: V-COMA translation %d not below L0-TLB %d",
				bench.Name(), trans[1], trans[0])
		}
	}
}

func TestFilteringEffect(t *testing.T) {
	// Higher translation tap points see fewer requests: the filtering
	// effect. Compare request counts at the L0 and L3 tap points.
	bench, _ := BenchmarkByName("BARNES", ScaleTest)
	specs := []tlb.Spec{{Entries: 8, Org: FullyAssoc}}
	var acc []uint64
	for _, sch := range []Scheme{L0TLB, L1TLB, L3TLB} {
		res, err := Run(context.Background(), testConfig().WithScheme(sch), bench, RunOptions{Specs: specs})
		if err != nil {
			t.Fatal(err)
		}
		acc = append(acc, tlb.Merge(res.Machine.ObserverBanks()).TotalAccesses())
	}
	if !(acc[0] > acc[1] && acc[1] > acc[2]) {
		t.Fatalf("no filtering: L0=%d L1=%d L3=%d", acc[0], acc[1], acc[2])
	}
}

func TestSharingEffect(t *testing.T) {
	// V-COMA's DLB entries are not replicated: machine-wide cold misses
	// equal the page count once, not once per node. Compare total cold
	// misses (largest buffer) between L3-TLB and V-COMA.
	bench, _ := BenchmarkByName("FFT", ScaleTest)
	spec := tlb.Spec{Entries: 512, Org: FullyAssoc}
	var cold []uint64
	for _, sch := range []Scheme{L3TLB, VCOMA} {
		res, err := Run(context.Background(), testConfig().WithScheme(sch), bench, RunOptions{Specs: []tlb.Spec{spec}})
		if err != nil {
			t.Fatal(err)
		}
		cold = append(cold, tlb.Merge(res.Machine.ObserverBanks()).TotalMisses(spec))
	}
	if cold[1]*2 > cold[0] {
		t.Fatalf("no sharing effect: L3 cold=%d, V-COMA cold=%d", cold[0], cold[1])
	}
}

func TestPressureProfileUniform(t *testing.T) {
	// Figure 11: the virtual layout spreads pressure across global page
	// sets without tuning. Max pressure within 10x of mean (the paper's
	// profiles are nearly flat; small scale adds granularity noise).
	bench, _ := BenchmarkByName("OCEAN", ScaleTest)
	res, err := Run(context.Background(), testConfig().WithScheme(VCOMA), bench, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prof := res.PressureProfile()
	var sum, maxV float64
	for _, v := range prof {
		sum += v
		if v > maxV {
			maxV = v
		}
	}
	mean := sum / float64(len(prof))
	if mean == 0 {
		t.Fatal("empty pressure profile")
	}
	if maxV > 10*mean {
		t.Fatalf("pressure wildly uneven: max=%f mean=%f", maxV, mean)
	}
}

func TestRunResultAccessors(t *testing.T) {
	bench, _ := BenchmarkByName("RADIX", ScaleTest)
	res, err := Run(context.Background(), testConfig(), bench, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SharedMB() <= 0 {
		t.Fatal("shared MB")
	}
	if len(res.Layout().Regions()) == 0 {
		t.Fatal("no regions")
	}
}

func TestBenchmarkNames(t *testing.T) {
	if len(BenchmarkNames()) != 6 {
		t.Fatal("names")
	}
	if _, err := BenchmarkByName("nope", ScaleTest); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestPublicObserverAPI(t *testing.T) {
	// The facade must let external users run the observer methodology
	// without importing internal packages.
	bench, _ := BenchmarkByName("RADIX", ScaleTest)
	specs := []TLBSpec{{Entries: 8, Org: FullyAssoc}}
	res, err := Run(context.Background(), testConfig(), bench, RunOptions{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeBanks(res.Machine.ObserverBanks())
	if merged.TotalAccesses() == 0 {
		t.Fatal("no observations")
	}
	if len(PaperTLBSizes()) != 7 || len(PaperTLBSpecs()) != 14 {
		t.Fatal("paper grids wrong")
	}
}
