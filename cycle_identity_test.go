// Cycle-identity goldens: these tests pin the engine's exact timing — the
// per-processor breakdowns, execution time, event counts, and machine-wide
// memory-system counters — for every translation scheme, against golden
// files recorded from the seed engine. Hot-path optimizations (scheduler
// indexing, flat TLB/lock/barrier structures, pooled buffers) must keep
// every run cycle-identical; any diff here is a behavioural change, not a
// speedup.
//
// The corpus section replays the committed fuzzgen corpora
// (internal/check/testdata/fuzz), so the goldens also cover the lock-storm,
// barrier-storm, thrash, and pathological-alignment paths the SPLASH-2
// workloads only brush.
//
// Regenerate (after an intended timing change) with:
//
//	go test -run TestCycleIdentity -update-cycles .
package vcoma

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vcoma/internal/check/fuzzgen"
	"vcoma/internal/config"
	"vcoma/internal/experiments"
	"vcoma/internal/machine"
	"vcoma/internal/sim"
	"vcoma/internal/workload"
)

var updateCycles = flag.Bool("update-cycles", false, "rewrite cycle-identity golden files with current engine output")

// renderRun formats one run's architectural timing as a byte-stable block.
func renderRun(b *strings.Builder, name string, scheme config.Scheme, res sim.Result, m *machine.Machine) {
	fmt.Fprintf(b, "%s scheme=%v exec=%d events=%d\n", name, scheme, res.ExecTime, res.Events)
	for i, p := range res.Procs {
		fmt.Fprintf(b, "  proc %02d busy=%d sync=%d local=%d remote=%d trans=%d finish=%d refs=%d\n",
			i, p.Busy, p.Sync, p.StallLocal, p.StallRemote, p.Trans, p.Finish, p.Refs)
	}
	t := m.TotalStats()
	fmt.Fprintf(b, "  totals refs=%d flc=%d slc=%d localAM=%d remote=%d stallL=%d stallR=%d trans=%d tlbAcc=%d tlbMiss=%d wb=%d\n",
		t.Refs, t.FLCHits, t.SLCHits, t.LocalAM, t.Remote,
		t.StallLocal, t.StallRemote, t.TransCycles, t.TLBAccesses, t.TLBMisses, t.SLCWritebacks)
}

func compareCycleGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateCycles {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-cycles to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("engine timing diverged from the recorded seed engine (%s).\nA deliberate timing change needs -update-cycles.\ngot:\n%s\nwant:\n%s",
			path, got, string(want))
	}
}

// TestCycleIdentityRadix runs the paper-machine RADIX workload at test scale
// under all five schemes and compares against the recorded goldens.
func TestCycleIdentityRadix(t *testing.T) {
	cfg := experiments.ConfigForScale(Baseline(), ScaleTest)
	var b strings.Builder
	for _, sch := range Schemes() {
		bench, err := BenchmarkByName("RADIX", ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), cfg.WithScheme(sch), bench, RunOptions{})
		if err != nil {
			t.Fatalf("%v: %v", sch, err)
		}
		renderRun(&b, "RADIX", sch, res.Sim, res.Machine)
	}
	compareCycleGolden(t, "cycle_identity_radix.golden", b.String())
}

// TestCycleIdentityCorpora replays every committed fuzzgen corpus input
// under all five schemes on the small test machine. FuzzMachine corpora
// carry (seed, scenario, size, scheme); FuzzSchemesAgree carry
// (seed, scenario, size) — both reduce to a derived workload, and both are
// run under all five schemes here (the recorded scheme field only selects
// which scheme the fuzzer exercised; cycle identity must hold for all).
func TestCycleIdentityCorpora(t *testing.T) {
	inputs := map[string][]uint64{}
	for _, dir := range []string{
		"internal/check/testdata/fuzz/FuzzMachine",
		"internal/check/testdata/fuzz/FuzzSchemesAgree",
	} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			vals, err := parseCorpus(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			inputs[filepath.Base(dir)+"/"+e.Name()] = vals
		}
	}
	names := make([]string, 0, len(inputs))
	for n := range inputs {
		names = append(names, n)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		vals := inputs[n]
		if len(vals) < 3 {
			t.Fatalf("%s: %d values, want at least 3", n, len(vals))
		}
		w := fuzzgen.Derive(vals[0], vals[1], vals[2])
		for _, sch := range Schemes() {
			cfg := config.SmallTest().WithScheme(sch)
			bench := workload.Benchmark(w)
			res, err := Run(context.Background(), cfg, bench, RunOptions{})
			if err != nil {
				t.Fatalf("%s under %v: %v", n, sch, err)
			}
			renderRun(&b, n, sch, res.Sim, res.Machine)
		}
	}
	compareCycleGolden(t, "cycle_identity_corpora.golden", b.String())
}

// parseCorpus reads a Go native fuzz corpus file and returns its uint64
// arguments in order.
func parseCorpus(path string) ([]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "go test fuzz") {
		return nil, fmt.Errorf("%s: not a fuzz corpus file", path)
	}
	var vals []uint64
	for _, l := range lines[1:] {
		l = strings.TrimSpace(l)
		if l == "" {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(l, "uint64(%d)", &v); err != nil {
			return nil, fmt.Errorf("%s: bad corpus line %q: %w", path, l, err)
		}
		vals = append(vals, v)
	}
	return vals, nil
}
