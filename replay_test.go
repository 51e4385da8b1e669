package vcoma

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vcoma/internal/experiments"
	"vcoma/internal/workload"
)

// record builds name at test scale on the test machine and records it
// into a fresh trace directory.
func record(t *testing.T, name string) string {
	t.Helper()
	b, err := BenchmarkByName(name, ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	g := testConfig().Geometry
	prog, err := b.Build(g, g.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := workload.Record(prog, dir, nil); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReplayIdentity replays recorded traces through Run and requires the
// run summary of the live run, field for field, apart from the benchmark
// name and host time (RunSummaryOf leaves both out here); the exec cycles
// are pinned as well.
func TestReplayIdentity(t *testing.T) {
	want := map[string]map[Scheme]uint64{
		"RADIX": {VCOMA: 603780, L0TLB: 612156},
		"FFT":   {VCOMA: 80956, L0TLB: 81002},
	}
	for _, name := range []string{"RADIX", "FFT"} {
		dir := record(t, name)
		live, _ := BenchmarkByName(name, ScaleTest)
		for _, sch := range []Scheme{VCOMA, L0TLB} {
			cfg := testConfig().WithScheme(sch).WithTLB(8, FullyAssoc)
			summary := func(b Benchmark) []byte {
				res, err := Run(context.Background(), cfg, b, RunOptions{})
				if err != nil {
					t.Fatalf("%s/%v: %v", b.Name(), sch, err)
				}
				if got := res.ExecTime(); got != want[name][sch] {
					t.Errorf("%s/%v: %d exec cycles, want %d", b.Name(), sch, got, want[name][sch])
				}
				sum := experiments.RunSummaryOf(cfg, "", ScaleTest, res.Layout(), res.Machine, res.Sim)
				raw, err := json.Marshal(sum)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			if a, b := summary(live), summary(workload.Recorded(dir)); string(a) != string(b) {
				t.Errorf("%s/%v: replay summary differs from the live run:\nlive   %s\nreplay %s", name, sch, a, b)
			}
		}
	}
}

// TestReplayReportsDecodeErrors: a trace cut short fails with the file
// that failed to decode, not with the deadlock it leaves behind, and a
// missing processor file fails before the machine runs.
func TestReplayReportsDecodeErrors(t *testing.T) {
	dir := record(t, "RADIX")
	cfg := testConfig().WithScheme(VCOMA)

	cut := filepath.Join(dir, "proc005.vct")
	fi, err := os.Stat(cut)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(cut, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), cfg, workload.Recorded(dir), RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "proc005.vct") || strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("truncated trace: got %v, want a decode error naming proc005.vct", err)
	}

	if err := os.Remove(filepath.Join(dir, "proc007.vct")); err != nil {
		t.Fatal(err)
	}
	_, err = workload.Recorded(dir).Build(cfg.Geometry, cfg.Geometry.Nodes())
	if err == nil || !strings.Contains(err.Error(), "proc007.vct") {
		t.Fatalf("missing processor file: Build gave %v, want an error naming proc007.vct", err)
	}
}
