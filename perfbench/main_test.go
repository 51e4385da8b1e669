package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"

	"vcoma"
	"vcoma/internal/experiments"
	"vcoma/internal/obs"
	"vcoma/internal/workload"
)

var update = flag.Bool("update", false, "rewrite expected.json from this build's outputs")

// TestExpected regenerates expected.json (with -update): the digests and
// counts of every cell at test and paper scale, and the campaign report's
// sha256 at test scale.
func TestExpected(t *testing.T) {
	if !*update {
		t.Skip("regenerates expected.json; run with -update")
	}
	e := expected{Cells: map[string]map[string]cellExpect{}, CampaignReportSHA256: map[string]string{}}
	for _, scale := range []workload.Scale{workload.ScaleTest, workload.ScalePaper} {
		e.Cells[scale.String()] = map[string]cellExpect{}
		for _, pc := range paperCells {
			c, err := runCell(runConfig{scale: scale}, nil, pc.bench, pc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			e.Cells[scale.String()][c.name] = c.expect
		}
	}
	res, err := (&experiments.Suite{Cfg: vcoma.Baseline(), Scale: workload.ScaleTest, Jobs: runtime.NumCPU()}).Run()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256([]byte(res.RenderMarkdown()))
	e.CampaignReportSHA256[workload.ScaleTest.String()] = hex.EncodeToString(h[:])
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("expected.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSelfTest runs every workload briefly at test scale, untraced and
// traced, and checks that its outputs pass their checks and that it emits
// exactly the metrics BENCHMARK.json names, with the same units.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	sameDefs := func(kind string, got []def, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: the benchmark emits %d metrics, BENCHMARK.json names %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s metric %d: the benchmark emits %s [%s], BENCHMARK.json names %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	sameDefs("end_to_end", endToEnd, bench.EndToEnd)
	sameDefs("per_layer", perLayer, bench.PerLayer)

	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for _, w := range bench.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not run", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, seconds: 2, scale: workload.ScaleTest, work: t.TempDir()}
			if traced {
				cfg.trace = obs.NewTrace(obs.NewTraceID())
			}
			out, err := wl.run(cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d failed: %v", w.Name, traced, out.failed, out.attempted, out.mismatches)
			}
			for _, d := range endToEnd {
				if v, ok := out.e2e[d.name]; !ok || !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v (present %v), want > 0", w.Name, d.name, v, ok)
				}
			}
			for name := range out.layer {
				if !known[name] {
					t.Errorf("%s: per-layer metric %s is not declared", w.Name, name)
				}
			}
			if traced && len(cfg.trace.Export().Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.Name)
			}
		}
	}
}
