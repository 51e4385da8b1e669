package experiments

import (
	"testing"

	"vcoma/internal/config"
	"vcoma/internal/runner"
	"vcoma/internal/workload"
)

// TestSuiteDeterministicAcrossWorkersAndCache is the report-determinism
// guarantee: the rendered Markdown must be byte-identical whether the suite
// runs on one worker, on many, against a cold cache, or entirely from a
// warm one.
func TestSuiteDeterministicAcrossWorkersAndCache(t *testing.T) {
	run := func(jobs int, cacheDir string) (string, int) {
		s := &Suite{
			Cfg:        config.Baseline(),
			Scale:      workload.ScaleTest,
			Benchmarks: []string{"RADIX"},
			Jobs:       jobs,
			CacheDir:   cacheDir,
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.RenderMarkdown(), res.CacheHits
	}

	serial, _ := run(1, "")
	parallel, _ := run(4, "")
	if serial != parallel {
		t.Error("1-worker and 4-worker reports differ")
	}

	cache := t.TempDir()
	cold, _ := run(4, cache)
	if cold != serial {
		t.Error("cold-cache report differs from uncached")
	}
	warm, hits := run(4, cache)
	if warm != serial {
		t.Error("warm-cache report differs from uncached")
	}
	if hits == 0 {
		t.Error("second cached run recomputed everything: no cache hits")
	}
}

// Table 4 and Figure 10 share their 8-entry TLB and DLB cells by key, so
// even without a cache the default test-scale plan computes each distinct
// key once and serves the twins as cache hits.
func TestSuiteComputesEachKeyOnce(t *testing.T) {
	s := &Suite{Cfg: config.Baseline(), Scale: workload.ScaleTest, Jobs: 2}
	plan, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[runner.Key]bool)
	for _, j := range plan.Jobs() {
		keys[j.Key] = true
	}
	if len(plan.Jobs()) != 90 || len(keys) != 78 {
		t.Fatalf("plan has %d jobs and %d keys, want 90 and 78", len(plan.Jobs()), len(keys))
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 12 {
		t.Fatalf("%d of 90 passes were cache hits, want the 12 repeated keys", res.CacheHits)
	}
}
