package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestChaosParse(t *testing.T) {
	c, err := ParseChaos("panic:fig11,hang:table4,cancel:5,corrupt:mgmt")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Faults) != 4 {
		t.Fatalf("parsed %d faults, want 4", len(c.Faults))
	}
	if got := c.String(); got != "panic:fig11,hang:table4,cancel:5,corrupt:mgmt" {
		t.Errorf("round trip = %q", got)
	}
	if c, err := ParseChaos(""); c != nil || err != nil {
		t.Errorf("empty spec: got %v, %v", c, err)
	}
	for _, bad := range []string{"explode:x", "flaky:x", "flaky:x:0", "flaky:x:2", "cancel:none", "panic:", "cancel:0"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("spec %q should be rejected", bad)
		}
	}
}

// An injected panic is detected, reported as a *PanicError, and isolated
// to its job.
func TestChaosPanicDetected(t *testing.T) {
	chaos, _ := ParseChaos("panic:victim")
	jobs := chaos.Wrap([]Job{constJob("victim", 1), constJob("bystander", 2)})
	rr, err := Run(context.Background(), jobs, Options{Policy: CollectAll})
	if err == nil {
		t.Fatal("want error from injected panic")
	}
	var pe *PanicError
	if !errors.As(rr.Jobs["victim"].Err, &pe) {
		t.Errorf("victim err = %v, want a *PanicError", rr.Jobs["victim"].Err)
	}
	if v, err := ValueOf[int](rr, "bystander"); err != nil || v != 2 {
		t.Errorf("bystander = %d, %v; chaos must not leak across jobs", v, err)
	}
}

// An injected hang is reclaimed by the per-job deadline within its budget.
func TestChaosHangAbortedByTimeout(t *testing.T) {
	chaos, _ := ParseChaos("hang:stuck")
	jobs := chaos.Wrap([]Job{constJob("stuck", 1)})
	done := make(chan struct{})
	var rr *RunResult
	var err error
	go func() {
		rr, err = Run(context.Background(), jobs, Options{JobTimeout: 10 * time.Millisecond})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("hung job was not reclaimed by JobTimeout")
	}
	if err == nil {
		t.Fatal("want timeout error")
	}
	if err := rr.Jobs["stuck"].Err; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("stuck err = %v, want a deadline error", err)
	}
}

// Corrupted cache entries are quarantined with a reason, not silently
// recomputed, and the recompute still yields the right value.
func TestChaosCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetLog(nil)
	jobs := []Job{New("cell", KeyOf("cell-inputs"), func(context.Context) (int, error) { return 13, nil })}
	if _, err := Run(context.Background(), jobs, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}

	chaos, _ := ParseChaos("corrupt:cell")
	n, err := chaos.CorruptMatching(cache, jobs)
	if err != nil || n != 1 {
		t.Fatalf("corrupted %d entries (%v), want 1", n, err)
	}

	rr, err := Run(context.Background(), jobs, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Jobs["cell"].Cached {
		t.Error("corrupt entry must not serve as a cache hit")
	}
	if v, _ := ValueOf[int](rr, "cell"); v != 13 {
		t.Errorf("recomputed value = %d, want 13", v)
	}
	if q := cache.Quarantined(); q != 1 {
		t.Errorf("quarantined = %d, want 1", q)
	}
	reasons, _ := filepath.Glob(filepath.Join(cache.QuarantineDir(), "*.reason"))
	if len(reasons) != 1 {
		t.Fatalf("want one .reason file, got %v", reasons)
	}
	reason, _ := os.ReadFile(reasons[0])
	if !strings.Contains(string(reason), "checksum mismatch") {
		t.Errorf("reason = %q, want checksum mismatch", reason)
	}
}

// renderOf assembles a deterministic mini-report from a run's values, in
// job-name order — a stand-in for the suite's Markdown renderer.
func renderOf(t *testing.T, rr *RunResult, names []string) string {
	t.Helper()
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	var b strings.Builder
	for _, n := range sorted {
		v, err := ValueOf[int](rr, n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		fmt.Fprintf(&b, "%s=%d\n", n, v)
	}
	return b.String()
}

// A run killed mid-flight by an injected cancellation leaves a journal and
// a partial cache; resuming completes the plan and renders byte-identically
// to an uninterrupted run.
func TestChaosCancelThenResumeByteIdentical(t *testing.T) {
	mkJobs := func() ([]Job, []string) {
		var jobs []Job
		var names []string
		for i := 0; i < 8; i++ {
			i := i
			name := fmt.Sprintf("cell%d", i)
			names = append(names, name)
			jobs = append(jobs, New(name, KeyOf("cell", i), func(context.Context) (int, error) {
				return i * i, nil
			}))
		}
		return jobs, names
	}

	// Reference: uninterrupted run with its own cache.
	refJobs, names := mkJobs()
	refCache, _ := OpenCache(t.TempDir())
	refRun, err := Run(context.Background(), refJobs, Options{Cache: refCache, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := renderOf(t, refRun, names)

	// Interrupted run: cancel after 3 completed jobs, journal attached.
	dir := t.TempDir()
	cache, _ := OpenCache(dir)
	jobs, _ := mkJobs()
	plan := PlanKey(jobs)
	jpath := filepath.Join(dir, "journal.json")
	jl, err := CreateJournal(jpath, plan, len(jobs), nil)
	if err != nil {
		t.Fatal(err)
	}
	chaos, _ := ParseChaos("cancel:3")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	chaos.BindCancel(cancel)
	_, err = Run(ctx, chaos.Wrap(jobs), Options{Cache: cache, Workers: 1, Journal: jl})
	jl.Close()
	if !errors.Is(err, ErrChaosCancel) {
		t.Fatalf("interrupted run: got %v, want ErrChaosCancel cause", err)
	}
	if _, err := os.Stat(jpath); err != nil {
		t.Fatal("interrupted run must leave its journal behind")
	}

	// Resume: same plan, same cache; completed cells come from the cache.
	jobs2, _ := mkJobs()
	if pk := PlanKey(jobs2); pk != plan {
		t.Fatal("re-enumerated plan hashes differently")
	}
	jl2, prev, err := ResumeJournal(jpath, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prev) < 3 {
		t.Fatalf("journal recorded %d completions before the kill, want >= 3", len(prev))
	}
	resumed, err := Run(context.Background(), jobs2, Options{Cache: cache, Workers: 2, Journal: jl2})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl2.Complete(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(jpath); !os.IsNotExist(err) {
		t.Fatal("completed resume must delete the journal")
	}
	if resumed.CacheHits < 3 {
		t.Errorf("resume recomputed everything (%d cache hits), want >= 3", resumed.CacheHits)
	}
	if got := renderOf(t, resumed, names); got != want {
		t.Errorf("resumed render differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
