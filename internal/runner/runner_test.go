package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func job(name string, fn func(context.Context) (int, error)) Job {
	return New(name, "", fn)
}

func constJob(name string, v int) Job {
	return job(name, func(context.Context) (int, error) { return v, nil })
}

func TestRunAllJobsSucceed(t *testing.T) {
	var jobs []Job
	for i := 0; i < 20; i++ {
		i := i
		jobs = append(jobs, constJob(fmt.Sprintf("j%d", i), i*i))
	}
	rr, err := Run(context.Background(), jobs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Jobs) != 20 {
		t.Fatalf("got %d results", len(rr.Jobs))
	}
	for i := 0; i < 20; i++ {
		v, err := ValueOf[int](rr, fmt.Sprintf("j%d", i))
		if err != nil || v != i*i {
			t.Fatalf("j%d = %d, %v", i, v, err)
		}
	}
}

func TestRunRespectsWorkerBound(t *testing.T) {
	var cur, max atomic.Int64
	var jobs []Job
	for i := 0; i < 16; i++ {
		jobs = append(jobs, job(fmt.Sprintf("j%d", i), func(context.Context) (int, error) {
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return 0, nil
		}))
	}
	if _, err := Run(context.Background(), jobs, Options{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got > 3 {
		t.Fatalf("observed %d concurrent jobs with Workers=3", got)
	}
}

// With one worker, jobs start in slice order.
func TestRunDispatchesInSliceOrder(t *testing.T) {
	var mu sync.Mutex
	var order, want []string
	var jobs []Job
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("j%02d", 11-i)
		want = append(want, name)
		jobs = append(jobs, job(name, func(context.Context) (int, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return 0, nil
		}))
	}
	if _, err := Run(context.Background(), jobs, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("start order %v, want %v", order, want)
	}
}

func TestRunDetectsBadGraphs(t *testing.T) {
	if _, err := Run(context.Background(), []Job{constJob("d", 1), constJob("d", 2)}, Options{}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate not detected: %v", err)
	}
	if _, err := Run(context.Background(), []Job{{Name: "raw"}}, Options{}); err == nil {
		t.Fatal("job not built with New accepted")
	}
}

// A panicking job must not take down the pool: its result carries a
// PanicError and, under CollectAll, every other job still completes.
func TestRunPanicIsolation(t *testing.T) {
	jobs := []Job{
		job("boom", func(context.Context) (int, error) { panic("translation fault") }),
		constJob("ok1", 1),
		constJob("ok2", 2),
	}
	rr, err := Run(context.Background(), jobs, Options{Workers: 2, Policy: CollectAll})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not reported: %v", err)
	}
	var pe *PanicError
	if !errors.As(rr.Jobs["boom"].Err, &pe) {
		t.Fatalf("boom error %T", rr.Jobs["boom"].Err)
	}
	if pe.Value != "translation fault" || len(pe.Stack) == 0 {
		t.Fatalf("panic detail lost: %+v", pe)
	}
	for _, name := range []string{"ok1", "ok2"} {
		if rr.Jobs[name].Err != nil {
			t.Fatalf("%s did not survive the panic: %v", name, rr.Jobs[name].Err)
		}
	}
}

// Every job runs under the pprof labels job=<Name> and key=<Key>, set on
// the worker goroutine itself, so a CPU profile of the process attributes
// each sample to its pass.
func TestRunLabelsEveryAttempt(t *testing.T) {
	var mu sync.Mutex
	seen := map[string][]string{}
	labelled := func(name string) Job {
		return New(name, Key("key-"+name), func(ctx context.Context) (int, error) {
			jobLabel, _ := pprof.Label(ctx, "job")
			keyLabel, _ := pprof.Label(ctx, "key")
			var goroutines strings.Builder
			pprof.Lookup("goroutine").WriteTo(&goroutines, 1)
			onGoroutine := strings.Contains(goroutines.String(), `"job":"`+name+`"`)
			mu.Lock()
			seen[name] = append(seen[name], fmt.Sprintf("%s|%s|%v", jobLabel, keyLabel, onGoroutine))
			mu.Unlock()
			return 1, nil
		})
	}
	names := []string{"fig10/OCEAN/DLB/8", "serve/FFT/L0-TLB"}
	_, err := Run(context.Background(), []Job{labelled(names[0]), labelled(names[1])}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		got := seen[name]
		if len(got) != 1 {
			t.Fatalf("%s: %d attempts labelled, want 1", name, len(got))
		}
		for i, g := range got {
			if w := name + "|key-" + name + "|true"; g != w {
				t.Errorf("%s attempt %d: labels %q, want %q", name, i+1, g, w)
			}
		}
	}
}

// A failed job runs once and its error is the job's.
func TestRunPermanentFailsFast(t *testing.T) {
	attempts := 0
	bad := errors.New("deterministic failure")
	jobs := []Job{job("perm", func(context.Context) (int, error) {
		attempts++
		return 0, bad
	})}
	rr, err := Run(context.Background(), jobs, Options{})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want %v", err, bad)
	}
	if attempts != 1 {
		t.Errorf("failed job ran %d times, want 1", attempts)
	}
	if r := rr.Jobs["perm"]; !errors.Is(r.Err, bad) || r.Skipped {
		t.Errorf("perm: %+v, want its own error", r)
	}
}

// A hung job is reclaimed by the per-job deadline and runs once.
func TestRunJobTimeoutAborts(t *testing.T) {
	attempts := 0
	jobs := []Job{job("hung", func(ctx context.Context) (int, error) {
		attempts++
		<-ctx.Done()
		return 0, ctx.Err()
	})}
	rr, err := Run(context.Background(), jobs, Options{JobTimeout: 5 * time.Millisecond})
	if err == nil {
		t.Fatal("want timeout error")
	}
	if attempts != 1 {
		t.Errorf("timed-out job ran %d times, want 1", attempts)
	}
	if r := rr.Jobs["hung"]; !errors.Is(r.Err, context.DeadlineExceeded) || r.Skipped {
		t.Errorf("hung: %+v, want a deadline error", r)
	}
}

// A panicking job fails with a *PanicError and runs once.
func TestRunPanicClassified(t *testing.T) {
	attempts := 0
	jobs := []Job{job("bomb", func(context.Context) (int, error) {
		attempts++
		panic("injected")
	})}
	rr, err := Run(context.Background(), jobs, Options{})
	if err == nil {
		t.Fatal("want panic error")
	}
	if attempts != 1 {
		t.Errorf("panicking job ran %d times, want 1", attempts)
	}
	var pe *PanicError
	if !errors.As(rr.Jobs["bomb"].Err, &pe) || pe.Job != "bomb" {
		t.Errorf("bomb: %v, want a *PanicError naming the job", rr.Jobs["bomb"].Err)
	}
}

// Under FailFast, a failure skips the jobs that have not started; the first
// error is returned.
func TestRunFailFastSkipsPending(t *testing.T) {
	bad := errors.New("bad cell")
	started := make(chan struct{})
	jobs := []Job{
		job("fail", func(context.Context) (int, error) {
			<-started // ensure the slow job is in flight first
			return 0, bad
		}),
		job("slow", func(ctx context.Context) (int, error) {
			close(started)
			<-ctx.Done() // cancelled by the failure
			return 0, ctx.Err()
		}),
		constJob("late1", 1), constJob("late2", 2), constJob("late3", 3),
		constJob("pending", 4),
	}
	rr, err := Run(context.Background(), jobs, Options{Workers: 2, Policy: FailFast})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want %v", err, bad)
	}
	if !errors.Is(rr.Jobs["pending"].Err, ErrSkipped) || !rr.Jobs["pending"].Skipped {
		t.Fatalf("pending not skipped: %+v", rr.Jobs["pending"])
	}
	if len(rr.Jobs) != 6 {
		t.Fatalf("result map not total: %d entries", len(rr.Jobs))
	}
}

// Cancelling the parent context mid-pool stops the run: in-flight jobs see
// the cancellation, queued jobs are skipped, and Run reports the cause.
func TestRunContextCancellationMidPool(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inFlight := make(chan struct{})
	var jobs []Job
	jobs = append(jobs, job("inflight", func(ctx context.Context) (int, error) {
		close(inFlight)
		<-ctx.Done()
		return 0, ctx.Err()
	}))
	// The gate holds the second worker until the run is cancelled, so the
	// queued jobs behind it deterministically reach the pool post-cancel.
	jobs = append(jobs, job("gate", func(ctx context.Context) (int, error) {
		<-ctx.Done()
		return 0, nil
	}))
	for i := 0; i < 10; i++ {
		jobs = append(jobs, job(fmt.Sprintf("queued%d", i), func(context.Context) (int, error) {
			time.Sleep(time.Millisecond)
			return 0, nil
		}))
	}
	go func() {
		<-inFlight
		cancel()
	}()
	rr, err := Run(ctx, jobs, Options{Workers: 2, Policy: FailFast})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(rr.Jobs["inflight"].Err, context.Canceled) {
		t.Fatalf("inflight: %+v", rr.Jobs["inflight"])
	}
	skipped := 0
	for _, r := range rr.Jobs {
		if r.Skipped {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no queued job was skipped after cancellation")
	}
	if len(rr.Jobs) != len(jobs) {
		t.Fatalf("result map not total: %d/%d", len(rr.Jobs), len(jobs))
	}
}

// keyedJob builds a job of the shared key "k" that counts its executions.
func keyedJob(name string, execs *atomic.Int64, fn func(context.Context) (int, error)) Job {
	return New(name, KeyOf("k"), func(ctx context.Context) (int, error) {
		execs.Add(1)
		return fn(ctx)
	})
}

// Equal-key jobs compute once: the later one takes the first one's value
// as a cache hit, without a cache and without taking a worker.
func TestRunCoalescesEqualKeys(t *testing.T) {
	var execs atomic.Int64
	seven := func(context.Context) (int, error) { return 7, nil }
	prog := NewProgress(nil)
	jobs := []Job{keyedJob("first", &execs, seven), constJob("other", 1), keyedJob("second", &execs, seven)}
	rr, err := Run(context.Background(), jobs, Options{Workers: 2, Progress: prog})
	if err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 1 || rr.CacheHits != 1 {
		t.Fatalf("execs=%d hits=%d, want 1 and 1", execs.Load(), rr.CacheHits)
	}
	for _, name := range []string{"first", "second"} {
		if v, err := ValueOf[int](rr, name); err != nil || v != 7 {
			t.Fatalf("%s = %d, %v", name, v, err)
		}
	}
	if r := rr.Jobs["second"]; !r.Cached {
		t.Fatalf("second: %+v, want cached", r)
	}
	if sum := prog.Summary(); sum.Done != 3 || sum.CacheHits != 1 {
		t.Fatalf("progress: done=%d hits=%d", sum.Done, sum.CacheHits)
	}
}

// A failure is never shared: the next job of the key runs in its place.
func TestRunFailedKeyPassesToNextJob(t *testing.T) {
	var execs atomic.Int64
	jobs := []Job{
		keyedJob("first", &execs, func(context.Context) (int, error) { return 0, errors.New("x") }),
		keyedJob("second", &execs, func(context.Context) (int, error) { return 7, nil }),
		keyedJob("third", &execs, func(context.Context) (int, error) { return 7, nil }),
	}
	rr, err := Run(context.Background(), jobs, Options{Workers: 2, Policy: CollectAll})
	if err == nil || rr.Jobs["first"].Err == nil {
		t.Fatalf("first did not fail: %v", err)
	}
	if r := rr.Jobs["second"]; r.Err != nil || r.Cached {
		t.Fatalf("second: %+v, want computed", r)
	}
	if r := rr.Jobs["third"]; r.Err != nil || !r.Cached || r.Value != 7 {
		t.Fatalf("third: %+v, want second's value", r)
	}
	if execs.Load() != 2 {
		t.Fatalf("execs=%d, want 2", execs.Load())
	}
}

// Cancelling the run while the first job of a key runs skips the later
// ones instead of running them.
func TestRunCancelSkipsWaitingKeyJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var execs atomic.Int64
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	jobs := []Job{
		keyedJob("first", &execs, func(ctx context.Context) (int, error) {
			close(started)
			<-ctx.Done()
			return 0, ctx.Err()
		}),
		keyedJob("second", &execs, func(context.Context) (int, error) { return 7, nil }),
	}
	rr, err := Run(ctx, jobs, Options{Workers: 2, Policy: CollectAll})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if r := rr.Jobs["second"]; !r.Skipped || !errors.Is(r.Err, ErrSkipped) {
		t.Fatalf("second: %+v, want skipped", r)
	}
	if execs.Load() != 1 || len(rr.Jobs) != 2 {
		t.Fatalf("execs=%d results=%d", execs.Load(), len(rr.Jobs))
	}
}

type payload struct {
	N int
	S string
}

// Cached jobs are served without executing; equal keys share entries.
func TestRunServesFromCache(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64
	mk := func(name string) Job {
		return New(name, KeyOf("payload", 7), func(context.Context) (payload, error) {
			executions.Add(1)
			return payload{N: 7, S: "seven"}, nil
		})
	}
	rr, err := Run(context.Background(), []Job{mk("a")}, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rr.CacheHits != 0 || executions.Load() != 1 {
		t.Fatalf("cold run: hits=%d execs=%d", rr.CacheHits, executions.Load())
	}
	// Second run, different job name, same key: served from cache.
	rr, err = Run(context.Background(), []Job{mk("b")}, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rr.CacheHits != 1 || executions.Load() != 1 {
		t.Fatalf("warm run: hits=%d execs=%d", rr.CacheHits, executions.Load())
	}
	v, err := ValueOf[payload](rr, "b")
	if err != nil || v != (payload{N: 7, S: "seven"}) {
		t.Fatalf("cached value %+v, %v", v, err)
	}
	// Unkeyed jobs never touch the cache.
	rr, err = Run(context.Background(), []Job{job("nokey", func(context.Context) (int, error) { return 1, nil })},
		Options{Cache: cache})
	if err != nil || rr.CacheHits != 0 {
		t.Fatalf("unkeyed job interacted with cache: %+v, %v", rr, err)
	}
}

// An entry that decodes into the wrong type is dropped and recomputed.
func TestRunRecomputesOnUndecodableEntry(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("shape-change")
	if err := cache.Put(key, "old", "a string, not a payload"); err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64
	j := New("j", key, func(context.Context) (payload, error) {
		executions.Add(1)
		return payload{N: 1}, nil
	})
	rr, err := Run(context.Background(), []Job{j}, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 1 || rr.CacheHits != 0 {
		t.Fatalf("undecodable entry served: execs=%d hits=%d", executions.Load(), rr.CacheHits)
	}
	// The recomputed value replaced the bad entry.
	var p payload
	if !cache.Get(key, &p) || p.N != 1 {
		t.Fatalf("cache not repaired: %+v", p)
	}
}

func TestKeyOfIsStableAndDiscriminating(t *testing.T) {
	type cfg struct {
		A int
		B string
	}
	k1 := KeyOf("kind", cfg{1, "x"}, "RADIX")
	k2 := KeyOf("kind", cfg{1, "x"}, "RADIX")
	if k1 != k2 {
		t.Fatal("KeyOf not deterministic")
	}
	if KeyOf("kind", cfg{2, "x"}, "RADIX") == k1 {
		t.Fatal("config change did not change key")
	}
	if KeyOf("kind", cfg{1, "x"}, "FFT") == k1 {
		t.Fatal("benchmark change did not change key")
	}
	if KeyOf("other", cfg{1, "x"}, "RADIX") == k1 {
		t.Fatal("kind change did not change key")
	}
	if len(k1) != 64 {
		t.Fatalf("key length %d", len(k1))
	}
}

func TestRunEmptyJobList(t *testing.T) {
	rr, err := Run(context.Background(), nil, Options{})
	if err != nil || len(rr.Jobs) != 0 {
		t.Fatalf("empty run: %+v, %v", rr, err)
	}
}
