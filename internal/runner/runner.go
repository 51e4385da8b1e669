// Package runner is a generic parallel experiment scheduler: it takes a list
// of named simulation jobs, executes them in list order on a bounded worker
// pool, and layers three cross-cutting services over the execution — a
// content-addressed on-disk result cache (Cache), robustness (per-job panic
// recovery, context cancellation, fail-fast or collect-all error policies),
// and observability (a Progress reporter with per-job wall times, cache-hit
// counts and an ETA).
//
// Jobs are pure functions keyed by a deterministic content hash of their
// inputs (KeyOf), so results are position-independent: jobs with equal keys
// compute once per run, and the same suite produces byte-identical reports
// at any worker count and from any cache state. The experiment harness
// (internal/experiments) enumerates the paper's evaluation grid as runner
// jobs; cmd/vcoma-report executes them through this package.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"vcoma/internal/obs"
)

// Job is one schedulable unit of work. Construct jobs with New so the
// result type is captured for cache decoding; the zero Job is invalid.
type Job struct {
	// Name uniquely identifies the job within one Run and labels it in
	// progress output and results.
	Name string
	// Key is the content hash of the job's inputs. Jobs with equal keys
	// compute equal results of one type: they run once per Run and share
	// cache entries. Empty = uncacheable, always runs.
	Key Key

	run    func(context.Context) (any, error)
	decode func(json.RawMessage) (any, error)
}

// New builds a job from a typed function. The result type T must be
// JSON-round-trippable if the job is to be cached: a cache hit yields
// exactly the value json.Unmarshal reconstructs, and the runner relies on
// that being indistinguishable from a fresh computation.
func New[T any](name string, key Key, fn func(context.Context) (T, error)) Job {
	return Job{
		Name: name,
		Key:  key,
		run: func(ctx context.Context) (any, error) {
			return fn(ctx)
		},
		decode: func(raw json.RawMessage) (any, error) {
			var v T
			if err := json.Unmarshal(raw, &v); err != nil {
				return nil, err
			}
			return v, nil
		},
	}
}

// Policy selects how the pool reacts to a failing job.
type Policy int

const (
	// FailFast cancels the whole run at the first job error; queued jobs
	// are skipped and Run returns that first error.
	FailFast Policy = iota
	// CollectAll keeps running every job and returns the joined errors at
	// the end.
	CollectAll
)

// Options configures a Run.
type Options struct {
	// Workers bounds concurrent jobs; <= 0 means GOMAXPROCS.
	Workers int
	// Cache, if non-nil, serves and stores results of keyed jobs.
	Cache *Cache
	// Policy is the error policy; the zero value is FailFast.
	Policy Policy
	// Progress, if non-nil, receives per-job completion events.
	Progress *Progress
	// Metrics gives each freshly-computed job its own obs.Observer,
	// reachable inside the job via ObserverFrom(ctx). When the job
	// succeeds, is keyed and a Cache is attached, the observer's time
	// series and histograms are written next to the cache entry as
	// <key>.metrics.json. Cache hits have no metrics to record.
	Metrics bool
	// MetricsInterval is the sampler epoch in simulated cycles for
	// Metrics-enabled runs; 0 means DefaultMetricsInterval.
	MetricsInterval uint64
	// JobTimeout bounds every job with a context deadline; jobs that
	// honour their context (all simulation passes do, via the sim
	// watchdog) abort with a deadline error and a diagnostic dump.
	// 0 means unbounded.
	JobTimeout time.Duration
	// Journal, if non-nil, records every completed job so an interrupted
	// suite can be resumed (vcoma-report -resume).
	Journal *Journal
}

// DefaultMetricsInterval is the sampler epoch used when Options.Metrics is
// on and no interval is given.
const DefaultMetricsInterval = 10000

// obsCtxKey carries a job's Observer through its context.
type obsCtxKey struct{}

// ObserverFrom returns the observability sink a Metrics-enabled Run
// installed for this job, or nil. Job functions pass it to instrumented
// entry points (e.g. vcoma.RunOptions.Observer); a nil result degrades to
// an uninstrumented run.
func ObserverFrom(ctx context.Context) *obs.Observer {
	o, _ := ctx.Value(obsCtxKey{}).(*obs.Observer)
	return o
}

// JobMetrics is the sidecar written next to a cache entry for
// Metrics-enabled runs.
type JobMetrics struct {
	Job        string                  `json:"job"`
	TimeSeries *obs.TimeSeries         `json:"timeSeries,omitempty"`
	Histograms []obs.HistogramSnapshot `json:"histograms,omitempty"`
}

// Result is one job's outcome.
type Result struct {
	Name string
	// Value is the job's result (the T passed to New), either freshly
	// computed or decoded from the cache.
	Value any
	Err   error
	// Cached reports that Value was served from the cache, or taken from
	// an earlier job of the same key in this run.
	Cached bool
	// Skipped reports that the job never ran (cancelled run); Err carries
	// the reason.
	Skipped bool
	// Wall is the job's observed wall time (≈0 for cache hits and skips).
	Wall time.Duration
}

// RunResult is the outcome of a whole Run.
type RunResult struct {
	// Jobs holds every job's result by name.
	Jobs map[string]Result
	// CacheHits counts jobs served from the cache.
	CacheHits int
	// Elapsed is the wall time of the whole run.
	Elapsed time.Duration
}

// ValueOf extracts the typed result of a named job.
func ValueOf[T any](r *RunResult, name string) (T, error) {
	var zero T
	res, ok := r.Jobs[name]
	if !ok {
		return zero, fmt.Errorf("runner: no job %q in run", name)
	}
	if res.Err != nil {
		return zero, res.Err
	}
	v, ok := res.Value.(T)
	if !ok {
		return zero, fmt.Errorf("runner: job %q produced %T, want %T", name, res.Value, zero)
	}
	return v, nil
}

// PanicError wraps a panic recovered inside a job so one diverging
// simulation cannot take down the whole sweep.
type PanicError struct {
	Job   string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %s panicked: %v", e.Job, e.Value)
}

// ErrSkipped is wrapped into the Err of jobs that never ran.
var ErrSkipped = errors.New("job skipped")

// Run executes the jobs on a bounded worker pool, dispatching them in slice
// order, and returns every job's result. Jobs that share a non-empty Key
// compute once: only the first is dispatched; if it succeeds, each later job
// of that key takes its Value as a cache hit, and if it fails, the next job
// of that key runs in its place. The returned error is nil only if every job
// succeeded; under FailFast it is the first job error, under CollectAll the
// join of all of them. The Jobs map is complete in either case (failed and
// skipped jobs carry their Err), so callers can render partial results.
func Run(ctx context.Context, jobs []Job, opt Options) (*RunResult, error) {
	start := time.Now()
	names := make(map[string]bool, len(jobs))
	for i, j := range jobs {
		if j.Name == "" || j.run == nil {
			return nil, fmt.Errorf("runner: job %d is invalid (empty name or not built with New)", i)
		}
		if names[j.Name] {
			return nil, fmt.Errorf("runner: duplicate job name %q", j.Name)
		}
		names[j.Name] = true
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(jobs))
	if opt.Progress != nil {
		opt.Progress.begin(len(jobs))
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		results  = make(map[string]Result, len(jobs))
		firstErr error
		// waiting holds, for each key whose first job is queued or running,
		// the later jobs of that key in slice order.
		waiting = make(map[Key][]*Job)
		ready   = make(chan *Job, len(jobs))
	)
	for i := range jobs {
		j := &jobs[i]
		if j.Key != "" {
			if q, ok := waiting[j.Key]; ok {
				waiting[j.Key] = append(q, j)
				continue
			}
			waiting[j.Key] = nil
		}
		ready <- j
	}
	close(ready)

	// record stores, journals and reports one result; mu must be held.
	record := func(r Result) {
		results[r.Name] = r
		if opt.Journal != nil && !r.Skipped {
			opt.Journal.record(r)
		}
		if r.Err != nil && !r.Skipped && firstErr == nil {
			firstErr = r.Err
			if opt.Policy == FailFast {
				cancel()
			}
		}
		if opt.Progress != nil {
			opt.Progress.observe(r)
		}
	}
	// settle records j's result and settles the jobs waiting on its key. It
	// returns the job this worker runs next: after a failure or skip, the
	// next waiting job of the key (failures are never shared); otherwise nil.
	settle := func(j *Job, r Result) *Job {
		mu.Lock()
		defer mu.Unlock()
		record(r)
		q := waiting[j.Key]
		if len(q) == 0 {
			return nil
		}
		if r.Err != nil {
			waiting[j.Key] = q[1:]
			return q[0]
		}
		for _, f := range q {
			record(Result{Name: f.Name, Value: r.Value, Cached: true})
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ready {
				for j != nil {
					var r Result
					if ctx.Err() != nil {
						r = Result{Name: j.Name, Err: fmt.Errorf("%w: %v", ErrSkipped, context.Cause(ctx)), Skipped: true}
					} else {
						r = execute(ctx, j, opt)
					}
					j = settle(j, r)
				}
			}
		}()
	}
	wg.Wait()

	rr := &RunResult{Jobs: results, Elapsed: time.Since(start)}
	var errs []error
	skipped := false
	for _, j := range jobs {
		r := results[j.Name]
		if r.Cached {
			rr.CacheHits++
		}
		if r.Err != nil && !r.Skipped {
			errs = append(errs, fmt.Errorf("%s: %w", r.Name, r.Err))
		}
		skipped = skipped || r.Skipped
	}
	if opt.Policy == FailFast && firstErr != nil {
		return rr, firstErr
	}
	if len(errs) > 0 {
		return rr, errors.Join(errs...)
	}
	if skipped {
		// No job failed but some never ran: the parent context was
		// cancelled.
		return rr, context.Cause(ctx)
	}
	return rr, nil
}

// execute runs one job: cache probe, one recovery-wrapped attempt, cache
// fill. A simulation is deterministic, so a failed job is not run again.
func execute(ctx context.Context, j *Job, opt Options) (res Result) {
	start := time.Now()
	res.Name = j.Name
	span := obs.SpanFrom(ctx) // request-scoped trace; nil = all no-ops
	if opt.Cache != nil && j.Key != "" && j.decode != nil {
		probe := span.StartChild("cache-probe")
		raw, ok := opt.Cache.get(j.Key)
		if ok {
			if v, err := j.decode(raw); err == nil {
				probe.SetAttr("hit", "true")
				probe.End()
				res.Value, res.Cached = v, true
				res.Wall = time.Since(start)
				return res
			}
			// The entry is well-formed but does not decode into this job's
			// result type: quarantine it for inspection and recompute.
			opt.Cache.Quarantine(j.Key, fmt.Sprintf("entry does not decode into %s's result type", j.Name))
		}
		probe.SetAttr("hit", "false")
		probe.End()
	}
	asp := span.StartChild("attempt")
	var o *obs.Observer
	res.Value, o, res.Err = runAttempt(obs.WithSpan(ctx, asp), j, opt)
	asp.End()
	res.Wall = time.Since(start)
	if res.Err == nil && opt.Cache != nil && j.Key != "" {
		// A failed write only costs a recomputation next run.
		put := span.StartChild("store-put")
		_ = opt.Cache.Put(j.Key, j.Name, res.Value)
		put.End()
		if o != nil && o.Registry.Len() > 0 {
			ts := o.Sampler.Export()
			_ = opt.Cache.PutMetrics(j.Key, JobMetrics{
				Job:        j.Name,
				TimeSeries: &ts,
				Histograms: o.Registry.Histograms(),
			})
		}
	}
	return res
}

// runAttempt performs the recovery-wrapped call of the job function under
// the per-job deadline, returning the job's observer for the
// metrics sidecar. The call carries the pprof labels job=<Name> and
// key=<Key>, so any CPU profile of the process attributes its samples to
// passes (go tool pprof -tagfocus job=<regexp>).
func runAttempt(ctx context.Context, j *Job, opt Options) (v any, o *obs.Observer, err error) {
	if opt.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.JobTimeout)
		defer cancel()
	}
	if opt.Metrics {
		interval := opt.MetricsInterval
		if interval == 0 {
			interval = DefaultMetricsInterval
		}
		o = obs.New(obs.Options{MetricsInterval: interval})
		ctx = context.WithValue(ctx, obsCtxKey{}, o)
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Job: j.Name, Value: r, Stack: debug.Stack()}
		}
	}()
	pprof.Do(ctx, pprof.Labels("job", j.Name, "key", string(j.Key)), func(ctx context.Context) {
		v, err = j.run(ctx)
	})
	return v, o, err
}
