package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"vcoma/internal/cli"
	"vcoma/internal/experiments"
	"vcoma/internal/fsio"
	"vcoma/internal/obs"
	"vcoma/internal/report"
	"vcoma/internal/runner"
	"vcoma/internal/sim"
)

// Options configures a Server.
type Options struct {
	// StateDir holds everything durable: the artifact store (StateDir/
	// artifacts), the accept journal and the advisory lock. Two servers
	// sharing a StateDir is a configuration error the lock catches.
	StateDir string
	// Workers bounds concurrent simulations; <= 0 means 1.
	Workers int
	// MaxQueue bounds the backlog; <= 0 means 64.
	MaxQueue int
	// MaxStoreBytes bounds the artifact store; 0 = unbounded.
	MaxStoreBytes int64
	// JobTimeout bounds each simulation; 0 = unbounded.
	JobTimeout time.Duration
	// Budget arms the simulation watchdog inside every job.
	Budget sim.Budget
	// Metrics writes per-job observability sidecars next to artifacts.
	Metrics bool
	// Chaos, if non-nil, wraps every job with the fault injector — the
	// smoke test's handle for holding a job mid-flight.
	Chaos *runner.Chaos
	// DrainGrace bounds the HTTP shutdown on SIGTERM; 0 means 5s.
	DrainGrace time.Duration
	// FS is the filesystem seam every durable write goes through (journal,
	// artifacts, traces); nil means a plain durable passthrough. Arm it with
	// failpoints (-fsfault) to rehearse disk failure.
	FS *fsio.FS
	// FaultControl exposes POST /debug/fsfault for swapping failpoint specs
	// at runtime. Off by default: it is a chaos-drill tool, not an API.
	FaultControl bool
	// ProbeInterval paces the degraded-mode self-heal probe; 0 means 2s.
	ProbeInterval time.Duration
	// DegradeAfter is how many consecutive durable-write failures flip the
	// server into degraded mode; 0 means 1 (first failure degrades).
	DegradeAfter int
	// Log receives structured operational lines; nil silences them. Every
	// job-scoped line carries trace_id and job_key.
	Log *slog.Logger
}

// Server is the vcoma simulation service: an HTTP/JSON API over the job
// Queue, executing jobs through runner.Run into the shared artifact Store,
// journaling admissions so a restart resumes the backlog.
type Server struct {
	opts    Options
	log     *slog.Logger
	queue   *Queue
	store   *Store
	journal *Journal
	lock    *runner.DirLock
	metrics *serverMetrics
	fs      *fsio.FS
	health  *health
	mem     *memResults
	traces  *traceIndex

	wg        sync.WaitGroup
	draining  chan struct{}
	drainOnce sync.Once
}

// jobLog returns the logger for one job's lines: every record carries the
// trace_id/job_key pair the README documents, so one grep by either
// reconstructs the job's history.
func (s *Server) jobLog(j *Job) *slog.Logger {
	return s.log.With("trace_id", string(j.TraceID()), "job_key", string(j.Key))
}

// New opens the state directory (store, journal, lock) and replays any
// pending backlog from a previous incarnation into the queue. The server
// does no work until Start.
func New(opts Options) (*Server, error) {
	if opts.StateDir == "" {
		return nil, fmt.Errorf("serve: empty state directory")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 64
	}
	if opts.DrainGrace <= 0 {
		opts.DrainGrace = 5 * time.Second
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 2 * time.Second
	}
	if opts.FS == nil {
		// Always run through the seam, even unarmed: the fsio op/error
		// counters on /metrics stay live either way.
		opts.FS = fsio.New(nil)
	}

	store, err := OpenStoreFS(filepath.Join(opts.StateDir, "artifacts"), opts.MaxStoreBytes, opts.FS)
	if err != nil {
		return nil, err
	}
	lock, err := runner.AcquireDirLock(opts.StateDir)
	if err != nil {
		return nil, err
	}
	journal, pending, err := OpenJournal(opts.StateDir, opts.FS)
	if err != nil {
		lock.Release()
		return nil, err
	}

	log := opts.Log
	if log == nil {
		log = cli.Discard()
	}
	s := &Server{
		opts:     opts,
		log:      log,
		queue:    NewQueue(opts.MaxQueue),
		store:    store,
		journal:  journal,
		lock:     lock,
		fs:       opts.FS,
		health:   newHealth(opts.DegradeAfter),
		mem:      newMemResults(0),
		draining: make(chan struct{}),
	}
	s.traces = newTraceIndex(s.traceDir(), traceRetention)
	s.metrics = newServerMetrics(s)

	// Resume: jobs accepted by the previous incarnation re-enter the queue;
	// ones whose artifact already exists are simply retired.
	for _, req := range pending {
		spec, err := req.Resolve()
		if err != nil {
			continue // compaction already dropped these, but be safe
		}
		key := spec.Key()
		if _, ok := store.GetRaw(key); ok {
			s.journalRetire(key, "done")
			continue
		}
		// A resumed job gets a fresh trace: the original's spans died with
		// the previous process, but the re-run should still be traceable.
		spec.Trace = obs.NewTrace(obs.NewTraceID())
		spec.Root = spec.Trace.StartSpan("request")
		spec.Root.SetAttr("name", spec.Name())
		spec.Root.SetAttr("resumed", "true")
		// The waiter token is discarded: the server itself is the resumed
		// job's only waiter (HTTP clients did not survive the restart), so
		// it runs to completion and lands in the store.
		if _, _, _, err := s.queue.Submit(spec); err != nil {
			// Leave it pending in the journal; the next boot retries.
			s.log.Warn("resume: not re-enqueued", "name", spec.Name(), "job_key", string(key), "error", err.Error())
			continue
		}
		s.metrics.resumed.Add(1)
		s.log.Info("resume: re-enqueued", "name", spec.Name(), "job_key", string(key), "trace_id", string(spec.Trace.ID()))
	}
	return s, nil
}

// journalRetire writes a terminal journal record. The queue, workers and
// handlers all retire jobs; the log serializes their appends.
func (s *Server) journalRetire(key runner.Key, op string) {
	err := s.journal.Retire(key, op)
	s.noteWrite("journal", err)
	if err != nil {
		s.log.Warn("journal", "op", op, "job_key", string(key), "error", err.Error())
	}
}

func (s *Server) journalAccept(key runner.Key, req Request) error {
	err := s.journal.Accept(key, req)
	s.noteWrite("journal", err)
	return err
}

// noteWrite feeds a durable-write outcome into the health state machine,
// logging the transition when a failure flips the server degraded.
func (s *Server) noteWrite(op string, err error) {
	if err == nil {
		s.health.writeOK()
		return
	}
	if s.health.writeFailed(op, err) {
		s.log.Error("entering degraded mode", "op", op, "error", err.Error())
	}
}

// Start launches the worker pool under ctx. Cancelling ctx stops dispatch;
// in-flight jobs are cancelled and re-queued in memory (and stay pending in
// the journal), which is the drain path.
func (s *Server) Start(ctx context.Context) {
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, err := s.queue.Next(ctx)
				if err != nil {
					return
				}
				s.runJob(ctx, j)
			}
		}()
	}
	// Self-heal probe: while degraded, periodically prove the state dir
	// writable again with a full atomic write; only this probe's success
	// clears degraded mode (see health).
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.opts.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if s.health.Degraded() {
					s.probeWrite()
				}
			}
		}
	}()
}

// probeWrite attempts one full durable write in the state directory.
func (s *Server) probeWrite() {
	path := filepath.Join(s.opts.StateDir, ".fsio-probe")
	if err := s.fs.WriteFileAtomic("probe", path, []byte("probe\n")); err != nil {
		s.health.probeFailed()
		s.log.Warn("degraded: write probe failed", "error", err.Error())
		return
	}
	s.fs.Remove("probe", path)
	if s.health.probeOK() {
		s.log.Info("leaving degraded mode: write probe succeeded")
	}
}

// Shutdown completes the drain: stops admission, waits for workers to
// return, then closes the journal and releases the lock. Safe to call once
// after the Start context is cancelled.
func (s *Server) Shutdown() {
	s.drainOnce.Do(func() { close(s.draining) })
	s.queue.Close()
	s.wg.Wait()
	if err := s.journal.Close(); err != nil {
		s.log.Warn("journal close", "error", err.Error())
	}
	if err := s.lock.Release(); err != nil {
		s.log.Warn("lock release", "error", err.Error())
	}
}

// runJob executes one dequeued job through runner.Run: the artifact store's
// cache serves key-equal repeats, chaos wraps it when configured, and the
// progress reporter streams lines into the job's event log. The job's trace
// rides the context into the runner, the experiment passes and the engine,
// so one trace id spans HTTP accept to simulated cycle.
func (s *Server) runJob(ctx context.Context, j *Job) {
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	j.bindCancel(cancel)

	spec := j.Spec
	jl := s.jobLog(j)
	waited := time.Since(j.Snapshot().QueuedAt)
	s.metrics.observeQueueWait(uint64(waited.Milliseconds()))

	runSp := j.Root().StartChild("run")
	runCtx := obs.WithSpan(obs.WithTrace(jobCtx, j.Trace()), runSp)
	jl.Info("job start", "name", spec.Name(), "queue_wait", waited.Round(time.Millisecond).String())

	rj := runner.New(spec.Name(), j.Key, func(c context.Context) (report.RunSummary, error) {
		return experiments.Simulate(experiments.WithBudget(c, s.opts.Budget), spec.Config, spec.Bench, spec.Scale)
	})
	jobs := []runner.Job{rj}
	if s.opts.Chaos != nil {
		jobs = s.opts.Chaos.Wrap(jobs)
	}
	pw := &jobWriter{j: j}
	progress := runner.NewProgress(pw)
	start := time.Now()
	res, err := runner.Run(runCtx, jobs, runner.Options{
		Workers:    1,
		Cache:      s.store.Cache(),
		Progress:   progress,
		Metrics:    s.opts.Metrics,
		JobTimeout: s.opts.JobTimeout,
	})
	pw.flush()
	elapsed := time.Since(start)

	if err == nil {
		cached := false
		if r, ok := res.Jobs[spec.Name()]; ok && r.Cached {
			cached = true
		}
		if cached {
			s.metrics.storeHits.Add(1)
		} else {
			s.metrics.simsExecuted.Add(1)
			s.metrics.observeRunTime(uint64(elapsed.Milliseconds()))
		}
		runSp.SetAttr("cached", strconv.FormatBool(cached))
		runSp.End()
		if s.store.Contains(j.Key) {
			s.health.writeOK()
			s.mem.Drop(j.Key)
		} else if r, found := res.Jobs[spec.Name()]; found {
			// The simulation finished but its artifact never landed —
			// runner.Run treats a failed Put as non-fatal, so a dying disk
			// surfaces here as a silently absent entry. Park the result bytes
			// (identical to what the store would have served: the envelope's
			// raw payload is json.Marshal of the value) so the work is served
			// from memory instead of lost, and degrade.
			if raw, merr := json.Marshal(r.Value); merr == nil {
				s.mem.Put(j.Key, raw)
			}
			s.noteWrite("store-put", errStorePut)
			jl.Warn("artifact not persisted; serving from memory", "name", spec.Name())
		}
		s.store.Note(j.Key)
		s.journalRetire(j.Key, "done")
		s.queue.Finish(j, nil)
		s.writeTrace(j)
		jl.Info("job done", "state", StateDone.String(), "cached", cached, "duration", elapsed.Round(time.Millisecond).String())
		return
	}

	// Drain: the worker context died but no waiter asked to cancel — put
	// the job back so the journal's pending record matches the queue, and
	// the next incarnation re-runs it.
	if ctx.Err() != nil && j.State() == StateRunning {
		canceled := false
		j.mu.Lock()
		canceled = j.cancelRequested
		j.mu.Unlock()
		if !canceled {
			runSp.SetAttr("outcome", "requeued")
			runSp.End()
			jl.Info("drain: requeueing", "name", spec.Name())
			s.queue.Requeue(j)
			return
		}
	}

	runSp.SetAttr("error", err.Error())
	runSp.End()
	j.mu.Lock()
	canceled := j.cancelRequested
	j.mu.Unlock()
	if canceled && errors.Is(err, context.Canceled) {
		s.metrics.canceled.Add(1)
		s.journalRetire(j.Key, "cancel")
		s.queue.Finish(j, err)
		s.writeTrace(j)
		jl.Warn("job canceled", "duration", elapsed.Round(time.Millisecond).String())
		return
	}
	s.metrics.failed.Add(1)
	s.journalRetire(j.Key, "fail")
	s.queue.Finish(j, err)
	s.writeTrace(j)
	jl.Error("job failed", "error", err.Error(), "duration", elapsed.Round(time.Millisecond).String())
}

// jobWriter adapts the runner progress reporter to the job's event log,
// splitting the byte stream on newlines (buffering partial lines) so each
// progress entry is exactly one line — entries feed SSE `data:` fields,
// whose framing an embedded newline would corrupt.
type jobWriter struct {
	j   *Job
	mu  sync.Mutex
	buf []byte
}

func (w *jobWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		w.emit(w.buf[:i])
		w.buf = w.buf[i+1:]
	}
	return len(p), nil
}

func (w *jobWriter) emit(line []byte) {
	for len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	if len(line) > 0 {
		w.j.appendProgress(string(line))
	}
}

// flush emits any unterminated tail once the job's run is over.
func (w *jobWriter) flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.emit(w.buf)
	w.buf = nil
}

// Run serves the HTTP API on addr until ctx is cancelled (SIGTERM via
// cli.SignalContext), then drains: stop accepting, shut the listener down
// within DrainGrace, cancel in-flight work (requeued + journaled pending),
// flush and release state. Returns the cancellation cause so callers can
// map a signal to its conventional exit status.
func (s *Server) Run(ctx context.Context, addr string) error {
	s.Start(ctx)
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	s.log.Info("listening", "addr", addr, "state", s.opts.StateDir, "workers", s.opts.Workers, "queue", s.opts.MaxQueue)

	select {
	case <-ctx.Done():
		s.log.Info("draining", "cause", fmt.Sprint(context.Cause(ctx)))
		shCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainGrace)
		defer cancel()
		_ = srv.Shutdown(shCtx)
		s.Shutdown()
		return context.Cause(ctx)
	case err := <-errCh:
		s.Shutdown()
		return err
	}
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs            submit one simulation (Request JSON)
//	GET    /v1/jobs/{key}      job status
//	GET    /v1/jobs/{key}/result  stored artifact bytes (byte-identical)
//	GET    /v1/jobs/{key}/events  SSE: status changes + progress lines
//	GET    /v1/jobs/{key}/trace   request span tree (?format=chrome → Perfetto)
//	DELETE /v1/jobs/{key}      remove this waiter (cancel when last)
//	GET    /v1/queue           queue + store + health snapshot
//	GET    /healthz            liveness: "ok" or "degraded"
//	GET    /metrics            Prometheus text exposition
//	GET    /debug/pprof/       live profiling (samples carry job and key labels)
//	GET    /debug/fsfault      armed failpoint spec + fsio counters (opt-in)
//	POST   /debug/fsfault      swap the failpoint spec (empty body disarms)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{key}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{key}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{key}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{key}", s.handleCancel)
	mux.HandleFunc("GET /v1/queue", s.handleQueue)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.health.Degraded() {
			// Still 200: a degraded server is alive and serving — restarting
			// it would only lose the memory-held results.
			io.WriteString(w, "degraded\n")
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.write(w)
	})
	if s.opts.FaultControl {
		mux.HandleFunc("GET /debug/fsfault", s.handleFsFaultGet)
		mux.HandleFunc("POST /debug/fsfault", s.handleFsFaultSet)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// submitResponse is the body of a submit's 200/202. Waiter is this
// submitter's private cancellation token: job keys are shared across
// clients (coalescing), so DELETE requires the token, not just the key.
// TraceID is the id every log line, span and Perfetto slice for this
// request carries; it is echoed in the X-Vcoma-Trace response header.
type submitResponse struct {
	Key     string `json:"key"`
	Name    string `json:"name"`
	State   string `json:"state"`
	Waiter  string `json:"waiter_id,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	Result  string `json:"result_url"`
	Events  string `json:"events_url"`
	Trace   string `json:"trace_url,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) draining429(w http.ResponseWriter) bool {
	select {
	case <-s.draining:
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: draining"))
		return true
	default:
		return false
	}
}

// retryAfter estimates seconds until queue pressure clears: backlog over
// worker count, floored at 1 — advisory, monotone in load.
func (s *Server) retryAfter() string {
	st := s.queue.Snapshot()
	secs := (st.Queued + st.Running) / s.opts.Workers
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// errJournal marks an admission refused because the accept record could not
// be made durable; the API maps it to 503 so the client retries rather than
// trusting a 202 a crash could forget.
var errJournal = errors.New("serve: journal write failed")

// errStorePut marks a finished job whose artifact never landed on disk.
var errStorePut = errors.New("serve: artifact put did not land")

// admit runs one resolved spec through the store fast path and the queue,
// journaling fresh admissions. Every admission mints a trace; when the
// request coalesces onto an in-flight job, the minted trace is abandoned
// (ended as coalesced) and the response carries the job's original trace
// id — one key, one trace, every rider visible as a coalesce-attach span
// on it.
func (s *Server) admit(req Request, spec Spec) (submitResponse, int, error) {
	key := spec.Key()
	spec.Trace = obs.NewTrace(obs.NewTraceID())
	spec.Root = spec.Trace.StartSpan("request")
	spec.Root.SetAttr("name", spec.Name())
	resp := submitResponse{
		Key:     string(key),
		Name:    spec.Name(),
		TraceID: string(spec.Trace.ID()),
		Result:  "/v1/jobs/" + string(key) + "/result",
		Events:  "/v1/jobs/" + string(key) + "/events",
		Trace:   "/v1/jobs/" + string(key) + "/trace",
	}
	al := s.log.With("trace_id", resp.TraceID, "job_key", string(key))

	admitSp := spec.Root.StartChild("admit")
	// Fast path: the artifact already exists — answer without queueing.
	if _, ok := s.store.GetRaw(key); ok {
		s.metrics.storeHits.Add(1)
		admitSp.SetAttr("outcome", "store-hit")
		admitSp.End()
		spec.Root.SetAttr("outcome", "store-hit")
		spec.Root.End()
		resp.State = StateDone.String()
		al.Info("submit", "name", spec.Name(), "outcome", "store-hit")
		return resp, http.StatusOK, nil
	}
	// Degraded fast path: a result the store could not persist still answers
	// from the memory holdover — no recompute, no queue slot.
	if s.mem.Has(key) {
		s.metrics.storeHits.Add(1)
		admitSp.SetAttr("outcome", "mem-hit")
		admitSp.End()
		spec.Root.SetAttr("outcome", "mem-hit")
		spec.Root.End()
		resp.State = StateDone.String()
		al.Info("submit", "name", spec.Name(), "outcome", "mem-hit")
		return resp, http.StatusOK, nil
	}

	// Journal before the client hears 202: once accepted, a crash must not
	// lose the job. The accept is fsync'd before the queue can even start
	// it — a worker's "done" can then never precede it in the log — and a
	// journal failure refuses the job instead of accepting it undurably.
	jsp := admitSp.StartChild("journal-fsync")
	err := s.journalAccept(key, req)
	jsp.End()
	if err != nil {
		al.Error("journal accept", "error", err.Error())
		return resp, 0, fmt.Errorf("%w: %v", errJournal, err)
	}
	j, waiter, outcome, err := s.queue.Submit(spec)
	if err != nil {
		// Not admitted after all: retire the speculative accept so a
		// restart does not resurrect a job the client was refused.
		s.journalRetire(key, "cancel")
		al.Warn("submit rejected", "name", spec.Name(), "error", err.Error())
		return resp, 0, err
	}
	s.metrics.submits.Add(1)
	resp.Waiter = waiter
	switch outcome {
	case OutcomeDone:
		s.journalRetire(key, "done")
		admitSp.SetAttr("outcome", "done-retained")
		admitSp.End()
		spec.Root.SetAttr("outcome", "done-retained")
		spec.Root.End()
		resp.State = StateDone.String()
		al.Info("submit", "name", spec.Name(), "outcome", "done-retained")
		return resp, http.StatusOK, nil
	case OutcomeCoalesced:
		// The duplicate accept record is harmless: replay tracks liveness
		// per key, and the job's eventual retirement covers every accept.
		s.metrics.coalesced.Add(1)
		admitSp.SetAttr("outcome", "coalesced")
		admitSp.End()
		spec.Root.SetAttr("outcome", "coalesced")
		spec.Root.End()
		// The coalesce-attach span on the job's trace is the surviving
		// record; hand the client the id it can actually fetch spans under.
		if id := j.TraceID(); id != "" {
			resp.TraceID = string(id)
		}
		resp.State = j.State().String()
		al.Info("submit", "name", spec.Name(), "outcome", "coalesced", "joined_trace_id", resp.TraceID)
		return resp, http.StatusAccepted, nil
	default:
		// The queue owns the trace now; the root span stays open until the
		// job retires.
		admitSp.SetAttr("outcome", "queued")
		admitSp.End()
		resp.State = StateQueued.String()
		al.Info("submit", "name", spec.Name(), "outcome", "queued")
		return resp, http.StatusAccepted, nil
	}
}

func (s *Server) rejectStatus(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", s.retryAfter())
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed), errors.Is(err, errJournal):
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining429(w) {
		return
	}
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding request: %w", err))
		return
	}
	spec, err := req.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, status, err := s.admit(req, spec)
	if err != nil {
		s.rejectStatus(w, err)
		return
	}
	w.Header().Set("X-Vcoma-Trace", resp.TraceID)
	writeJSON(w, status, resp)
}

// validKey reports whether a {key} path segment is a well-formed job key:
// exactly the 64 lowercase hex digits of a sha256. The segment feeds the
// artifact store's file layout (and Go 1.22's ServeMux decodes %2F inside
// wildcards), so anything else — traversal sequences especially — must be
// rejected at the API boundary before it reaches any store or queue lookup.
func validKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// lookup validates the {key} path segment and resolves it against the
// queue. A malformed key resolves to the empty key, which misses every
// queue and store probe, so the handlers fall through to their 404s.
func (s *Server) lookup(r *http.Request) (runner.Key, *Job, bool) {
	raw := r.PathValue("key")
	if !validKey(raw) {
		return "", nil, false
	}
	key := runner.Key(raw)
	j, ok := s.queue.Get(key)
	return key, j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	key, j, ok := s.lookup(r)
	if ok {
		writeJSON(w, http.StatusOK, j.Snapshot())
		return
	}
	// Not in the queue's memory: a stored artifact still answers, so
	// results survive both retention eviction and restarts.
	if _, stored := s.store.GetRaw(key); stored {
		writeJSON(w, http.StatusOK, Status{Key: string(key), State: StateDone.String()})
		return
	}
	if s.mem.Has(key) {
		writeJSON(w, http.StatusOK, Status{Key: string(key), State: StateDone.String()})
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %.16s…", key))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key, j, ok := s.lookup(r)
	raw, stored := s.store.GetRaw(key)
	if stored {
		// The artifact bytes are served exactly as cached — the
		// byte-identity contract across coalesced waiters and restarts.
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
		return
	}
	// Degraded-mode fallback: results the store could not persist are still
	// byte-identical from the memory holdover.
	if raw, held := s.mem.Get(key); held {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Vcoma-Served-From", "memory")
		w.Write(raw)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %.16s…", key))
		return
	}
	switch j.State() {
	case StateFailed, StateCanceled:
		writeJSON(w, http.StatusInternalServerError, j.Snapshot())
	default:
		w.Header().Set("Retry-After", s.retryAfter())
		writeJSON(w, http.StatusAccepted, j.Snapshot())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("key")
	if !validKey(raw) {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %.16s…", raw))
		return
	}
	j, removed, withdrew := s.queue.Cancel(runner.Key(raw), r.URL.Query().Get("waiter"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %.16s…", raw))
		return
	}
	if !removed {
		writeError(w, http.StatusForbidden, errors.New("serve: cancel requires the waiter_id issued by your submit (?waiter=…)"))
		return
	}
	if withdrew {
		// The job went terminal while queued, so no worker will retire it:
		// journal the cancel (or a restart would resume it) and persist its
		// trace here.
		s.metrics.canceled.Add(1)
		s.journalRetire(j.Key, "cancel")
		s.writeTrace(j)
		s.jobLog(j).Info("job canceled while queued", "name", j.Spec.Name())
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func (s *Server) handleQueue(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"queue":  s.queue.Snapshot(),
		"store":  s.store.Snapshot(),
		"health": s.health.Snapshot(),
	})
}

// handleEvents streams a job's lifecycle as server-sent events: a `status`
// event per state change and a `progress` event per reporter line, with
// heartbeats so idle proxies keep the stream open. The stream ends when the
// job reaches a terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	_, j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: unknown job"))
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusNotImplemented, errors.New("serve: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	sent := 0 // progress lines already delivered
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		change := j.Watch()
		st := j.Snapshot()
		for ; sent < len(st.Progress); sent++ {
			fmt.Fprintf(w, "event: progress\ndata: %s\n\n", st.Progress[sent])
		}
		data, _ := json.Marshal(st)
		fmt.Fprintf(w, "event: status\ndata: %s\n\n", data)
		fl.Flush()
		if j.State().Terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.draining:
			return
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case <-change:
		}
	}
}
