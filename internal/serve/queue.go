package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"vcoma/internal/obs"
	"vcoma/internal/runner"
)

// State is a job's position in its lifecycle.
type State int

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued State = iota
	// StateRunning: a worker is simulating it.
	StateRunning
	// StateDone: finished; the result is in the artifact store.
	StateDone
	// StateFailed: the simulation errored; Err holds the rendering.
	StateFailed
	// StateCanceled: every waiter canceled before it finished.
	StateCanceled
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state can no longer change.
func (s State) Terminal() bool { return s >= StateDone }

// ErrOverloaded is returned by Submit when the backlog is full. The API
// layer maps it to 429 + Retry-After.
var ErrOverloaded = errors.New("serve: queue full")

// ErrClosed is returned by Next and Submit after Close — the drain path.
var ErrClosed = errors.New("serve: queue closed")

// Job is one coalesced unit of work: every key-equal request maps onto the
// same Job, which runs the simulation at most once. Its identity is the
// content-address of its inputs, so it doubles as the HTTP job ID and the
// artifact-store key.
type Job struct {
	Spec Spec
	Key  runner.Key

	mu              sync.Mutex
	state           State
	err             string
	waiters         map[string]struct{} // cancellation tokens; empty → cancel
	progress        []string
	change          chan struct{}      // closed and replaced on every visible change
	cancel          context.CancelFunc // set while running
	cancelRequested bool

	// Request-trace state (nil when the submit was untraced). The first
	// submitter's trace is the job's trace; later coalesced submits attach
	// to it as spans rather than bringing their own.
	trace     *obs.Trace
	root      *obs.Span // request root, ended when the job retires
	queueSpan *obs.Span // open queue-wait span while queued

	queuedAt  time.Time
	startedAt time.Time
	doneAt    time.Time
}

// newWaiterID mints an unguessable per-waiter cancellation token. Job keys
// are shared across clients by design (that is what coalescing means), so
// the key alone must not authorize cancellation; only the submitter who was
// handed this token can withdraw their own waiter.
func newWaiterID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: reading random waiter id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// notifyLocked wakes every watcher; callers hold j.mu.
func (j *Job) notifyLocked() {
	close(j.change)
	j.change = make(chan struct{})
}

// Watch returns a channel that is closed on the job's next visible change
// (state transition or new progress line). Callers re-Watch after each wake.
func (j *Job) Watch() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.change
}

// Status is a point-in-time snapshot of a job for the HTTP API.
type Status struct {
	Key       string     `json:"key"`
	Name      string     `json:"name"`
	TraceID   string     `json:"trace_id,omitempty"`
	State     string     `json:"state"`
	Waiters   int        `json:"waiters"`
	Error     string     `json:"error,omitempty"`
	Progress  []string   `json:"progress,omitempty"`
	QueuedAt  time.Time  `json:"queued_at"`
	StartedAt *time.Time `json:"started_at,omitempty"`
	DoneAt    *time.Time `json:"done_at,omitempty"`
}

// Snapshot renders the job's current status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		Key:      string(j.Key),
		Name:     j.Spec.Name(),
		TraceID:  string(j.trace.ID()),
		State:    j.state.String(),
		Waiters:  len(j.waiters),
		Error:    j.err,
		Progress: append([]string(nil), j.progress...),
		QueuedAt: j.queuedAt,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		s.StartedAt = &t
	}
	if !j.doneAt.IsZero() {
		t := j.doneAt
		s.DoneAt = &t
	}
	return s
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// appendProgress records one progress-reporter line and wakes watchers.
func (j *Job) appendProgress(line string) {
	j.mu.Lock()
	j.progress = append(j.progress, line)
	j.notifyLocked()
	j.mu.Unlock()
}

// Trace returns the job's request trace (nil when untraced).
func (j *Job) Trace() *obs.Trace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// TraceID returns the job's trace id, or "" when untraced.
func (j *Job) TraceID() obs.TraceID {
	return j.Trace().ID()
}

// Root returns the job's open request-root span (nil when untraced).
func (j *Job) Root() *obs.Span {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.root
}

// endTraceLocked closes the job's request trace with its final outcome.
// Callers hold j.mu. Span methods are nil-safe, so untraced jobs fall
// through for free.
func (j *Job) endTraceLocked(outcome string) {
	j.queueSpan.End()
	j.queueSpan = nil
	j.root.SetAttr("outcome", outcome)
	j.root.End()
}

// bindCancel installs the running job's cancel func; if a waiter already
// asked for cancellation between dequeue and bind, it fires immediately.
func (j *Job) bindCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	j.cancel = cancel
	req := j.cancelRequested
	j.mu.Unlock()
	if req {
		cancel()
	}
}

// doneRetention bounds how many finished jobs the queue remembers for
// status queries; results themselves live in the artifact store, so an
// evicted record only loses the transient metadata (timings, progress log).
const doneRetention = 512

// Queue is the admission-controlled job queue: one FIFO of coalesced jobs.
// All methods are safe for concurrent use.
type Queue struct {
	maxQueue int // queued-job bound; beyond it Submit rejects

	mu        sync.Mutex
	fifo      []*Job              // queued jobs in dispatch order
	jobs      map[runner.Key]*Job // queued + running
	running   int
	done      map[runner.Key]*Job
	doneOrder []runner.Key
	wake      chan struct{}
	closedCh  chan struct{}
	closed    bool

	coalesceCount uint64 // for /metrics
}

// NewQueue builds a queue admitting at most maxQueue queued jobs
// (running jobs are not counted — admission control protects the backlog,
// not the workers).
func NewQueue(maxQueue int) *Queue {
	return &Queue{
		maxQueue: maxQueue,
		jobs:     map[runner.Key]*Job{},
		done:     map[runner.Key]*Job{},
		wake:     make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
}

// Outcome says what Submit did with a request.
type Outcome int

const (
	// OutcomeQueued: a new job was enqueued.
	OutcomeQueued Outcome = iota
	// OutcomeCoalesced: an identical job was already queued or running; the
	// request joined it as an additional waiter.
	OutcomeCoalesced
	// OutcomeDone: the job already finished (still in retention) — the
	// caller can fetch the result immediately.
	OutcomeDone
)

// Submit admits one request. Key-equal requests coalesce onto the in-flight
// job; otherwise a full backlog rejects the request with ErrOverloaded.
// The returned waiter id is this submitter's cancellation token; it is
// empty when the job already finished (nothing left to cancel).
func (q *Queue) Submit(spec Spec) (*Job, string, Outcome, error) {
	key := spec.Key()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, "", 0, ErrClosed
	}

	if j, ok := q.jobs[key]; ok {
		q.coalesceCount++
		return j, j.join(spec.Trace.ID()), OutcomeCoalesced, nil
	}
	if j, ok := q.done[key]; ok && j.State() == StateDone {
		return j, "", OutcomeDone, nil
	}
	if len(q.fifo) >= q.maxQueue {
		return nil, "", 0, ErrOverloaded
	}

	waiter := newWaiterID()
	j := &Job{
		Spec:     spec,
		Key:      key,
		state:    StateQueued,
		waiters:  map[string]struct{}{waiter: {}},
		change:   make(chan struct{}),
		queuedAt: time.Now(),
		trace:    spec.Trace,
		root:     spec.Root,
	}
	j.queueSpan = spec.Root.StartChild("queue-wait")
	q.jobs[key] = j
	q.fifo = append(q.fifo, j)
	q.signalLocked()
	return j, waiter, OutcomeQueued, nil
}

// join adds one waiter to an in-flight job and returns its token. The
// newcomer's own trace (if any) is abandoned by the caller; instead the
// attach is recorded as a coalesce-attach span on the job's trace, so the
// one trace that exists for the key shows every rider.
func (j *Job) join(joined obs.TraceID) string {
	waiter := newWaiterID()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.waiters[waiter] = struct{}{}
	if sp := j.root.StartChild("coalesce-attach"); sp != nil {
		if joined != "" {
			sp.SetAttr("joined_trace_id", string(joined))
		}
		sp.End()
	}
	return waiter
}

// signalLocked nudges one idle worker.
func (q *Queue) signalLocked() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// Next blocks until a job is available, then transitions it to running and
// returns it. The worker must call bindCancel with the run's cancel func,
// then Finish when done. Returns ErrClosed after Close drains dispatch.
func (q *Queue) Next(ctx context.Context) (*Job, error) {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return nil, ErrClosed
		}
		if len(q.fifo) > 0 {
			j := q.fifo[0]
			q.fifo[0] = nil
			q.fifo = q.fifo[1:]
			q.running++
			if len(q.fifo) > 0 {
				q.signalLocked() // more work: wake the next idle worker
			}
			q.mu.Unlock()
			j.mu.Lock()
			j.state = StateRunning
			j.startedAt = time.Now()
			j.queueSpan.End()
			j.queueSpan = nil
			j.notifyLocked()
			j.mu.Unlock()
			return j, nil
		}
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-q.closedCh:
			return nil, ErrClosed
		case <-q.wake:
		}
	}
}

// Finish retires a running job with its outcome. canceled marks jobs whose
// every waiter gave up; they are distinguishable from failures.
func (q *Queue) Finish(j *Job, err error) {
	q.mu.Lock()
	delete(q.jobs, j.Key)
	q.running--
	q.retireLocked(j)
	q.mu.Unlock()

	j.mu.Lock()
	switch {
	case err == nil:
		j.state = StateDone
	case (errors.Is(err, context.Canceled) && j.cancelRequested):
		j.state = StateCanceled
		j.err = "canceled by all waiters"
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	j.cancel = nil
	j.doneAt = time.Now()
	j.endTraceLocked(j.state.String())
	j.notifyLocked()
	j.mu.Unlock()
}

// Requeue puts a dequeued-but-unfinished job back at the tail of the queue
// — the drain path for in-flight work interrupted by shutdown, so the
// journal and a restarted server see it as pending rather than failed.
func (q *Queue) Requeue(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.jobs[j.Key]; !ok {
		return
	}
	q.running--
	j.mu.Lock()
	j.state = StateQueued
	j.startedAt = time.Time{}
	j.cancel = nil
	// The job waits again, so the trace gets a fresh queue-wait span.
	j.queueSpan = j.root.StartChild("queue-wait")
	j.notifyLocked()
	j.mu.Unlock()
	q.fifo = append(q.fifo, j)
	q.signalLocked()
}

// retireLocked moves a job into bounded done-retention. A key retired more
// than once (fail, resubmit, finish) keeps its original doneOrder slot, so
// the order never holds duplicates and eviction at the retention boundary
// is always safe.
func (q *Queue) retireLocked(j *Job) {
	if _, ok := q.done[j.Key]; !ok {
		q.doneOrder = append(q.doneOrder, j.Key)
	}
	q.done[j.Key] = j
	for len(q.doneOrder) > doneRetention {
		old := q.doneOrder[0]
		q.doneOrder = q.doneOrder[1:]
		delete(q.done, old)
	}
}

// Cancel removes the waiter identified by its submit-issued token from the
// job. When the last waiter leaves, a queued job is withdrawn immediately
// and a running one has its context canceled (the worker then Finishes it
// as canceled). It returns the job (nil when the key is unknown), and
// removed=false when the token matches none of its waiters — key-equal jobs
// coalesce across clients, so the key alone must not let one client drain
// waiters that others registered. withdrew is true only when this call
// retired a still-queued job: nothing else will journal that cancellation.
func (q *Queue) Cancel(key runner.Key, waiter string) (j *Job, removed, withdrew bool) {
	q.mu.Lock()
	j, ok := q.jobs[key]
	if !ok {
		// Already terminal (or unknown): cancel is a no-op.
		j = q.done[key]
		q.mu.Unlock()
		return j, j != nil, false
	}

	j.mu.Lock()
	if _, ok := j.waiters[waiter]; !ok {
		j.mu.Unlock()
		q.mu.Unlock()
		return j, false, false
	}
	delete(j.waiters, waiter)
	if len(j.waiters) > 0 {
		j.notifyLocked()
		j.mu.Unlock()
		q.mu.Unlock()
		return j, true, false
	}
	// Last waiter gone.
	if j.state == StateQueued {
		j.state = StateCanceled
		j.err = "canceled by all waiters"
		j.doneAt = time.Now()
		j.endTraceLocked("canceled")
		j.notifyLocked()
		j.mu.Unlock()
		q.fifo = slices.DeleteFunc(q.fifo, func(x *Job) bool { return x == j })
		delete(q.jobs, key)
		q.retireLocked(j)
		q.mu.Unlock()
		return j, true, true
	}
	// Running: ask the worker to stop; Finish records the terminal state.
	j.cancelRequested = true
	cancel := j.cancel
	j.mu.Unlock()
	q.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return j, true, false
}

// Get looks a job up by key among queued, running and retained-done jobs.
func (q *Queue) Get(key runner.Key) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[key]; ok {
		return j, true
	}
	j, ok := q.done[key]
	return j, ok
}

// Close stops admission and dispatch: Submit and Next return ErrClosed.
// Queued jobs stay queued (the journal remembers them for the next boot).
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.closedCh)
}

// Stats is the queue's introspection snapshot for /metrics and /v1/queue.
type Stats struct {
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Coalesced uint64 `json:"coalesced"`
}

// Snapshot reports current depth and tallies.
func (q *Queue) Snapshot() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{Queued: len(q.fifo), Running: q.running, Coalesced: q.coalesceCount}
}
