// Package sim is the execution engine: it interleaves the per-processor
// event streams of a workload over the machine's memory system under
// sequential consistency, arbitrates locks and barriers, and accounts each
// processor's time into the paper's Figure 10 categories — busy, sync,
// local stall, remote stall, and address-translation overhead.
//
// Scheduling is cycle-ordered: at every step the runnable processor with
// the smallest clock executes its next event atomically. Memory references
// stall the issuing processor until globally performed (sequential
// consistency, §5.3); the machine layer returns each reference's latency.
package sim

import (
	"context"
	"fmt"
	"sort"
	"time"

	"vcoma/internal/addr"
	"vcoma/internal/machine"
	"vcoma/internal/obs"
	"vcoma/internal/trace"
)

// ProcStats is one processor's time breakdown.
type ProcStats struct {
	Busy        uint64 // compute cycles
	Sync        uint64 // lock + barrier waiting and transfer cycles
	StallLocal  uint64 // SLC hits and local attraction-memory service
	StallRemote uint64 // coherence transactions
	Trans       uint64 // address-translation penalties on this proc's path
	Finish      uint64 // clock value at the processor's last event
	Refs        uint64 // shared-memory references issued
}

// Total returns the sum of all time categories.
func (p ProcStats) Total() uint64 {
	return p.Busy + p.Sync + p.StallLocal + p.StallRemote + p.Trans
}

// Result is a finished run.
type Result struct {
	Procs []ProcStats
	// ExecTime is the parallel execution time: the largest finish clock.
	ExecTime uint64
	// Events is the total number of events executed.
	Events uint64
}

// TotalProc sums the per-processor breakdowns.
func (r Result) TotalProc() ProcStats {
	var t ProcStats
	for _, p := range r.Procs {
		t.Busy += p.Busy
		t.Sync += p.Sync
		t.StallLocal += p.StallLocal
		t.StallRemote += p.StallRemote
		t.Trans += p.Trans
		t.Refs += p.Refs
		if p.Finish > t.Finish {
			t.Finish = p.Finish
		}
	}
	return t
}

type procState struct {
	stream  trace.Stream
	clock   uint64
	stats   ProcStats
	done    bool
	waiting bool // blocked at a lock or barrier

	// Batch-consumption state: when the stream implements
	// trace.BatchStream, events are pulled thousands at a time and read
	// from batch by index — per-event stream dispatch disappears from the
	// hot loop. batcher is nil for plain streams.
	batcher trace.BatchStream
	batch   []trace.Event
	bpos    int
}

// refill pulls the next batch (or single event, for plain streams) once the
// local batch runs dry. The in-batch fast path lives inline in step.
func (p *procState) refill() (trace.Event, bool) {
	if p.batcher != nil {
		for {
			b, ok := p.batcher.NextBatch()
			if !ok {
				return trace.Event{}, false
			}
			if len(b) > 0 {
				p.batch, p.bpos = b, 1
				return b[0], true
			}
		}
	}
	return p.stream.Next()
}

// waiter is one queued lock acquirer: who, and the clock it arrived at.
type waiter struct {
	proc    int32
	arrived uint64
}

// lockState is slice-backed: the FIFO queue is a ring over one backing
// array (qhead marks the front), so steady-state lock traffic allocates
// nothing after the first contention.
type lockState struct {
	held  bool
	owner int32
	qhead int
	queue []waiter
}

func (l *lockState) queueLen() int { return len(l.queue) - l.qhead }

func (l *lockState) push(p int32, arrived uint64) {
	if l.qhead == len(l.queue) {
		l.qhead, l.queue = 0, l.queue[:0]
	}
	l.queue = append(l.queue, waiter{p, arrived})
}

func (l *lockState) pop() waiter {
	w := l.queue[l.qhead]
	l.qhead++
	if l.qhead == len(l.queue) {
		l.qhead, l.queue = 0, l.queue[:0]
	}
	return w
}

// barrierState keeps its arrival list across episodes: a completed barrier
// resets arrived to length zero instead of being deleted, so the next
// episode of the same barrier reuses the backing array.
type barrierState struct {
	arrived []int32
	latest  uint64
}

// maxDenseSyncID bounds the dense lock/barrier tables. Workload IDs are
// small (SPLASH-2 kernels top out near 5000); anything larger or negative
// falls back to a map so a pathological trace cannot balloon the tables.
const maxDenseSyncID = 1 << 16

// Engine drives one run. Build with New, run with Run.
type Engine struct {
	m        *machine.Machine
	procs    []procState
	locks    []lockState    // dense, indexed by lock ID
	barriers []barrierState // dense, indexed by barrier ID
	locksOv  map[int]*lockState
	barrsOv  map[int]*barrierState
	events   uint64

	// sched is a tournament (min) tree over packed (clock << 16 | index)
	// scheduling keys: leaf schedLeaf+p holds processor p's key (schedIdle
	// while p is done or blocked), every inner node the minimum of its two
	// children, so sched[1] is always the key of the processor the
	// cycle-ordered rule runs next. A clock advance updates one leaf and
	// replays its root path — O(log P) single-word compares on one small
	// contiguous array, cheaper per event than either the seed engine's
	// O(P) pickRunnable scan over procState records or a binary heap's
	// sift-with-position-maps.
	sched     []uint64
	schedLeaf int

	// Watchdog state (see watchdog.go): an optional budget, the context
	// bounding the run, and the forward-progress trackers the livelock
	// detector compares against.
	budget          Budget
	ctx             context.Context
	wallStart       time.Time
	maxClock        uint64 // largest processor clock seen so far
	lastClock       uint64 // maxClock at the last observed advance
	eventsAtAdvance uint64 // events retired when lastClock was recorded
	tripCounter     *obs.Counter

	sampler *obs.Sampler
	tracer  *obs.Tracer
	span    *obs.Span

	// stepObs observes every executed event in global execution order
	// (nil by default). internal/check digests the architectural event
	// stream through it; the callback must be purely observational.
	stepObs func(proc int, ev trace.Event)
}

// SetSpan attaches a request-scoped trace span to the run. On completion
// the engine annotates it with the simulated cycle count and the number of
// retired events — the deepest link in the one-trace-id chain from HTTP
// accept down to the simulated cycle. Purely observational: a nil span (the
// default) costs one nil check, and annotating never changes the result.
func (e *Engine) SetSpan(s *obs.Span) { e.span = s }

// SetStepObserver registers a callback invoked after each executed event
// (memory references, compute, and synchronization), in the engine's global
// execution order. A nil callback (the default) keeps the engine unchanged.
func (e *Engine) SetStepObserver(f func(proc int, ev trace.Event)) { e.stepObs = f }

// New builds an engine for machine m and one event stream per processor.
// The stream count must equal the machine's node count.
func New(m *Machine, streams []trace.Stream) (*Engine, error) {
	return newEngine(m, streams)
}

// Machine is re-exported so callers need not import internal/machine just
// for the type name in signatures.
type Machine = machine.Machine

func newEngine(m *machine.Machine, streams []trace.Stream) (*Engine, error) {
	if len(streams) != m.Geometry().Nodes() {
		return nil, fmt.Errorf("sim: %d streams for %d nodes", len(streams), m.Geometry().Nodes())
	}
	e := &Engine{m: m}
	for _, s := range streams {
		p := procState{stream: s}
		p.batcher, _ = s.(trace.BatchStream)
		e.procs = append(e.procs, p)
	}
	// Every processor starts runnable at clock 0. Leaves pad to a power of
	// two; unused leaves stay schedIdle and never win.
	leaf := 1
	for leaf < len(e.procs) {
		leaf <<= 1
	}
	e.schedLeaf = leaf
	e.sched = make([]uint64, 2*leaf)
	for i := range e.sched {
		e.sched[i] = schedIdle
	}
	for i := range e.procs {
		e.sched[leaf+i] = packSchedKey(0, int32(i))
	}
	for n := leaf - 1; n >= 1; n-- {
		l, r := e.sched[2*n], e.sched[2*n+1]
		if r < l {
			l = r
		}
		e.sched[n] = l
	}
	return e, nil
}

// lockAt returns the lock table entry for id, creating it on first use.
func (e *Engine) lockAt(id int) *lockState {
	if id >= 0 && id < maxDenseSyncID {
		if id >= len(e.locks) {
			grown := make([]lockState, id+1)
			copy(grown, e.locks)
			e.locks = grown
		}
		return &e.locks[id]
	}
	if e.locksOv == nil {
		e.locksOv = make(map[int]*lockState)
	}
	l := e.locksOv[id]
	if l == nil {
		l = &lockState{}
		e.locksOv[id] = l
	}
	return l
}

// barrierAt returns the barrier table entry for id, creating it on first use.
func (e *Engine) barrierAt(id int) *barrierState {
	if id >= 0 && id < maxDenseSyncID {
		if id >= len(e.barriers) {
			grown := make([]barrierState, id+1)
			copy(grown, e.barriers)
			e.barriers = grown
		}
		return &e.barriers[id]
	}
	if e.barrsOv == nil {
		e.barrsOv = make(map[int]*barrierState)
	}
	b := e.barrsOv[id]
	if b == nil {
		b = &barrierState{}
		e.barrsOv[id] = b
	}
	return b
}

// eachLock visits every lock that has ever been touched, in ID order for
// the dense table followed by overflow IDs; used only on the diagnostic
// paths (deadlock, watchdog dump), never per event.
func (e *Engine) eachLock(f func(id int, l *lockState)) {
	for id := range e.locks {
		if l := &e.locks[id]; l.held || l.queueLen() > 0 {
			f(id, l)
		}
	}
	for _, id := range sortedKeys(e.locksOv) {
		if l := e.locksOv[id]; l.held || l.queueLen() > 0 {
			f(id, l)
		}
	}
}

// eachBarrier visits every barrier currently holding arrivals.
func (e *Engine) eachBarrier(f func(id int, b *barrierState)) {
	for id := range e.barriers {
		if b := &e.barriers[id]; len(b.arrived) > 0 {
			f(id, b)
		}
	}
	for _, id := range sortedKeys(e.barrsOv) {
		if b := e.barrsOv[id]; len(b.arrived) > 0 {
			f(id, b)
		}
	}
}

func sortedKeys[V any](m map[int]V) []int {
	if len(m) == 0 {
		return nil
	}
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// SetObserver wires an observability sink into the engine: per-processor
// time-breakdown probes, the epoch sampler (driven by the executing
// processor's clock, which the cycle-ordered scheduler keeps
// non-decreasing), and "sync"-category trace events for lock and barrier
// waits. Call before Run; the machine's own AttachObserver is separate.
func (e *Engine) SetObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	e.sampler = o.Samp()
	e.tracer = o.Tr()
	r := o.Reg()
	if r == nil {
		return
	}
	r.Probe("sim/events", func() float64 { return float64(e.events) })
	if !e.budget.Zero() {
		// Watchdog instrumentation: how close the run is to the livelock
		// trip point, and how many times the watchdog has fired.
		r.Probe("sim/watchdog/stallWindow", func() float64 { return float64(e.events - e.eventsAtAdvance) })
		r.Probe("sim/watchdog/maxClock", func() float64 { return float64(e.maxClock) })
	}
	e.tripCounter = r.Counter("sim/watchdog/trips")
	for i := range e.procs {
		p := &e.procs[i]
		pre := fmt.Sprintf("proc%02d", i)
		r.Probe(pre+"/busy", func() float64 { return float64(p.stats.Busy) })
		r.Probe(pre+"/sync", func() float64 { return float64(p.stats.Sync) })
		r.Probe(pre+"/stallLocal", func() float64 { return float64(p.stats.StallLocal) })
		r.Probe(pre+"/stallRemote", func() float64 { return float64(p.stats.StallRemote) })
		r.Probe(pre+"/trans", func() float64 { return float64(p.stats.Trans) })
		r.Probe(pre+"/refs", func() float64 { return float64(p.stats.Refs) })
	}
}

// Run executes the workload to completion and returns the per-processor
// accounting. Streams are closed on return.
//
// The scheduler reads the tournament-tree root: sched[1] is exactly the
// (clock, index)-least runnable processor the seed engine's O(P) pickRunnable
// scan would select (packed keys embed the index, so distinct processors
// never compare equal). A processor whose refreshed key still holds the root
// is re-stepped immediately without any tree traffic beyond its own leaf
// path — and that path update already folded in any lock grants or barrier
// releases the step handed out.
func (e *Engine) Run() (Result, error) {
	defer func() {
		for i := range e.procs {
			trace.CloseStream(e.procs[i].stream)
		}
	}()
	e.wallStart = time.Now()
	if err := e.runLoop(); err != nil {
		return Result{}, err
	}
	// A stream that failed ended its processor early; that, not the
	// deadlock it usually leaves behind, is the diagnosis.
	for i := range e.procs {
		if f, ok := e.procs[i].stream.(trace.Failer); ok && f.Err() != nil {
			return Result{}, fmt.Errorf("sim: proc %d: %w", i, f.Err())
		}
	}
	if !e.allDone() {
		return Result{}, e.deadlockError()
	}
	res := Result{Events: e.events}
	for i := range e.procs {
		p := &e.procs[i]
		p.stats.Finish = p.clock
		res.Procs = append(res.Procs, p.stats)
		if p.clock > res.ExecTime {
			res.ExecTime = p.clock
		}
	}
	e.sampler.Finish(res.ExecTime)
	e.span.SetAttrUint("exec_cycles", res.ExecTime)
	e.span.SetAttrUint("events", res.Events)
	return res, nil
}

// runLoop is the scheduling loop, run to quiescence: it returns
// nil once no processor is runnable (workload complete, or deadlocked —
// Run's caller distinguishes the two), or the first step/budget error.
func (e *Engine) runLoop() error {
	supervised := !e.budget.Zero() || e.ctx != nil
	for {
		top := e.sched[1]
		if top == schedIdle {
			return nil // nobody runnable: finished, or deadlocked
		}
		i := int(top & (1<<schedIndexBits - 1))
		p := &e.procs[i]
		for {
			if err := e.step(i); err != nil {
				return err
			}
			if supervised {
				if err := e.checkBudget(); err != nil {
					return err
				}
			}
			if p.done || p.waiting {
				e.schedUpdate(i, schedIdle)
				break
			}
			k := packSchedKey(p.clock, int32(i))
			e.schedUpdate(i, k)
			if e.sched[1] != k {
				break // p lost the minimum: re-read the root
			}
			// p is still the strict scheduler minimum: retire its next
			// event without re-reading the root.
		}
	}
}

// schedIndexBits is the low-bit width a processor index occupies inside a
// packed scheduling key; the clock lives in the 48 bits above it.
const schedIndexBits = 16

// schedIdle is the key of a processor that cannot run (done or blocked):
// larger than every packable key, so it never wins the argmin scan.
const schedIdle = ^uint64(0)

// packSchedKey packs (clock, index) into one integer whose natural order is
// the cycle-ordered scheduling rule: smallest clock first, lowest index on
// ties. 48 bits of clock bound a run at ~2.8e14 cycles, far beyond any
// budgeted simulation; the guard keeps an overflow loud instead of silently
// misordering the schedule.
func packSchedKey(clock uint64, idx int32) uint64 {
	if clock >= 1<<(64-schedIndexBits) {
		panic("sim: clock overflows scheduling key")
	}
	return clock<<schedIndexBits | uint64(idx)
}

// schedUpdate sets processor i's scheduling key and replays its leaf-to-root
// tournament path. The replay stops as soon as a recomputed node is
// unchanged, since every ancestor depends only on node values below it.
func (e *Engine) schedUpdate(i int, k uint64) {
	t := e.sched
	n := e.schedLeaf + i
	t[n] = k
	for n >>= 1; n >= 1; n >>= 1 {
		l, r := t[2*n], t[2*n+1]
		if r < l {
			l = r
		}
		if t[n] == l {
			return
		}
		t[n] = l
	}
}

// wakeProc marks a blocked processor runnable again at its (already
// advanced) clock — a lock grant or barrier release.
func (e *Engine) wakeProc(p int32) {
	e.schedUpdate(int(p), packSchedKey(e.procs[p].clock, p))
}

func (e *Engine) allDone() bool {
	for i := range e.procs {
		if !e.procs[i].done {
			return false
		}
	}
	return true
}

func (e *Engine) deadlockError() error {
	done, waiting := 0, 0
	for i := range e.procs {
		if e.procs[i].done {
			done++
		} else if e.procs[i].waiting {
			waiting++
		}
	}
	// Classify each waiter by the synchronization object it is actually
	// blocked on: a waiting processor sits in exactly one lock queue or one
	// barrier's arrival list (a full barrier releases synchronously, so any
	// barrier still present holds only blocked processors).
	atLock, atBarrier := 0, 0
	e.eachLock(func(_ int, l *lockState) { atLock += l.queueLen() })
	e.eachBarrier(func(_ int, b *barrierState) { atBarrier += len(b.arrived) })
	return fmt.Errorf("sim: deadlock: %d done, %d waiting (%d at locks, %d at barriers) of %d processors — unbalanced barriers or a lock never released",
		done, waiting, atLock, atBarrier, len(e.procs))
}

func (e *Engine) step(i int) error {
	p := &e.procs[i]
	var ev trace.Event
	if p.bpos < len(p.batch) {
		ev = p.batch[p.bpos]
		p.bpos++
	} else {
		var ok bool
		if ev, ok = p.refill(); !ok {
			p.done = true
			return nil
		}
	}
	e.events++
	switch ev.Kind {
	case trace.Compute:
		p.stats.Busy += ev.Cycles
		p.clock += ev.Cycles
	case trace.Read, trace.Write:
		p.stats.Refs++
		res := e.m.Access(p.clock, addr.Node(i), ev.Addr, ev.Kind == trace.Write)
		p.clock += res.Cycles
		p.stats.Trans += res.TransCycles
		stall := res.Cycles - res.TransCycles
		if res.Class == machine.ClassRemote {
			p.stats.StallRemote += stall
		} else {
			p.stats.StallLocal += stall
		}
	case trace.LockAcquire:
		e.lockAcquire(i, ev.ID)
	case trace.LockRelease:
		if err := e.lockRelease(i, ev.ID); err != nil {
			return err
		}
	case trace.Barrier:
		e.barrierArrive(i, ev.ID)
	default:
		return fmt.Errorf("sim: processor %d: unknown event kind %v", i, ev.Kind)
	}
	e.noteClock(p.clock)
	if e.stepObs != nil {
		e.stepObs(i, ev)
	}
	e.sampler.Tick(p.clock)
	return nil
}

// noteClock folds a clock advance into the watchdog's forward-progress
// tracker. Every site that moves a processor clock must report it here —
// lock grants and barrier releases advance processors other than the one
// executing, and missing those leaves the livelock detector staring at a
// stale maxClock.
func (e *Engine) noteClock(c uint64) {
	if c > e.maxClock {
		e.maxClock = c
	}
}

// lockTransferCost is the cost of one lock message exchange with the lock's
// home node, derived from the machine's request timing.
func (e *Engine) lockTransferCost() uint64 {
	return 2 * e.m.Config().Timing.NetRequest
}

func (e *Engine) lockHomeDistance(id int) uint64 {
	// Locks live at a home node; every operation is a request round trip.
	return e.lockTransferCost()
}

func (e *Engine) lockAcquire(i, id int) {
	l := e.lockAt(id)
	p := &e.procs[i]
	if !l.held {
		cost := e.lockHomeDistance(id)
		l.held = true
		l.owner = int32(i)
		p.stats.Sync += cost
		p.clock += cost
		return
	}
	l.push(int32(i), p.clock)
	p.waiting = true
}

func (e *Engine) lockRelease(i, id int) error {
	l := e.lockAt(id)
	if !l.held || l.owner != int32(i) {
		return fmt.Errorf("sim: processor %d releases lock %d it does not hold", i, id)
	}
	p := &e.procs[i]
	cost := e.lockHomeDistance(id)
	p.stats.Sync += cost
	p.clock += cost
	releaseDone := p.clock

	if l.queueLen() == 0 {
		l.held = false
		return nil
	}
	w := l.pop()
	next := int(w.proc)
	np := &e.procs[next]
	arrived := w.arrived
	grant := releaseDone
	if arrived > grant {
		grant = arrived
	}
	grant += e.lockHomeDistance(id)
	np.stats.Sync += grant - arrived
	np.clock = grant
	e.noteClock(np.clock)
	np.waiting = false
	l.owner = w.proc
	e.wakeProc(w.proc)
	if e.tracer.Enabled("sync") {
		e.tracer.Complete("sync", "lock-wait", next, 0, arrived, grant-arrived)
	}
	return nil
}

func (e *Engine) barrierArrive(i, id int) {
	b := e.barrierAt(id)
	p := &e.procs[i]
	notify := e.m.Config().Timing.BarrierNotify
	p.clock += notify
	p.stats.Sync += notify
	b.arrived = append(b.arrived, int32(i))
	if p.clock > b.latest {
		b.latest = p.clock
	}
	if len(b.arrived) < len(e.procs) {
		p.waiting = true
		return
	}
	// Last arrival: release everyone after the latest arrival. The release
	// notifications serialize on the barrier home's network port, so each
	// processor restarts a few cycles after the previous one — without the
	// stagger every processor would re-issue its first post-barrier miss
	// in the same cycle, an artificial convoy no real machine exhibits.
	release := b.latest + notify
	const releaseStagger = 4
	for k, j := range b.arrived {
		q := &e.procs[j]
		r := release + uint64(k)*releaseStagger
		// q.clock still holds j's arrival time (waiting processors do not
		// advance), which makes the barrier phase a complete event from
		// arrival to restart on j's track.
		if e.tracer.Enabled("sync") {
			e.tracer.Complete("sync", "barrier", int(j), 0, q.clock, r-q.clock)
		}
		q.stats.Sync += r - q.clock
		q.clock = r
		e.noteClock(q.clock)
		q.waiting = false
		if int(j) != i {
			// The executing (last-arriving) processor is already in the
			// heap; everyone it released re-enters here.
			e.wakeProc(j)
		}
	}
	// Reset in place: the next episode of this barrier reuses the backing
	// array (the seed engine deleted and re-allocated the map entry).
	b.arrived = b.arrived[:0]
	b.latest = 0
}
