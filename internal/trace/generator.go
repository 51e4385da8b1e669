package trace

import (
	"sync/atomic"

	"vcoma/internal/addr"
)

// generatorBatch is the number of events buffered per channel send. Large
// enough that channel synchronization is negligible per event, small enough
// that short per-processor streams (a few thousand events at test scale)
// don't hold mostly-unused batches.
const generatorBatch = 1024

type eventBatch [generatorBatch]Event

// batchPool recycles event batches across every Generator in the process:
// a batch its consumer has finished goes back to the pool and the next
// flush of any stream refills it, so a machine build reuses the batches of
// the streams before it instead of allocating fresh ones per stream. A
// batch is 8 KB (1024 one-word events); the pool holds up to 128 spares
// (1 MB), enough for every stream of a paper-scale machine (32 streams,
// three batches each), and a batch returned to a full pool is left to the
// garbage collector. A buffered channel rather than a sync.Pool: producer
// and consumer run on different Ps, and sync.Pool's cross-P steal made
// generation ~25% slower.
var batchPool = make(chan *eventBatch, 128)

// batchesOut counts batches taken from batchPool and not yet returned, so
// tests can check that streams give back every batch.
var batchesOut atomic.Int64

func getBatch() []Event {
	batchesOut.Add(1)
	select {
	case b := <-batchPool:
		return b[:0]
	default:
		return new(eventBatch)[:0]
	}
}

func putBatch(b []Event) {
	batchesOut.Add(-1)
	select {
	case batchPool <- (*eventBatch)(b[:generatorBatch]):
	default:
	}
}

// Generator adapts a straight-line program function into a pull-based
// Stream. The program runs in its own goroutine and emits events through an
// Emitter; the consumer pulls them with Next. Abandoning a Generator without
// draining it requires Close, which unwinds the producer goroutine.
//
// A stream has at most three batches in flight: the one the producer is
// filling, one queued in the channel, and the one the consumer is reading.
// The consumer returns each batch to the shared pool when it moves past it.
type Generator struct {
	ch     chan []Event
	done   chan struct{}
	batch  []Event
	pos    int
	closed bool
	// failure carries a panic raised by the program function; it is
	// re-raised on the consumer side by Next, so a workload bug surfaces
	// in the simulation goroutine instead of killing the process from an
	// anonymous goroutine.
	failure any
}

// stopGenerator is the sentinel panic value used to unwind a producer
// goroutine when the consumer closes the stream early.
type stopGenerator struct{}

// NewGenerator starts program in a goroutine and returns a Stream of the
// events it emits. The program function must emit all its events through the
// provided Emitter and then return.
func NewGenerator(program func(*Emitter)) *Generator {
	g := &Generator{
		ch:   make(chan []Event, 1),
		done: make(chan struct{}),
	}
	go func() {
		defer close(g.ch)
		e := &Emitter{gen: g, batch: getBatch()}
		defer func() {
			if r := recover(); r != nil {
				// The batch being filled or sent never reached the
				// consumer: it goes back to the pool.
				putBatch(e.batch)
				if _, ok := r.(stopGenerator); !ok {
					g.failure = r // real panic: hand to the consumer
				}
			}
		}()
		program(e)
		e.finish()
	}()
	return g
}

// release hands the consumed batch back to the pool.
func (g *Generator) release() {
	if g.batch != nil {
		putBatch(g.batch)
		g.batch, g.pos = nil, 0
	}
}

// Next implements Stream. If the program function panicked, Next re-raises
// that panic once the buffered events are drained.
func (g *Generator) Next() (Event, bool) {
	for g.pos >= len(g.batch) {
		// The batch is fully consumed (events are returned by value).
		g.release()
		batch, ok := <-g.ch
		if !ok {
			if g.failure != nil {
				panic(g.failure)
			}
			return Event{}, false
		}
		g.batch = batch
	}
	e := g.batch[g.pos]
	g.pos++
	return e, true
}

// NextBatch implements BatchStream: it returns the unread remainder of the
// current batch, or pulls the next one — one channel operation per ~1024
// events instead of per-event interface calls. The returned slice is valid
// only until the next NextBatch, Next or Close call (its backing array then
// returns to the pool). Re-raises a producer panic like Next.
func (g *Generator) NextBatch() ([]Event, bool) {
	if g.pos < len(g.batch) {
		b := g.batch[g.pos:]
		g.pos = len(g.batch)
		return b, true
	}
	g.release()
	batch, ok := <-g.ch
	if !ok {
		if g.failure != nil {
			panic(g.failure)
		}
		return nil, false
	}
	g.batch, g.pos = batch, len(batch)
	return batch, true
}

// Close unwinds the producer goroutine and returns the stream's batches to
// the pool. Safe to call multiple times and after the stream is drained.
func (g *Generator) Close() {
	if g.closed {
		return
	}
	g.closed = true
	close(g.done)
	g.release()
	// Drain any in-flight batches so the producer's pending send completes
	// and it observes done on its next flush; the channel closes once the
	// producer has exited.
	for b := range g.ch {
		putBatch(b)
	}
}

// Emitter is the API workload programs use to emit events. It buffers events
// into batches; flushes happen automatically. Every method panics on a
// payload an Event cannot hold (see Event), which surfaces on the consumer
// side like any other workload bug.
type Emitter struct {
	gen   *Generator
	batch []Event
}

func (e *Emitter) emit(ev Event) {
	e.batch = append(e.batch, ev)
	if len(e.batch) >= generatorBatch {
		e.send()
		e.batch = getBatch()
	}
}

// finish hands off the last partial batch when the program returns; unlike
// a full batch's send it does not take a replacement nobody will fill.
func (e *Emitter) finish() {
	if len(e.batch) == 0 {
		putBatch(e.batch)
	} else {
		e.send()
	}
	e.batch = nil
}

// send queues the current batch for the consumer, or unwinds the producer
// if the consumer has closed the stream.
func (e *Emitter) send() {
	select {
	case e.gen.ch <- e.batch:
	case <-e.gen.done:
		panic(stopGenerator{})
	}
}

// Read emits a shared-data load at v.
func (e *Emitter) Read(v addr.Virtual) { e.emit(MakeRead(v)) }

// Write emits a shared-data store at v.
func (e *Emitter) Write(v addr.Virtual) { e.emit(MakeWrite(v)) }

// Compute emits a compute delay of the given cycles; zero-cycle delays are
// dropped.
func (e *Emitter) Compute(cycles uint64) {
	if cycles == 0 {
		return
	}
	e.emit(MakeCompute(cycles))
}

// Lock emits a lock acquisition of lock id.
func (e *Emitter) Lock(id int) { e.emit(MakeLock(id)) }

// Unlock emits a release of lock id.
func (e *Emitter) Unlock(id int) { e.emit(MakeUnlock(id)) }

// Barrier emits arrival at barrier id.
func (e *Emitter) Barrier(id int) { e.emit(MakeBarrier(id)) }

// ReadRange emits loads covering [base, base+bytes) at stride-sized steps.
// Use the FLC block size as stride to model a sequential scan.
func (e *Emitter) ReadRange(base addr.Virtual, bytes, stride uint64) {
	if stride == 0 {
		panic("trace: zero stride")
	}
	for off := uint64(0); off < bytes; off += stride {
		e.Read(base + addr.Virtual(off))
	}
}

// WriteRange emits stores covering [base, base+bytes) at stride-sized steps.
func (e *Emitter) WriteRange(base addr.Virtual, bytes, stride uint64) {
	if stride == 0 {
		panic("trace: zero stride")
	}
	for off := uint64(0); off < bytes; off += stride {
		e.Write(base + addr.Virtual(off))
	}
}
