// Package trace defines the event vocabulary flowing from workloads to the
// simulation engine: shared-memory reads and writes, compute delays, and the
// synchronization operations (locks and barriers) that the engine arbitrates.
//
// A workload is a set of per-processor event Streams. Only shared-data
// accesses are emitted, matching the paper's methodology (§5.1): private
// stack/instruction traffic is folded into Compute events.
package trace

import (
	"fmt"

	"vcoma/internal/addr"
)

// Kind discriminates event types.
type Kind uint8

const (
	// Read is a shared-data load of up to one FLC block.
	Read Kind = iota
	// Write is a shared-data store of up to one FLC block.
	Write
	// Compute advances the processor's clock by Cycles without touching
	// shared memory (models private computation).
	Compute
	// LockAcquire blocks until the lock named by ID is free, then takes it.
	LockAcquire
	// LockRelease frees the lock named by ID.
	LockRelease
	// Barrier blocks until every processor in the machine has arrived at
	// the same barrier event.
	Barrier
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Compute:
		return "compute"
	case LockAcquire:
		return "lock"
	case LockRelease:
		return "unlock"
	case Barrier:
		return "barrier"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one step of a processor's program.
type Event struct {
	Kind   Kind
	Addr   addr.Virtual // Read, Write
	Cycles uint64       // Compute
	ID     int          // LockAcquire, LockRelease, Barrier
}

// Stream produces a processor's events in program order. Next returns
// ok=false when the program has finished. Streams are single-consumer.
type Stream interface {
	Next() (Event, bool)
}

// BatchStream is optionally implemented by streams that can hand out whole
// event batches. Consumers on hot paths (the simulation engine) pull
// batches to amortize per-event interface dispatch; a returned slice is
// valid only until the next NextBatch or Next call on the same stream.
// NextBatch may return empty slices; ok=false means the program finished.
type BatchStream interface {
	NextBatch() ([]Event, bool)
}

// Closer is implemented by streams holding resources (generator goroutines).
type Closer interface {
	Close()
}

// CloseStream releases s's resources if it has any.
func CloseStream(s Stream) {
	if c, ok := s.(Closer); ok {
		c.Close()
	}
}

// Failer is implemented by streams that can end early on an error (a
// recorded trace that fails to decode); a clean end is a nil Err.
type Failer interface {
	Err() error
}

// SliceStream replays a pre-built event slice.
type SliceStream struct {
	events []Event
	pos    int
}

// NewSliceStream returns a Stream over events.
func NewSliceStream(events []Event) *SliceStream {
	return &SliceStream{events: events}
}

// Next implements Stream.
func (s *SliceStream) Next() (Event, bool) {
	if s.pos >= len(s.events) {
		return Event{}, false
	}
	e := s.events[s.pos]
	s.pos++
	return e, true
}

// NextBatch implements BatchStream: the whole unread remainder at once.
func (s *SliceStream) NextBatch() ([]Event, bool) {
	if s.pos >= len(s.events) {
		return nil, false
	}
	b := s.events[s.pos:]
	s.pos = len(s.events)
	return b, true
}

// Remaining returns how many events have not been consumed yet.
func (s *SliceStream) Remaining() int { return len(s.events) - s.pos }

// Drain consumes a stream to completion and returns all events. Intended for
// tests and analysis, not for full-size runs.
func Drain(s Stream) []Event {
	var out []Event
	for {
		e, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// Stats summarises an event stream.
type Stats struct {
	Reads, Writes       uint64
	ComputeEvents       uint64
	ComputeCycles       uint64
	Locks, Unlocks      uint64
	Barriers            uint64
	DistinctPages       int
	DistinctAMBlocks    int
	FirstAddr, LastAddr addr.Virtual
}

// MemoryRefs returns the total number of shared-memory references.
func (st Stats) MemoryRefs() uint64 { return st.Reads + st.Writes }

// Measure drains s and computes its statistics using geometry g for page and
// block accounting.
func Measure(s Stream, g addr.Geometry) Stats {
	var st Stats
	pages := make(map[addr.PageNum]struct{})
	blocks := make(map[addr.Virtual]struct{})
	first := true
	for {
		e, ok := s.Next()
		if !ok {
			break
		}
		switch e.Kind {
		case Read:
			st.Reads++
		case Write:
			st.Writes++
		case Compute:
			st.ComputeEvents++
			st.ComputeCycles += e.Cycles
		case LockAcquire:
			st.Locks++
		case LockRelease:
			st.Unlocks++
		case Barrier:
			st.Barriers++
		}
		if e.Kind == Read || e.Kind == Write {
			pages[g.Page(e.Addr)] = struct{}{}
			blocks[g.Block(e.Addr)] = struct{}{}
			if first {
				st.FirstAddr = e.Addr
				first = false
			}
			st.LastAddr = e.Addr
		}
	}
	st.DistinctPages = len(pages)
	st.DistinctAMBlocks = len(blocks)
	return st
}
