// Package trace defines the event vocabulary flowing from workloads to the
// simulation engine: shared-memory reads and writes, compute delays, and the
// synchronization operations (locks and barriers) that the engine arbitrates.
//
// A workload is a set of per-processor event Streams. Only shared-data
// accesses are emitted, matching the paper's methodology (§5.1): private
// stack/instruction traffic is folded into Compute events.
//
// An Event is one 64-bit word: a 3-bit Kind and a 61-bit payload (address,
// cycle count, or sign-extended synchronization ID). A payload the word
// cannot hold — an address or cycle count of 1<<61 or more, an ID outside
// [-1<<60, 1<<60) — is a workload bug when emitted and a decode error when
// read from a recorded trace; it is never truncated.
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

// Event is one step of a processor's program, packed into one 64-bit word:
// the Kind in the low 3 bits and the kind's payload in the 61 bits above —
// the address of a Read or Write, the cycle count of a Compute, or the ID of
// a LockAcquire, LockRelease or Barrier. Addresses and cycle counts must be
// below 1<<61 (MaxPayload+1); IDs are stored two's-complement and must lie
// in [MinID, MaxID]. The constructors panic outside those ranges (a
// workload bug); Reader rejects them with a decode error. The zero Event is
// a Read of address 0.
//
// One word because every event crosses cores: a generator goroutine writes
// it into a batch and the engine reads it on another core, so the event's
// size is the cross-core traffic per simulated step.
type Event struct{ w uint64 }

const (
	kindBits = 3
	kindMask = 1<<kindBits - 1

	// MaxPayload is the largest address or cycle count an Event holds.
	MaxPayload = 1<<(64-kindBits) - 1
	// MinID and MaxID bound a synchronization ID: the payload bits read as
	// a signed integer.
	MinID = -1 << (63 - kindBits)
	MaxID = 1<<(63-kindBits) - 1
)

func pack(k Kind, payload uint64) Event { return Event{payload<<kindBits | uint64(k)} }

func makeUnsigned(k Kind, payload uint64) Event {
	if payload > MaxPayload {
		panic(fmt.Sprintf("trace: %v payload %#x exceeds %d bits", k, payload, 64-kindBits))
	}
	return pack(k, payload)
}

func makeSync(k Kind, id int) Event {
	if id < MinID || id > MaxID {
		panic(fmt.Sprintf("trace: %v id %d outside [%d, %d]", k, id, MinID, MaxID))
	}
	return pack(k, uint64(id))
}

// MakeRead returns a shared-data load at v.
func MakeRead(v addr.Virtual) Event { return makeUnsigned(Read, uint64(v)) }

// MakeWrite returns a shared-data store at v.
func MakeWrite(v addr.Virtual) Event { return makeUnsigned(Write, uint64(v)) }

// MakeCompute returns a compute delay of cycles.
func MakeCompute(cycles uint64) Event { return makeUnsigned(Compute, cycles) }

// MakeLock returns an acquisition of lock id.
func MakeLock(id int) Event { return makeSync(LockAcquire, id) }

// MakeUnlock returns a release of lock id.
func MakeUnlock(id int) Event { return makeSync(LockRelease, id) }

// MakeBarrier returns an arrival at barrier id.
func MakeBarrier(id int) Event { return makeSync(Barrier, id) }

// Kind returns the event's type.
func (e Event) Kind() Kind { return Kind(e.w & kindMask) }

// Payload returns the raw 61 payload bits whatever the kind: an address or
// cycle count as is, an ID without its sign extension (ID gives the signed
// value). Hot loops that have already switched on Kind read it once;
// everyone else uses the typed accessors.
func (e Event) Payload() uint64 { return e.w >> kindBits }

// Addr returns a Read's or Write's address, and 0 for any other kind.
func (e Event) Addr() addr.Virtual {
	if k := e.Kind(); k == Read || k == Write {
		return addr.Virtual(e.Payload())
	}
	return 0
}

// Cycles returns a Compute's cycle count, and 0 for any other kind.
func (e Event) Cycles() uint64 {
	if e.Kind() == Compute {
		return e.Payload()
	}
	return 0
}

// ID returns a LockAcquire's, LockRelease's or Barrier's ID (sign-extended
// from the payload), and 0 for any other kind.
func (e Event) ID() int {
	switch e.Kind() {
	case LockAcquire, LockRelease, Barrier:
		return int(int64(e.w) >> kindBits)
	}
	return 0
}

// String renders the event as "read 0x1000", "compute 5", "lock 3".
func (e Event) String() string {
	switch k := e.Kind(); k {
	case Read, Write:
		return fmt.Sprintf("%v %#x", k, e.Payload())
	case Compute:
		return fmt.Sprintf("%v %d", k, e.Payload())
	default:
		return fmt.Sprintf("%v %d", k, e.ID())
	}
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
		switch e.Kind() {
		case Read:
			st.Reads++
		case Write:
			st.Writes++
		case Compute:
			st.ComputeEvents++
			st.ComputeCycles += e.Cycles()
		case LockAcquire:
			st.Locks++
		case LockRelease:
			st.Unlocks++
		case Barrier:
			st.Barriers++
		}
		if k := e.Kind(); k == Read || k == Write {
			a := e.Addr()
			pages[g.Page(a)] = struct{}{}
			blocks[g.Block(a)] = struct{}{}
			if first {
				st.FirstAddr = a
				first = false
			}
			st.LastAddr = a
		}
	}
	st.DistinctPages = len(pages)
	st.DistinctAMBlocks = len(blocks)
	return st
}
