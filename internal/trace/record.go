package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"vcoma/internal/addr"
)

// This file implements trace capture and replay: any Stream can be recorded
// to a compact binary format and replayed later, which decouples workload
// generation from simulation (the classic trace-driven methodology) and
// lets users feed their own traces to the machine without writing a
// generator.
//
// Format: an 8-byte header ("VCOMATR" + a version byte), then one record per
// event: a kind byte followed by a varint payload (address for memory
// events, cycles for compute, id for synchronization events).

const (
	traceMagic   = "VCOMATR"
	traceVersion = 1
)

// Record drains s into w in the recorded format and returns the number of
// events written. s is closed on return.
func Record(w io.Writer, s Stream) (uint64, error) {
	defer CloseStream(s)
	bw := bufio.NewWriter(w)
	bw.WriteString(traceMagic) // a failed write sticks: WriteByte reports it
	if err := bw.WriteByte(traceVersion); err != nil {
		return 0, err
	}
	n := uint64(0)
	for {
		ev, ok := s.Next()
		if !ok {
			return n, bw.Flush()
		}
		if err := writeEvent(bw, ev); err != nil {
			return n, err
		}
		n++
	}
}

func writeEvent(w *bufio.Writer, ev Event) error {
	if err := w.WriteByte(byte(ev.Kind)); err != nil {
		return err
	}
	var payload uint64
	switch ev.Kind {
	case Read, Write:
		payload = uint64(ev.Addr)
	case Compute:
		payload = ev.Cycles
	case LockAcquire, LockRelease, Barrier:
		payload = uint64(ev.ID)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], payload)
	_, err := w.Write(buf[:n])
	return err
}

// Reader replays a recorded trace as a Stream.
type Reader struct {
	r    *bufio.Reader
	err  error
	done bool
}

// NewReader opens a recorded trace. It validates the header eagerly.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(traceMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:len(traceMagic)])
	}
	if head[len(traceMagic)] != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", head[len(traceMagic)])
	}
	return &Reader{r: br}, nil
}

// Next implements Stream.
func (rd *Reader) Next() (Event, bool) {
	if rd.done || rd.err != nil {
		return Event{}, false
	}
	kindByte, err := rd.r.ReadByte()
	if err == io.EOF {
		rd.done = true
		return Event{}, false
	}
	if err != nil {
		rd.err = err
		rd.done = true
		return Event{}, false
	}
	payload, err := binary.ReadUvarint(rd.r)
	if err != nil {
		rd.err = fmt.Errorf("trace: truncated event: %w", err)
		rd.done = true
		return Event{}, false
	}
	ev := Event{Kind: Kind(kindByte)}
	switch ev.Kind {
	case Read, Write:
		ev.Addr = addr.Virtual(payload)
	case Compute:
		ev.Cycles = payload
	case LockAcquire, LockRelease, Barrier:
		ev.ID = int(payload)
	default:
		rd.err = fmt.Errorf("trace: unknown event kind %d", kindByte)
		rd.done = true
		return Event{}, false
	}
	return ev, true
}

// Err returns the first decode error, if any (a clean EOF is not an error).
func (rd *Reader) Err() error { return rd.err }
