package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// This file implements trace capture and replay: any Stream can be recorded
// to a compact binary format and replayed later, which decouples workload
// generation from simulation (the classic trace-driven methodology) and
// lets users feed their own traces to the machine without writing a
// generator.
//
// Format: an 8-byte header ("VCOMATR" + a version byte), then one record per
// event: a kind byte followed by a minimal uvarint payload (address for
// memory events, cycles for compute, id for synchronization events as its
// 64-bit two's complement). A payload outside Event's range is rejected on
// read, so every accepted trace re-records byte for byte.

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
	k := ev.Kind()
	if err := w.WriteByte(byte(k)); err != nil {
		return err
	}
	payload := ev.Payload()
	if k == LockAcquire || k == LockRelease || k == Barrier {
		payload = uint64(ev.ID()) // 64-bit two's complement on disk
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

// Next implements Stream. A record the Event word cannot hold — an unknown
// kind, an address or cycle count above MaxPayload, an ID outside [MinID,
// MaxID], or a payload varint longer than its minimal encoding — ends the
// stream with a decode error in Err; nothing is truncated.
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
		return rd.fail(err)
	}
	// Decode the payload in place (Peek returns fewer bytes near the end)
	// so its length can be checked: a minimal uvarint's last byte is
	// non-zero unless it is the only one.
	buf, perr := rd.r.Peek(binary.MaxVarintLen64)
	payload, n := binary.Uvarint(buf)
	if n < 0 {
		return rd.fail(fmt.Errorf("trace: payload varint overflows 64 bits"))
	}
	if n == 0 {
		if perr == nil || perr == io.EOF {
			perr = io.ErrUnexpectedEOF
		}
		return rd.fail(fmt.Errorf("trace: truncated event: %w", perr))
	}
	if n > 1 && buf[n-1] == 0 {
		return rd.fail(fmt.Errorf("trace: non-minimal %d-byte payload %#x", n, payload))
	}
	rd.r.Discard(n) // the n bytes were peeked, so this cannot fail
	k := Kind(kindByte)
	switch k {
	case Read, Write, Compute:
		if payload > MaxPayload {
			return rd.fail(fmt.Errorf("trace: %v payload %#x exceeds %d bits", k, payload, 64-kindBits))
		}
	case LockAcquire, LockRelease, Barrier:
		if id := int64(payload); id < MinID || id > MaxID {
			return rd.fail(fmt.Errorf("trace: %v id %d outside [%d, %d]", k, id, MinID, MaxID))
		}
	default:
		return rd.fail(fmt.Errorf("trace: unknown event kind %d", kindByte))
	}
	return pack(k, payload), true
}

func (rd *Reader) fail(err error) (Event, bool) {
	rd.err = err
	rd.done = true
	return Event{}, false
}

// Err returns the first decode error, if any (a clean EOF is not an error).
func (rd *Reader) Err() error { return rd.err }
