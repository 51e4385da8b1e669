package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"vcoma/internal/addr"
)

// TestEventIsOneWord pins the representation every batch, pool and engine
// load is sized by.
func TestEventIsOneWord(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 8 {
		t.Fatalf("Event is %d bytes, want 8", n)
	}
}

// TestEventAccessorsAndRecordRoundTrip builds every kind at the edges of
// its payload range, checks each accessor (zero for the fields a kind
// lacks), then records and replays the lot.
func TestEventAccessorsAndRecordRoundTrip(t *testing.T) {
	type row struct {
		ev     Event
		kind   Kind
		addr   addr.Virtual
		cycles uint64
		id     int
	}
	var rows []row
	for _, a := range []addr.Virtual{0, 1, MaxPayload} {
		rows = append(rows, row{MakeRead(a), Read, a, 0, 0}, row{MakeWrite(a), Write, a, 0, 0})
	}
	for _, c := range []uint64{0, 1, MaxPayload} {
		rows = append(rows, row{MakeCompute(c), Compute, 0, c, 0})
	}
	for _, id := range []int{0, 1, -1, MinID, MaxID} {
		rows = append(rows,
			row{MakeLock(id), LockAcquire, 0, 0, id},
			row{MakeUnlock(id), LockRelease, 0, 0, id},
			row{MakeBarrier(id), Barrier, 0, 0, id})
	}
	events := make([]Event, len(rows))
	for i, r := range rows {
		ev := r.ev
		if ev.Kind() != r.kind || ev.Addr() != r.addr || ev.Cycles() != r.cycles || ev.ID() != r.id {
			t.Fatalf("row %d: %v reads kind %v addr %#x cycles %d id %d; want %v %#x %d %d",
				i, ev, ev.Kind(), ev.Addr(), ev.Cycles(), ev.ID(), r.kind, r.addr, r.cycles, r.id)
		}
		events[i] = ev
	}
	var buf bytes.Buffer
	if _, err := Record(&buf, NewSliceStream(events)); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := Drain(rd)
	if rd.Err() != nil {
		t.Fatal(rd.Err())
	}
	if len(replayed) != len(events) {
		t.Fatalf("replayed %d of %d events", len(replayed), len(events))
	}
	for i := range events {
		if replayed[i] != events[i] {
			t.Fatalf("event %d: replayed %v, recorded %v", i, replayed[i], events[i])
		}
	}
}

func TestConstructorsRejectWhatTheWordCannotHold(t *testing.T) {
	for name, build := range map[string]func(){
		"read":          func() { MakeRead(MaxPayload + 1) },
		"write":         func() { MakeWrite(^addr.Virtual(0)) },
		"compute":       func() { MakeCompute(MaxPayload + 1) },
		"lock above":    func() { MakeLock(MaxID + 1) },
		"unlock below":  func() { MakeUnlock(MinID - 1) },
		"barrier above": func() { MakeBarrier(1 << 62) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range payload accepted", name)
				}
			}()
			build()
		}()
	}
}

// record encodes one raw record: a kind byte and a uvarint payload.
func record(k byte, payload uint64) []byte {
	return binary.AppendUvarint([]byte{k}, payload)
}

func TestReaderRejectsWhatTheWordCannotHold(t *testing.T) {
	good := record(byte(Read), 0x40)
	belowMinID := int64(MinID) - 1
	for name, rec := range map[string][]byte{
		"read address 1<<61":  record(byte(Read), MaxPayload+1),
		"write address 2^64":  record(byte(Write), ^uint64(0)),
		"compute 1<<61":       record(byte(Compute), MaxPayload+1),
		"lock id 1<<60":       record(byte(LockAcquire), MaxID+1),
		"unlock id -1<<60-1":  record(byte(LockRelease), uint64(belowMinID)),
		"barrier id 1<<62":    record(byte(Barrier), 1<<62),
		"non-minimal varint":  {byte(Read), 0x80, 0x00},
		"non-minimal varint2": {byte(Barrier), 0x81, 0x80, 0x00},
	} {
		data := append([]byte("VCOMATR\x01"), good...)
		data = append(data, rec...)
		data = append(data, good...)
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		evs := Drain(rd)
		if len(evs) != 1 || rd.Err() == nil {
			t.Errorf("%s: decoded %d events, err %v; want 1 event and a decode error", name, len(evs), rd.Err())
		}
	}
}
