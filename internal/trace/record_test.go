package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"vcoma/internal/addr"
	"vcoma/internal/prng"
)

func TestRecordReplayRoundTrip(t *testing.T) {
	events := []Event{
		MakeRead(0x123456),
		MakeWrite(0xABCDEF0),
		MakeCompute(999),
		MakeLock(17),
		MakeUnlock(17),
		MakeBarrier(3),
	}
	var buf bytes.Buffer
	n, err := Record(&buf, NewSliceStream(events))
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(events)) {
		t.Fatalf("wrote %d of %d events", n, len(events))
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
			t.Fatalf("event %d: %+v != %+v", i, replayed[i], events[i])
		}
	}
}

func TestRecordReplayProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, n uint16) bool {
		rng := prng.New(seed)
		count := int(n%500) + 1
		events := make([]Event, count)
		for i := range events {
			switch rng.Intn(6) {
			case 0:
				events[i] = MakeRead(addr.Virtual(rng.Uint64() >> 8))
			case 1:
				events[i] = MakeWrite(addr.Virtual(rng.Uint64() >> 8))
			case 2:
				events[i] = MakeCompute(rng.Uint64n(1 << 30))
			case 3:
				events[i] = MakeLock(rng.Intn(1000))
			case 4:
				events[i] = MakeUnlock(rng.Intn(1000))
			default:
				events[i] = MakeBarrier(rng.Intn(1000))
			}
		}
		var buf bytes.Buffer
		if _, err := Record(&buf, NewSliceStream(events)); err != nil {
			return false
		}
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		replayed := Drain(rd)
		if rd.Err() != nil || len(replayed) != len(events) {
			return false
		}
		for i := range events {
			if replayed[i] != events[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("VC"))); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("VCOMATR\x63"))); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestReaderTruncatedEvent(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(&buf, NewSliceStream([]Event{MakeRead(0xFFFFFFFF)})); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	rd, err := NewReader(bytes.NewReader(full[:len(full)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if evs := Drain(rd); len(evs) != 0 {
		t.Fatalf("decoded %d events from a truncated trace", len(evs))
	}
	if rd.Err() == nil {
		t.Fatal("truncation not reported")
	}
}

func TestReaderUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("VCOMATR\x01")
	buf.WriteByte(200) // bogus kind
	buf.WriteByte(0)
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	Drain(rd)
	if rd.Err() == nil {
		t.Fatal("unknown kind not reported")
	}
}
