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
		{Kind: Read, Addr: 0x123456},
		{Kind: Write, Addr: 0xABCDEF0},
		{Kind: Compute, Cycles: 999},
		{Kind: LockAcquire, ID: 17},
		{Kind: LockRelease, ID: 17},
		{Kind: Barrier, ID: 3},
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
				events[i] = Event{Kind: Read, Addr: addr.Virtual(rng.Uint64() >> 8)}
			case 1:
				events[i] = Event{Kind: Write, Addr: addr.Virtual(rng.Uint64() >> 8)}
			case 2:
				events[i] = Event{Kind: Compute, Cycles: rng.Uint64n(1 << 30)}
			case 3:
				events[i] = Event{Kind: LockAcquire, ID: rng.Intn(1000)}
			case 4:
				events[i] = Event{Kind: LockRelease, ID: rng.Intn(1000)}
			default:
				events[i] = Event{Kind: Barrier, ID: rng.Intn(1000)}
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
	if _, err := Record(&buf, NewSliceStream([]Event{{Kind: Read, Addr: 0xFFFFFFFF}})); err != nil {
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
