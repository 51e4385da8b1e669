package trace

import (
	"testing"

	"vcoma/internal/addr"
)

func testGeometry() addr.Geometry {
	return addr.Geometry{NodeBits: 2, PageBits: 8, AMBlockBits: 5, AMSetBits: 6, AMAssocBits: 1}
}

func TestSliceStream(t *testing.T) {
	events := []Event{
		MakeRead(0x100),
		MakeWrite(0x200),
		MakeBarrier(3),
	}
	s := NewSliceStream(events)
	for i, want := range events {
		got, ok := s.Next()
		if !ok || got != want {
			t.Fatalf("event %d: got %+v ok=%v", i, got, ok)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream did not end")
	}
	if s.Remaining() != 0 {
		t.Fatalf("remaining = %d", s.Remaining())
	}
}

func TestGeneratorOrderAndCompletion(t *testing.T) {
	const n = 10000 // force multiple batches
	g := NewGenerator(func(e *Emitter) {
		for i := 0; i < n; i++ {
			e.Read(addr.Virtual(i))
		}
	})
	for i := 0; i < n; i++ {
		ev, ok := g.Next()
		if !ok {
			t.Fatalf("stream ended early at %d", i)
		}
		if ev.Kind() != Read || ev.Addr() != addr.Virtual(i) {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
	}
	if _, ok := g.Next(); ok {
		t.Fatal("stream did not end after all events")
	}
	g.Close() // safe after drain
}

func TestGeneratorEarlyClose(t *testing.T) {
	done := make(chan struct{})
	g := NewGenerator(func(e *Emitter) {
		defer close(done)
		for i := 0; ; i++ {
			e.Read(addr.Virtual(i))
		}
	})
	if _, ok := g.Next(); !ok {
		t.Fatal("no first event")
	}
	g.Close()
	<-done // the producer goroutine must unwind
	g.Close()
}

func TestGeneratorPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("program panic did not propagate")
		}
	}()
	g := NewGenerator(func(e *Emitter) {
		panic("workload bug")
	})
	for {
		if _, ok := g.Next(); !ok {
			return
		}
	}
}

func TestEmitterKinds(t *testing.T) {
	g := NewGenerator(func(e *Emitter) {
		e.Read(1)
		e.Write(2)
		e.Compute(5)
		e.Compute(0) // dropped
		e.Lock(7)
		e.Unlock(7)
		e.Barrier(9)
	})
	events := Drain(g)
	wantKinds := []Kind{Read, Write, Compute, LockAcquire, LockRelease, Barrier}
	if len(events) != len(wantKinds) {
		t.Fatalf("got %d events, want %d", len(events), len(wantKinds))
	}
	for i, k := range wantKinds {
		if events[i].Kind() != k {
			t.Fatalf("event %d kind %v, want %v", i, events[i].Kind(), k)
		}
	}
	if events[2].Cycles() != 5 || events[3].ID() != 7 || events[5].ID() != 9 {
		t.Fatal("event payloads wrong")
	}
}

func TestRanges(t *testing.T) {
	g := NewGenerator(func(e *Emitter) {
		e.ReadRange(0x1000, 128, 32)
		e.WriteRange(0x2000, 64, 16)
	})
	events := Drain(g)
	if len(events) != 4+4 {
		t.Fatalf("got %d events", len(events))
	}
	for i := 0; i < 4; i++ {
		if events[i].Kind() != Read || events[i].Addr() != addr.Virtual(0x1000+32*i) {
			t.Fatalf("read %d: %+v", i, events[i])
		}
	}
	for i := 0; i < 4; i++ {
		if events[4+i].Kind() != Write || events[4+i].Addr() != addr.Virtual(0x2000+16*i) {
			t.Fatalf("write %d: %+v", i, events[4+i])
		}
	}
}

func TestZeroStridePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero stride did not panic")
		}
	}()
	e := &Emitter{gen: NewGenerator(func(*Emitter) {})}
	e.ReadRange(0, 10, 0)
}

func TestMeasure(t *testing.T) {
	g := testGeometry()
	s := NewSliceStream([]Event{
		MakeRead(0x100),
		MakeRead(0x104), // same page, same block
		MakeWrite(0x200),
		MakeCompute(11),
		MakeLock(1),
		MakeUnlock(1),
		MakeBarrier(0),
	})
	st := Measure(s, g)
	if st.Reads != 2 || st.Writes != 1 || st.MemoryRefs() != 3 {
		t.Fatalf("refs wrong: %+v", st)
	}
	if st.ComputeEvents != 1 || st.ComputeCycles != 11 {
		t.Fatalf("compute wrong: %+v", st)
	}
	if st.Locks != 1 || st.Unlocks != 1 || st.Barriers != 1 {
		t.Fatalf("sync wrong: %+v", st)
	}
	if st.DistinctPages != 2 || st.DistinctAMBlocks != 2 {
		t.Fatalf("distinct wrong: %+v", st)
	}
	if st.FirstAddr != 0x100 || st.LastAddr != 0x200 {
		t.Fatalf("first/last wrong: %+v", st)
	}
}
