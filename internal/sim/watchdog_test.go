package sim

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vcoma/internal/config"
	"vcoma/internal/machine"
	"vcoma/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// repeatStream replays one event forever: the minimal diverging workload.
type repeatStream struct{ ev trace.Event }

func (s repeatStream) Next() (trace.Event, bool) { return s.ev, true }

func newTestEngine(t *testing.T, streams []trace.Stream) *Engine {
	t.Helper()
	m, err := machine.New(config.SmallTest())
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Geometry().Nodes(); len(streams) != n {
		t.Fatalf("test wants %d streams, machine has %d nodes", len(streams), n)
	}
	e, err := New(m, streams)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// livelockStreams builds a 4-proc workload that spins forever without the
// clock advancing: proc 0 parks at a barrier, proc 1 takes a lock and ends,
// proc 2 queues on that lock, and proc 3 spins zero-cost compute events.
func livelockStreams() []trace.Stream {
	return []trace.Stream{
		trace.NewSliceStream([]trace.Event{trace.MakeBarrier(1)}),
		trace.NewSliceStream([]trace.Event{trace.MakeLock(7)}),
		trace.NewSliceStream([]trace.Event{trace.MakeLock(7)}),
		repeatStream{trace.MakeCompute(0)},
	}
}

func TestWatchdogLivelockDetected(t *testing.T) {
	e := newTestEngine(t, livelockStreams())
	e.SetBudget(Budget{StallEvents: 1000})
	_, err := e.Run()
	var wd *WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("want *WatchdogError, got %v", err)
	}
	d := wd.Dump
	if d.StallWindow < 1000 {
		t.Errorf("stall window %d, want >= 1000", d.StallWindow)
	}
	if len(d.Locks) != 1 || d.Locks[0].QueueDepth != 1 || d.Locks[0].Queue[0] != 2 {
		t.Errorf("lock dump wrong: %+v", d.Locks)
	}
	if len(d.Barriers) != 1 || d.Barriers[0].Missing != 3 {
		t.Errorf("barrier dump wrong: %+v", d.Barriers)
	}
	waiting := 0
	for _, p := range d.Procs {
		if p.State == "waiting" && p.Blocked == "" {
			t.Errorf("proc %d waiting with no blocked-on object", p.Proc)
		}
		if p.State == "waiting" {
			waiting++
		}
	}
	if waiting != 2 {
		t.Errorf("%d waiting processors in dump, want 2 (barrier + lock queue)", waiting)
	}
}

// TestWatchdogDumpGolden pins the rendered diagnostic, the artifact
// operators read when a sweep cell hangs. Regenerate deliberately with
//
//	go test ./internal/sim/ -run TestWatchdogDumpGolden -update
func TestWatchdogDumpGolden(t *testing.T) {
	e := newTestEngine(t, livelockStreams())
	e.SetBudget(Budget{StallEvents: 1000, MaxCycles: 1 << 30})
	_, err := e.Run()
	var wd *WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("want *WatchdogError, got %v", err)
	}
	got := wd.Dump.Render()
	path := filepath.Join("testdata", "watchdog_livelock.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err2 := os.ReadFile(path)
	if err2 != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err2)
	}
	if got != string(want) {
		t.Errorf("dump render differs from %s — a deliberate change needs -update\ngot:\n%s\nwant:\n%s",
			path, got, string(want))
	}
}

func TestWatchdogCycleBudget(t *testing.T) {
	streams := []trace.Stream{
		repeatStream{trace.MakeCompute(100)},
		trace.NewSliceStream(nil),
		trace.NewSliceStream(nil),
		trace.NewSliceStream(nil),
	}
	e := newTestEngine(t, streams)
	e.SetBudget(Budget{MaxCycles: 10_000})
	_, err := e.Run()
	var wd *WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("want *WatchdogError, got %v", err)
	}
	if wd.Dump.Cycle <= 10_000 || wd.Dump.Cycle > 10_000+200 {
		t.Errorf("tripped at cycle %d, want just past 10000", wd.Dump.Cycle)
	}
}

func TestWatchdogEventBudget(t *testing.T) {
	e := newTestEngine(t, livelockStreams())
	e.SetBudget(Budget{MaxEvents: 500})
	_, err := e.Run()
	var wd *WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("want *WatchdogError, got %v", err)
	}
	if wd.Dump.Events != 501 {
		t.Errorf("tripped after %d events, want 501", wd.Dump.Events)
	}
}

func TestWatchdogContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	e := newTestEngine(t, livelockStreams())
	e.SetContext(ctx)
	_, err := e.Run()
	var wd *WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("context deadline should trip the watchdog, got %v", err)
	}
}

func TestWatchdogContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := newTestEngine(t, livelockStreams())
	e.SetContext(ctx)
	_, err := e.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var wd *WatchdogError
	if errors.As(err, &wd) {
		t.Error("plain cancellation must not masquerade as a watchdog timeout")
	}
}

// A generous budget must not change the result of a healthy run.
func TestWatchdogObservational(t *testing.T) {
	mk := func() []trace.Stream {
		var streams []trace.Stream
		for p := 0; p < 4; p++ {
			streams = append(streams, trace.NewSliceStream([]trace.Event{
				trace.MakeCompute(10),
				trace.MakeBarrier(1),
				trace.MakeCompute(5),
			}))
		}
		return streams
	}
	plain := newTestEngine(t, mk())
	res1, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	guarded := newTestEngine(t, mk())
	guarded.SetBudget(Budget{MaxCycles: 1 << 40, MaxEvents: 1 << 40, StallEvents: 1 << 40})
	guarded.SetContext(context.Background())
	res2, err := guarded.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res1.ExecTime != res2.ExecTime || res1.Events != res2.Events {
		t.Errorf("budget changed the run: %+v vs %+v", res1, res2)
	}
}
