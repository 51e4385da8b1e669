package experiments

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/sim"
	"vcoma/internal/tlb"
	"vcoma/internal/trace"
	"vcoma/internal/vm"
	"vcoma/internal/workload"
)

// The stream-only L0-TLB pass must equal the machine path — Pass on
// ObservePassConfig(cfg, L0TLB) with the paper grid — in every miss count,
// the access total, the node count and RefsPerNode: all six benchmarks at
// test scale, one at small scale.
func TestObserveL0MatchesMachine(t *testing.T) {
	type cell struct {
		bench string
		scale workload.Scale
	}
	var cells []cell
	for _, name := range workload.Names() {
		cells = append(cells, cell{name, workload.ScaleTest})
	}
	cells = append(cells, cell{"FFT", workload.ScaleSmall})
	for _, c := range cells {
		t.Run(c.bench+"/"+c.scale.String(), func(t *testing.T) {
			cfg := ConfigForScale(config.Baseline(), c.scale)
			bench, err := workload.ByName(c.bench, c.scale)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			want, err := observeMachine(ctx, cfg, bench, config.L0TLB)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ObserveScheme(ctx, cfg, bench, config.L0TLB)
			if err != nil {
				t.Fatal(err)
			}
			if got.RefsPerNode != want.RefsPerNode {
				t.Errorf("RefsPerNode = %v, machine %v", got.RefsPerNode, want.RefsPerNode)
			}
			if got.NoWb != nil {
				t.Error("L0 pass carries a no-writeback bank")
			}
			g, w := got.Bank, want.Bank
			if g.Nodes() != w.Nodes() || g.TotalAccesses() != w.TotalAccesses() {
				t.Errorf("nodes/accesses = %d/%d, machine %d/%d", g.Nodes(), g.TotalAccesses(), w.Nodes(), w.TotalAccesses())
			}
			for _, sp := range tlb.PaperSpecs() {
				if g.TotalMisses(sp) != w.TotalMisses(sp) {
					t.Errorf("%v misses = %d, machine %d", sp, g.TotalMisses(sp), w.TotalMisses(sp))
				}
			}
		})
	}
}

// The stream-only pass counts events as the engine does and trips on the
// same MaxEvents budgets with the same reason; an expired deadline trips
// the watchdog rather than returning a bare context error.
func TestObserveL0Watchdog(t *testing.T) {
	cfg := ConfigForScale(config.Baseline(), workload.ScaleTest)
	bench, err := workload.ByName("RADIX", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	_, _, res, err := Pass(context.Background(), ObservePassConfig(cfg, config.L0TLB), bench, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the run's event count fits; one fewer trips both paths.
	ctx := WithBudget(context.Background(), sim.Budget{MaxEvents: res.Events})
	if _, err := ObserveScheme(ctx, cfg, bench, config.L0TLB); err != nil {
		t.Fatalf("budget of exactly %d events tripped: %v", res.Events, err)
	}
	ctx = WithBudget(context.Background(), sim.Budget{MaxEvents: res.Events - 1})
	_, streamErr := ObserveScheme(ctx, cfg, bench, config.L0TLB)
	_, machineErr := observeMachine(ctx, cfg, bench, config.L0TLB)
	var sw, mw *sim.WatchdogError
	if !errors.As(streamErr, &sw) || !errors.As(machineErr, &mw) {
		t.Fatalf("want watchdog trips from both paths, got %v and %v", streamErr, machineErr)
	}
	if sw.Dump.Reason != mw.Dump.Reason || sw.Dump.Events != mw.Dump.Events {
		t.Errorf("stream trip %q after %d events, engine %q after %d", sw.Dump.Reason, sw.Dump.Events, mw.Dump.Reason, mw.Dump.Events)
	}
	// MaxCycles does not apply: no clock is simulated.
	ctx = WithBudget(context.Background(), sim.Budget{MaxCycles: 8})
	if _, err := ObserveScheme(ctx, cfg, bench, config.L0TLB); err != nil {
		t.Errorf("MaxCycles tripped the stream-only pass: %v", err)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = ObserveScheme(expired, cfg, bench, config.L0TLB)
	if !errors.As(err, &sw) || !strings.Contains(sw.Dump.Reason, "deadline") {
		t.Fatalf("expired deadline: got %v, want a watchdog trip", err)
	}
}

// endless is a benchmark whose processors read forever, so a pass over it
// can only end through its context. Processor 0 cancels the context once it
// has emitted cancelAfter events.
type endless struct {
	cancelAfter int
	cancel      context.CancelFunc
}

func (endless) Name() string { return "ENDLESS" }

func (b endless) Build(g addr.Geometry, procs int) (*workload.Program, error) {
	return workload.NewProgram("ENDLESS", vm.NewLayout(g), procs, func(p int) func(*trace.Emitter) {
		return func(e *trace.Emitter) {
			for i := 0; ; i++ {
				if p == 0 && i == b.cancelAfter {
					b.cancel()
				}
				e.Read(addr.Virtual(uint64(i%64) << g.PageBits))
			}
		}
	}), nil
}

// Cancelling mid-pass returns ctx's error and closes every stream: no
// generator goroutine outlives the pass.
func TestObserveL0CancelClosesStreams(t *testing.T) {
	cfg := ConfigForScale(config.Baseline(), workload.ScaleTest)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := ObserveScheme(ctx, cfg, endless{cancelAfter: 20000, cancel: cancel}, config.L0TLB)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the pass, %d before: a generator leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
