package vcoma

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"vcoma/internal/experiments"
	"vcoma/internal/obs"
)

// obsRun is a RADIX test-scale instrumented run shared by the acceptance
// checks below.
func obsRun(t *testing.T, cfg Config) (*RunResult, *Observer) {
	t.Helper()
	bench, err := BenchmarkByName("RADIX", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	o := NewObserver(ObserverOptions{MetricsInterval: 10000, TraceCapacity: 1 << 16})
	res, err := Run(context.Background(), cfg, bench, RunOptions{Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	return res, o
}

// TestObsFinalSampleMatchesAggregates checks the sampler's contract: the
// final sample of every cumulative per-node counter equals the machine's
// post-run aggregate, so the time series and the summary stats never
// disagree.
func TestObsFinalSampleMatchesAggregates(t *testing.T) {
	for _, sch := range []Scheme{L0TLB, VCOMA} {
		t.Run(fmt.Sprint(sch), func(t *testing.T) {
			cfg := benchConfig().WithScheme(sch)
			res, o := obsRun(t, cfg)
			ts := o.Sampler.Export()
			tot := res.Machine.TotalStats()

			sum := func(metric string) float64 {
				var s float64
				for i := 0; i < cfg.Geometry.Nodes(); i++ {
					v, ok := ts.Last(fmt.Sprintf("node%02d/%s", i, metric))
					if !ok {
						t.Fatalf("no series for node%02d/%s", i, metric)
					}
					s += v
				}
				return s
			}
			if got := sum("refs"); got != float64(tot.Refs) {
				t.Errorf("final refs sample %v, aggregate %d", got, tot.Refs)
			}
			if got := sum("tlb.misses"); got != float64(tot.TLBMisses) {
				t.Errorf("final tlb.misses sample %v, aggregate %d", got, tot.TLBMisses)
			}
			if got := sum("trans.cycles"); got != float64(tot.TransCycles) {
				t.Errorf("final trans.cycles sample %v, aggregate %d", got, tot.TransCycles)
			}
			// The final sample is stamped at the run's execution time.
			if ts.Cycles[len(ts.Cycles)-1] != res.Sim.ExecTime {
				t.Errorf("final sample at cycle %d, exec time %d",
					ts.Cycles[len(ts.Cycles)-1], res.Sim.ExecTime)
			}
		})
	}
}

// chromeEvent mirrors the trace-event fields the viewer requires.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   *uint64 `json:"ts"`
	Dur  uint64  `json:"dur"`
	Pid  *int    `json:"pid"`
	Tid  *int    `json:"tid"`
}

// TestObsTraceJSONStructure validates the exported Chrome trace end to end:
// well-formed JSON, required fields on every event, and non-decreasing
// timestamps within each (pid, tid) track — the properties Perfetto needs to
// render the file at all.
func TestObsTraceJSONStructure(t *testing.T) {
	_, o := obsRun(t, benchConfig())
	var buf bytes.Buffer
	if err := o.Tracer.WriteJSON(&buf, "node"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	lastTs := make(map[[2]int]uint64)
	events := 0
	for i, e := range doc.TraceEvents {
		if e.Ph == "" || e.Ts == nil || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event %d missing required fields: %+v", i, e)
		}
		switch e.Ph {
		case "M":
			continue // metadata carries no category
		case "X", "i":
		default:
			t.Fatalf("event %d has unknown phase %q", i, e.Ph)
		}
		if e.Name == "" || e.Cat == "" {
			t.Fatalf("event %d missing name/cat: %+v", i, e)
		}
		track := [2]int{*e.Pid, *e.Tid}
		if *e.Ts < lastTs[track] {
			t.Fatalf("event %d (%s) goes back in time on track %v: %d < %d",
				i, e.Name, track, *e.Ts, lastTs[track])
		}
		lastTs[track] = *e.Ts
		events++
	}
	if events == 0 {
		t.Fatal("trace holds only metadata")
	}
}

// TestObsTraceCategoryFilter checks that a category filter drops everything
// outside the requested set before it reaches the ring buffer.
func TestObsTraceCategoryFilter(t *testing.T) {
	bench, err := BenchmarkByName("RADIX", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	o := NewObserver(ObserverOptions{TraceCapacity: 1 << 14, TraceCategories: "sync"})
	if _, err := Run(context.Background(), benchConfig(), bench, RunOptions{Observer: o}); err != nil {
		t.Fatal(err)
	}
	evs := o.Tracer.Events()
	if len(evs) == 0 {
		t.Fatal("sync-only trace is empty")
	}
	for _, e := range evs {
		if e.Cat != "sync" {
			t.Fatalf("category filter leaked %q event %q", e.Cat, e.Name)
		}
	}
}

// TestObsInstrumentationIsObservational checks the layer's core contract:
// attaching an observer changes nothing about the simulation itself.
func TestObsInstrumentationIsObservational(t *testing.T) {
	bench, err := BenchmarkByName("RADIX", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(context.Background(), benchConfig(), bench, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := obsRun(t, benchConfig())
	if plain.Sim.ExecTime != inst.Sim.ExecTime || plain.Sim.Events != inst.Sim.Events {
		t.Fatalf("instrumentation changed the run: exec %d vs %d, events %d vs %d",
			plain.Sim.ExecTime, inst.Sim.ExecTime, plain.Sim.Events, inst.Sim.Events)
	}
	if plain.Machine.TotalStats() != inst.Machine.TotalStats() {
		t.Fatal("instrumentation changed machine counters")
	}
}

// TestObsSpanInstrumentationIsObservational extends the contract to request
// tracing: a span riding the context through the experiment pass — the
// serve path threads one through every job — must leave the simulation
// cycle-identical, while still capturing the build and simulate phases.
func TestObsSpanInstrumentationIsObservational(t *testing.T) {
	bench, err := BenchmarkByName("RADIX", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := experiments.Simulate(context.Background(), benchConfig(), bench, ScaleTest)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace(obs.NewTraceID())
	root := tr.StartSpan("request")
	ctx := obs.WithSpan(obs.WithTrace(context.Background(), tr), root)
	traced, err := experiments.Simulate(ctx, benchConfig(), bench, ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	pj, _ := json.Marshal(plain)
	tj, _ := json.Marshal(traced)
	if !bytes.Equal(pj, tj) {
		t.Fatalf("span instrumentation changed the run:\nplain:  %s\ntraced: %s", pj, tj)
	}

	tree := tr.Export()
	names := map[string]bool{}
	var walk func(nodes []obs.SpanNode)
	walk = func(nodes []obs.SpanNode) {
		for _, n := range nodes {
			names[n.Name] = true
			walk(n.Children)
		}
	}
	walk(tree.Spans)
	for _, want := range []string{"request", "build", "simulate"} {
		if !names[want] {
			t.Errorf("traced pass produced no %s span (has %v)", want, names)
		}
	}
}
