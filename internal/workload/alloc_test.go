package workload

import (
	"testing"

	"vcoma/internal/trace"
)

// drain pulls every event of every stream, batch by batch as the engine
// does, and returns how many there were.
func drain(streams []trace.Stream) (events int) {
	for _, s := range streams {
		bs := s.(trace.BatchStream)
		for {
			b, ok := bs.NextBatch()
			if !ok {
				break
			}
			events += len(b)
		}
	}
	return events
}

// TestGeneratorAllocsTestScale bounds the allocations of generating a
// test-scale run's streams. Event batches come from the shared pool, so a
// stream costs a fixed handful of allocations (generator, channels,
// goroutine, emitter) however many batches it fills: tens of batches per
// run, none of them allocated once the pool is warm. OCEAN is left out
// because its program allocates per sweep on its own account.
func TestGeneratorAllocsTestScale(t *testing.T) {
	const perStream = 8
	g := testGeometry()
	for _, b := range Registry(ScaleTest) {
		if b.Name() == "OCEAN" {
			continue
		}
		pr, err := b.Build(g, g.Nodes())
		if err != nil {
			t.Fatal(err)
		}
		batches := drain(pr.Streams()) / 1024
		allocs := testing.AllocsPerRun(10, func() { drain(pr.Streams()) })
		if limit := float64(perStream*pr.Procs() + 1); allocs > limit {
			t.Errorf("%s: %.0f allocations per run of %d batches, want at most %.0f", b.Name(), allocs, batches, limit)
		}
	}
}
