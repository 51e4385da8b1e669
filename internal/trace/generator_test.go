package trace

import (
	"runtime"
	"sync"
	"testing"

	"vcoma/internal/addr"
)

// seqProgram emits n reads whose addresses number the events of stream id
// in order, so a consumer can tell a batch that was overwritten.
func seqProgram(id, n int) func(*Emitter) {
	return func(e *Emitter) {
		for i := 0; i < n; i++ {
			e.Read(seqAddr(id, i))
		}
	}
}

func seqAddr(id, i int) addr.Virtual { return addr.Virtual(id)<<32 | addr.Virtual(i) }

// TestGeneratorHeldBatchNotOverwritten runs several generators at once, all
// recycling batches through the shared pool, and has each consumer hold
// every batch while the producers run on before checking it again: a batch
// the consumer still holds must never be refilled. Run under -race, a
// producer writing into a held batch is also reported as a data race.
func TestGeneratorHeldBatchNotOverwritten(t *testing.T) {
	const streams, events = 4, 20 * generatorBatch
	var wg sync.WaitGroup
	errs := make(chan string, streams)
	for id := 0; id < streams; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := NewGenerator(seqProgram(id, events))
			defer g.Close()
			next := 0
			for {
				b, ok := g.NextBatch()
				if !ok {
					break
				}
				for pass := 0; pass < 2; pass++ {
					for k, ev := range b {
						if ev.Addr() != seqAddr(id, next+k) {
							errs <- "stream event overwritten or out of order"
							return
						}
					}
					// Let every producer fill and recycle batches while
					// this one is held.
					for y := 0; y < 8; y++ {
						runtime.Gosched()
					}
				}
				next += len(b)
			}
			if next != events {
				errs <- "stream ended early"
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestGeneratorCloseReturnsBatches closes streams mid-batch, between
// batches and after draining, and checks every batch the stream took from
// the pool went back: Close leaves no batch stranded with the producer, in
// the channel or with the consumer.
func TestGeneratorCloseReturnsBatches(t *testing.T) {
	for _, read := range []int{0, 1, generatorBatch, 3*generatorBatch + 5, 5 * generatorBatch} {
		before := batchesOut.Load()
		g := NewGenerator(seqProgram(0, 5*generatorBatch))
		for i := 0; i < read; i++ {
			if _, ok := g.Next(); !ok {
				t.Fatalf("stream ended after %d events", i)
			}
		}
		g.Close()
		if after := batchesOut.Load(); after != before {
			t.Fatalf("after reading %d events and closing: %d batches still out", read, after-before)
		}
	}
}

// TestGeneratorProducerPanicReturnsBatch checks that a program panic hands
// the batch it was filling back to the pool.
func TestGeneratorProducerPanicReturnsBatch(t *testing.T) {
	before := batchesOut.Load()
	g := NewGenerator(func(e *Emitter) {
		e.Read(1)
		panic("workload bug")
	})
	func() {
		defer func() { recover() }()
		for {
			if _, ok := g.Next(); !ok {
				return
			}
		}
	}()
	if after := batchesOut.Load(); after != before {
		t.Fatalf("%d batches still out after a producer panic", after-before)
	}
}
