// Package workload provides deterministic synthetic generators for the six
// SPLASH-2 benchmarks of the paper's evaluation (Table 1): RADIX, FFT, FMM,
// OCEAN, RAYTRACE and BARNES.
//
// The paper simulates only shared-data accesses (§5.1), so a workload here
// is the shared-data reference stream of the real benchmark: the same data
// structures laid out in the same virtual address space, partitioned across
// processors the same way, accessed in the same order, with the real
// synchronization structure (barriers between phases, locks around shared
// updates) and the real communication pattern (radix permutation writes,
// FFT transposes, tree walks, stencil halos, ray/scene reads). Arithmetic
// is abstracted into Compute events charged per element of work.
//
// Every generator is seeded and bit-for-bit reproducible.
package workload

import (
	"fmt"

	"vcoma/internal/addr"
	"vcoma/internal/trace"
	"vcoma/internal/vm"
)

// Benchmark builds a Program for a machine geometry and processor count.
type Benchmark interface {
	// Name returns the benchmark's SPLASH-2 name.
	Name() string
	// Build lays out the shared address space and prepares the
	// per-processor programs.
	Build(g addr.Geometry, procs int) (*Program, error)
}

// Program is a built workload: a shared-memory layout plus one event
// stream source per processor — a generator, or a recorded trace file.
type Program struct {
	name   string
	layout *vm.Layout
	procs  int
	stream func(p int) trace.Stream
}

// NewProgram assembles a generated Program. gen must return an independent
// program function for each processor in [0, procs).
func NewProgram(name string, layout *vm.Layout, procs int, gen func(p int) func(*trace.Emitter)) *Program {
	return &Program{name: name, layout: layout, procs: procs, stream: func(p int) trace.Stream {
		return trace.NewGenerator(gen(p))
	}}
}

// Name returns the benchmark name.
func (pr *Program) Name() string { return pr.name }

// Layout returns the shared-memory layout (for preloading and footprint
// reporting).
func (pr *Program) Layout() *vm.Layout { return pr.layout }

// Procs returns the processor count the program was built for.
func (pr *Program) Procs() int { return pr.procs }

// Streams returns fresh event streams, one per processor. Each call starts
// new generators (or reopens the recorded files), so a Program can be run
// any number of times.
func (pr *Program) Streams() []trace.Stream {
	out := make([]trace.Stream, pr.procs)
	for p := range out {
		out[p] = pr.stream(p)
	}
	return out
}

// chunk splits n items into procs contiguous ranges and returns processor
// p's half-open range [lo, hi). Early processors get the remainder.
func chunk(n, procs, p int) (lo, hi int) {
	base := n / procs
	rem := n % procs
	lo = p*base + min(p, rem)
	hi = lo + base
	if p < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// barrierSeq hands out monotonically increasing barrier IDs shared by all
// processors of one program. Every processor must pass every barrier, in
// the same order; building the ID sequence once at Program construction
// guarantees that.
type barrierSeq struct{ next int }

func (b *barrierSeq) id() int {
	b.next++
	return b.next - 1
}

// Registry returns the paper's six benchmarks with the given parameter
// scale. Scale 1 is the paper's Table 1 configuration; smaller scales
// shrink the data sets for tests and quick runs while preserving structure.
func Registry(scale Scale) []Benchmark {
	return []Benchmark{
		NewRadix(scale.Radix()),
		NewFFT(scale.FFT()),
		NewFMM(scale.FMM()),
		NewOcean(scale.Ocean()),
		NewRaytrace(scale.Raytrace()),
		NewBarnes(scale.Barnes()),
	}
}

// ByName returns the named benchmark at the given scale.
func ByName(name string, scale Scale) (Benchmark, error) {
	for _, b := range Registry(scale) {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names lists the benchmark names in the paper's Table 1 order.
func Names() []string {
	return []string{"RADIX", "FFT", "FMM", "OCEAN", "RAYTRACE", "BARNES"}
}
