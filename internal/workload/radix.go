package workload

import (
	"fmt"

	"vcoma/internal/addr"
	"vcoma/internal/prng"
	"vcoma/internal/trace"
	"vcoma/internal/vm"
)

// RadixParams configures the RADIX integer sort (SPLASH-2 radix; the
// paper runs -n524288 -r2048 -m1048576).
type RadixParams struct {
	Keys   int    // number of keys to sort
	Radix  int    // radix (buckets per pass), a power of two
	MaxKey uint32 // keys are uniform in [0, MaxKey)
	Seed   uint64
}

// Radix is the RADIX benchmark: an iterative parallel counting sort. Each
// pass histograms one digit, prefix-sums the histograms, then permutes
// every key into a globally shared output array. The permutation writes are
// scattered across the whole array and shared by all nodes — the access
// pattern behind the paper's observation that RADIX's writes defeat cache
// filtering and private TLBs while the shared DLB absorbs them (§5.2).
type Radix struct {
	p RadixParams
}

// NewRadix returns the benchmark for the given parameters.
func NewRadix(p RadixParams) *Radix { return &Radix{p: p} }

// Name implements Benchmark.
func (r *Radix) Name() string { return "RADIX" }

const (
	keyBytes  = 4
	histBytes = 4
)

// radixPlan holds the precomputed global sort as the generators need it:
// per pass, every key's digit and each processor's rank base per digit.
// A generator replays the permutation from these alone: it copies its
// bases into a cursor and sends a key of digit d to cursor[d], then bumps
// cursor[d] — the stable parallel counting sort, key by key. The plan is
// what a RADIX cell keeps alive for its whole run, so it holds 2 bytes per
// key per pass (2 MB at the paper's 524,288 keys) and no keys or targets.
type radixPlan struct {
	passes int
	digits [][]uint16 // digits[pass][i]: key i's digit at the start of pass
	bases  [][]int32  // bases[pass][q*radix+d]: rank of proc q's first digit-d key
}

// maxRadix is the largest radix whose digits fit a plan's uint16.
const maxRadix = 1 << 16

func buildRadixPlan(p RadixParams, procs int) (*radixPlan, error) {
	if p.Keys <= 0 || p.Radix <= 1 || p.Radix&(p.Radix-1) != 0 || p.Radix > maxRadix {
		return nil, fmt.Errorf("workload: bad RADIX parameters %+v", p)
	}
	digitBits := 0
	for d := p.Radix; d > 1; d >>= 1 {
		digitBits++
	}
	keyBits := 0
	for m := uint64(p.MaxKey - 1); m > 0; m >>= 1 {
		keyBits++
	}
	passes := (keyBits + digitBits - 1) / digitBits
	if passes == 0 {
		passes = 1
	}

	// cur holds the keys at the start of a pass and next the keys after
	// it; the two buffers swap each pass.
	rng := prng.New(p.Seed)
	cur := make([]uint32, p.Keys)
	for i := range cur {
		cur[i] = rng.Uint32() % p.MaxKey
	}
	var next []uint32
	var cursor []int32
	if passes > 1 {
		next = make([]uint32, p.Keys)
		cursor = make([]int32, procs*p.Radix)
	}

	plan := &radixPlan{passes: passes}
	mask := uint32(p.Radix - 1)
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * digitBits)
		digits := make([]uint16, p.Keys)
		for i, k := range cur {
			digits[i] = uint16((k >> shift) & mask)
		}
		// Per-processor digit histograms over each proc's contiguous
		// range, turned in place into global stable rank bases: keys
		// order by (digit, owning proc, local index).
		bases := make([]int32, procs*p.Radix)
		for q := 0; q < procs; q++ {
			lo, hi := chunk(p.Keys, procs, q)
			row := bases[q*p.Radix : (q+1)*p.Radix]
			for _, d := range digits[lo:hi] {
				row[d]++
			}
		}
		total := int32(0)
		for d := 0; d < p.Radix; d++ {
			for q := 0; q < procs; q++ {
				n := bases[q*p.Radix+d]
				bases[q*p.Radix+d] = total
				total += n
			}
		}
		plan.digits = append(plan.digits, digits)
		plan.bases = append(plan.bases, bases)
		if pass == passes-1 {
			break // the last permutation's output feeds no further pass
		}
		copy(cursor, bases)
		for q := 0; q < procs; q++ {
			lo, hi := chunk(p.Keys, procs, q)
			row := cursor[q*p.Radix : (q+1)*p.Radix]
			for i := lo; i < hi; i++ {
				d := digits[i]
				next[row[d]] = cur[i]
				row[d]++
			}
		}
		cur, next = next, cur
	}
	return plan, nil
}

// Build implements Benchmark.
func (r *Radix) Build(g addr.Geometry, procs int) (*Program, error) {
	p := r.p
	plan, err := buildRadixPlan(p, procs)
	if err != nil {
		return nil, err
	}

	l := vm.NewLayout(g)
	key0 := l.AllocArray("key0", p.Keys, keyBytes)
	key1 := l.AllocArray("key1", p.Keys, keyBytes)
	// Per-processor histogram rows in one shared array (SPLASH's rank
	// array), plus the global prefix bases.
	hist := l.AllocArray("rank", procs*p.Radix, histBytes)
	prefix := l.AllocArray("rank_ff", p.Radix, histBytes)

	keyRegion := func(pass int) (from, to vm.Region) {
		if pass%2 == 0 {
			return key0, key1
		}
		return key1, key0
	}

	bar := &barrierSeq{}
	// Barrier IDs fixed at build time: one before each phase of each pass.
	type passBarriers struct{ histDone, prefixDone, permDone int }
	var bars []passBarriers
	start := bar.id()
	for pass := 0; pass < plan.passes; pass++ {
		bars = append(bars, passBarriers{histDone: bar.id(), prefixDone: bar.id(), permDone: bar.id()})
	}

	gen := func(proc int) func(*trace.Emitter) {
		return func(e *trace.Emitter) {
			cursor := make([]int32, p.Radix)
			e.Barrier(start)
			for pass := 0; pass < plan.passes; pass++ {
				digits := plan.digits[pass]
				from, to := keyRegion(pass)
				lo, hi := chunk(p.Keys, procs, proc)

				// Phase 1: local histogram. Read each key, bump the digit
				// counter in this proc's row of the shared rank array.
				for i := lo; i < hi; i++ {
					e.Read(from.At(uint64(i) * keyBytes))
					d := digits[i]
					e.Write(hist.At(uint64(proc*p.Radix+int(d)) * histBytes))
					e.Compute(2)
				}
				e.Barrier(bars[pass].histDone)

				// Phase 2: parallel prefix. Each proc owns a digit range,
				// reads every proc's count for those digits (remote reads
				// across all nodes), writes the global base.
				dlo, dhi := chunk(p.Radix, procs, proc)
				for d := dlo; d < dhi; d++ {
					for q := 0; q < procs; q++ {
						e.Read(hist.At(uint64(q*p.Radix+d) * histBytes))
						e.Compute(1)
					}
					e.Write(prefix.At(uint64(d) * histBytes))
				}
				e.Barrier(bars[pass].prefixDone)

				// Phase 3: permutation. Re-read own keys and the digit
				// base, then write each key to its global rank — scattered
				// stores into an array spread over every node.
				copy(cursor, plan.bases[pass][proc*p.Radix:])
				for i := lo; i < hi; i++ {
					e.Read(from.At(uint64(i) * keyBytes))
					d := digits[i]
					e.Read(prefix.At(uint64(d) * histBytes))
					t := cursor[d]
					cursor[d]++
					e.Write(to.At(uint64(t) * keyBytes))
					e.Compute(4)
				}
				e.Barrier(bars[pass].permDone)
			}
		}
	}
	return NewProgram("RADIX", l, procs, gen), nil
}
