package workload

import (
	"math/bits"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"vcoma/internal/config"
	"vcoma/internal/prng"
)

// seedKeys draws p's input keys from its seed, independently of the plan.
func seedKeys(p RadixParams) []uint32 {
	rng := prng.New(p.Seed)
	keys := make([]uint32, p.Keys)
	for i := range keys {
		keys[i] = rng.Uint32() % p.MaxKey
	}
	return keys
}

// planTargets derives where each key moves in one pass from the plan's
// digits and bases, the way the generators do: each processor walks its
// own keys with a cursor that starts at its bases.
func planTargets(plan *radixPlan, pass int, p RadixParams, procs int) []int32 {
	targets := make([]int32, p.Keys)
	for q := 0; q < procs; q++ {
		cursor := append([]int32(nil), plan.bases[pass][q*p.Radix:(q+1)*p.Radix]...)
		lo, hi := chunk(p.Keys, procs, q)
		for i := lo; i < hi; i++ {
			d := plan.digits[pass][i]
			targets[i] = cursor[d]
			cursor[d]++
		}
	}
	return targets
}

func TestRadixPlanSortsCorrectly(t *testing.T) {
	err := quick.Check(func(seed uint64, rawKeys uint16, rawProcs uint8) bool {
		p := RadixParams{
			Keys:   int(rawKeys%2000) + 16,
			Radix:  16,
			MaxKey: 1 << 12,
			Seed:   seed,
		}
		procs := int(rawProcs%8) + 1
		plan, err := buildRadixPlan(p, procs)
		if err != nil {
			return false
		}
		// Replay the permutations onto the initial keys; every pass's
		// digits must be the current keys' digits, and the result must
		// equal the sorted input.
		cur := seedKeys(p)
		shift := bits.TrailingZeros(uint(p.Radix))
		for pass := 0; pass < plan.passes; pass++ {
			for i, k := range cur {
				if want := uint16(k >> (pass * shift) & uint32(p.Radix-1)); plan.digits[pass][i] != want {
					t.Logf("pass %d key %d: digit %d, want %d", pass, i, plan.digits[pass][i], want)
					return false
				}
			}
			next := make([]uint32, len(cur))
			for i, tgt := range planTargets(plan, pass, p, procs) {
				next[tgt] = cur[i]
			}
			cur = next
		}
		want := seedKeys(p)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range cur {
			if cur[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRadixTargetsArePermutations(t *testing.T) {
	p := ScaleTest.Radix()
	const procs = 4
	plan, err := buildRadixPlan(p, procs)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < plan.passes; pass++ {
		seen := make([]bool, p.Keys)
		for _, tgt := range planTargets(plan, pass, p, procs) {
			if tgt < 0 || int(tgt) >= p.Keys || seen[tgt] {
				t.Fatalf("pass %d: target %d invalid or duplicated", pass, tgt)
			}
			seen[tgt] = true
		}
	}
}

func TestRadixPassCount(t *testing.T) {
	// 20-bit keys with an 11-bit radix need 2 passes (paper parameters).
	plan, err := buildRadixPlan(RadixParams{Keys: 64, Radix: 2048, MaxKey: 1 << 20, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.passes != 2 {
		t.Fatalf("passes = %d, want 2", plan.passes)
	}
}

func TestRadixRejectsBadParams(t *testing.T) {
	if _, err := buildRadixPlan(RadixParams{Keys: 0, Radix: 16, MaxKey: 4}, 4); err == nil {
		t.Fatal("zero keys accepted")
	}
	if _, err := buildRadixPlan(RadixParams{Keys: 16, Radix: 15, MaxKey: 4}, 4); err == nil {
		t.Fatal("non-power-of-two radix accepted")
	}
	// Digits are stored as uint16, so a wider radix cannot be planned.
	if _, err := buildRadixPlan(RadixParams{Keys: 16, Radix: 1 << 17, MaxKey: 1 << 20}, 4); err == nil {
		t.Fatal("radix above 1<<16 accepted")
	}
	if _, err := buildRadixPlan(RadixParams{Keys: 16, Radix: 1 << 16, MaxKey: 1 << 20}, 4); err != nil {
		t.Fatalf("radix 1<<16 rejected: %v", err)
	}
}

func TestRadixWritesSpreadAcrossOutput(t *testing.T) {
	// The permutation phase's writes must scatter across the whole output
	// array — the paper's reason RADIX defeats private TLBs.
	g := testGeometry()
	pr, err := NewRadix(ScaleTest.Radix()).Build(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// key1 is the first pass's output region.
	var key1Lo, key1Hi uint64
	for _, r := range pr.Layout().Regions() {
		if r.Name == "key1" {
			key1Lo, key1Hi = uint64(r.Base), uint64(r.End())
		}
	}
	pagesTouched := map[uint64]bool{}
	for _, s := range pr.Streams() {
		for {
			ev, ok := s.Next()
			if !ok {
				break
			}
			a := uint64(ev.Addr())
			if a >= key1Lo && a < key1Hi {
				pagesTouched[a>>g.PageBits] = true
			}
		}
	}
	totalPages := (key1Hi - key1Lo) >> g.PageBits
	if uint64(len(pagesTouched)) < totalPages {
		t.Fatalf("permutation touched %d of %d output pages", len(pagesTouched), totalPages)
	}
}

// TestRadixBuildMemoryPaperScale pins what building the paper's RADIX
// costs the host: the plan keeps one uint16 digit per key per pass and
// each processor's bases, and the build reuses two key buffers. Build
// allocates about 6.8 MB and retains about 2.5 MB.
func TestRadixBuildMemoryPaperScale(t *testing.T) {
	const (
		maxAlloc  = 8 << 20
		maxRetain = 3 << 20
	)
	g := config.Baseline().Geometry
	b := NewRadix(ScalePaper.Radix())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pr, err := b.Build(g, g.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pr)
	alloc := after.TotalAlloc - before.TotalAlloc
	retain := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("Build allocated %.1f MB, retains %.1f MB", float64(alloc)/(1<<20), float64(retain)/(1<<20))
	if alloc > maxAlloc {
		t.Errorf("Build allocated %d B, want at most %d", alloc, maxAlloc)
	}
	if retain > maxRetain {
		t.Errorf("Build retains %d B, want at most %d", retain, maxRetain)
	}
}
