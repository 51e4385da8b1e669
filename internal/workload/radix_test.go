package workload

import (
	"sort"
	"testing"
	"testing/quick"
)

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
		// Replay the permutations onto the initial keys; the result must
		// equal the sorted input.
		cur := append([]uint32(nil), plan.keys[0]...)
		for pass := 0; pass < plan.passes; pass++ {
			next := make([]uint32, len(cur))
			for i, k := range cur {
				next[plan.targets[pass][i]] = k
			}
			cur = next
		}
		want := append([]uint32(nil), plan.keys[0]...)
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
	plan, err := buildRadixPlan(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < plan.passes; pass++ {
		seen := make([]bool, p.Keys)
		for _, tgt := range plan.targets[pass] {
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
