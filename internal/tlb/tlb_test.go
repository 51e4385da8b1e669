package tlb

import (
	"testing"
	"testing/quick"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/prng"
)

func TestFullyAssocBasics(t *testing.T) {
	b := NewFullyAssoc(2, 1)
	if b.Access(10) {
		t.Fatal("cold access hit")
	}
	if !b.Access(10) {
		t.Fatal("second access missed")
	}
	b.Access(20)
	if !b.Probe(10) || !b.Probe(20) {
		t.Fatal("both pages should be resident")
	}
	b.Access(30) // evicts one of {10, 20} at random
	resident := 0
	for _, p := range []addr.PageNum{10, 20, 30} {
		if b.Probe(p) {
			resident++
		}
	}
	if resident != 2 {
		t.Fatalf("resident = %d, want capacity 2", resident)
	}
	st := b.Stats()
	if st.Accesses != 4 || st.Misses != 3 || st.Hits() != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFullyAssocInvalidateAndFlush(t *testing.T) {
	b := NewFullyAssoc(4, 1)
	for p := addr.PageNum(0); p < 4; p++ {
		b.Access(p)
	}
	b.Invalidate(2)
	if b.Probe(2) {
		t.Fatal("page 2 survived invalidation")
	}
	if !b.Probe(0) || !b.Probe(1) || !b.Probe(3) {
		t.Fatal("invalidate removed the wrong page")
	}
	b.Invalidate(99) // absent: no-op
	b.Flush()
	for p := addr.PageNum(0); p < 4; p++ {
		if b.Probe(p) {
			t.Fatalf("page %d survived flush", p)
		}
	}
}

func TestFullyAssocDeterminism(t *testing.T) {
	runOnce := func() uint64 {
		b := NewFullyAssoc(8, 0xFEED)
		for i := 0; i < 10000; i++ {
			b.Access(addr.PageNum(i * 7919 % 100))
		}
		return b.Stats().Misses
	}
	if runOnce() != runOnce() {
		t.Fatal("same seed produced different miss counts")
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	b := NewDirectMapped(4, 0)
	b.Access(0)
	b.Access(4) // same slot as 0
	if b.Probe(0) {
		t.Fatal("conflicting page survived")
	}
	if !b.Probe(4) {
		t.Fatal("page 4 not resident")
	}
	b.Access(1)
	b.Access(2)
	if !b.Probe(4) || !b.Probe(1) || !b.Probe(2) {
		t.Fatal("non-conflicting pages evicted")
	}
}

func TestDirectMappedIndexShift(t *testing.T) {
	// A home-node DLB sees only pages with identical low (home) bits;
	// without the shift they would all collide into one slot.
	shifted := NewDirectMapped(4, 5)
	for i := 0; i < 4; i++ {
		shifted.Access(addr.PageNum(i<<5 | 3)) // home bits fixed at 3
	}
	for i := 0; i < 4; i++ {
		if !shifted.Probe(addr.PageNum(i<<5 | 3)) {
			t.Fatalf("page %d evicted despite distinct shifted index", i)
		}
	}
	unshifted := NewDirectMapped(4, 0)
	for i := 0; i < 4; i++ {
		unshifted.Access(addr.PageNum(i << 5)) // all index to slot 0
	}
	if unshifted.Stats().Misses != 4 {
		t.Fatal("expected every access to conflict-miss without the shift")
	}
}

func TestSetAssoc(t *testing.T) {
	b, err := NewSetAssoc(8, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fill one set (4 sets x 2 ways; pages 0, 4, 8 share set 0).
	b.Access(0)
	b.Access(4)
	if !b.Probe(0) || !b.Probe(4) {
		t.Fatal("two-way set should hold both")
	}
	b.Access(8)
	resident := 0
	for _, p := range []addr.PageNum{0, 4, 8} {
		if b.Probe(p) {
			resident++
		}
	}
	if resident != 2 {
		t.Fatalf("set holds %d, want 2", resident)
	}
	b.Invalidate(8)
	b.Flush()
	if b.Probe(0) {
		t.Fatal("flush left entries")
	}

	if _, err := NewSetAssoc(6, 2, 0, 1); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, err := NewSetAssoc(8, 3, 0, 1); err == nil {
		t.Fatal("bad ways accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, config.FullyAssoc, 0, 1); err == nil {
		t.Fatal("zero entries accepted")
	}
	if _, err := New(6, config.DirectMapped, 0, 1); err == nil {
		t.Fatal("non-power-of-two DM accepted")
	}
	if _, err := New(8, config.TLBOrg(9), 0, 1); err == nil {
		t.Fatal("unknown org accepted")
	}
}

func TestColdMissesEqualDistinctPages(t *testing.T) {
	// With capacity >= distinct pages, misses == distinct pages for any
	// access sequence (property, both organizations).
	err := quick.Check(func(seed uint64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		fa := NewFullyAssoc(256, seed)
		dm := NewDirectMapped(256, 0)
		distinct := map[addr.PageNum]bool{}
		for _, r := range raw {
			p := addr.PageNum(r)
			distinct[p] = true
			fa.Access(p)
			dm.Access(p)
		}
		return fa.Stats().Misses == uint64(len(distinct)) &&
			dm.Stats().Misses == uint64(len(distinct))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMissesNeverExceedAccesses(t *testing.T) {
	err := quick.Check(func(seed uint64, raw []uint16) bool {
		bufs := []Buffer{
			NewFullyAssoc(4, seed),
			NewDirectMapped(4, 0),
		}
		sa, _ := NewSetAssoc(8, 2, 0, seed)
		bufs = append(bufs, sa)
		for _, r := range raw {
			for _, b := range bufs {
				b.Access(addr.PageNum(r))
			}
		}
		for _, b := range bufs {
			st := b.Stats()
			if st.Misses > st.Accesses {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBank(t *testing.T) {
	specs := []Spec{
		{Entries: 2, Org: config.FullyAssoc},
		{Entries: 8, Org: config.FullyAssoc},
		{Entries: 8, Org: config.DirectMapped},
	}
	b, err := NewBank(specs, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		b.Access(addr.PageNum(i % 6))
	}
	if b.Accesses() != 100 {
		t.Fatalf("accesses = %d", b.Accesses())
	}
	small := b.Misses(Spec{Entries: 2, Org: config.FullyAssoc})
	big := b.Misses(Spec{Entries: 8, Org: config.FullyAssoc})
	if big != 6 {
		t.Fatalf("8-entry FA misses = %d, want 6 cold misses", big)
	}
	if small <= big {
		t.Fatalf("2-entry (%d) should miss more than 8-entry (%d)", small, big)
	}
	if _, ok := b.Stats(Spec{Entries: 99, Org: config.FullyAssoc}); ok {
		t.Fatal("unknown spec found")
	}
}

func TestMerge(t *testing.T) {
	specs := []Spec{{Entries: 4, Org: config.FullyAssoc}}
	var banks []*Bank
	for n := 0; n < 3; n++ {
		b, _ := NewBank(specs, 0, uint64(n))
		for i := 0; i < 10; i++ {
			b.Access(addr.PageNum(i)) // 10 cold misses each
		}
		banks = append(banks, b)
	}
	m := Merge(banks)
	if m.Nodes() != 3 || m.TotalAccesses() != 30 {
		t.Fatalf("merge: nodes=%d accesses=%d", m.Nodes(), m.TotalAccesses())
	}
	sp := specs[0]
	if m.TotalMisses(sp) != 30 || m.MissesPerNode(sp) != 10 {
		t.Fatalf("merge misses: total=%d per-node=%f", m.TotalMisses(sp), m.MissesPerNode(sp))
	}
	if len(m.Sizes()) != 1 || m.Sizes()[0] != 4 {
		t.Fatalf("sizes: %v", m.Sizes())
	}
}

func TestPaperSpecsGrid(t *testing.T) {
	specs := PaperSpecs()
	if len(specs) != 2*len(PaperSizes) {
		t.Fatalf("grid has %d specs", len(specs))
	}
	fa, dm := 0, 0
	for _, s := range specs {
		switch s.Org {
		case config.FullyAssoc:
			fa++
		case config.DirectMapped:
			dm++
		}
	}
	if fa != len(PaperSizes) || dm != len(PaperSizes) {
		t.Fatalf("fa=%d dm=%d", fa, dm)
	}
}

// BenchmarkObserverBank builds one bank of the paper's 14-buffer grid per
// iteration and feeds it a stream shaped like an observer bank's: about 22
// distinct pages, most requests repeating the previous page. Bytes/op is
// dominated by construction, so it tracks what a bank costs to hold.
func BenchmarkObserverBank(b *testing.B) {
	b.ReportAllocs()
	rng := prng.New(5)
	pages := make([]addr.PageNum, 4096)
	for i := range pages {
		if i > 0 && rng.Intn(3) != 0 {
			pages[i] = pages[i-1]
			continue
		}
		pages[i] = addr.PageNum(rng.Intn(22))
	}
	specs := PaperSpecs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank, err := NewBank(specs, 0, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pages {
			bank.Access(p)
		}
	}
}
