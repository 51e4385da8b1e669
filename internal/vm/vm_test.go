package vm

import (
	"math"
	"testing"
	"testing/quick"

	"vcoma/internal/addr"
	"vcoma/internal/dense"
)

func g() addr.Geometry {
	return addr.Geometry{NodeBits: 2, PageBits: 8, AMBlockBits: 5, AMSetBits: 6, AMAssocBits: 1}
}

func paperG() addr.Geometry {
	return addr.Geometry{NodeBits: 5, PageBits: 12, AMBlockBits: 7, AMSetBits: 13, AMAssocBits: 2}
}

func TestRoundRobinFrames(t *testing.T) {
	s := NewSystem(g(), PhysicalRoundRobin)
	for i := 0; i < 10; i++ {
		v := addr.Virtual(0x10000 + i*256)
		p := s.Ensure(v)
		if p.Frame != addr.Frame(i) {
			t.Fatalf("page %d got frame %d", i, p.Frame)
		}
	}
	if s.Faults() != 10 || s.MappedPages() != 10 {
		t.Fatalf("faults=%d mapped=%d", s.Faults(), s.MappedPages())
	}
	// Second touch: no new fault.
	s.Ensure(0x10000)
	if s.Faults() != 10 {
		t.Fatal("re-touch faulted")
	}
}

func TestTranslateRoundTrip(t *testing.T) {
	for _, mode := range []Mode{PhysicalRoundRobin, Colored} {
		s := NewSystem(g(), mode)
		err := quick.Check(func(raw uint32) bool {
			v := addr.Virtual(raw)
			pa := s.Translate(v)
			if s.ReverseTranslate(pa) != v {
				return false
			}
			// Offsets within the page are preserved.
			return uint64(pa)&255 == uint64(v)&255
		}, nil)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestColoredPreservesAMSet(t *testing.T) {
	// Figure 4: with page colouring the physical address indexes the same
	// attraction-memory set as the virtual address.
	geo := paperG()
	s := NewSystem(geo, Colored)
	err := quick.Check(func(raw uint64) bool {
		v := addr.Virtual(raw % (1 << 38))
		pa := s.Translate(v)
		return geo.AMSetOfPhysical(pa) == geo.AMSetOfVirtual(v) &&
			geo.HomeNodeOfFrame(geo.FrameOf(pa)) == geo.HomeNode(v)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestColoredSlotsDistinct(t *testing.T) {
	geo := paperG()
	s := NewSystem(geo, Colored)
	gps := geo.GlobalPageSets()
	// Pages with the same colour must get distinct slots.
	var frames []addr.Frame
	for i := 0; i < 5; i++ {
		pn := addr.PageNum(7 + i*gps) // same global page set
		p := s.Ensure(addr.Virtual(uint64(pn) << geo.PageBits))
		if p.Slot != i {
			t.Fatalf("page %d slot %d, want %d", i, p.Slot, i)
		}
		frames = append(frames, p.Frame)
	}
	seen := map[addr.Frame]bool{}
	for _, f := range frames {
		if seen[f] {
			t.Fatalf("duplicate frame %d", f)
		}
		seen[f] = true
	}
}

func TestVirtualOnly(t *testing.T) {
	geo := g()
	s := NewSystem(geo, VirtualOnly)
	home, da := s.DirAddrOf(0x10020)
	if home != geo.HomeNode(0x10020) {
		t.Fatalf("home %d", home)
	}
	// Same page, different block: same directory page, different entry.
	home2, da2 := s.DirAddrOf(0x10040)
	if home2 != home || geo.DirPageOf(da2) != geo.DirPageOf(da) || da2 == da {
		t.Fatalf("directory addresses: %d vs %d", da, da2)
	}
	// Directory pages are dense per home (starting after any pages the
	// lookups above already allocated).
	var pagesPerHome [4]int
	for n := addr.Node(0); n < 4; n++ {
		pagesPerHome[n] = s.DirPagesAt(n)
	}
	for i := 0; i < 40; i++ {
		v := addr.Virtual(0x20000 + i*256)
		p := s.Ensure(v)
		if p.DirPage != pagesPerHome[p.Home] {
			t.Fatalf("home %d: dir page %d, want %d", p.Home, p.DirPage, pagesPerHome[p.Home])
		}
		pagesPerHome[p.Home]++
	}
	for n := addr.Node(0); n < 4; n++ {
		if s.DirPagesAt(n) != pagesPerHome[n] {
			t.Fatalf("DirPagesAt(%d) = %d, want %d", n, s.DirPagesAt(n), pagesPerHome[n])
		}
	}
}

func TestModePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	v := NewSystem(g(), VirtualOnly)
	mustPanic("Translate on VirtualOnly", func() { v.Translate(0x100) })
	p := NewSystem(g(), PhysicalRoundRobin)
	mustPanic("DirAddrOf on physical", func() { p.DirAddrOf(0x100) })
	mustPanic("reverse of unmapped frame", func() { p.ReverseTranslate(0xFFFF00) })
}

func TestPressureProfile(t *testing.T) {
	geo := g() // 8 global page sets, 4 nodes x 2 ways = 8 slots each
	if geo.GlobalPageSets() != 8 || geo.PageSlotsPerGlobalSet() != 8 {
		t.Fatalf("test geometry: %d global page sets, %d slots",
			geo.GlobalPageSets(), geo.PageSlotsPerGlobalSet())
	}
	s := NewSystem(geo, VirtualOnly)
	s.Preload(0, 4*256) // 4 pages: gps 0..3, one each
	prof := s.PressureProfile()
	if len(prof) != 8 {
		t.Fatalf("profile %v", prof)
	}
	for i := 0; i < 4; i++ {
		if prof[i] != 1.0/8 {
			t.Fatalf("gps %d pressure %v, want 1/8", i, prof[i])
		}
	}
	counts := s.PagesPerGlobalSet()
	if counts[0] != 1 || counts[4] != 0 {
		t.Fatalf("counts %v", counts)
	}
	if s.OverflowCount() != 0 {
		t.Fatal("unexpected overflow")
	}
	// Overflow gps 0: capacity is 8 pages; map 10 pages with gps 0
	// (page numbers congruent mod 8).
	for i := 0; i < 10; i++ {
		s.Preload(addr.Virtual(0x100000+i*8*256), 1)
	}
	if s.OverflowCount() == 0 {
		t.Fatal("no overflow recorded past capacity")
	}
}

func TestPlacementNodeSpreads(t *testing.T) {
	for _, mode := range []Mode{PhysicalRoundRobin, Colored, VirtualOnly} {
		s := NewSystem(g(), mode)
		counts := map[addr.Node]int{}
		for i := 0; i < 64; i++ {
			counts[s.PlacementNode(addr.Virtual(i*256))]++
		}
		for n := addr.Node(0); n < 4; n++ {
			if counts[n] != 16 {
				t.Fatalf("mode %v: node %d placed %d of 64 pages", mode, n, counts[n])
			}
		}
	}
}

func TestReferencedModified(t *testing.T) {
	s := NewSystem(g(), VirtualOnly)
	s.SetReferenced(0x300)
	s.SetModified(0x300)
	p := s.Lookup(0x300)
	if p == nil || !p.Referenced || !p.Modified {
		t.Fatalf("page bits: %+v", p)
	}
}

func TestLayoutAllocation(t *testing.T) {
	l := NewLayout(g())
	a := l.Alloc("a", 100, 0)
	b := l.Alloc("b", 1000, 0)
	c := l.Alloc("c", 64, 1024)
	if a.End() > b.Base || b.End() > c.Base {
		t.Fatal("regions overlap")
	}
	if uint64(c.Base)%1024 != 0 {
		t.Fatalf("alignment not honoured: %#x", uint64(c.Base))
	}
	if uint64(a.Base)%256 != 0 || uint64(b.Base)%256 != 0 {
		t.Fatal("regions not page-aligned")
	}
	if l.TotalBytes() != 100+1000+64 {
		t.Fatalf("total = %d", l.TotalBytes())
	}
	if r, ok := l.Find(b.Base + 5); !ok || r.Name != "b" {
		t.Fatalf("find: %v %v", r, ok)
	}
	if _, ok := l.Find(0); ok {
		t.Fatal("found a region at address 0")
	}
}

func TestLayoutRegionsNeverSharePages(t *testing.T) {
	err := quick.Check(func(sizes []uint16) bool {
		l := NewLayout(g())
		var regions []Region
		for i, sz := range sizes {
			if len(regions) > 20 {
				break
			}
			regions = append(regions, l.Alloc(string(rune('a'+i%26)), uint64(sz)+1, 0))
		}
		geo := g()
		seen := map[addr.PageNum]int{}
		for i, r := range regions {
			first := geo.Page(r.Base)
			last := geo.Page(r.End() - 1)
			for pn := first; pn <= last; pn++ {
				if prev, ok := seen[pn]; ok && prev != i {
					return false
				}
				seen[pn] = i
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegionAt(t *testing.T) {
	l := NewLayout(g())
	r := l.Alloc("r", 100, 0)
	if r.At(0) != r.Base || r.At(99) != r.Base+99 {
		t.Fatal("At arithmetic wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds At did not panic")
		}
	}()
	r.At(100)
}

func TestAllocArrayAndPreloadAll(t *testing.T) {
	l := NewLayout(g())
	l.AllocArray("arr", 10, 64) // 640 bytes = 3 pages
	s := NewSystem(g(), PhysicalRoundRobin)
	l.PreloadAll(s)
	if s.MappedPages() != 3 {
		t.Fatalf("mapped %d pages, want 3", s.MappedPages())
	}
}

func TestLayoutFromRegions(t *testing.T) {
	orig := NewLayout(g())
	orig.Alloc("a", 500, 0)
	orig.Alloc("b", 1000, 4096)
	rebuilt, err := LayoutFromRegions(g(), orig.Regions())
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.TotalBytes() != orig.TotalBytes() {
		t.Fatalf("total %d != %d", rebuilt.TotalBytes(), orig.TotalBytes())
	}
	for i, r := range rebuilt.Regions() {
		if r != orig.Regions()[i] {
			t.Fatalf("region %d: %+v != %+v", i, r, orig.Regions()[i])
		}
	}
	// Overlapping regions rejected.
	bad := []Region{
		{Name: "x", Base: LayoutBase, Bytes: 1000},
		{Name: "y", Base: LayoutBase + 100, Bytes: 100},
	}
	if _, err := LayoutFromRegions(g(), bad); err == nil {
		t.Fatal("overlapping regions accepted")
	}
	if _, err := LayoutFromRegions(g(), []Region{{Name: "z", Base: LayoutBase}}); err == nil {
		t.Fatal("empty region accepted")
	}
}

// A recorded layout is untrusted input: one that wraps the address space or
// spans more pages than the machine's attraction memories hold is refused
// before anything is allocated for it.
func TestLayoutFromRegionsBounds(t *testing.T) {
	ps := g().PageSize()
	frames := uint64(g().Nodes() * g().PageFramesPerNode())
	if _, err := LayoutFromRegions(g(), []Region{{Name: "full", Base: LayoutBase, Bytes: frames * ps}}); err != nil {
		t.Fatalf("layout filling the machine refused: %v", err)
	}
	for name, regions := range map[string][]Region{
		"one page over": {{Name: "a", Base: LayoutBase, Bytes: frames*ps + 1}},
		"over in total": {
			{Name: "a", Base: LayoutBase, Bytes: frames / 2 * ps},
			{Name: "b", Base: LayoutBase + addr.Virtual(frames*ps), Bytes: frames/2*ps + 1},
		},
		"1 PiB":          {{Name: "x", Base: LayoutBase, Bytes: 1 << 50}},
		"wraps":          {{Name: "x", Base: 1 << 63, Bytes: 1 << 63}},
		"ends past last": {{Name: "x", Base: math.MaxUint64 - 10, Bytes: 5}},
	} {
		if _, err := LayoutFromRegions(g(), regions); err == nil {
			t.Errorf("%s: layout accepted", name)
		}
	}
}

func TestUnmapFreesSlot(t *testing.T) {
	for _, mode := range []Mode{PhysicalRoundRobin, Colored, VirtualOnly} {
		s := NewSystem(g(), mode)
		v := addr.Virtual(0x5000)
		s.Ensure(v)
		gpsBefore := s.PagesPerGlobalSet()
		if _, err := s.Unmap(v); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if s.Lookup(v) != nil {
			t.Fatalf("mode %v: page survived unmap", mode)
		}
		gpsAfter := s.PagesPerGlobalSet()
		sumB, sumA := 0, 0
		for i := range gpsBefore {
			sumB += gpsBefore[i]
			sumA += gpsAfter[i]
		}
		if sumA != sumB-1 {
			t.Fatalf("mode %v: slot not freed (%d -> %d)", mode, sumB, sumA)
		}
		if _, err := s.Unmap(v); err == nil {
			t.Fatalf("mode %v: double unmap succeeded", mode)
		}
		// Remapping reuses a fresh slot cleanly.
		if p := s.Ensure(v); p == nil {
			t.Fatalf("mode %v: remap failed", mode)
		}
	}
}

// TestUnmapReusesFreedSlot maps two pages of one global page set, unmaps
// the first, and maps a third: the third must take the freed slot, not the
// slot (and, in Colored mode, the frame) of the page still mapped.
func TestUnmapReusesFreedSlot(t *testing.T) {
	gm := g()
	for _, mode := range []Mode{PhysicalRoundRobin, Colored, VirtualOnly} {
		s := NewSystem(gm, mode)
		at := func(pn addr.PageNum) addr.Virtual { return addr.Virtual(uint64(pn) << gm.PageBits) }
		s.Ensure(at(0x0))
		s.Ensure(at(0x8))
		if _, err := s.Unmap(at(0x0)); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		s.Ensure(at(0x10))

		type setSlot struct{ gps, slot int }
		slots := map[setSlot]addr.PageNum{}
		frames := map[addr.Frame]addr.PageNum{}
		for _, pn := range []addr.PageNum{0x8, 0x10} {
			p := s.Lookup(at(pn))
			gps := gm.GlobalPageSet(pn)
			if mode == PhysicalRoundRobin {
				gps = gm.GlobalPageSetOfFrame(p.Frame)
			}
			if other, dup := slots[setSlot{gps, p.Slot}]; dup {
				t.Fatalf("mode %v: pages %#x and %#x share slot %d of set %d", mode, other, pn, p.Slot, gps)
			}
			slots[setSlot{gps, p.Slot}] = pn
			if mode == VirtualOnly {
				continue
			}
			if other, dup := frames[p.Frame]; dup {
				t.Fatalf("mode %v: pages %#x and %#x share frame %#x", mode, other, pn, uint64(p.Frame))
			}
			frames[p.Frame] = pn
			if got, ok := s.ReversePage(p.Frame); !ok || got != pn {
				t.Fatalf("mode %v: frame %#x reverse-maps to %#x, want %#x", mode, uint64(p.Frame), uint64(got), uint64(pn))
			}
		}
	}
}

func TestUnmapReleasesFrameReverseMapping(t *testing.T) {
	s := NewSystem(g(), PhysicalRoundRobin)
	v := addr.Virtual(0x5000)
	pa := s.Translate(v)
	if _, err := s.Unmap(v); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reverse translation of an unmapped frame did not panic")
		}
	}()
	s.ReverseTranslate(pa)
}

func TestPageTableUnmapRemapAcrossIndexRange(t *testing.T) {
	gm := g()
	// Pages in the first chunk, across a chunk boundary, and beyond the
	// dense range.
	pages := []addr.PageNum{0x10, 1023, 1024, dense.Cap - 1, dense.Cap, 1 << 40}
	for _, mode := range []Mode{PhysicalRoundRobin, Colored, VirtualOnly} {
		s := NewSystem(gm, mode)
		for k, pn := range pages {
			v := addr.Virtual(uint64(pn)<<gm.PageBits | 0x44)
			if p := s.Ensure(v); p.Num != pn {
				t.Fatalf("mode %v: page %#x mapped as %#x", mode, pn, p.Num)
			}
			s.SetReferenced(v)
			if s.MappedPages() != k+1 {
				t.Fatalf("mode %v: MappedPages = %d after %d maps", mode, s.MappedPages(), k+1)
			}
		}
		for k, pn := range pages {
			v := addr.Virtual(uint64(pn)<<gm.PageBits | 0x44)
			var pa addr.Physical
			if mode != VirtualOnly {
				pa = s.Translate(v)
				if got := s.ReverseTranslate(pa); got != v {
					t.Fatalf("mode %v: reverse of %#x = %#x, want %#x", mode, uint64(pa), uint64(got), uint64(v))
				}
			}
			old, err := s.Unmap(v)
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			if old.Num != pn || !old.Referenced {
				t.Fatalf("mode %v: Unmap returned %+v, want page %#x's record", mode, *old, pn)
			}
			if s.Lookup(v) != nil || s.MappedPages() != len(pages)-k-1 {
				t.Fatalf("mode %v: page %#x still mapped (MappedPages %d)", mode, pn, s.MappedPages())
			}
			if mode != VirtualOnly {
				if _, ok := s.ReversePage(gm.FrameOf(pa)); ok {
					t.Fatalf("mode %v: frame of page %#x still reverse-mapped", mode, pn)
				}
				assertReverseTranslatePanics(t, s, pa)
			}
		}
		// Re-map everything: fresh records, reachable in both directions.
		for k, pn := range pages {
			v := addr.Virtual(uint64(pn)<<gm.PageBits | 0x44)
			p := s.Ensure(v)
			if p.Num != pn || p.Referenced || p.Prot != ProtRW || s.MappedPages() != k+1 {
				t.Fatalf("mode %v: remap of page %#x gave %+v (MappedPages %d)", mode, pn, *p, s.MappedPages())
			}
			if mode != VirtualOnly {
				if got := s.ReverseTranslate(s.Translate(v)); got != v {
					t.Fatalf("mode %v: reverse of remapped page %#x = %#x, want %#x", mode, pn, uint64(got), uint64(v))
				}
			}
		}
	}
}

func assertReverseTranslatePanics(t *testing.T, s *System, pa addr.Physical) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("reverse translation of unmapped %#x did not panic", uint64(pa))
		}
	}()
	s.ReverseTranslate(pa)
}
