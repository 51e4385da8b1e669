package workload

import (
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/trace"
)

func TestFFTBuildValidation(t *testing.T) {
	g := testGeometry()
	if _, err := NewFFT(FFTParams{LogPoints: 2}).Build(g, 4); err == nil {
		t.Fatal("tiny FFT accepted")
	}
	if _, err := NewFFT(FFTParams{LogPoints: 10}).Build(g, 4096); err == nil {
		t.Fatal("more processors than rows accepted")
	}
}

func TestFFTTransposeIsAllToAll(t *testing.T) {
	g := testGeometry()
	pr, err := NewFFT(FFTParams{LogPoints: 10}).Build(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// During the first transpose, every processor must read source rows
	// owned by every other processor.
	var xLo, xHi uint64
	for _, r := range pr.Layout().Regions() {
		if r.Name == "x" {
			xLo, xHi = uint64(r.Base), uint64(r.End())
		}
	}
	quarter := (xHi - xLo) / 4
	s := pr.Streams()
	defer func() {
		for _, st := range s {
			trace.CloseStream(st)
		}
	}()
	ownersRead := map[int]bool{}
	count := 0
	for {
		ev, ok := s[0].Next()
		if !ok || count > 20000 {
			break
		}
		count++
		if ev.Kind() == trace.Read && uint64(ev.Addr()) >= xLo && uint64(ev.Addr()) < xHi {
			ownersRead[int((uint64(ev.Addr())-xLo)/quarter)] = true
		}
	}
	if len(ownersRead) < 4 {
		t.Fatalf("transpose read from %d of 4 partitions", len(ownersRead))
	}
}

func TestFMMTreeGeometry(t *testing.T) {
	tr := buildFMMTree(16384, 10)
	if tr.depth < 5 {
		t.Fatalf("depth %d too shallow for 16384 particles", tr.depth)
	}
	if tr.boxes != tr.levelBase[tr.depth]+1<<(2*tr.depth) {
		t.Fatalf("box count %d inconsistent", tr.boxes)
	}
	// Box indices are unique across levels.
	if tr.box(0, 0, 0) != 0 || tr.box(1, 0, 0) != 1 {
		t.Fatal("level bases wrong")
	}
	last := tr.box(tr.depth, tr.levelDim[tr.depth]-1, tr.levelDim[tr.depth]-1)
	if last != tr.boxes-1 {
		t.Fatalf("last box %d, want %d", last, tr.boxes-1)
	}
}

func TestFMMBuildValidation(t *testing.T) {
	if _, err := NewFMM(FMMParams{}).Build(testGeometry(), 4); err == nil {
		t.Fatal("zero particles accepted")
	}
}

func TestOceanBuildValidation(t *testing.T) {
	if _, err := NewOcean(OceanParams{N: 4, Timesteps: 1, RelaxSweeps: 1}).Build(testGeometry(), 4); err == nil {
		t.Fatal("tiny grid accepted")
	}
}

func TestOceanHaloCrossesPartitions(t *testing.T) {
	g := testGeometry()
	pr, err := NewOcean(ScaleTest.Ocean()).Build(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Proc 1 must read rows owned by procs 0 and 2 (stencil halo).
	p := ScaleTest.Ocean()
	rowBytes := uint64(p.N) * oceanElem
	lo, hi := chunk(p.N-2, 4, 1)
	s := pr.Streams()
	defer func() {
		for _, st := range s {
			trace.CloseStream(st)
		}
	}()
	sawNorth, sawSouth := false, false
	grid0 := pr.Layout().Regions()[0]
	for {
		ev, ok := s[1].Next()
		if !ok {
			break
		}
		if ev.Kind() != trace.Read || !grid0.Contains(ev.Addr()) {
			continue
		}
		row := int(uint64(ev.Addr()-grid0.Base) / rowBytes)
		if row == lo { // the row above proc 1's first interior row
			sawNorth = true
		}
		if row == hi+1 {
			sawSouth = true
		}
	}
	if !sawNorth || !sawSouth {
		t.Fatalf("halo reads missing: north=%v south=%v", sawNorth, sawSouth)
	}
}

func TestRaytraceStackAlignment(t *testing.T) {
	g := testGeometry()
	for _, align := range []uint64{32 << 10, 0} { // 0 = page alignment (V2)
		p := ScaleTest.Raytrace()
		p.StackAlign = align
		pr, err := NewRaytrace(p).Build(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := align
		if want == 0 {
			want = g.PageSize()
		}
		count := 0
		for _, r := range pr.Layout().Regions() {
			if len(r.Name) > 9 && r.Name[:9] == "raystruct" {
				count++
				if uint64(r.Base)%want != 0 {
					t.Fatalf("align %d: stack at %#x not aligned", align, uint64(r.Base))
				}
			}
		}
		if count != 4 {
			t.Fatalf("found %d raystructs", count)
		}
	}
}

func TestRaytraceStacksArePrivate(t *testing.T) {
	g := testGeometry()
	pr, err := NewRaytrace(ScaleTest.Raytrace()).Build(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	var stacks []struct{ lo, hi uint64 }
	for _, r := range pr.Layout().Regions() {
		if len(r.Name) > 9 && r.Name[:9] == "raystruct" {
			stacks = append(stacks, struct{ lo, hi uint64 }{uint64(r.Base), uint64(r.End())})
		}
	}
	ss := pr.Streams()
	for p, s := range ss {
		for {
			ev, ok := s.Next()
			if !ok {
				break
			}
			if ev.Kind() != trace.Read && ev.Kind() != trace.Write {
				continue
			}
			a := uint64(ev.Addr())
			for q, st := range stacks {
				if a >= st.lo && a < st.hi && q != p {
					t.Fatalf("proc %d touched proc %d's private stack", p, q)
				}
			}
		}
	}
}

func TestBarnesBuildValidation(t *testing.T) {
	if _, err := NewBarnes(BarnesParams{}).Build(testGeometry(), 4); err == nil {
		t.Fatal("zero bodies accepted")
	}
}

func TestBarnesTreeWalkReadsSharedTopCells(t *testing.T) {
	g := testGeometry()
	pr, err := NewBarnes(ScaleTest.Barnes()).Build(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The root cell (cells[0]) must be read by every processor — the
	// read-sharing that caches absorb in BARNES.
	cells := pr.Layout().Regions()[1]
	if cells.Name != "cells" {
		t.Fatalf("region order changed: %s", cells.Name)
	}
	for p, s := range pr.Streams() {
		sawRoot := false
		for {
			ev, ok := s.Next()
			if !ok {
				break
			}
			if ev.Kind() == trace.Read && ev.Addr() >= cells.Base && ev.Addr() < cells.Base+addr.Virtual(barnesCellBytes) {
				sawRoot = true
			}
		}
		if !sawRoot {
			t.Fatalf("proc %d never read the root cell", p)
		}
	}
}
