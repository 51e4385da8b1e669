package workload

import (
	"testing"

	"vcoma/internal/trace"
)

func TestMicroRegistry(t *testing.T) {
	micros := Micro(ScaleTest)
	if len(micros) != 3 {
		t.Fatalf("micro registry has %d entries", len(micros))
	}
	g := testGeometry()
	for _, b := range micros {
		pr, err := b.Build(g, g.Nodes())
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		checkProgram(t, pr)
	}
}

func TestMicroStreamIsPrivateAndSequential(t *testing.T) {
	g := testGeometry()
	pr, err := NewMicroStream(StreamParams{BytesPerProc: 1024, Passes: 1}).Build(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	streams := pr.Streams()
	for p, s := range streams {
		var prev uint64
		first := true
		for {
			ev, ok := s.Next()
			if !ok {
				break
			}
			if ev.Kind() != trace.Read {
				continue
			}
			a := uint64(ev.Addr())
			if !first && a != prev && a != prev+8 {
				t.Fatalf("proc %d: non-sequential read %#x after %#x", p, a, prev)
			}
			prev, first = a, false
		}
	}
}

func TestMicroChaseSharedVsPrivateFootprint(t *testing.T) {
	g := testGeometry()
	shared, err := NewMicroChase(ChaseParams{Nodes: 64, Steps: 10, Shared: true}).Build(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	private, err := NewMicroChase(ChaseParams{Nodes: 64, Steps: 10, Shared: false}).Build(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Layout().TotalBytes()*4 != private.Layout().TotalBytes() {
		t.Fatalf("private footprint (%d) should be 4x shared (%d)",
			private.Layout().TotalBytes(), shared.Layout().TotalBytes())
	}
}

func TestMicroChaseIsAPermutationWalk(t *testing.T) {
	g := testGeometry()
	const nodes = 32
	pr, err := NewMicroChase(ChaseParams{Nodes: nodes, Steps: nodes, Shared: true}).Build(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Walking exactly Nodes steps must visit every node exactly once
	// (the permutation is a single cycle).
	s := pr.Streams()[0]
	seen := map[uint64]int{}
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		if ev.Kind() == trace.Read {
			seen[uint64(ev.Addr())]++
		}
	}
	if len(seen) != nodes {
		t.Fatalf("walk visited %d distinct nodes, want %d", len(seen), nodes)
	}
	for a, n := range seen {
		if n != 1 {
			t.Fatalf("node %#x visited %d times", a, n)
		}
	}
}

func TestMicroValidation(t *testing.T) {
	g := testGeometry()
	if _, err := NewMicroStream(StreamParams{}).Build(g, 4); err == nil {
		t.Fatal("empty stream params accepted")
	}
	if _, err := NewMicroChase(ChaseParams{Nodes: 1, Steps: 1}).Build(g, 4); err == nil {
		t.Fatal("single-node chase accepted")
	}
	if _, err := NewMicroHotSpot(HotSpotParams{}).Build(g, 4); err == nil {
		t.Fatal("empty hotspot params accepted")
	}
}
