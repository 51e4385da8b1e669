package coherence

import (
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/dense"
	"vcoma/internal/prng"
)

const testBlockBits = 5

// dirBlocks are block addresses in the first chunk, across a chunk
// boundary, deep in the dense range and beyond it.
var dirBlocks = []uint64{
	0x20,
	1023 << testBlockBits,
	1024 << testBlockBits,
	(dense.Cap - 1) << testBlockBits,
	dense.Cap << testBlockBits,
	1 << 50,
}

func TestDirectoryEnsureLookupRemove(t *testing.T) {
	d := NewDirectory(testBlockBits)
	for k, b := range dirBlocks {
		e := d.Ensure(b)
		if *e != (Entry{}) {
			t.Fatalf("block %#x: new entry %+v, want zero", b, *e)
		}
		e.Add(addr.Node(k % 4))
		e.Master = addr.Node(k % 4)
	}
	if d.Len() != len(dirBlocks) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(dirBlocks))
	}
	for k, b := range dirBlocks {
		if e := d.Lookup(b); e == nil || e.Master != addr.Node(k%4) || !e.Holds(addr.Node(k%4)) {
			t.Fatalf("block %#x: Lookup = %+v", b, e)
		}
		if d.Lookup(b+2<<testBlockBits) != nil {
			t.Fatalf("block two past %#x has an entry", b)
		}
	}
	for _, b := range dirBlocks {
		held := d.Lookup(b)
		d.Remove(b)
		if d.Lookup(b) != nil {
			t.Fatalf("block %#x: entry survived Remove", b)
		}
		e := d.Ensure(b)
		if *e != (Entry{}) || d.Lookup(b) != e {
			t.Fatalf("block %#x: re-Ensure after Remove gave %+v", b, *e)
		}
		if b < dense.Cap<<testBlockBits && held != e {
			t.Fatalf("block %#x: dense entry moved on re-Ensure", b)
		}
	}
	if d.Len() != len(dirBlocks) {
		t.Fatalf("Len = %d after re-Ensure, want %d", d.Len(), len(dirBlocks))
	}
}

func TestDirectoryEntryStableAcrossEnsures(t *testing.T) {
	d := NewDirectory(testBlockBits)
	e := d.Ensure(0x40)
	e.Copyset, e.Master = 0b1010, 3
	far := d.Ensure(1 << 50)
	far.Copyset, far.Master = 0b0101, 2
	for i := uint64(0); i < 100_000; i++ {
		d.Ensure((i*7 + 3) << testBlockBits)
		if i%100 == 0 {
			d.Ensure(1<<50 + (i+1)<<testBlockBits)
		}
	}
	if d.Lookup(0x40) != e || e.Copyset != 0b1010 || e.Master != 3 {
		t.Fatalf("early entry moved or changed: %+v", *e)
	}
	if d.Lookup(1<<50) != far || far.Copyset != 0b0101 || far.Master != 2 {
		t.Fatalf("early beyond-cap entry moved or changed: %+v", *far)
	}
}

func TestDirectoryCheckInvariantsAscendingOnce(t *testing.T) {
	d := NewDirectory(testBlockBits)
	// Ensure out of order; every entry is a valid swapped block.
	for k := len(dirBlocks) - 1; k >= 0; k-- {
		d.Ensure(dirBlocks[k]).Swapped = true
	}
	d.Ensure(0x60)
	d.Remove(0x60)
	var visited []uint64
	probe := func(n addr.Node, block uint64) ProbeState {
		if n == 0 {
			visited = append(visited, block)
		}
		return ProbeState{}
	}
	if err := d.CheckInvariants(probe, 4); err != nil {
		t.Fatal(err)
	}
	if len(visited) != len(dirBlocks) {
		t.Fatalf("visited %#x, want %#x", visited, dirBlocks)
	}
	for k := range visited {
		if visited[k] != dirBlocks[k] {
			t.Fatalf("visited %#x, want %#x", visited, dirBlocks)
		}
	}
}

var lookupSink int

// BenchmarkDirectoryLookup times a home's directory lookup over a 64K-block
// (8 MB of 128-byte blocks) directory, at addresses drawn at random.
func BenchmarkDirectoryLookup(b *testing.B) {
	const blockBits, blocks, base = 7, 1 << 16, 1 << 13
	d := NewDirectory(blockBits)
	for i := uint64(0); i < blocks; i++ {
		d.Ensure((base + i) << blockBits)
	}
	rng := prng.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = (base + rng.Uint64n(blocks)) << blockBits
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if d.Lookup(addrs[i&(len(addrs)-1)]) != nil {
			hits++
		}
	}
	lookupSink = hits
}
