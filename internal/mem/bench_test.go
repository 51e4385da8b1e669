package mem

import (
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/prng"
)

// paperGeometry is the paper's per-node attraction memory: 8192 sets of
// four 128-byte ways (4 MB of data, 256 KB of slots).
func paperGeometry() addr.Geometry {
	return addr.Geometry{NodeBits: 5, PageBits: 12, AMBlockBits: 7, AMSetBits: 13, AMAssocBits: 2}
}

// benchBlocks returns n pseudo-random block addresses drawn from twice the
// AM's capacity: about eight tags per set of four ways.
func benchBlocks(geo addr.Geometry, n int) []uint64 {
	rng := prng.New(1)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64n(uint64(geo.AMBlocksPerNode())*2) << geo.AMBlockBits
	}
	return out
}

// BenchmarkAMLookup times Lookup over a full paper-scale AM, touching
// blocks in a pseudo-random order so most lookups reach a set outside the
// host's caches. Each set keeps the last four of its installed blocks, so
// about half the lookups hit.
func BenchmarkAMLookup(b *testing.B) {
	geo := paperGeometry()
	m := New(geo)
	blocks := benchBlocks(geo, 1<<16)
	for _, blk := range blocks {
		m.Install(blk, Shared)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(blocks[i&(len(blocks)-1)])
	}
}

// BenchmarkAMInstall times Install into full paper-scale sets: every
// install touches a set, picks an LRU victim and replaces it — the AM's
// "touch and replace" path. Each pass over the block list shifts the tags
// above the drawn ones, so no install finds its block resident.
func BenchmarkAMInstall(b *testing.B) {
	geo := paperGeometry()
	m := New(geo)
	blocks := benchBlocks(geo, 1<<16)
	states := [...]State{Shared, MasterShared, Exclusive, Shared}
	for _, blk := range blocks {
		m.Install(blk, Shared)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Install(blocks[i&(len(blocks)-1)]+uint64(i>>16)<<(geo.AMBlockBits+geo.AMSetBits+1), states[i&3])
	}
}
