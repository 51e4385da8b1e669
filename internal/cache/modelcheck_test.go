package cache

import (
	"testing"
	"testing/quick"

	"vcoma/internal/config"
	"vcoma/internal/prng"
)

// refCache is an obviously-correct reference implementation of a
// set-associative LRU cache: per set, a slice ordered most-recent-first.
// The production cache must agree with it on every observable (hit/miss,
// victim identity, dirty state) for any access sequence.
type refCache struct {
	blockBytes uint64
	sets       int
	ways       int
	writeBack  bool
	lines      [][]refLine // per set, MRU first
}

type refLine struct {
	block uint64
	dirty bool
}

func newRefCache(cfg config.CacheConfig) *refCache {
	return &refCache{
		blockBytes: cfg.BlockBytes,
		sets:       cfg.Sets(),
		ways:       cfg.Assoc,
		writeBack:  cfg.WriteBack,
		lines:      make([][]refLine, cfg.Sets()),
	}
}

func (r *refCache) set(a uint64) int { return int((a / r.blockBytes) % uint64(r.sets)) }
func (r *refCache) block(a uint64) uint64 {
	return a &^ (r.blockBytes - 1)
}

func (r *refCache) find(a uint64) (int, int) {
	s := r.set(a)
	for i, l := range r.lines[s] {
		if l.block == r.block(a) {
			return s, i
		}
	}
	return s, -1
}

// access returns (hit, evicted, victim, victimDirty).
func (r *refCache) access(a uint64, write bool) (bool, bool, uint64, bool) {
	s, i := r.find(a)
	if i >= 0 {
		l := r.lines[s][i]
		if write && r.writeBack {
			l.dirty = true
		}
		// Move to front.
		r.lines[s] = append(r.lines[s][:i], r.lines[s][i+1:]...)
		r.lines[s] = append([]refLine{l}, r.lines[s]...)
		return true, false, 0, false
	}
	if write && !r.writeBack {
		return false, false, 0, false // no-allocate
	}
	nl := refLine{block: r.block(a), dirty: write && r.writeBack}
	var evicted bool
	var victim refLine
	if len(r.lines[s]) == r.ways {
		victim = r.lines[s][len(r.lines[s])-1]
		r.lines[s] = r.lines[s][:len(r.lines[s])-1]
		evicted = true
	}
	r.lines[s] = append([]refLine{nl}, r.lines[s]...)
	return false, evicted, victim.block, victim.dirty
}

func TestCacheAgreesWithReferenceModel(t *testing.T) {
	for _, cfg := range []config.CacheConfig{
		{SizeBytes: 256, BlockBytes: 16, Assoc: 1, WriteBack: false},
		{SizeBytes: 512, BlockBytes: 32, Assoc: 2, WriteBack: true},
		{SizeBytes: 1024, BlockBytes: 32, Assoc: 4, WriteBack: true},
		{SizeBytes: 384, BlockBytes: 32, Assoc: 3, WriteBack: true}, // ways not a power of two
	} {
		cfg := cfg
		err := quick.Check(func(seed uint64) bool {
			c := New(cfg)
			ref := newRefCache(cfg)
			rng := prng.New(seed)
			for op := 0; op < 2000; op++ {
				// A small address pool forces conflicts.
				a := rng.Uint64n(2048)
				write := rng.Intn(3) == 0
				var got Result
				if write {
					got = c.Write(a)
				} else {
					got = c.Read(a)
				}
				hit, evicted, victim, vdirty := ref.access(a, write)
				if got.Hit != hit {
					t.Logf("op %d: addr %#x write=%v: hit %v, ref %v", op, a, write, got.Hit, hit)
					return false
				}
				if got.Evicted != evicted {
					t.Logf("op %d: addr %#x: evicted %v, ref %v", op, a, got.Evicted, evicted)
					return false
				}
				if evicted && (got.Victim != victim || got.VictimDirty != vdirty) {
					t.Logf("op %d: addr %#x: victim %#x/%v, ref %#x/%v",
						op, a, got.Victim, got.VictimDirty, victim, vdirty)
					return false
				}
			}
			return true
		}, &quick.Config{MaxCount: 20})
		if err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
	}
}

func TestCacheAgreesWithModelUnderInvalidation(t *testing.T) {
	cfg := config.CacheConfig{SizeBytes: 512, BlockBytes: 32, Assoc: 2, WriteBack: true}
	err := quick.Check(func(seed uint64) bool {
		c := New(cfg)
		ref := newRefCache(cfg)
		rng := prng.New(seed)
		for op := 0; op < 1000; op++ {
			a := rng.Uint64n(1024)
			switch rng.Intn(4) {
			case 0: // invalidate
				s, i := ref.find(a)
				refPresent := i >= 0
				refDirty := refPresent && ref.lines[s][i].dirty
				if refPresent {
					ref.lines[s] = append(ref.lines[s][:i], ref.lines[s][i+1:]...)
				}
				present, dirty := c.Invalidate(a)
				if present != refPresent || dirty != refDirty {
					return false
				}
			case 1:
				c.Write(a)
				ref.access(a, true)
			default:
				c.Read(a)
				ref.access(a, false)
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLRUOrderThreeWay pins exact LRU replacement order in a cache whose
// associativity is not a power of two, where the set base of a line cannot
// be found by masking: every hit must reorder the set and every miss must
// evict the least recently used line.
func TestLRUOrderThreeWay(t *testing.T) {
	cfg := config.CacheConfig{SizeBytes: 384, BlockBytes: 32, Assoc: 3, WriteBack: false}
	c := New(cfg)
	// Four sets of 32 B lines: block i lives in set 1 for every i.
	blk := func(i uint64) uint64 { return 1*32 + i*4*32 }
	for i := uint64(0); i < 3; i++ {
		c.Read(blk(i)) // MRU order after: 2 1 0
	}
	c.Read(blk(0)) // 0 2 1
	c.Read(blk(1)) // 1 0 2
	for _, step := range []struct {
		read   uint64
		hit    bool
		victim uint64
	}{
		{3, false, 2}, // 3 1 0
		{4, false, 0}, // 4 3 1
		{1, true, 0},  // 1 4 3
		{5, false, 3}, // 5 1 4
		{6, false, 4}, // 6 5 1
	} {
		r := c.Read(blk(step.read))
		if step.hit {
			if !r.Hit {
				t.Fatalf("read of block %d missed", step.read)
			}
			continue
		}
		if r.Hit || !r.Evicted || r.Victim != blk(step.victim) {
			t.Fatalf("read of block %d: %+v, want victim %#x", step.read, r, blk(step.victim))
		}
	}
	// The other sets were never touched.
	if c.OccupiedLines() != 3 {
		t.Fatalf("%d lines valid, want 3", c.OccupiedLines())
	}
}
