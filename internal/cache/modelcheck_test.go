package cache

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

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

// ageRef is the simulator's replacement rule written out line by line,
// unpacked: per line a block, valid and dirty flags and an LRU age, a set's
// ways in order. A hit ages every line younger than it and becomes age 0;
// an install fills the first invalid way, else the oldest (ties to the
// later way), entering at age ways before aging as a hit; an invalidation
// clears the line and leaves its age. Without invalidations this is exact
// LRU, which refCache checks. After an invalidation in a set of three or
// more ways a stale age can make two valid lines tie, and the tie then goes
// to the later way rather than the older line; the simulator's results
// depend on that rule, so the packed cache must keep it.
type ageRef struct {
	blockBytes uint64
	sets, ways int
	writeBack  bool
	lines      []ageLine // set-major
}

type ageLine struct {
	block        uint64
	valid, dirty bool
	age          int
}

func newAgeRef(cfg config.CacheConfig) *ageRef {
	return &ageRef{
		blockBytes: cfg.BlockBytes,
		sets:       cfg.Sets(),
		ways:       cfg.Assoc,
		writeBack:  cfg.WriteBack,
		lines:      make([]ageLine, cfg.Sets()*cfg.Assoc),
	}
}

func (r *ageRef) set(a uint64) []ageLine {
	s := int(a / r.blockBytes % uint64(r.sets))
	return r.lines[s*r.ways : (s+1)*r.ways]
}

func (r *ageRef) find(a uint64) *ageLine {
	set := r.set(a)
	for i := range set {
		if set[i].valid && set[i].block == a&^(r.blockBytes-1) {
			return &set[i]
		}
	}
	return nil
}

func (r *ageRef) touch(set []ageLine, l *ageLine) {
	for i := range set {
		if set[i].age < l.age {
			set[i].age++
		}
	}
	l.age = 0
}

// access returns (hit, evicted, victim, victimDirty).
func (r *ageRef) access(a uint64, write bool) (bool, bool, uint64, bool) {
	set := r.set(a)
	if l := r.find(a); l != nil {
		l.dirty = l.dirty || write && r.writeBack
		r.touch(set, l)
		return true, false, 0, false
	}
	if write && !r.writeBack {
		return false, false, 0, false // no-allocate
	}
	var v *ageLine
	for i := range set {
		if !set[i].valid {
			v = &set[i]
			break
		}
		if v == nil || set[i].age >= v.age {
			v = &set[i]
		}
	}
	old := *v
	*v = ageLine{block: a &^ (r.blockBytes - 1), valid: true, dirty: write, age: r.ways}
	r.touch(set, v)
	return false, old.valid, old.block, old.valid && old.dirty
}

// invalidate removes a's block, returning whether it was present and dirty.
func (r *ageRef) invalidate(a uint64) (present, dirty bool) {
	l := r.find(a)
	if l == nil {
		return false, false
	}
	l.valid = false
	return true, l.dirty
}

// blocks returns the valid blocks, or only the dirty ones, in storage order.
func (r *ageRef) blocks(dirtyOnly bool) []uint64 {
	var out []uint64
	for _, l := range r.lines {
		if l.valid && (l.dirty || !dirtyOnly) {
			out = append(out, l.block)
		}
	}
	return out
}

// FuzzCacheModel checks the packed cache against ageRef over random
// geometries (any associativity up to 8, so non-power-of-two ways; 16 to
// 128 B blocks; one set up to 64) and random mixes of reads, writes,
// invalidations, range invalidations and flushes. Addresses come from a
// small pool that forces conflicts plus wide ones up to 2^61-1. An install
// whose tag does not fit a line must panic and change nothing; every other
// operation must agree with the model on every observable.
func FuzzCacheModel(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0), uint64(200))     // direct-mapped, one set, 16 B blocks
	f.Add(uint64(2), uint64(2), uint64(0x21), uint64(300))  // 3-way
	f.Add(uint64(94), uint64(26), uint64(87), uint64(300))  // 3-way, one set: ages tie after an invalidation
	f.Add(uint64(4), uint64(6), uint64(0x100), uint64(500)) // 7-way, one set, write-back
	f.Fuzz(func(t *testing.T, seed, waysRaw, geomRaw, nRaw uint64) {
		ways := 1 + int(waysRaw%8)
		blockBytes := uint64(16) << (geomRaw % 4)
		sets := 1 << (geomRaw >> 2 % 7)
		cfg := config.CacheConfig{
			SizeBytes:  uint64(sets*ways) * blockBytes,
			BlockBytes: blockBytes,
			Assoc:      ways,
			WriteBack:  geomRaw>>5&1 == 1,
		}
		c := New(cfg)
		ref := newAgeRef(cfg)
		fits := func(a uint64) bool { return a>>c.indexBits>>tagBits == 0 }
		panics := func(op func()) (panicked bool) {
			defer func() { panicked = recover() != nil }()
			op()
			return false
		}

		rng := prng.New(seed)
		span := uint64(sets*ways) * blockBytes * 3
		pool := make([]uint64, 24)
		for i := range pool {
			if i%4 == 3 {
				pool[i] = rng.Uint64n(1 << 61) // wide: often too wide to store
			} else {
				pool[i] = rng.Uint64n(span)
			}
		}

		ops := 16 + int(nRaw%1024)
		for op := 0; op < ops; op++ {
			a := pool[rng.Intn(len(pool))]
			switch k := rng.Intn(10); {
			case k < 6: // read or write
				write := k >= 4
				access := c.Read
				if write {
					access = c.Write
				}
				installs := ref.find(a) == nil && (!write || ref.writeBack)
				if installs && !fits(a) {
					if !panics(func() { access(a) }) {
						t.Fatalf("op %d: %#x installed, but its tag does not fit", op, a)
					}
					continue
				}
				got := access(a)
				hit, evicted, victim, vdirty := ref.access(a, write)
				if got.Hit != hit || got.Allocated != installs || got.Evicted != evicted ||
					evicted && (got.Victim != victim || got.VictimDirty != vdirty) {
					t.Fatalf("op %d: access %#x write=%v: %+v, model hit=%v evicted=%v victim=%#x/%v",
						op, a, write, got, hit, evicted, victim, vdirty)
				}
			case k < 8:
				present, dirty := c.Invalidate(a)
				refPresent, refDirty := ref.invalidate(a)
				if present != refPresent || dirty != refDirty {
					t.Fatalf("op %d: invalidate %#x: %v/%v, model %v/%v", op, a, present, dirty, refPresent, refDirty)
				}
			case k < 9:
				bytes := blockBytes * uint64(1+rng.Intn(4))
				var want []uint64
				for b := a &^ (blockBytes - 1); b < a+bytes; b += blockBytes {
					if present, dirty := ref.invalidate(b); present && dirty {
						want = append(want, b)
					}
				}
				if got := c.InvalidateRange(a, bytes); !slices.Equal(got, want) {
					t.Fatalf("op %d: invalidate range %#x+%d: dirty %#x, model %#x", op, a, bytes, got, want)
				}
			default:
				want := ref.blocks(true)
				for i := range ref.lines {
					ref.lines[i].valid = false
				}
				if got := c.Flush(); !slices.Equal(got, want) {
					t.Fatalf("op %d: flush wrote back %#x, model %#x", op, got, want)
				}
			}
			l := ref.find(a)
			if c.Contains(a) != (l != nil) || c.Dirty(a) != (l != nil && l.dirty) {
				t.Fatalf("op %d: %#x contains=%v dirty=%v disagree with the model", op, a, c.Contains(a), c.Dirty(a))
			}
		}
		if got, want := c.ValidBlocks(), ref.blocks(false); !slices.Equal(got, want) || c.OccupiedLines() != len(want) {
			t.Fatalf("resident blocks %#x (%d lines), model %#x", got, c.OccupiedLines(), want)
		}
	})
}

// TestLineIsOneWord pins a cache line at 8 bytes: the paper's §5.1 caches
// are 1,536 lines per node, 384 KB per 32-node machine.
func TestLineIsOneWord(t *testing.T) {
	c := New(config.CacheConfig{SizeBytes: 384, BlockBytes: 32, Assoc: 3})
	if size := unsafe.Sizeof(c.lines[0]); size != 8 {
		t.Fatalf("a line is %d bytes, want 8", size)
	}
	if len(c.lines) != 12 {
		t.Fatalf("%d lines, want 12", len(c.lines))
	}
}

// TestOversizedTagPanics installs a block whose tag is one bit wider than a
// line holds: the install must panic rather than store the truncated tag,
// which here would alias block 0.
func TestOversizedTagPanics(t *testing.T) {
	c := New(config.CacheConfig{SizeBytes: 32, BlockBytes: 16, Assoc: 2, WriteBack: true})
	c.Write(0)
	wide := uint64(1) << (tagBits + 4) // 16 B blocks, one set: the tag is a>>4
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("install of %#x did not panic", wide)
			}
		}()
		c.Read(wide)
	}()
	if c.Contains(wide) {
		t.Fatalf("%#x aliases a stored block", wide)
	}
	if !c.Dirty(0) || c.OccupiedLines() != 1 {
		t.Fatalf("failed install changed the cache: dirty(0)=%v, %d lines", c.Dirty(0), c.OccupiedLines())
	}
}
