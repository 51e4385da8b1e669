// Package cache implements the processor cache models: a generic
// set-associative cache with LRU replacement, usable write-through
// no-allocate (the paper's FLC) or write-back write-allocate (the SLC).
//
// Caches are indexed by whatever address the enclosing translation scheme
// feeds them — virtual or physical — so the model works on plain uint64
// addresses; the machine layer decides which address space each level sees.
package cache

import (
	"fmt"

	"vcoma/internal/config"
	"vcoma/internal/obs"
)

// Stats counts cache activity.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	Writebacks  uint64 // dirty evictions (write-back caches only)
	Invalidates uint64 // external invalidations that found the block
}

// Accesses returns total reads + writes.
func (s Stats) Accesses() uint64 {
	return s.ReadHits + s.ReadMisses + s.WriteHits + s.WriteMisses
}

// Misses returns total read + write misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// MissRatio returns Misses/Accesses, or 0 for an untouched cache.
func (s Stats) MissRatio() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(a)
}

// Result reports the outcome of a cache access.
type Result struct {
	// Hit is true when the block was present.
	Hit bool
	// Allocated is true when the access installed the block (miss on a
	// cache that allocates for this access type).
	Allocated bool
	// Evicted is true when installing the block displaced a valid victim.
	Evicted bool
	// Victim is the block-aligned address of the displaced block.
	Victim uint64
	// VictimDirty is true when the victim must be written back.
	VictimDirty bool
}

const (
	stateInvalid uint64 = iota
	stateClean
	stateDirty
)

// Line word layout. Each line is one 64-bit word and a set's ways are
// adjacent, so a lookup reads one contiguous run.
//
//	bits [0, 2)   state: invalid, clean or dirty
//	bits [2, 10)  LRU age within the set: 0 = most recent, ways = fresh
//	bits [10, 64) tag: the block address above the offset and set-index bits
//
// A block whose tag does not fit the 54 tag bits cannot be stored; an
// install panics on it rather than alias it onto another block.
const (
	stateMask = 1<<2 - 1
	ageShift  = 2
	ageBits   = 8 // ages run 0..ways, and New caps ways at 255
	ageOne    = 1 << ageShift
	ageMask   = (1<<ageBits - 1) << ageShift
	tagShift  = ageShift + ageBits
	tagBits   = 64 - tagShift
)

// Cache is a set-associative cache. It tracks tags and dirty state only; no
// data payloads are simulated.
type Cache struct {
	blockBits uint
	setMask   uint64
	// indexBits is the block offset plus set-index width: a block address
	// shifted right by it is its tag.
	indexBits uint
	ways      int
	writeBack bool

	lines []uint64 // set-major: index = set*ways + way

	// dirtyScratch backs InvalidateRange's result between calls, so the
	// inclusion-maintenance path (run on every SLC victim) allocates
	// nothing in steady state.
	dirtyScratch []uint64

	stats Stats
}

// New builds a cache from its configuration. The configuration must already
// be validated.
func New(cfg config.CacheConfig) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two (config not validated?)", sets))
	}
	if cfg.Assoc > 1<<ageBits-1 {
		// Ages run 0..ways with "fresh" = ways; no machine config comes close.
		panic(fmt.Sprintf("cache: associativity %d exceeds LRU age range", cfg.Assoc))
	}
	blockBits := uint(0)
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		blockBits++
	}
	setBits := uint(0)
	for s := sets; s > 1; s >>= 1 {
		setBits++
	}
	return &Cache{
		blockBits: blockBits,
		setMask:   uint64(sets - 1),
		indexBits: blockBits + setBits,
		ways:      cfg.Assoc,
		writeBack: cfg.WriteBack,
		lines:     make([]uint64, sets*cfg.Assoc),
	}
}

// BlockBytes returns the line size.
func (c *Cache) BlockBytes() uint64 { return 1 << c.blockBits }

// BlockAddr aligns a down to this cache's line size.
func (c *Cache) BlockAddr(a uint64) uint64 { return a &^ (c.BlockBytes() - 1) }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// WriteBack reports whether the cache is write-back.
func (c *Cache) WriteBack() bool { return c.writeBack }

// Stats returns the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// RegisterMetrics registers this cache's counters under prefix (e.g.
// "node03/slc") with an observability registry. Pull-style probes read the
// existing Stats fields, so the access fast paths gain no new work.
func (c *Cache) RegisterMetrics(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	r.Probe(prefix+".readMisses", func() float64 { return float64(c.stats.ReadMisses) })
	r.Probe(prefix+".writeMisses", func() float64 { return float64(c.stats.WriteMisses) })
	r.Probe(prefix+".accesses", func() float64 { return float64(c.stats.Accesses()) })
	r.Probe(prefix+".writebacks", func() float64 { return float64(c.stats.Writebacks) })
	r.Probe(prefix+".invalidates", func() float64 { return float64(c.stats.Invalidates) })
}

func (c *Cache) setBase(a uint64) int {
	return int((a>>c.blockBits)&c.setMask) * c.ways
}

// blockOf rebuilds the block address held by line i of the set that
// address a maps to.
func (c *Cache) blockOf(i int, a uint64) uint64 {
	return c.lines[i]>>tagShift<<c.indexBits | a&(c.setMask<<c.blockBits)
}

// find returns the base of a's set and the line index of a's block, or -1.
// The tag is compared untruncated, so a block too wide to store never
// matches a stored one.
func (c *Cache) find(a uint64) (base, i int) {
	base = c.setBase(a)
	tag := a >> c.indexBits
	for j, w := range c.lines[base : base+c.ways] {
		if w&stateMask != stateInvalid && w>>tagShift == tag {
			return base, base + j
		}
	}
	return base, -1
}

// touch marks line i, in the set starting at base, most recently used.
func (c *Cache) touch(base, i int) {
	w := c.lines[i]
	old := w & ageMask
	if old == 0 {
		// Already most recent — repeated hits to the same line (the
		// common case on bursty reference streams) skip the aging loop.
		return
	}
	set := c.lines[base : base+c.ways]
	for j, v := range set {
		if v&ageMask < old {
			set[j] = v + ageOne
		}
	}
	c.lines[i] = w &^ ageMask
}

// victimWay returns the line index to replace in the set starting at base:
// an invalid way if any, else the LRU way.
func (c *Cache) victimWay(base int) int {
	lru, lruAge := base, uint64(0)
	for j, w := range c.lines[base : base+c.ways] {
		if w&stateMask == stateInvalid {
			return base + j
		}
		if w&ageMask >= lruAge {
			lru, lruAge = base+j, w&ageMask
		}
	}
	return lru
}

// install places a's block into line i of the set starting at base,
// returning victim information. It panics if a's tag does not fit a line.
func (c *Cache) install(a uint64, base, i int, state uint64) Result {
	tag := a >> c.indexBits
	if tag>>tagBits != 0 {
		panic(fmt.Sprintf("cache: address %#x has a tag wider than the line's %d tag bits", a, tagBits))
	}
	r := Result{Allocated: true}
	if w := c.lines[i]; w&stateMask != stateInvalid {
		r.Evicted = true
		r.Victim = c.blockOf(i, a)
		r.VictimDirty = w&stateMask == stateDirty
		if r.VictimDirty {
			c.stats.Writebacks++
		}
	}
	// A freshly installed line enters as the oldest possible so that
	// touch ranks every resident line below it; otherwise an install into
	// an invalid way (age 0) would fail to age its set-mates and LRU
	// would degenerate into position order.
	c.lines[i] = tag<<tagShift | uint64(c.ways)<<ageShift | state
	c.touch(base, i)
	return r
}

// Read performs a load at address a. On a miss the block is allocated
// (possibly evicting a victim, reported in the Result).
func (c *Cache) Read(a uint64) Result {
	base, i := c.find(a)
	if i >= 0 {
		c.stats.ReadHits++
		c.touch(base, i)
		return Result{Hit: true}
	}
	c.stats.ReadMisses++
	return c.install(a, base, c.victimWay(base), stateClean)
}

// Write performs a store at address a.
//
// Write-back caches allocate on write misses and mark the line dirty.
// Write-through caches update on hits and do not allocate on misses; the
// store always propagates to the next level (the caller's job) and no line
// is ever dirty.
func (c *Cache) Write(a uint64) Result {
	base, i := c.find(a)
	if i >= 0 {
		c.stats.WriteHits++
		c.touch(base, i)
		if c.writeBack {
			c.lines[i] = c.lines[i]&^stateMask | stateDirty
		}
		return Result{Hit: true}
	}
	c.stats.WriteMisses++
	if !c.writeBack {
		return Result{} // no-allocate
	}
	return c.install(a, base, c.victimWay(base), stateDirty)
}

// Contains reports whether a's block is present, without LRU side effects.
func (c *Cache) Contains(a uint64) bool {
	_, i := c.find(a)
	return i >= 0
}

// Dirty reports whether a's block is present and dirty.
func (c *Cache) Dirty(a uint64) bool {
	_, i := c.find(a)
	return i >= 0 && c.lines[i]&stateMask == stateDirty
}

// Invalidate removes a's block if present, returning whether it was present
// and whether it was dirty (a dirty invalidation victim must be written
// back by the caller).
func (c *Cache) Invalidate(a uint64) (present, dirty bool) {
	_, i := c.find(a)
	if i < 0 {
		return false, false
	}
	c.stats.Invalidates++
	dirty = c.lines[i]&stateMask == stateDirty
	c.lines[i] &^= stateMask
	return true, dirty
}

// InvalidateRange removes every block of this cache overlapping
// [a, a+bytes), returning the block addresses that were present and dirty.
// Used to maintain inclusion when an outer level (larger blocks) evicts or
// loses a block. The returned slice aliases an internal scratch buffer and
// is only valid until the next InvalidateRange call on this cache.
func (c *Cache) InvalidateRange(a, bytes uint64) (dirtyBlocks []uint64) {
	dirtyBlocks = c.dirtyScratch[:0]
	start := c.BlockAddr(a)
	for b := start; b < a+bytes; b += c.BlockBytes() {
		if present, dirty := c.Invalidate(b); present && dirty {
			dirtyBlocks = append(dirtyBlocks, b)
		}
	}
	c.dirtyScratch = dirtyBlocks
	return dirtyBlocks
}

// Flush invalidates every line, returning the dirty block addresses in
// storage order (the writebacks a real flush would perform).
func (c *Cache) Flush() (dirtyBlocks []uint64) {
	c.forEachValid(func(i int, block uint64) {
		if c.lines[i]&stateMask == stateDirty {
			dirtyBlocks = append(dirtyBlocks, block)
		}
		c.lines[i] &^= stateMask
	})
	return dirtyBlocks
}

// ValidBlocks returns the block addresses of every valid line, in storage
// order. Used by inclusion checks and tests.
func (c *Cache) ValidBlocks() []uint64 {
	var out []uint64
	c.forEachValid(func(_ int, block uint64) { out = append(out, block) })
	return out
}

// OccupiedLines returns how many lines are valid, for tests and reports.
func (c *Cache) OccupiedLines() int {
	n := 0
	for _, w := range c.lines {
		if w&stateMask != stateInvalid {
			n++
		}
	}
	return n
}

// forEachValid calls f with the index and block address of every valid
// line, in storage order.
func (c *Cache) forEachValid(f func(i int, block uint64)) {
	for set := 0; set <= int(c.setMask); set++ {
		a := uint64(set) << c.blockBits
		for i := set * c.ways; i < (set+1)*c.ways; i++ {
			if c.lines[i]&stateMask != stateInvalid {
				f(i, c.blockOf(i, a))
			}
		}
	}
}
