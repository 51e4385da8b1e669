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
	stateInvalid uint8 = iota
	stateClean
	stateDirty
)

// line is one cache line's record. A set's ways are adjacent, so a lookup
// reads one contiguous run, and each line knows its way so LRU updates find
// the set base without a division.
type line struct {
	tag   uint64 // block-aligned address
	state uint8
	age   uint8 // LRU age within the set; 0 = most recent, ways = fresh
	way   uint8
}

// Cache is a set-associative cache. It tracks tags and dirty state only; no
// data payloads are simulated.
type Cache struct {
	blockBits uint
	setMask   uint64
	ways      int
	writeBack bool

	lines []line // set-major: index = set*ways + way

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
	if cfg.Assoc > 255 {
		// Ages are uint8 with "fresh" = ways; no machine config comes close.
		panic(fmt.Sprintf("cache: associativity %d exceeds LRU age range", cfg.Assoc))
	}
	blockBits := uint(0)
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		blockBits++
	}
	lines := make([]line, sets*cfg.Assoc)
	for i := range lines {
		lines[i].way = uint8(i % cfg.Assoc)
	}
	return &Cache{
		blockBits: blockBits,
		setMask:   uint64(sets - 1),
		ways:      cfg.Assoc,
		writeBack: cfg.WriteBack,
		lines:     lines,
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

// find returns the line index of a's block, or -1.
func (c *Cache) find(a uint64) int {
	block := c.BlockAddr(a)
	base := c.setBase(a)
	for i, l := range c.lines[base : base+c.ways] {
		if l.state != stateInvalid && l.tag == block {
			return base + i
		}
	}
	return -1
}

// touch marks line i most recently used within its set.
func (c *Cache) touch(i int) {
	old := c.lines[i].age
	if old == 0 {
		// Already most recent — repeated hits to the same line (the
		// common case on bursty reference streams) skip the aging loop.
		return
	}
	base := i - int(c.lines[i].way)
	set := c.lines[base : base+c.ways]
	for j := range set {
		if set[j].age < old {
			set[j].age++
		}
	}
	c.lines[i].age = 0
}

// victimWay returns the line index to replace in a's set: an invalid way if
// any, else the LRU way.
func (c *Cache) victimWay(a uint64) int {
	base := c.setBase(a)
	lru, lruAge := base, uint8(0)
	for i, l := range c.lines[base : base+c.ways] {
		if l.state == stateInvalid {
			return base + i
		}
		if l.age >= lruAge {
			lru, lruAge = base+i, l.age
		}
	}
	return lru
}

// install places a's block into line i, returning victim information.
func (c *Cache) install(a uint64, i int, dirty bool) Result {
	r := Result{Allocated: true}
	l := &c.lines[i]
	if l.state != stateInvalid {
		r.Evicted = true
		r.Victim = l.tag
		r.VictimDirty = l.state == stateDirty
		if r.VictimDirty {
			c.stats.Writebacks++
		}
	}
	l.tag = c.BlockAddr(a)
	if dirty {
		l.state = stateDirty
	} else {
		l.state = stateClean
	}
	// A freshly installed line enters as the oldest possible so that
	// touch ranks every resident line below it; otherwise an install into
	// an invalid way (age 0) would fail to age its set-mates and LRU
	// would degenerate into position order.
	l.age = uint8(c.ways)
	c.touch(i)
	return r
}

// Read performs a load at address a. On a miss the block is allocated
// (possibly evicting a victim, reported in the Result).
func (c *Cache) Read(a uint64) Result {
	if i := c.find(a); i >= 0 {
		c.stats.ReadHits++
		c.touch(i)
		return Result{Hit: true}
	}
	c.stats.ReadMisses++
	return c.install(a, c.victimWay(a), false)
}

// Write performs a store at address a.
//
// Write-back caches allocate on write misses and mark the line dirty.
// Write-through caches update on hits and do not allocate on misses; the
// store always propagates to the next level (the caller's job) and no line
// is ever dirty.
func (c *Cache) Write(a uint64) Result {
	if i := c.find(a); i >= 0 {
		c.stats.WriteHits++
		c.touch(i)
		if c.writeBack {
			c.lines[i].state = stateDirty
		}
		return Result{Hit: true}
	}
	c.stats.WriteMisses++
	if !c.writeBack {
		return Result{} // no-allocate
	}
	return c.install(a, c.victimWay(a), true)
}

// Contains reports whether a's block is present, without LRU side effects.
func (c *Cache) Contains(a uint64) bool { return c.find(a) >= 0 }

// Dirty reports whether a's block is present and dirty.
func (c *Cache) Dirty(a uint64) bool {
	i := c.find(a)
	return i >= 0 && c.lines[i].state == stateDirty
}

// Invalidate removes a's block if present, returning whether it was present
// and whether it was dirty (a dirty invalidation victim must be written
// back by the caller).
func (c *Cache) Invalidate(a uint64) (present, dirty bool) {
	i := c.find(a)
	if i < 0 {
		return false, false
	}
	c.stats.Invalidates++
	dirty = c.lines[i].state == stateDirty
	c.lines[i].state = stateInvalid
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
	for i := range c.lines {
		l := &c.lines[i]
		if l.state == stateDirty {
			dirtyBlocks = append(dirtyBlocks, l.tag)
		}
		l.state = stateInvalid
	}
	return dirtyBlocks
}

// ValidBlocks returns the block addresses of every valid line, in storage
// order. Used by inclusion checks and tests.
func (c *Cache) ValidBlocks() []uint64 {
	var out []uint64
	for _, l := range c.lines {
		if l.state != stateInvalid {
			out = append(out, l.tag)
		}
	}
	return out
}

// OccupiedLines returns how many lines are valid, for tests and reports.
func (c *Cache) OccupiedLines() int {
	n := 0
	for _, l := range c.lines {
		if l.state != stateInvalid {
			n++
		}
	}
	return n
}
