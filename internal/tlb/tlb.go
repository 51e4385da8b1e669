// Package tlb implements the translation buffers of the paper: per-node TLBs
// (schemes L0–L3) and the home-node DLB of V-COMA. Both map virtual page
// numbers to a translation (frame number or directory page) and differ only
// in where they sit and what request stream they see, so one set of models
// serves both.
//
// The paper's default organization is fully associative with random
// replacement (§5.1); direct-mapped variants are the "/DM" systems of
// Figure 9. A Bank measures many sizes and organizations from a single
// request stream (Figures 8 and 9, Tables 2 and 3). Observer banks are
// built by the thousand and most of their buffers never fill, so both are
// made to cost what they hold: a Bank counts a request that repeats its
// previous page without touching its buffers, and a FullyAssoc grows its
// slot list and residency index with its contents, up to capacity.
package tlb

import (
	"fmt"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/prng"
)

// Stats counts buffer activity.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// Hits returns Accesses - Misses.
func (s Stats) Hits() uint64 { return s.Accesses - s.Misses }

// MissRatio returns Misses/Accesses, or 0 for an untouched buffer.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Buffer is a translation buffer. Access touches the buffer with a page
// number, fills the entry on a miss, and reports whether it hit.
type Buffer interface {
	// Access looks up page p, filling the entry on a miss (the service
	// itself is charged by the caller). Returns true on a hit.
	Access(p addr.PageNum) bool
	// Probe reports whether p is present without changing any state.
	Probe(p addr.PageNum) bool
	// Invalidate removes p if present (address-mapping change, §2.2.1).
	Invalidate(p addr.PageNum)
	// Flush empties the buffer, keeping statistics.
	Flush()
	// Stats returns the access/miss counters.
	Stats() Stats
	// Entries returns the configured capacity.
	Entries() int
}

// New builds a buffer of the given size and organization. indexShift is the
// number of low page-number bits skipped when computing a direct-mapped
// index: 0 for a private TLB; the node-bit count for a home-node DLB, whose
// resident pages all share their low (home) bits and would otherwise collide
// into a single set.
func New(entries int, org config.TLBOrg, indexShift uint, seed uint64) (Buffer, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("tlb: need at least one entry, got %d", entries)
	}
	switch org {
	case config.FullyAssoc:
		return NewFullyAssoc(entries, seed), nil
	case config.DirectMapped:
		if entries&(entries-1) != 0 {
			return nil, fmt.Errorf("tlb: direct-mapped size %d not a power of two", entries)
		}
		return NewDirectMapped(entries, indexShift), nil
	case config.SetAssoc2:
		return NewSetAssoc(entries, 2, indexShift, seed)
	case config.SetAssoc4:
		return NewSetAssoc(entries, 4, indexShift, seed)
	default:
		return nil, fmt.Errorf("tlb: unknown organization %v", org)
	}
}

// FullyAssoc is a fully-associative buffer with random replacement.
//
// The residency index is a flat open-addressed table (linear probing,
// backward-shift deletion) instead of a Go map, and the most recent hit is
// memoized: translation streams repeat the same page in bursts, so the
// common case is one compare. Replacement state (slots, victim choice, rng
// stream) is unchanged from the map-based version — the contents, stats,
// and eviction sequence are bit-identical.
//
// Slots and index grow with the contents instead of being sized for full
// capacity: an observer bank's large buffers typically hold a few dozen
// pages and never fill. Growth is exact, because victims are chosen by slot
// number from the rng alone and the index only answers "where is p".
type FullyAssoc struct {
	capacity int
	slots    []addr.PageNum
	rng      *prng.Source
	stats    Stats

	memo   addr.PageNum // last page that hit or filled
	memoOK bool

	// Open-addressed index: keys[i] is resident at slot slotOf[i]-1;
	// slotOf[i] == 0 marks an empty probe cell, so a fresh table needs no
	// initialization. The table doubles whenever an insert would make it
	// more than half full, up to maxTab (the smallest power of two, at
	// least 8, holding 2*capacity cells), so probe chains stay short.
	keys   []addr.PageNum
	slotOf []int32
	mask   uint64
	maxTab int
}

// faInitialTable is the index size a fresh FullyAssoc starts with.
const faInitialTable = 8

// NewFullyAssoc returns a fully-associative buffer with the given capacity,
// using a deterministic random replacement stream derived from seed.
func NewFullyAssoc(entries int, seed uint64) *FullyAssoc {
	maxTab := faInitialTable
	for maxTab < 2*entries {
		maxTab *= 2
	}
	return &FullyAssoc{
		capacity: entries,
		slots:    make([]addr.PageNum, 0, min(entries, faInitialTable/2)),
		rng:      prng.New(seed),
		keys:     make([]addr.PageNum, faInitialTable),
		slotOf:   make([]int32, faInitialTable),
		mask:     faInitialTable - 1,
		maxTab:   maxTab,
	}
}

func (b *FullyAssoc) home(p addr.PageNum) uint64 {
	return (uint64(p) * 0x9E3779B97F4A7C15) >> 32 & b.mask
}

// find returns the probe-cell index holding p, or -1.
func (b *FullyAssoc) find(p addr.PageNum) int {
	for i := b.home(p); ; i = (i + 1) & b.mask {
		if b.slotOf[i] == 0 {
			return -1
		}
		if b.keys[i] == p {
			return int(i)
		}
	}
}

// indexPut records that p is resident at slot s.
func (b *FullyAssoc) indexPut(p addr.PageNum, s int) {
	i := b.home(p)
	for b.slotOf[i] != 0 {
		if b.keys[i] == p {
			b.slotOf[i] = int32(s) + 1
			return
		}
		i = (i + 1) & b.mask
	}
	b.keys[i] = p
	b.slotOf[i] = int32(s) + 1
}

// grow doubles the index and reinserts every resident page.
func (b *FullyAssoc) grow() {
	keys, slotOf := b.keys, b.slotOf
	n := 2 * len(keys)
	b.keys = make([]addr.PageNum, n)
	b.slotOf = make([]int32, n)
	b.mask = uint64(n - 1)
	for i, s := range slotOf {
		if s != 0 {
			b.indexPut(keys[i], int(s)-1)
		}
	}
}

// indexDelete empties probe cell i, backward-shifting any displaced
// followers so linear probing stays sound.
func (b *FullyAssoc) indexDelete(i int) {
	j := uint64(i)
	for {
		b.slotOf[j] = 0
		hole := j
		for {
			j = (j + 1) & b.mask
			if b.slotOf[j] == 0 {
				return
			}
			h := b.home(b.keys[j])
			// Move keys[j] into the hole only if its probe path passes
			// through the hole (cyclic interval test).
			if (j > hole && (h <= hole || h > j)) || (j < hole && h <= hole && h > j) {
				break
			}
		}
		b.keys[hole] = b.keys[j]
		b.slotOf[hole] = b.slotOf[j]
	}
}

// Access implements Buffer.
func (b *FullyAssoc) Access(p addr.PageNum) bool {
	b.stats.Accesses++
	if b.memoOK && p == b.memo {
		return true
	}
	if b.find(p) >= 0 {
		b.memo, b.memoOK = p, true
		return true
	}
	b.stats.Misses++
	if len(b.slots) < b.capacity {
		if 2*(len(b.slots)+1) > len(b.keys) && len(b.keys) < b.maxTab {
			b.grow()
		}
		b.indexPut(p, len(b.slots))
		b.slots = append(b.slots, p)
		b.memo, b.memoOK = p, true
		return false
	}
	victim := b.rng.Intn(b.capacity)
	if i := b.find(b.slots[victim]); i >= 0 {
		b.indexDelete(i)
	}
	b.slots[victim] = p
	b.indexPut(p, victim)
	b.memo, b.memoOK = p, true
	return false
}

// Probe implements Buffer.
func (b *FullyAssoc) Probe(p addr.PageNum) bool {
	return b.find(p) >= 0
}

// Invalidate implements Buffer.
func (b *FullyAssoc) Invalidate(p addr.PageNum) {
	i := b.find(p)
	if i < 0 {
		return
	}
	if b.memoOK && p == b.memo {
		b.memoOK = false
	}
	s := int(b.slotOf[i]) - 1
	last := len(b.slots) - 1
	b.indexDelete(i)
	if s != last {
		b.slots[s] = b.slots[last]
		b.indexPut(b.slots[s], s)
	}
	b.slots = b.slots[:last]
}

// Flush implements Buffer.
func (b *FullyAssoc) Flush() {
	b.slots = b.slots[:0]
	b.memoOK = false
	clear(b.slotOf)
}

// Stats implements Buffer.
func (b *FullyAssoc) Stats() Stats { return b.stats }

// Entries implements Buffer.
func (b *FullyAssoc) Entries() int { return b.capacity }

// DirectMapped is a direct-mapped buffer indexed by low page-number bits
// (after indexShift).
type DirectMapped struct {
	mask  uint64
	shift uint
	tags  []addr.PageNum
	valid []bool
	stats Stats
}

// NewDirectMapped returns a direct-mapped buffer with entries slots
// (a power of two), indexing with page-number bits [indexShift,
// indexShift+log2(entries)).
func NewDirectMapped(entries int, indexShift uint) *DirectMapped {
	return &DirectMapped{
		mask:  uint64(entries - 1),
		shift: indexShift,
		tags:  make([]addr.PageNum, entries),
		valid: make([]bool, entries),
	}
}

func (b *DirectMapped) slot(p addr.PageNum) int {
	return int((uint64(p) >> b.shift) & b.mask)
}

// Access implements Buffer.
func (b *DirectMapped) Access(p addr.PageNum) bool {
	b.stats.Accesses++
	i := b.slot(p)
	if b.valid[i] && b.tags[i] == p {
		return true
	}
	b.stats.Misses++
	b.tags[i] = p
	b.valid[i] = true
	return false
}

// Probe implements Buffer.
func (b *DirectMapped) Probe(p addr.PageNum) bool {
	i := b.slot(p)
	return b.valid[i] && b.tags[i] == p
}

// Invalidate implements Buffer.
func (b *DirectMapped) Invalidate(p addr.PageNum) {
	i := b.slot(p)
	if b.valid[i] && b.tags[i] == p {
		b.valid[i] = false
	}
}

// Flush implements Buffer.
func (b *DirectMapped) Flush() {
	for i := range b.valid {
		b.valid[i] = false
	}
}

// Stats implements Buffer.
func (b *DirectMapped) Stats() Stats { return b.stats }

// Entries implements Buffer.
func (b *DirectMapped) Entries() int { return len(b.tags) }

// SetAssoc is an n-way set-associative buffer with random replacement,
// generalizing the two organizations above; it backs ablation studies of
// intermediate associativities.
type SetAssoc struct {
	ways  int
	mask  uint64
	shift uint
	tags  []addr.PageNum // sets*ways, set-major
	valid []bool
	rng   *prng.Source
	stats Stats
}

// NewSetAssoc returns a set-associative buffer with the given total entries
// (power of two) and ways (power of two dividing entries).
func NewSetAssoc(entries, ways int, indexShift uint, seed uint64) (*SetAssoc, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("tlb: set-assoc size %d not a power of two", entries)
	}
	if ways <= 0 || ways > entries || entries%ways != 0 {
		return nil, fmt.Errorf("tlb: %d ways invalid for %d entries", ways, entries)
	}
	sets := entries / ways
	return &SetAssoc{
		ways:  ways,
		mask:  uint64(sets - 1),
		shift: indexShift,
		tags:  make([]addr.PageNum, entries),
		valid: make([]bool, entries),
		rng:   prng.New(seed),
	}, nil
}

func (b *SetAssoc) setBase(p addr.PageNum) int {
	return int((uint64(p)>>b.shift)&b.mask) * b.ways
}

// Access implements Buffer.
func (b *SetAssoc) Access(p addr.PageNum) bool {
	b.stats.Accesses++
	base := b.setBase(p)
	free := -1
	for i := base; i < base+b.ways; i++ {
		if b.valid[i] {
			if b.tags[i] == p {
				return true
			}
		} else if free < 0 {
			free = i
		}
	}
	b.stats.Misses++
	if free < 0 {
		free = base + b.rng.Intn(b.ways)
	}
	b.tags[free] = p
	b.valid[free] = true
	return false
}

// Probe implements Buffer.
func (b *SetAssoc) Probe(p addr.PageNum) bool {
	base := b.setBase(p)
	for i := base; i < base+b.ways; i++ {
		if b.valid[i] && b.tags[i] == p {
			return true
		}
	}
	return false
}

// Invalidate implements Buffer.
func (b *SetAssoc) Invalidate(p addr.PageNum) {
	base := b.setBase(p)
	for i := base; i < base+b.ways; i++ {
		if b.valid[i] && b.tags[i] == p {
			b.valid[i] = false
			return
		}
	}
}

// Flush implements Buffer.
func (b *SetAssoc) Flush() {
	for i := range b.valid {
		b.valid[i] = false
	}
}

// Stats implements Buffer.
func (b *SetAssoc) Stats() Stats { return b.stats }

// Entries implements Buffer.
func (b *SetAssoc) Entries() int { return len(b.tags) }
