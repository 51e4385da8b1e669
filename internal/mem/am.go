// Package mem implements the attraction memory (AM) of a COMA node: a large
// set-associative cache of memory blocks with the four stable states of the
// COMA-F protocol. The AM holds no data payloads — only tags and states —
// because the simulator tracks placement and coherence, not values.
//
// The AM is indexed by whatever block address the translation scheme uses
// (physical for L0/L1/L2-TLB, virtual for L3-TLB and V-COMA); with page
// colouring both index identically (paper Figure 4), so the model takes
// plain uint64 block addresses.
package mem

import (
	"fmt"

	"vcoma/internal/addr"
)

// State is the COMA-F stable state of an attraction-memory block (§4.2).
type State uint8

const (
	// Invalid: the slot holds no valid block.
	Invalid State = iota
	// Shared: a read-only copy; at least one other node holds the block
	// and one of them is the master.
	Shared
	// MasterShared: the distinguished copy responsible for the data's
	// survival; other Shared copies may exist.
	MasterShared
	// Exclusive: the only copy, writable.
	Exclusive
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case MasterShared:
		return "MS"
	case Exclusive:
		return "E"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// IsMaster reports whether the state carries data-survival responsibility:
// evicting such a block requires injection, not a silent drop.
func (s State) IsMaster() bool { return s == MasterShared || s == Exclusive }

// Readable reports whether a local access can read the block.
func (s State) Readable() bool { return s != Invalid }

// Stats counts attraction-memory activity.
type Stats struct {
	Hits        uint64 // lookups that found the block in a readable state
	Misses      uint64 // lookups that did not
	Installs    uint64
	Evictions   uint64 // valid blocks displaced by installs
	MasterEvict uint64 // displaced blocks that required injection
	Invalidates uint64 // external invalidations that found the block
}

// Victim describes a block displaced by an install.
type Victim struct {
	Block uint64
	State State
}

// Slot word layout. Each way is one 64-bit word and a set's ways are
// adjacent, so a 4-way set is 32 bytes: one host cache line per lookup.
//
//	bits [0, 2)   COMA-F state
//	bits [2, 13)  LRU age within the set: 0 = most recent, ways = fresh
//	bits [13, 64) tag: the block address above the offset and set-index bits
//
// A block whose tag does not fit the 51 tag bits cannot be stored; Install
// and Fill panic on it rather than alias it onto another block.
const (
	stateMask = 1<<2 - 1
	ageShift  = 2
	ageBits   = 11 // ages run 0..ways, and Geometry caps ways at 2^10
	ageOne    = 1 << ageShift
	ageMask   = (1<<ageBits - 1) << ageShift
	tagShift  = ageShift + ageBits
	tagBits   = 64 - tagShift
)

// AM is one node's attraction memory.
type AM struct {
	g         addr.Geometry
	ways      int
	assocBits uint
	setMask   uint64
	// indexBits is b+s: a block address shifted right by it is its tag.
	indexBits uint

	slots []uint64 // set-major: index = set<<assocBits + way

	stats Stats
}

// New returns an empty attraction memory for geometry g.
func New(g addr.Geometry) *AM {
	if g.AMAssocBits >= ageBits {
		panic(fmt.Sprintf("mem: associativity 2^%d exceeds the slot's LRU age range", g.AMAssocBits))
	}
	return &AM{
		g:         g,
		ways:      g.AMAssoc(),
		assocBits: g.AMAssocBits,
		setMask:   uint64(g.AMSets() - 1),
		indexBits: g.AMBlockBits + g.AMSetBits,
		slots:     make([]uint64, g.AMBlocksPerNode()),
	}
}

// Stats returns the activity counters.
func (m *AM) Stats() Stats { return m.stats }

// BlockAddr aligns a to an AM block boundary.
func (m *AM) BlockAddr(a uint64) uint64 { return a &^ (m.g.AMBlockSize() - 1) }

func (m *AM) setBase(block uint64) int {
	return int((block>>m.g.AMBlockBits)&m.setMask) << m.assocBits
}

// set returns the ways of block's set.
func (m *AM) set(block uint64) []uint64 {
	base := m.setBase(block)
	return m.slots[base : base+m.ways]
}

// blockOf rebuilds the block address held by slot i.
func (m *AM) blockOf(i int) uint64 {
	return m.slots[i]>>tagShift<<m.indexBits | uint64(i>>m.assocBits)<<m.g.AMBlockBits
}

// packTag returns block's tag positioned in a slot word, panicking if it
// does not fit.
func (m *AM) packTag(block uint64) uint64 {
	tag := block >> m.indexBits
	if tag>>tagBits != 0 {
		panic(fmt.Sprintf("mem: block %#x has a tag wider than the slot's %d tag bits", block, tagBits))
	}
	return tag << tagShift
}

func stateOf(w uint64) State { return State(w & stateMask) }

func (m *AM) find(block uint64) int {
	base := m.setBase(block)
	tag := block >> m.indexBits
	for i, w := range m.slots[base : base+m.ways] {
		if w&stateMask != 0 && w>>tagShift == tag {
			return base + i
		}
	}
	return -1
}

func (m *AM) touch(i int) {
	w := m.slots[i]
	old := w & ageMask
	if old == 0 {
		// Already most recent — repeated hits to the same block skip the
		// aging loop (the dominant pattern on bursty reference streams).
		return
	}
	base := i &^ (m.ways - 1)
	set := m.slots[base : base+m.ways]
	for j, v := range set {
		if v&ageMask < old {
			set[j] = v + ageOne
		}
	}
	m.slots[i] = w &^ ageMask
}

// Lookup returns the state of the block, or Invalid if absent, counting a
// hit or miss and updating recency on hits.
func (m *AM) Lookup(block uint64) State {
	if i := m.find(block); i >= 0 {
		m.stats.Hits++
		m.touch(i)
		return stateOf(m.slots[i])
	}
	m.stats.Misses++
	return Invalid
}

// Probe returns the state of the block without statistics or recency
// side effects.
func (m *AM) Probe(block uint64) State {
	if i := m.find(block); i >= 0 {
		return stateOf(m.slots[i])
	}
	return Invalid
}

// SetState changes the state of a resident block; it panics if the block is
// absent (protocol bookkeeping bug).
func (m *AM) SetState(block uint64, s State) {
	i := m.find(block)
	if i < 0 {
		panic(fmt.Sprintf("mem: SetState(%#x, %v) on absent block", block, s))
	}
	if s == Invalid {
		panic("mem: use Invalidate to remove a block")
	}
	m.slots[i] = m.slots[i]&^stateMask | uint64(s)
}

// Invalidate removes the block if present, returning its prior state
// (Invalid if absent).
func (m *AM) Invalidate(block uint64) State {
	i := m.find(block)
	if i < 0 {
		return Invalid
	}
	m.stats.Invalidates++
	s := stateOf(m.slots[i])
	m.slots[i] &^= stateMask
	return s
}

// HasFreeWay reports whether block's set has an Invalid slot — the home
// node's injection-acceptance condition (§4.2).
func (m *AM) HasFreeWay(block uint64) bool {
	for _, w := range m.set(block) {
		if w&stateMask == uint64(Invalid) {
			return true
		}
	}
	return false
}

// HasDroppableWay reports whether block's set has an Invalid or Shared slot
// — the forwarded-injection acceptance condition (§4.2). The returned state
// tells which kind was found (Invalid preferred).
func (m *AM) HasDroppableWay(block uint64) (ok bool, kind State) {
	kind = Invalid
	found := false
	for _, w := range m.set(block) {
		switch stateOf(w) {
		case Invalid:
			return true, Invalid
		case Shared:
			found, kind = true, Shared
		}
	}
	return found, kind
}

// Slot scans block's set once. If the block is resident it returns its
// slot and present=true; otherwise it returns the set's first Invalid slot,
// the one Install would fill, or -1 when the set is full. Together with
// Fill it lets a caller test for residence and install in one set scan.
func (m *AM) Slot(block uint64) (slot int, present bool) {
	base := m.setBase(block)
	tag := block >> m.indexBits
	free := -1
	for i, w := range m.slots[base : base+m.ways] {
		if w&stateMask == 0 {
			if free < 0 {
				free = base + i
			}
		} else if w>>tagShift == tag {
			return base + i, true
		}
	}
	return free, false
}

// Fill installs an absent block into the Invalid slot Slot returned for it,
// exactly as Install would with a free way: counted as an install, entered
// most recently used. It panics if the slot is occupied.
func (m *AM) Fill(slot int, block uint64, s State) {
	if m.slots[slot]&stateMask != 0 {
		panic(fmt.Sprintf("mem: Fill(%#x) into an occupied slot", block))
	}
	m.stats.Installs++
	m.place(slot, block, s)
}

// place writes block into slot i with state s and makes it most recently
// used. It enters as the oldest so touch ages the whole set (see the same
// pattern in package cache): without this, installs into Invalid ways
// would not advance their set-mates' ages.
func (m *AM) place(i int, block uint64, s State) {
	m.slots[i] = m.packTag(block) | uint64(m.ways)<<ageShift | uint64(s)
	m.touch(i)
}

// Install places block with the given state, choosing a victim way:
// an Invalid way if available, else the least-recently-used Shared way,
// else the least-recently-used way overall. The displaced block, if any, is
// returned for the protocol layer to drop or inject. Installing a block
// already present just updates its state.
func (m *AM) Install(block uint64, s State) (Victim, bool) {
	base := m.setBase(block)
	tag := block >> m.indexBits
	// One pass finds the block itself, the first Invalid way, the LRU
	// Shared way and the LRU way overall (ties to the later way).
	free, lruShared, lru := -1, -1, -1
	var sharedAge, lruAge uint64
	for j, w := range m.slots[base : base+m.ways] {
		i := base + j
		st := stateOf(w)
		if st == Invalid {
			if free < 0 {
				free = i
			}
			continue
		}
		if w>>tagShift == tag {
			m.slots[i] = w&^stateMask | uint64(s)
			m.touch(i)
			return Victim{}, false
		}
		age := w & ageMask
		if st == Shared && (lruShared < 0 || age >= sharedAge) {
			lruShared, sharedAge = i, age
		}
		if lru < 0 || age >= lruAge {
			lru, lruAge = i, age
		}
	}
	m.stats.Installs++
	if free >= 0 {
		m.place(free, block, s)
		return Victim{}, false
	}
	way := lru
	if lruShared >= 0 {
		way = lruShared
	}
	v := Victim{Block: m.blockOf(way), State: stateOf(m.slots[way])}
	m.stats.Evictions++
	if v.State.IsMaster() {
		m.stats.MasterEvict++
	}
	m.place(way, block, s)
	return v, true
}

// ForEachValid calls f for every valid block with its state, in storage
// order. f must not mutate the AM. Used by machine-wide invariant scans.
func (m *AM) ForEachValid(f func(block uint64, s State)) {
	for i, w := range m.slots {
		if st := stateOf(w); st != Invalid {
			f(m.blockOf(i), st)
		}
	}
}

// OccupiedWays returns how many slots of block's set are valid.
func (m *AM) OccupiedWays(block uint64) int {
	n := 0
	for _, w := range m.set(block) {
		if stateOf(w) != Invalid {
			n++
		}
	}
	return n
}

// Occupancy returns the fraction of all slots holding valid blocks.
func (m *AM) Occupancy() float64 {
	return float64(len(m.slots)-m.CountState(Invalid)) / float64(len(m.slots))
}

// CountState returns how many blocks are in state s.
func (m *AM) CountState(s State) int {
	n := 0
	for _, w := range m.slots {
		if stateOf(w) == s {
			n++
		}
	}
	return n
}
