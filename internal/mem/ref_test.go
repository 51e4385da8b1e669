package mem

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/prng"
)

// refAM is the attraction memory as it was before slots were packed: three
// parallel per-slot arrays (tag, state, age) scanned once per pass. The
// packed AM must agree with it on every result and statistic.
type refAM struct {
	g     addr.Geometry
	ways  int
	tags  []uint64
	state []State
	age   []uint32
	stats Stats
}

func newRefAM(g addr.Geometry) *refAM {
	n := g.AMBlocksPerNode()
	return &refAM{g: g, ways: g.AMAssoc(), tags: make([]uint64, n), state: make([]State, n), age: make([]uint32, n)}
}

func (m *refAM) blockAddr(a uint64) uint64 { return a &^ (m.g.AMBlockSize() - 1) }

func (m *refAM) setBase(block uint64) int { return m.g.AMSet(block) * m.ways }

func (m *refAM) find(block uint64) int {
	b := m.blockAddr(block)
	base := m.setBase(b)
	for i := base; i < base+m.ways; i++ {
		if m.state[i] != Invalid && m.tags[i] == b {
			return i
		}
	}
	return -1
}

func (m *refAM) touch(i int) {
	old := m.age[i]
	base := (i / m.ways) * m.ways
	for j := base; j < base+m.ways; j++ {
		if m.age[j] < old {
			m.age[j]++
		}
	}
	m.age[i] = 0
}

func (m *refAM) Lookup(block uint64) State {
	if i := m.find(block); i >= 0 {
		m.stats.Hits++
		m.touch(i)
		return m.state[i]
	}
	m.stats.Misses++
	return Invalid
}

func (m *refAM) Probe(block uint64) State {
	if i := m.find(block); i >= 0 {
		return m.state[i]
	}
	return Invalid
}

// SetState reports whether the block was present (the AM panics if not).
func (m *refAM) SetState(block uint64, s State) bool {
	i := m.find(block)
	if i < 0 {
		return false
	}
	m.state[i] = s
	return true
}

func (m *refAM) Invalidate(block uint64) State {
	i := m.find(block)
	if i < 0 {
		return Invalid
	}
	m.stats.Invalidates++
	s := m.state[i]
	m.state[i] = Invalid
	return s
}

func (m *refAM) HasFreeWay(block uint64) bool {
	base := m.setBase(m.blockAddr(block))
	for i := base; i < base+m.ways; i++ {
		if m.state[i] == Invalid {
			return true
		}
	}
	return false
}

func (m *refAM) HasDroppableWay(block uint64) (bool, State) {
	base := m.setBase(m.blockAddr(block))
	kind, found := Invalid, false
	for i := base; i < base+m.ways; i++ {
		switch m.state[i] {
		case Invalid:
			return true, Invalid
		case Shared:
			found, kind = true, Shared
		}
	}
	return found, kind
}

func (m *refAM) Install(block uint64, s State) (Victim, bool) {
	b := m.blockAddr(block)
	if i := m.find(b); i >= 0 {
		m.state[i] = s
		m.touch(i)
		return Victim{}, false
	}
	m.stats.Installs++
	base := m.setBase(b)
	way := -1
	for i := base; i < base+m.ways; i++ {
		if m.state[i] == Invalid {
			way = i
			break
		}
	}
	if way < 0 {
		var bestAge uint32
		for i := base; i < base+m.ways; i++ {
			if m.state[i] == Shared && (way < 0 || m.age[i] >= bestAge) {
				way, bestAge = i, m.age[i]
			}
		}
	}
	if way < 0 {
		var bestAge uint32
		for i := base; i < base+m.ways; i++ {
			if way < 0 || m.age[i] >= bestAge {
				way, bestAge = i, m.age[i]
			}
		}
	}
	var v Victim
	evicted := false
	if m.state[way] != Invalid {
		v = Victim{Block: m.tags[way], State: m.state[way]}
		evicted = true
		m.stats.Evictions++
		if v.State.IsMaster() {
			m.stats.MasterEvict++
		}
	}
	m.tags[way] = b
	m.state[way] = s
	m.age[way] = uint32(m.ways)
	m.touch(way)
	return v, evicted
}

func (m *refAM) ForEachValid(f func(block uint64, s State)) {
	for i, st := range m.state {
		if st != Invalid {
			f(m.tags[i], st)
		}
	}
}

type validCopy struct {
	block uint64
	state State
}

func contents(each func(func(uint64, State))) []validCopy {
	var out []validCopy
	each(func(b uint64, s State) { out = append(out, validCopy{b, s}) })
	return out
}

// TestAMAgreesWithReferenceModel drives the packed AM and the three-array
// reference with the same random operation sequences and compares every
// result and statistic, for 1-, 2-, 4- and 8-way geometries. The address
// pool spans a few more blocks per set than there are ways, so sets fill,
// evict and refill; addresses carry unaligned offsets and tags well above
// the set-index bits.
func TestAMAgreesWithReferenceModel(t *testing.T) {
	for _, assocBits := range []uint{0, 1, 2, 3} {
		geo := addr.Geometry{NodeBits: 2, PageBits: 8, AMBlockBits: 5, AMSetBits: 3, AMAssocBits: assocBits}
		for seed := uint64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("ways%d/seed%d", 1<<assocBits, seed), func(t *testing.T) {
				checkAgainstRef(t, geo, seed)
			})
		}
	}
}

func checkAgainstRef(t *testing.T, geo addr.Geometry, seed uint64) {
	m, ref := New(geo), newRefAM(geo)
	rng := prng.New(seed)
	tagsPerSet := uint64(geo.AMAssoc() + 3)
	addrOf := func() uint64 {
		set := rng.Uint64n(uint64(geo.AMSets()))
		tag := rng.Uint64n(tagsPerSet) * 0x9e37 // spread tags over many bits
		off := rng.Uint64n(geo.AMBlockSize())
		return (tag<<geo.AMSetBits|set)<<geo.AMBlockBits | off
	}
	states := []State{Shared, MasterShared, Exclusive}
	var log []string
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("after ops:\n%s\n"+format, append([]any{strings.Join(log, "\n")}, args...)...)
	}
	for op := 0; op < 3000; op++ {
		a := addrOf()
		kind := rng.Intn(8)
		if len(log) == 40 {
			log = log[1:]
		}
		log = append(log, fmt.Sprintf("op %d kind %d addr %#x", op, kind, a))
		switch kind {
		case 0, 1:
			s := states[rng.Intn(len(states))]
			gv, ge := m.Install(a, s)
			rv, re := ref.Install(a, s)
			if gv != rv || ge != re {
				fail("Install(%#x, %v) = %+v,%v; reference %+v,%v", a, s, gv, ge, rv, re)
			}
		case 2:
			if g, r := m.Lookup(a), ref.Lookup(a); g != r {
				fail("Lookup(%#x) = %v; reference %v", a, g, r)
			}
		case 3:
			if g, r := m.Probe(a), ref.Probe(a); g != r {
				fail("Probe(%#x) = %v; reference %v", a, g, r)
			}
		case 4:
			s := states[rng.Intn(len(states))]
			if ref.SetState(a, s) {
				m.SetState(a, s)
			} else if m.Probe(a) != Invalid {
				fail("SetState(%#x): reference has no block, AM does", a)
			}
		case 5:
			if g, r := m.Invalidate(a), ref.Invalidate(a); g != r {
				fail("Invalidate(%#x) = %v; reference %v", a, g, r)
			}
		case 6:
			if g, r := m.HasFreeWay(a), ref.HasFreeWay(a); g != r {
				fail("HasFreeWay(%#x) = %v; reference %v", a, g, r)
			}
		case 7:
			gok, gk := m.HasDroppableWay(a)
			rok, rk := ref.HasDroppableWay(a)
			if gok != rok || gk != rk {
				fail("HasDroppableWay(%#x) = %v,%v; reference %v,%v", a, gok, gk, rok, rk)
			}
		}
		if m.Stats() != ref.stats {
			fail("stats %+v; reference %+v", m.Stats(), ref.stats)
		}
		if op%100 == 99 {
			if g, r := contents(m.ForEachValid), contents(ref.ForEachValid); !slices.Equal(g, r) {
				fail("ForEachValid %v; reference %v", g, r)
			}
		}
	}
}

// TestSlotFillMatchesInstall checks that Slot+Fill, the single-scan
// preload path, leaves the AM exactly as Install does when the set has a
// free way, and reports resident blocks and full sets.
func TestSlotFillMatchesInstall(t *testing.T) {
	geo := g() // 2-way, 64 sets, 32 B blocks: set stride 2 KB
	a, b := New(geo), New(geo)
	for _, m := range []*AM{a, b} {
		m.Install(0x0000, Shared)
		m.Invalidate(0x0000) // way 0 free again, way 1 untouched
		m.Install(0x0040, Exclusive)
	}
	slot, present := a.Slot(0x0800)
	if present || slot < 0 {
		t.Fatalf("Slot on a set with room = %d,%v", slot, present)
	}
	a.Fill(slot, 0x0800, MasterShared)
	b.Install(0x0800, MasterShared)
	if a.Stats() != b.Stats() || !slices.Equal(contents(a.ForEachValid), contents(b.ForEachValid)) {
		t.Fatalf("Fill left %+v %v, Install %+v %v", a.Stats(), contents(a.ForEachValid), b.Stats(), contents(b.ForEachValid))
	}
	if !slices.Equal(a.slots, b.slots) {
		t.Fatalf("Fill slots %x, Install slots %x", a.slots, b.slots)
	}
	if s, ok := a.Slot(0x0810); !ok || s != slot {
		t.Fatalf("Slot on a resident block (unaligned) = %d,%v, want %d,true", s, ok, slot)
	}
	a.Install(0x1000, Shared)
	if s, ok := a.Slot(0x1800); ok || s != -1 {
		t.Fatalf("Slot on a full set = %d,%v, want -1,false", s, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Fill into an occupied slot did not panic")
		}
	}()
	a.Fill(slot, 0x1800, Shared)
}

// TestTagOverflowPanics checks the tag guard: a block whose tag does not fit
// the slot's tag field panics on install instead of aliasing another block.
func TestTagOverflowPanics(t *testing.T) {
	geo := g() // b+s = 11 index bits: tags wider than 51 bits overflow
	m := New(geo)
	// Three blocks of set 0: tag 0, the widest tag that fits, and one tag
	// past it, which a truncating store would alias onto tag 0.
	fits := (uint64(1)<<tagBits - 1) << 11
	over := uint64(1) << (tagBits + 11)
	m.Install(0, Shared)
	m.Install(fits, Exclusive)
	if m.Probe(fits) != Exclusive {
		t.Fatal("widest fitting tag not stored")
	}
	if got := contents(m.ForEachValid); len(got) != 2 || got[1].block != fits {
		t.Fatalf("widest fitting tag reads back as %v", got)
	}
	if m.Probe(over) != Invalid {
		t.Fatal("overflowing block aliases a resident one")
	}
	for name, f := range map[string]func(){
		"Install": func() { m.Install(over, Shared) },
		"Fill": func() {
			slot, _ := m.Slot(over)
			m.Fill(slot, over, Shared)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of block %#x with an overflowing tag did not panic", name, over)
				}
			}()
			f()
		}()
	}
}
