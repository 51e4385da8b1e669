// Package vm implements the virtual-memory system of the simulated machine:
// the global segmented virtual address space and its region allocator, the
// virtual-to-physical page mapping used by the physically-addressed schemes
// (round-robin frame assignment, the paper's §5.3 policy), the colour-
// constrained set-associative mapping of L3-TLB (paper §3.4, Figure 4), the
// directory-page allocation of V-COMA, and the global-set pressure
// accounting behind Figure 11.
//
// The paper's runs preload all data and simulate no paging activity; here a
// page is mapped on first touch (or explicitly preloaded), which is
// equivalent and keeps runs deterministic.
package vm

import (
	"fmt"

	"vcoma/internal/addr"
	"vcoma/internal/dense"
)

// Mode selects the virtual-to-physical mapping policy.
type Mode int

const (
	// PhysicalRoundRobin assigns frames in allocation order, spreading
	// pages round-robin across home nodes: the paper's policy for the
	// physically-addressed COMA (L0/L1/L2-TLB).
	PhysicalRoundRobin Mode = iota
	// Colored constrains a page's frame to the global page set named by
	// its virtual address (page colouring, L3-TLB): the virtual-to-
	// physical mapping is set-associative with one slot per (node, way).
	Colored
	// VirtualOnly is V-COMA: no frames at all. Pages receive a directory
	// page at their home node; the attraction memory is virtually indexed
	// and the global page set is fixed by the virtual address.
	VirtualOnly
)

func (m Mode) String() string {
	switch m {
	case PhysicalRoundRobin:
		return "physical-rr"
	case Colored:
		return "colored"
	case VirtualOnly:
		return "virtual"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Page is the per-page bookkeeping record (the page-table entry).
type Page struct {
	Num  addr.PageNum
	Mode Mode

	// Frame is the physical frame (PhysicalRoundRobin and Colored modes).
	Frame addr.Frame
	// Slot is the page slot within the global page set (Colored and
	// VirtualOnly): the most significant frame bits of Figure 4.
	Slot int
	// DirPage is the directory page allocated at the home node
	// (VirtualOnly): dense per-home numbering.
	DirPage int
	// Home is the node owning the page's directory.
	Home addr.Node

	Referenced bool
	Modified   bool
	// Prot is the page-level protection (§2.2.4, §4.3).
	Prot Prot
}

// System is the machine-wide virtual-memory manager.
type System struct {
	g    addr.Geometry
	mode Mode

	// pages is the page table, indexed by virtual page number; the
	// translation path runs on every simulated reference.
	pages dense.Table[Page]
	// frames reverse-maps allocated frames to their virtual page, the
	// simulator's stand-in for the backpointers a physical cache keeps to
	// reach the virtual caches under it (paper §2.2.2).
	frames dense.Table[addr.PageNum]

	nextFrame addr.Frame // PhysicalRoundRobin allocation cursor

	// gpsPages counts pages resident per global page set (by the set that
	// governs attraction-memory placement: the frame's set in physical
	// mode, the virtual page's set otherwise).
	gpsPages []int
	// gpsFree holds, per global page set, the slots Unmap released; a new
	// mapping reuses the most recently freed slot before taking a fresh
	// one, so no two resident pages of a set share a slot (or, in Colored
	// mode, a frame).
	gpsFree [][]int
	// gpsOverflow counts allocations that exceeded a global page set's
	// P*K slots — pressure saturation that would force a swap-out in a
	// real system (§4.3).
	gpsOverflow []int

	// dirPages is the per-home directory-page allocation cursor.
	dirPages []int

	faults uint64 // first-touch mappings performed
}

// NewSystem returns a virtual-memory system for geometry g under the given
// mapping mode.
func NewSystem(g addr.Geometry, mode Mode) *System {
	return &System{
		g:           g,
		mode:        mode,
		gpsPages:    make([]int, g.GlobalPageSets()),
		gpsFree:     make([][]int, g.GlobalPageSets()),
		gpsOverflow: make([]int, g.GlobalPageSets()),
		dirPages:    make([]int, g.Nodes()),
	}
}

// Geometry returns the machine geometry.
func (s *System) Geometry() addr.Geometry { return s.g }

// Mode returns the mapping policy.
func (s *System) Mode() Mode { return s.mode }

// Faults returns how many pages have been mapped (first touches).
func (s *System) Faults() uint64 { return s.faults }

// MappedPages returns the number of resident pages.
func (s *System) MappedPages() int { return s.pages.Len() }

// Lookup returns the page record for v's page, or nil if unmapped.
func (s *System) Lookup(v addr.Virtual) *Page { return s.pages.Lookup(uint64(s.g.Page(v))) }

// Ensure maps v's page if needed and returns its record. This is the page-
// fault path; with preloaded data it only fires on first touch.
func (s *System) Ensure(v addr.Virtual) *Page {
	pn := s.g.Page(v)
	if p := s.pages.Lookup(uint64(pn)); p != nil {
		return p
	}
	return s.mapPage(pn)
}

func (s *System) mapPage(pn addr.PageNum) *Page {
	s.faults++
	p := s.pages.Ensure(uint64(pn))
	*p = Page{Num: pn, Mode: s.mode, Prot: ProtRW}
	switch s.mode {
	case PhysicalRoundRobin:
		p.Frame = s.nextFrame
		s.nextFrame++
		p.Home = s.g.HomeNodeOfFrame(p.Frame)
		gps := s.g.GlobalPageSetOfFrame(p.Frame)
		p.Slot = s.allocSlot(gps)
		s.account(gps)
	case Colored:
		gps := s.g.GlobalPageSet(pn)
		p.Slot = s.allocSlot(gps)
		// Frame = slot in the MSBs, colour in the LSBs (Figure 4), so the
		// physical address indexes the same attraction-memory set as the
		// virtual address.
		p.Frame = addr.Frame(uint64(p.Slot)<<s.g.GlobalPageSetBits() | uint64(gps))
		p.Home = s.g.HomeNodeOfPage(pn)
		s.account(gps)
	case VirtualOnly:
		gps := s.g.GlobalPageSet(pn)
		p.Slot = s.allocSlot(gps)
		p.Home = s.g.HomeNodeOfPage(pn)
		p.DirPage = s.dirPages[p.Home]
		s.dirPages[p.Home]++
		s.account(gps)
	}
	if s.mode != VirtualOnly {
		*s.frames.Ensure(uint64(p.Frame)) = pn
	}
	return p
}

// allocSlot returns a free page slot of global page set gps: the most
// recently freed one, else the next never-used one. With no freed slot the
// set's n resident pages hold exactly slots 0..n-1, so n is that next one.
func (s *System) allocSlot(gps int) int {
	free := s.gpsFree[gps]
	if len(free) == 0 {
		return s.gpsPages[gps]
	}
	s.gpsFree[gps] = free[:len(free)-1]
	return free[len(free)-1]
}

func (s *System) account(gps int) {
	s.gpsPages[gps]++
	if s.gpsPages[gps] > s.g.PageSlotsPerGlobalSet() {
		s.gpsOverflow[gps]++
	}
}

// Translate maps a virtual address to its physical address, mapping the page
// on first touch. It panics in VirtualOnly mode, where physical addresses do
// not exist.
func (s *System) Translate(v addr.Virtual) addr.Physical {
	if s.mode == VirtualOnly {
		panic("vm: Translate called on a V-COMA (virtual-only) system")
	}
	p := s.Ensure(v)
	return s.g.PhysAddr(p.Frame, v)
}

// DirAddrOf returns the directory address of v's block at its home node,
// mapping the page on first touch. Valid only in VirtualOnly mode.
func (s *System) DirAddrOf(v addr.Virtual) (addr.Node, addr.DirAddr) {
	if s.mode != VirtualOnly {
		panic("vm: DirAddrOf called on a physically-mapped system")
	}
	p := s.Ensure(v)
	return p.Home, s.g.DirAddrOf(p.DirPage, v)
}

// ReversePage returns the virtual page mapped to frame f, if any — the
// backpointer lookup used to reach virtual caches from physical addresses
// (§2.2.2).
func (s *System) ReversePage(f addr.Frame) (addr.PageNum, bool) {
	if pn := s.frames.Lookup(uint64(f)); pn != nil {
		return *pn, true
	}
	return 0, false
}

// ReverseTranslate maps a physical address back to its virtual address. It
// panics on an unmapped frame: the simulator only manufactures physical
// addresses through Translate, so an unmapped frame is a bookkeeping bug.
func (s *System) ReverseTranslate(pa addr.Physical) addr.Virtual {
	pn, ok := s.ReversePage(s.g.FrameOf(pa))
	if !ok {
		panic(fmt.Sprintf("vm: reverse translation of unmapped physical address %#x", uint64(pa)))
	}
	return addr.Virtual(uint64(pn)<<s.g.PageBits | uint64(pa)&(s.g.PageSize()-1))
}

// Preload maps every page of [base, base+bytes) in ascending order, making
// frame assignment independent of the simulated access interleaving.
func (s *System) Preload(base addr.Virtual, bytes uint64) {
	if bytes == 0 {
		return
	}
	first := s.g.Page(base)
	last := s.g.Page(base + addr.Virtual(bytes-1))
	for pn := first; pn <= last; pn++ {
		if s.pages.Lookup(uint64(pn)) == nil {
			s.mapPage(pn)
		}
	}
}

// PlacementNode returns the node whose attraction memory initially holds
// v's page. A page's slot within its global page set names a (node, way)
// pair machine-wide; spreading consecutive slots across nodes — offset by
// the set index so that the first page of every set does not pile onto node
// 0 — fills every node's sets evenly. The page's home node (directory
// location) is generally a different node: with page-interleaved homes the
// attraction-memory set index determines the home bits, so placing masters
// at their homes would leave all but 1/P of each node's sets empty.
func (s *System) PlacementNode(v addr.Virtual) addr.Node {
	p := s.Ensure(v)
	var gps int
	if s.mode == PhysicalRoundRobin {
		gps = s.g.GlobalPageSetOfFrame(p.Frame)
	} else {
		gps = s.g.GlobalPageSet(p.Num)
	}
	return addr.Node((p.Slot + gps) % s.g.Nodes())
}

// SetReferenced marks v's page referenced.
func (s *System) SetReferenced(v addr.Virtual) { s.Ensure(v).Referenced = true }

// SetModified marks v's page modified (§4.3's Modify-bit protocol endpoint).
func (s *System) SetModified(v addr.Virtual) { s.Ensure(v).Modified = true }

// PressureProfile returns, per global page set, the occupancy fraction
// occupied-slots / (P*K) — the paper's Figure 11 metric. Values above 1
// indicate saturation (overflow allocations).
func (s *System) PressureProfile() []float64 {
	cap := float64(s.g.PageSlotsPerGlobalSet())
	out := make([]float64, len(s.gpsPages))
	for i, n := range s.gpsPages {
		out[i] = float64(n) / cap
	}
	return out
}

// OverflowCount returns the total number of over-capacity allocations across
// all global page sets.
func (s *System) OverflowCount() int {
	total := 0
	for _, n := range s.gpsOverflow {
		total += n
	}
	return total
}

// PagesPerGlobalSet returns a copy of the per-set resident page counts.
func (s *System) PagesPerGlobalSet() []int {
	return append([]int(nil), s.gpsPages...)
}

// DirPagesAt returns how many directory pages have been allocated at home
// node n (VirtualOnly mode).
func (s *System) DirPagesAt(n addr.Node) int { return s.dirPages[n] }
