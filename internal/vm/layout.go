package vm

import (
	"fmt"
	"math"
	"sort"

	"vcoma/internal/addr"
)

// Region is a named, contiguous range of the shared virtual address space —
// one array or structure of a workload.
type Region struct {
	Name  string
	Base  addr.Virtual
	Bytes uint64
}

// End returns the first address past the region.
func (r Region) End() addr.Virtual { return r.Base + addr.Virtual(r.Bytes) }

// Contains reports whether v falls inside the region.
func (r Region) Contains(v addr.Virtual) bool { return v >= r.Base && v < r.End() }

// At returns the address of byte offset off within the region, panicking on
// overflow — workload indexing bugs should fail loudly.
func (r Region) At(off uint64) addr.Virtual {
	if off >= r.Bytes {
		panic(fmt.Sprintf("vm: offset %d outside region %q (%d bytes)", off, r.Name, r.Bytes))
	}
	return r.Base + addr.Virtual(off)
}

// Layout allocates regions in the global virtual address space. Workloads
// build their entire layout up front (before any events are generated), so
// frame preloading and the pressure profile are independent of simulation
// order.
//
// The virtual space is segmented PowerPC-style (§2.2.1): synonyms cannot
// exist, so a Layout simply hands out disjoint ranges of one global space.
type Layout struct {
	g       addr.Geometry
	next    addr.Virtual
	regions []Region
}

// LayoutBase is the first allocatable virtual address. Page zero is kept
// unmapped so that a zero Virtual is never a valid shared address.
const LayoutBase = addr.Virtual(1) << 20

// NewLayout returns an empty layout for geometry g.
func NewLayout(g addr.Geometry) *Layout {
	return &Layout{g: g, next: LayoutBase}
}

// LayoutFromRegions reconstructs a layout from previously recorded regions
// (trace replay): regions must be sorted by base and non-overlapping, end
// inside the address space, and span no more pages than the attraction
// memories of g hold, since a replay maps every page up front.
func LayoutFromRegions(g addr.Geometry, regions []Region) (*Layout, error) {
	l := NewLayout(g)
	pageMask := g.PageSize() - 1
	frames := uint64(g.Nodes()) * uint64(g.PageFramesPerNode())
	var pages uint64
	for i, r := range regions {
		if r.Bytes == 0 {
			return nil, fmt.Errorf("vm: empty region %q", r.Name)
		}
		if uint64(r.Base) < uint64(l.next) {
			return nil, fmt.Errorf("vm: region %d (%q) at %#x overlaps or is out of order", i, r.Name, uint64(r.Base))
		}
		end := uint64(r.Base) + r.Bytes
		if end < uint64(r.Base) || end > math.MaxUint64-pageMask {
			return nil, fmt.Errorf("vm: region %d (%q) at %#x of %d bytes runs past the end of the address space", i, r.Name, uint64(r.Base), r.Bytes)
		}
		end = (end + pageMask) &^ pageMask
		pages += (end - uint64(g.PageBase(r.Base))) >> g.PageBits
		if pages > frames {
			return nil, fmt.Errorf("vm: regions through %d (%q) span %d pages; the machine holds %d", i, r.Name, pages, frames)
		}
		l.regions = append(l.regions, r)
		l.next = addr.Virtual(end)
	}
	return l, nil
}

// Alloc reserves bytes of address space aligned to align (which must be a
// power of two; 0 or 1 mean page alignment). Regions are padded to whole
// pages so distinct regions never share a page.
func (l *Layout) Alloc(name string, bytes, align uint64) Region {
	if bytes == 0 {
		panic(fmt.Sprintf("vm: empty region %q", name))
	}
	if align == 0 || align < l.g.PageSize() {
		align = l.g.PageSize()
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("vm: alignment %d of region %q not a power of two", align, name))
	}
	base := (uint64(l.next) + align - 1) &^ (align - 1)
	r := Region{Name: name, Base: addr.Virtual(base), Bytes: bytes}
	pageMask := l.g.PageSize() - 1
	l.next = addr.Virtual((base + bytes + pageMask) &^ pageMask)
	l.regions = append(l.regions, r)
	return r
}

// AllocArray reserves a region holding count elements of elemBytes each,
// page-aligned.
func (l *Layout) AllocArray(name string, count int, elemBytes uint64) Region {
	if count <= 0 {
		panic(fmt.Sprintf("vm: empty array region %q", name))
	}
	return l.Alloc(name, uint64(count)*elemBytes, 0)
}

// Regions returns the allocated regions in allocation order.
func (l *Layout) Regions() []Region { return l.regions }

// TotalBytes returns the sum of region sizes (the workload's shared-memory
// footprint, the paper's Table 1 column).
func (l *Layout) TotalBytes() uint64 {
	var total uint64
	for _, r := range l.regions {
		total += r.Bytes
	}
	return total
}

// Find returns the region containing v, or the zero Region.
func (l *Layout) Find(v addr.Virtual) (Region, bool) {
	// Regions are allocated in ascending order; binary-search the bases.
	i := sort.Search(len(l.regions), func(i int) bool { return l.regions[i].End() > v })
	if i < len(l.regions) && l.regions[i].Contains(v) {
		return l.regions[i], true
	}
	return Region{}, false
}

// PreloadAll maps every region's pages into sys in allocation order.
func (l *Layout) PreloadAll(sys *System) {
	for _, r := range l.regions {
		sys.Preload(r.Base, r.Bytes)
	}
}
