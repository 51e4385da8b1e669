// Package addr defines the address types and address arithmetic used by the
// whole simulator: virtual, physical and directory addresses, and the
// machine geometry that decomposes a virtual address into the fields of the
// paper's Figure 6 (home node, global set, global page set, directory-entry
// index).
//
// Throughout the simulator a "page" is a virtual-memory page (2^n bytes) and
// a "block" is an attraction-memory block (2^b bytes) unless stated
// otherwise; the first- and second-level caches have their own, smaller
// block sizes handled inside package cache.
package addr

import "fmt"

// Virtual is a virtual address. The simulated machine uses a PowerPC-like
// segmented global virtual address space in which synonyms do not exist
// (paper §2.2.1), so a Virtual uniquely names a datum machine-wide.
type Virtual uint64

// Physical is a physical address, used by the physically-addressed schemes
// (L0/L1/L2-TLB) and by the coherence protocol of L3-TLB.
type Physical uint64

// PageNum is a virtual page number (Virtual >> PageBits).
type PageNum uint64

// Frame is a physical page-frame number (Physical >> PageBits).
type Frame uint64

// DirAddr is a directory address in V-COMA's directory address space: the
// index of a directory entry within the home node's directory memory
// (paper §4.2). Directory memory is allocated in directory pages of
// BlocksPerPage contiguous entries.
type DirAddr uint64

// Node identifies a processing node, in [0, Nodes). It is 32 bits wide so
// a directory entry (copyset, master, swapped flag) packs into 16 bytes.
type Node int32

// Geometry captures the machine's address-relevant parameters, all powers of
// two, expressed as bit widths (the paper's p, n, b, s, k).
type Geometry struct {
	NodeBits    uint // p: log2(number of processing nodes)
	PageBits    uint // n: log2(page size in bytes)
	AMBlockBits uint // b: log2(attraction-memory block size in bytes)
	AMSetBits   uint // s: log2(attraction-memory sets per node)
	AMAssocBits uint // k: log2(attraction-memory associativity)
}

// Validate checks the structural constraints the paper's decomposition
// relies on. In particular a page must span at least one AM block
// (n >= b) and there must be at least one global page set per home node
// (s - n + b >= p), so that the page-number bits can carry both the home
// node and the page-table set index of Figure 6.
func (g Geometry) Validate() error {
	if g.PageBits < g.AMBlockBits {
		return fmt.Errorf("addr: page (2^%d B) smaller than AM block (2^%d B)", g.PageBits, g.AMBlockBits)
	}
	if g.PageBits-g.AMBlockBits > g.AMSetBits {
		return fmt.Errorf("addr: a page (2^%d blocks) does not fit the AM index (2^%d sets)",
			g.PageBits-g.AMBlockBits, g.AMSetBits)
	}
	if g.GlobalPageSetBits() < g.NodeBits {
		return fmt.Errorf("addr: %d global page sets cannot carry %d home-node bits (need s-n+b >= p)",
			g.GlobalPageSets(), g.Nodes())
	}
	if g.NodeBits > 20 || g.PageBits > 30 || g.AMSetBits > 30 || g.AMAssocBits > 10 {
		return fmt.Errorf("addr: geometry out of supported range: %+v", g)
	}
	return nil
}

// Nodes returns P, the number of processing nodes.
func (g Geometry) Nodes() int { return 1 << g.NodeBits }

// PageSize returns N, the page size in bytes.
func (g Geometry) PageSize() uint64 { return 1 << g.PageBits }

// AMBlockSize returns B, the attraction-memory block size in bytes.
func (g Geometry) AMBlockSize() uint64 { return 1 << g.AMBlockBits }

// AMSets returns S, the number of attraction-memory sets per node.
func (g Geometry) AMSets() int { return 1 << g.AMSetBits }

// AMAssoc returns K, the attraction-memory associativity.
func (g Geometry) AMAssoc() int { return 1 << g.AMAssocBits }

// AMBlocksPerNode returns S*K, the attraction-memory capacity of one node in
// blocks.
func (g Geometry) AMBlocksPerNode() int { return g.AMSets() * g.AMAssoc() }

// AMBytesPerNode returns the attraction-memory capacity of one node in bytes.
func (g Geometry) AMBytesPerNode() uint64 {
	return uint64(g.AMBlocksPerNode()) << g.AMBlockBits
}

// BlocksPerPage returns N/B, the number of AM blocks per page — also the
// number of entries in one directory page (paper §4.2).
func (g Geometry) BlocksPerPage() int { return 1 << (g.PageBits - g.AMBlockBits) }

// PageFramesPerNode returns the number of whole pages one node's attraction
// memory can hold.
func (g Geometry) PageFramesPerNode() int {
	return int(g.AMBytesPerNode() >> g.PageBits)
}

// GlobalPageSetBits returns log2(GlobalPageSets).
func (g Geometry) GlobalPageSetBits() uint { return g.AMSetBits - (g.PageBits - g.AMBlockBits) }

// GlobalPageSets returns the number of global page sets: S / (N/B). A global
// page set is the group of contiguous global (block) sets in which the
// blocks of a page can reside (paper §3.4).
func (g Geometry) GlobalPageSets() int { return 1 << g.GlobalPageSetBits() }

// PageSlotsPerGlobalSet returns P*K, the maximum number of page slots in one
// global page set (paper §6).
func (g Geometry) PageSlotsPerGlobalSet() int { return g.Nodes() * g.AMAssoc() }

// PageTableSetsPerHome returns the number of page-table sets managed by one
// home node: GlobalPageSets / Nodes. Figure 6's s-p-n+b index bits.
func (g Geometry) PageTableSetsPerHome() int { return 1 << (g.GlobalPageSetBits() - g.NodeBits) }

// --- Virtual-address decomposition (Figure 6) ---

// Page returns the virtual page number of v.
func (g Geometry) Page(v Virtual) PageNum { return PageNum(uint64(v) >> g.PageBits) }

// PageBase returns the first address of the page containing v.
func (g Geometry) PageBase(v Virtual) Virtual {
	return v &^ Virtual(g.PageSize()-1)
}

// PageOffset returns the byte offset of v within its page.
func (g Geometry) PageOffset(v Virtual) uint64 { return uint64(v) & (g.PageSize() - 1) }

// Block returns v aligned down to an attraction-memory block boundary.
func (g Geometry) Block(v Virtual) Virtual {
	return v &^ Virtual(g.AMBlockSize()-1)
}

// HomeNode returns the home node of the page containing v: the p least
// significant bits of the page number.
func (g Geometry) HomeNode(v Virtual) Node {
	return Node(uint64(g.Page(v)) & uint64(g.Nodes()-1))
}

// HomeNodeOfPage returns the home node of page pn.
func (g Geometry) HomeNodeOfPage(pn PageNum) Node {
	return Node(uint64(pn) & uint64(g.Nodes()-1))
}

// GlobalPageSet returns the global page set index of page pn: the low
// s-n+b bits of the page number (which include the home-node bits).
func (g Geometry) GlobalPageSet(pn PageNum) int {
	return int(uint64(pn) & uint64(g.GlobalPageSets()-1))
}

// HomePageTableSet returns the index of the page-table set within the home
// node's page table for page pn: the s-p-n+b bits above the home-node bits.
func (g Geometry) HomePageTableSet(pn PageNum) int {
	return int((uint64(pn) >> g.NodeBits) & uint64(g.PageTableSetsPerHome()-1))
}

// DirEntryIndex returns the index of v's block within its directory page:
// the n-b most significant bits of the page displacement.
func (g Geometry) DirEntryIndex(v Virtual) int {
	return int(g.PageOffset(v) >> g.AMBlockBits)
}

// AMSet returns the attraction-memory set index for an address under
// virtual (or colour-preserving physical) indexing: bits [b, b+s).
func (g Geometry) AMSet(a uint64) int {
	return int((a >> g.AMBlockBits) & uint64(g.AMSets()-1))
}

// AMSetOfVirtual returns the AM set index of virtual address v.
func (g Geometry) AMSetOfVirtual(v Virtual) int { return g.AMSet(uint64(v)) }

// AMSetOfPhysical returns the AM set index of physical address p.
func (g Geometry) AMSetOfPhysical(p Physical) int { return g.AMSet(uint64(p)) }

// --- Physical-address composition ---

// PhysAddr composes a physical address from a frame number and the page
// offset of the original virtual address.
func (g Geometry) PhysAddr(f Frame, v Virtual) Physical {
	return Physical(uint64(f)<<g.PageBits | g.PageOffset(v))
}

// FrameOf returns the frame number of physical address p.
func (g Geometry) FrameOf(p Physical) Frame { return Frame(uint64(p) >> g.PageBits) }

// HomeNodeOfFrame returns the home node a physical frame belongs to in the
// physically-addressed schemes: frames are distributed across nodes by their
// low frame-number bits, mirroring the virtual decomposition.
func (g Geometry) HomeNodeOfFrame(f Frame) Node {
	return Node(uint64(f) & uint64(g.Nodes()-1))
}

// GlobalPageSetOfFrame returns the global page set a frame maps to under
// physical indexing of the attraction memory.
func (g Geometry) GlobalPageSetOfFrame(f Frame) int {
	return int(uint64(f) & uint64(g.GlobalPageSets()-1))
}

// --- Directory addresses (V-COMA) ---

// DirPageBase returns the directory address of entry 0 of directory page
// dp. Directory pages are numbered densely per home node.
func (g Geometry) DirPageBase(dp int) DirAddr {
	return DirAddr(uint64(dp) << (g.PageBits - g.AMBlockBits))
}

// DirAddrOf composes the directory address of v's block given the directory
// page holding its page's entries.
func (g Geometry) DirAddrOf(dp int, v Virtual) DirAddr {
	return g.DirPageBase(dp) + DirAddr(g.DirEntryIndex(v))
}

// DirPageOf returns the directory page number containing directory address d.
func (g Geometry) DirPageOf(d DirAddr) int {
	return int(uint64(d) >> (g.PageBits - g.AMBlockBits))
}

func (g Geometry) String() string {
	return fmt.Sprintf("geometry{nodes=%d page=%dB amblock=%dB amsets=%d assoc=%d gps=%d}",
		g.Nodes(), g.PageSize(), g.AMBlockSize(), g.AMSets(), g.AMAssoc(), g.GlobalPageSets())
}
