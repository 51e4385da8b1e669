package vm

import (
	"fmt"

	"vcoma/internal/addr"
)

// Prot is a page's protection attributes (paper §2.2.4). The simulated
// machine checks segment-level rights before the cache and page-level
// rights at translation points; V-COMA keeps page-level bits in the home's
// page table and DLB (§4.3).
type Prot uint8

const (
	// ProtRead permits loads.
	ProtRead Prot = 1 << iota
	// ProtWrite permits stores.
	ProtWrite
	// ProtExec permits instruction fetches.
	ProtExec
)

// ProtRW is the default protection for shared data pages.
const ProtRW = ProtRead | ProtWrite

func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// SetProtection changes v's page protection, mapping the page if needed,
// and returns the page record for the caller (the machine layer) to drive
// the coherence-side effects: TLB shootdowns or DLB/page-table updates and
// cached-copy invalidations (§4.3).
func (s *System) SetProtection(v addr.Virtual, prot Prot) *Page {
	p := s.Ensure(v)
	p.Prot = prot
	return p
}

// Unmap removes v's page mapping entirely — the address-mapping change of
// §2.2.1. The page's frame (if any) is released, its global-set slot is
// freed, and the record is returned so the machine can flush stale state
// (TLB entries, cache blocks, attraction-memory copies). Unmapping an
// unmapped page is an error: the callers all hold a reason to believe the
// page exists. The returned record is a copy: the page-table slot itself is
// cleared.
func (s *System) Unmap(v addr.Virtual) (*Page, error) {
	pn := s.g.Page(v)
	slot := s.pages.Lookup(uint64(pn))
	if slot == nil {
		return nil, fmt.Errorf("vm: unmap of unmapped page %#x", uint64(pn))
	}
	p := *slot
	s.pages.Remove(uint64(pn))
	var gps int
	switch s.mode {
	case PhysicalRoundRobin:
		gps = s.g.GlobalPageSetOfFrame(p.Frame)
		s.frames.Remove(uint64(p.Frame))
	case Colored:
		gps = s.g.GlobalPageSet(pn)
		s.frames.Remove(uint64(p.Frame))
	case VirtualOnly:
		gps = s.g.GlobalPageSet(pn)
	}
	s.gpsPages[gps]--
	s.gpsFree[gps] = append(s.gpsFree[gps], p.Slot)
	return &p, nil
}
