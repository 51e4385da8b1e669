package machine

import (
	"fmt"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/network"
	"vcoma/internal/vm"
)

// MgmtResult reports a memory-management operation (protection change or
// demap): its latency and how much state it had to touch.
type MgmtResult struct {
	// Cycles is the initiating processor's latency for the operation.
	Cycles uint64
	// TLBShootdowns is the number of per-node TLB entries invalidated
	// (always 0 or 1 for V-COMA: the home's DLB entry).
	TLBShootdowns int
	// CacheFlushes is the number of cache blocks invalidated to keep
	// page-level attributes consistent.
	CacheFlushes int
	// CopiesDropped is the number of attraction-memory copies evicted
	// (demap only).
	CopiesDropped int
}

// interProcessorInterrupt is the charged cost for interrupting a remote
// processor to run a TLB-invalidation handler — the classic shootdown cost
// that V-COMA avoids (paper §1: "TLB consistency must be maintained").
const interProcessorInterrupt = 200

// ChangeProtection changes the page-level protection of v's page, issued
// by node n at time now, and returns the operation's cost (paper §4.3).
//
// In the TLB schemes the new attributes must reach every node's private
// TLB: a machine-wide shootdown (interrupt, invalidate, acknowledge), plus
// — in the virtual-cache schemes — flushing the page's blocks from the
// caches that cache access-right bits (§2.2.4).
//
// In V-COMA one message goes to the page's home: the PE updates the page
// table and its own DLB, then pushes update messages to the nodes that the
// directory says hold blocks of the page.
func (m *Machine) ChangeProtection(now uint64, n addr.Node, v addr.Virtual, prot vm.Prot) MgmtResult {
	page := m.sys.SetProtection(v, prot)
	if m.cfg.Scheme == config.VCOMA {
		return m.vcomaProtChange(now, n, v, page)
	}
	return m.tlbProtChange(now, n, v)
}

func (m *Machine) tlbProtChange(now uint64, n addr.Node, v addr.Virtual) MgmtResult {
	res := MgmtResult{}
	pn := m.g.Page(v)
	fabric := m.prot.Fabric()
	done := now
	for o := addr.Node(0); int(o) < m.g.Nodes(); o++ {
		// Interrupt every processor, invalidate its TLB entry, collect
		// the acknowledgement. Shootdowns are synchronous and global:
		// nothing tells us which TLBs actually cache the entry.
		t := fabric.Send(now, n, o, network.Request)
		t += interProcessorInterrupt
		if m.tlbs[o].Probe(pn) {
			res.TLBShootdowns++
		}
		m.tlbs[o].Invalidate(pn)
		res.CacheFlushes += m.flushPageFromCaches(o, v)
		t = fabric.Send(t, o, n, network.Request)
		if t > done {
			done = t
		}
	}
	res.Cycles = done - now
	return res
}

func (m *Machine) vcomaProtChange(now uint64, n addr.Node, v addr.Virtual, page *vm.Page) MgmtResult {
	res := MgmtResult{}
	fabric := m.prot.Fabric()
	home := page.Home
	// One request to the home; the PE updates page table and DLB.
	t := fabric.Send(now, n, home, network.Request)
	t += m.cfg.Timing.DirLookup
	if m.engines[home].DLB().Probe(m.g.Page(v)) {
		res.TLBShootdowns = 1
	}
	// The DLB entry itself stays valid (the translation is unchanged);
	// only the cached attribute changes, which the engine's page table
	// already reflects. Push updates to every node holding blocks of the
	// page, per the directory.
	done := t
	holders := m.pageHolders(v)
	for _, o := range holders {
		ta := fabric.Send(t, home, o, network.Request)
		res.CacheFlushes += m.flushPageFromCaches(o, v)
		ta = fabric.Send(ta, o, home, network.Request)
		if ta > done {
			done = ta
		}
	}
	// Completion notice back to the initiator.
	done = fabric.Send(done, home, n, network.Request)
	res.Cycles = done - now
	return res
}

// pageHolders returns the set of nodes holding at least one block of v's
// page, according to the directory.
func (m *Machine) pageHolders(v addr.Virtual) []addr.Node {
	var mask uint64
	base := uint64(m.g.PageBase(v))
	for off := uint64(0); off < m.g.PageSize(); off += m.g.AMBlockSize() {
		if e := m.prot.Directory().Lookup(m.protoAddr(addr.Virtual(base + off))); e != nil {
			mask |= e.Copyset
		}
	}
	var out []addr.Node
	for o := addr.Node(0); int(o) < m.g.Nodes(); o++ {
		if mask&(1<<uint(o)) != 0 {
			out = append(out, o)
		}
	}
	return out
}

// flushPageFromCaches removes every block of v's page from node o's FLC
// and SLC (in whatever address space each uses), returning the number of
// blocks that were present.
func (m *Machine) flushPageFromCaches(o addr.Node, v addr.Virtual) int {
	base := m.g.PageBase(v)
	size := m.g.PageSize()
	flcA, slcA := uint64(base), uint64(base)
	switch m.cfg.Scheme {
	case config.L0TLB:
		pa := uint64(m.sys.Translate(base))
		flcA, slcA = pa, pa
	case config.L1TLB:
		slcA = uint64(m.sys.Translate(base))
	}
	flushed := 0
	before := m.slcs[o].OccupiedLines() + m.flcs[o].OccupiedLines()
	m.slcs[o].InvalidateRange(slcA, size)
	m.flcs[o].InvalidateRange(flcA, size)
	flushed = before - m.slcs[o].OccupiedLines() - m.flcs[o].OccupiedLines()
	return flushed
}

// Demap removes v's page mapping entirely — an address-mapping change
// (§2.2.1). All cached state derived from the mapping must go: TLB entries
// machine-wide (or the home's DLB entry), cache blocks, attraction-memory
// copies and directory entries. Returns an error if the page is unmapped.
func (m *Machine) Demap(now uint64, n addr.Node, v addr.Virtual) (MgmtResult, error) {
	if m.sys.Lookup(v) == nil {
		return MgmtResult{}, fmt.Errorf("machine: demap of unmapped address %#x", uint64(v))
	}
	// All cached state must be purged before the mapping disappears: the
	// eviction path still reverse-translates physical victims.
	protoBase := m.protoAddr(m.g.PageBase(v))

	var res MgmtResult
	pn := m.g.Page(v)
	if m.cfg.Scheme == config.VCOMA {
		// One message to the home: the PE drops the DLB entry and
		// reclaims the directory page.
		fabric := m.prot.Fabric()
		home := m.g.HomeNode(v)
		t := fabric.Send(now, n, home, network.Request)
		t += m.cfg.Timing.DirLookup
		if m.engines[home].DLB().Probe(pn) {
			res.TLBShootdowns = 1
		}
		m.engines[home].DLB().Invalidate(pn)
		ev := m.prot.EvictPage(t, protoBase)
		res.CopiesDropped = ev.CopiesDropped
		res.Cycles = ev.Done - now
		for o := addr.Node(0); int(o) < m.g.Nodes(); o++ {
			res.CacheFlushes += m.flushPageVirtual(o, v)
		}
	} else {
		// TLB schemes: machine-wide shootdown, then evict the frame's
		// blocks.
		sd := m.tlbProtChangeForDemap(now, n, pn, v)
		res.TLBShootdowns = sd.TLBShootdowns
		res.CacheFlushes = sd.CacheFlushes
		ev := m.prot.EvictPage(now+sd.Cycles, protoBase)
		res.CopiesDropped = ev.CopiesDropped
		res.Cycles = ev.Done - now
	}

	if _, err := m.sys.Unmap(v); err != nil {
		return MgmtResult{}, err
	}
	return res, nil
}

// tlbProtChangeForDemap is the shootdown half of Demap for the TLB
// schemes; it must not consult the VM (the mapping is already gone).
func (m *Machine) tlbProtChangeForDemap(now uint64, n addr.Node, pn addr.PageNum, v addr.Virtual) MgmtResult {
	res := MgmtResult{}
	fabric := m.prot.Fabric()
	done := now
	for o := addr.Node(0); int(o) < m.g.Nodes(); o++ {
		t := fabric.Send(now, n, o, network.Request)
		t += interProcessorInterrupt
		if m.tlbs[o].Probe(pn) {
			res.TLBShootdowns++
		}
		m.tlbs[o].Invalidate(pn)
		res.CacheFlushes += m.flushPageVirtual(o, v)
		t = fabric.Send(t, o, n, network.Request)
		if t > done {
			done = t
		}
	}
	res.Cycles = done - now
	return res
}

// flushPageVirtual flushes a page from node o's caches when the caches'
// own address spaces may no longer be reachable through the VM (demap):
// virtual levels flush by VA directly; physical levels are flushed by the
// protocol's back-invalidation during EvictPage, so nothing extra here.
func (m *Machine) flushPageVirtual(o addr.Node, v addr.Virtual) int {
	base := uint64(m.g.PageBase(v))
	size := m.g.PageSize()
	n := 0
	switch m.cfg.Scheme {
	case config.L0TLB:
		// Both caches physical: EvictPage's back-invalidation covers them.
	case config.L1TLB:
		before := m.flcs[o].OccupiedLines()
		m.flcs[o].InvalidateRange(base, size)
		n += before - m.flcs[o].OccupiedLines()
	default: // L2, L3, V-COMA: both caches virtual
		before := m.flcs[o].OccupiedLines() + m.slcs[o].OccupiedLines()
		m.flcs[o].InvalidateRange(base, size)
		m.slcs[o].InvalidateRange(base, size)
		n += before - m.flcs[o].OccupiedLines() - m.slcs[o].OccupiedLines()
	}
	return n
}
