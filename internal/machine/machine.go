// Package machine assembles a full simulated node — FLC, SLC, attraction
// memory, translation hardware — for each of the paper's five dynamic
// address translation schemes, and routes every processor reference through
// the right sequence of lookups, translations and coherence transactions.
//
// The scheme determines three things (paper §3):
//
//   - which levels are virtually vs physically addressed,
//   - where translation requests are generated (the "tap points"), and
//   - who pays the translation penalty (the requesting processor's TLB, or
//     the home node's DLB inside the protocol engine).
//
// | scheme | FLC | SLC | AM | translation requests                        |
// |--------|-----|-----|----|---------------------------------------------|
// | L0-TLB | PA  | PA  | PA | every processor reference                   |
// | L1-TLB | VA  | PA  | PA | FLC read misses + every write (FLC is WT)   |
// | L2-TLB | VA  | VA  | PA | below-SLC transactions + SLC writebacks     |
// | L3-TLB | VA  | VA  | VA | local-node misses + master replacements     |
// | V-COMA | VA  | VA  | VA | none: home-node DLB inside the protocol     |
package machine

import (
	"fmt"

	"vcoma/internal/addr"
	"vcoma/internal/cache"
	"vcoma/internal/coherence"
	"vcoma/internal/config"
	"vcoma/internal/core"
	"vcoma/internal/mem"
	"vcoma/internal/obs"
	"vcoma/internal/tlb"
	"vcoma/internal/vm"
)

// Class says where a reference was satisfied.
type Class int

const (
	// ClassFLCHit: satisfied by the first-level cache (zero latency).
	ClassFLCHit Class = iota
	// ClassSLCHit: satisfied by the second-level cache.
	ClassSLCHit
	// ClassLocalAM: satisfied by the local attraction memory.
	ClassLocalAM
	// ClassRemote: required a coherence transaction through a home node.
	ClassRemote
)

func (c Class) String() string {
	switch c {
	case ClassFLCHit:
		return "flc-hit"
	case ClassSLCHit:
		return "slc-hit"
	case ClassLocalAM:
		return "local-am"
	case ClassRemote:
		return "remote"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// AccessResult reports one reference's cost.
type AccessResult struct {
	// Cycles is the processor stall time for this reference, including
	// any translation penalties on its critical path.
	Cycles uint64
	// TransCycles is the translation-penalty portion of Cycles.
	TransCycles uint64
	// Class says where the reference was satisfied.
	Class Class
}

// NodeStats aggregates one node's memory-system activity.
type NodeStats struct {
	Refs   uint64
	Reads  uint64
	Writes uint64

	FLCHits uint64
	SLCHits uint64
	LocalAM uint64
	Remote  uint64

	// StallLocal is stall time on local service (SLC hits, local AM).
	StallLocal uint64
	// StallRemote is stall time on coherence transactions (excluding the
	// translation portion).
	StallRemote uint64
	// TransCycles is stall time attributable to address translation
	// (TLB miss penalties here, DLB miss penalties on this node's
	// critical paths for V-COMA).
	TransCycles uint64

	TLBAccesses   uint64
	TLBMisses     uint64
	SLCWritebacks uint64
}

// TotalStall returns local + remote stall (the paper's Table 4 denominator).
func (s NodeStats) TotalStall() uint64 { return s.StallLocal + s.StallRemote }

// Machine is the simulated multiprocessor memory system.
type Machine struct {
	cfg config.Config
	g   addr.Geometry

	sys  *vm.System
	prot *coherence.Protocol

	flcs []*cache.Cache
	slcs []*cache.Cache

	tlbs    []tlb.Buffer       // per-node timed TLB (nil for V-COMA)
	engines []*core.HomeEngine // per-node home engines (V-COMA only)

	banks     []*tlb.Bank // observer: the scheme's translation-request stream
	nowbBanks []*tlb.Bank // observer: L2 stream without writebacks

	stats []NodeStats

	// Observability (all nil unless AttachObserver is called; every use is
	// nil-receiver safe, so the access paths pay only a nil check).
	tracer    *obs.Tracer
	latAccess *obs.Histogram // stall cycles of every reference
	latRemote *obs.Histogram // stall cycles of remote transactions

	// checker is the correctness-verification hook (nil unless
	// SetAccessChecker is called); it observes completed references and
	// must not change any simulated outcome.
	checker AccessChecker
}

// AccessChecker observes every completed processor reference, after the
// machine has fully executed it. internal/check implements this to drive
// its invariant checks and shadow-memory oracle; a checker must be purely
// observational.
type AccessChecker interface {
	PostAccess(n addr.Node, va addr.Virtual, write bool, r AccessResult)
}

// SetAccessChecker attaches a correctness checker to the access path. A nil
// checker (the default) keeps the path check-free.
func (m *Machine) SetAccessChecker(c AccessChecker) { m.checker = c }

// New builds a machine for cfg.
func New(cfg config.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := cfg.Geometry
	var mode vm.Mode
	switch cfg.Scheme {
	case config.L0TLB, config.L1TLB, config.L2TLB:
		mode = vm.PhysicalRoundRobin
	case config.L3TLB:
		mode = vm.Colored
	case config.VCOMA:
		mode = vm.VirtualOnly
	}
	m := &Machine{
		cfg:   cfg,
		g:     g,
		sys:   vm.NewSystem(g, mode),
		stats: make([]NodeStats, g.Nodes()),
	}

	home := func(block uint64) addr.Node {
		if mode == vm.VirtualOnly || mode == vm.Colored {
			return g.HomeNode(addr.Virtual(block))
		}
		return g.HomeNodeOfFrame(g.FrameOf(addr.Physical(block)))
	}
	prot, err := coherence.New(g, cfg.Timing, home, m, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Ablation.NoMasterRelocation {
		prot.DisableMasterRelocation()
	}
	if cfg.Ablation.InfinitePEBandwidth {
		prot.DisablePEQueueing()
	}
	if cfg.Ablation.SharedNetworkChannel {
		prot.Fabric().UseSharedChannel()
	}
	m.prot = prot

	for i := 0; i < g.Nodes(); i++ {
		m.flcs = append(m.flcs, cache.New(cfg.FLC))
		m.slcs = append(m.slcs, cache.New(cfg.SLC))
	}

	if cfg.Scheme == config.VCOMA {
		for i := 0; i < g.Nodes(); i++ {
			eng, err := core.NewHomeEngine(addr.Node(i), cfg, m.sys, cfg.TLBEntries, cfg.TLBOrg)
			if err != nil {
				return nil, err
			}
			m.engines = append(m.engines, eng)
		}
	} else {
		for i := 0; i < g.Nodes(); i++ {
			buf, err := tlb.New(cfg.TLBEntries, cfg.TLBOrg, 0, cfg.Seed^uint64(i)<<24^0x71B)
			if err != nil {
				return nil, err
			}
			m.tlbs = append(m.tlbs, buf)
		}
	}
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() config.Config { return m.cfg }

// Geometry returns the machine's geometry.
func (m *Machine) Geometry() addr.Geometry { return m.g }

// VM returns the virtual-memory system.
func (m *Machine) VM() *vm.System { return m.sys }

// Protocol returns the coherence protocol instance.
func (m *Machine) Protocol() *coherence.Protocol { return m.prot }

// FLC and SLC return node n's caches (tests, reports).
func (m *Machine) FLC(n addr.Node) *cache.Cache { return m.flcs[n] }

// SLC returns node n's second-level cache.
func (m *Machine) SLC(n addr.Node) *cache.Cache { return m.slcs[n] }

// Engine returns node n's V-COMA home engine, or nil.
func (m *Machine) Engine(n addr.Node) *core.HomeEngine {
	if m.engines == nil {
		return nil
	}
	return m.engines[n]
}

// TLB returns node n's timed TLB, or nil for V-COMA.
func (m *Machine) TLB(n addr.Node) tlb.Buffer {
	if m.tlbs == nil {
		return nil
	}
	return m.tlbs[n]
}

// NodeStats returns a copy of node n's counters.
func (m *Machine) NodeStats(n addr.Node) NodeStats { return m.stats[n] }

// TotalStats sums counters across nodes.
func (m *Machine) TotalStats() NodeStats {
	var t NodeStats
	for i := range m.stats {
		s := &m.stats[i]
		t.Refs += s.Refs
		t.Reads += s.Reads
		t.Writes += s.Writes
		t.FLCHits += s.FLCHits
		t.SLCHits += s.SLCHits
		t.LocalAM += s.LocalAM
		t.Remote += s.Remote
		t.StallLocal += s.StallLocal
		t.StallRemote += s.StallRemote
		t.TransCycles += s.TransCycles
		t.TLBAccesses += s.TLBAccesses
		t.TLBMisses += s.TLBMisses
		t.SLCWritebacks += s.SLCWritebacks
	}
	return t
}

// AttachObserverBanks installs multi-configuration translation-buffer
// observers on the scheme's tap points: one bank per node (per home node
// for V-COMA). For L2-TLB a second bank per node observes the stream
// without writebacks (the paper's L2-TLB/no_wback). Call before running.
func (m *Machine) AttachObserverBanks(specs []tlb.Spec) error {
	shift := uint(0)
	if m.cfg.Scheme == config.VCOMA {
		shift = m.g.NodeBits
	}
	for i := 0; i < m.g.Nodes(); i++ {
		b, err := tlb.NewBank(specs, shift, ObserverBankSeed(m.cfg.Seed, i))
		if err != nil {
			return err
		}
		m.banks = append(m.banks, b)
	}
	if m.cfg.Scheme == config.L2TLB {
		for i := 0; i < m.g.Nodes(); i++ {
			b, err := tlb.NewBank(specs, 0, m.cfg.Seed^uint64(i)<<16^0x209B)
			if err != nil {
				return err
			}
			m.nowbBanks = append(m.nowbBanks, b)
		}
	}
	return nil
}

// ObserverBankSeed is the seed of node n's primary observer bank on a
// machine seeded with seed. A pass that feeds a bank without a machine uses
// it to reproduce the machine's bank exactly.
func ObserverBankSeed(seed uint64, n int) uint64 { return seed ^ uint64(n)<<16 ^ 0xBA6 }

// AttachObserver wires an observability sink through every layer of the
// machine: per-node probes over the node counters, cache and translation
// buffer metrics, protocol and fabric series, access-latency histograms,
// and the event tracer for the protocol and home engines. All probes are
// pull-style reads of existing counters, so the simulated timing is
// untouched. Call before running; a nil or disabled observer is a no-op.
func (m *Machine) AttachObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	r := o.Reg()
	m.tracer = o.Tr()
	if r != nil {
		for i := 0; i < m.g.Nodes(); i++ {
			i := i
			pre := fmt.Sprintf("node%02d", i)
			st := &m.stats[i]
			r.Probe(pre+"/refs", func() float64 { return float64(st.Refs) })
			r.Probe(pre+"/remote", func() float64 { return float64(st.Remote) })
			r.Probe(pre+"/tlb.accesses", func() float64 { return float64(st.TLBAccesses) })
			r.Probe(pre+"/tlb.misses", func() float64 { return float64(st.TLBMisses) })
			r.Probe(pre+"/slc.writebacks", func() float64 { return float64(st.SLCWritebacks) })
			r.Probe(pre+"/trans.cycles", func() float64 { return float64(st.TransCycles) })
			r.Probe(pre+"/am.occupancy", func() float64 { return m.prot.AM(addr.Node(i)).Occupancy() })
			m.flcs[i].RegisterMetrics(r, pre+"/flc")
			m.slcs[i].RegisterMetrics(r, pre+"/slc")
			if m.tlbs != nil {
				tlb.RegisterBuffer(r, pre+"/tlb.hw", m.tlbs[i])
			}
			if m.engines != nil {
				m.engines[i].RegisterMetrics(r, pre+"/dlb")
				tlb.RegisterBuffer(r, pre+"/dlb.hw", m.engines[i].DLB())
			}
		}
		m.prot.RegisterMetrics(r)
		m.latAccess = r.Histogram("lat/access")
		m.latRemote = r.Histogram("lat/remote")
	}
	m.prot.SetTracer(m.tracer)
	for _, e := range m.engines {
		e.SetTracer(m.tracer)
	}
}

// ObserverBanks returns the per-node primary banks (nil if not attached).
func (m *Machine) ObserverBanks() []*tlb.Bank { return m.banks }

// NoWritebackBanks returns the per-node L2/no_wback banks (nil unless the
// scheme is L2-TLB and banks are attached).
func (m *Machine) NoWritebackBanks() []*tlb.Bank { return m.nowbBanks }

// Preload installs every page and AM block of the layout's regions,
// modelling the paper's preloaded data sets: each page's master blocks are
// placed at the node its global-set slot names (spreading frames across the
// machine), with the directory entry at the block's home node. Must run
// before the first Access.
//
// A region's preloaded blocks are the ceil(Bytes/blocksize) consecutive
// blocks starting at the one holding its base. Translation and placement
// are per page, so each is resolved once per page rather than per block.
func (m *Machine) Preload(l *vm.Layout) {
	l.PreloadAll(m.sys)
	bs := m.g.AMBlockSize()
	for _, r := range l.Regions() {
		va := m.g.Block(r.Base)
		end := va + addr.Virtual((r.Bytes+bs-1)/bs*bs)
		for va < end {
			pageEnd := min(m.g.PageBase(va)+addr.Virtual(m.g.PageSize()), end)
			block, at := m.protoAddr(va), m.sys.PlacementNode(va)
			for ; va < pageEnd; va += addr.Virtual(bs) {
				m.prot.Preload(block, at)
				block += bs
			}
		}
	}
}

// protoAddr maps a virtual address into the protocol's address space.
func (m *Machine) protoAddr(va addr.Virtual) uint64 {
	if m.cfg.Scheme <= config.L2TLB {
		return uint64(m.sys.Translate(va))
	}
	return uint64(va)
}

// resolve translates va once, returning its physical address (zero in the
// virtually-addressed schemes) and the protocol address of its AM block. A
// page maps whole blocks, so the physically-addressed schemes take the
// block from pa rather than translating the block address again.
func (m *Machine) resolve(va addr.Virtual) (pa, protoBlock uint64) {
	if m.cfg.Scheme <= config.L2TLB {
		pa = uint64(m.sys.Translate(va))
		return pa, pa &^ (m.g.AMBlockSize() - 1)
	}
	return 0, uint64(m.g.Block(va))
}

// ProtoBlock returns the protocol address of the AM block containing va,
// mapping the page on first touch. Verification layers use this to relate
// virtual blocks to protocol/directory state.
func (m *Machine) ProtoBlock(va addr.Virtual) uint64 {
	return m.protoAddr(m.g.Block(va))
}

// VirtualOfProtoBlock maps a protocol block address back to the virtual
// block it caches — the reverse of ProtoBlock. Identity in the virtually-
// addressed schemes (L3-TLB, V-COMA); a backpointer lookup otherwise. The
// block's page must be mapped.
func (m *Machine) VirtualOfProtoBlock(block uint64) addr.Virtual {
	if m.cfg.Scheme <= config.L2TLB {
		return m.sys.ReverseTranslate(addr.Physical(block))
	}
	return addr.Virtual(block)
}

// tlbAccess charges a translation request at node n for page p at simulated
// time now, feeding the observer banks and the timed TLB, and returns the
// penalty cycles. writeback marks SLC-writeback translations (L2-TLB),
// which the no_wback observer skips and which the timed TLB skips under
// NoWritebackTLB.
func (m *Machine) tlbAccess(now uint64, n addr.Node, p addr.PageNum, writeback bool) uint64 {
	if m.banks != nil {
		m.banks[n].Access(p)
	}
	if !writeback && m.nowbBanks != nil {
		m.nowbBanks[n].Access(p)
	}
	if writeback && m.cfg.NoWritebackTLB {
		return 0
	}
	if m.tlbs == nil {
		return 0
	}
	st := &m.stats[n]
	st.TLBAccesses++
	if m.tlbs[n].Access(p) {
		return 0
	}
	st.TLBMisses++
	if m.tracer.Enabled("trans") {
		m.tracer.Instant("trans", "tlb-miss", int(n), 0, now)
	}
	return m.cfg.Timing.TLBMiss
}

// --- coherence.Hooks ---

// DirLookup implements coherence.Hooks: V-COMA's home-node translation.
func (m *Machine) DirLookup(now uint64, home addr.Node, block uint64, critical bool) uint64 {
	if m.cfg.Scheme != config.VCOMA {
		return 0
	}
	va := addr.Virtual(block)
	if m.banks != nil {
		m.banks[home].Access(m.g.Page(va))
	}
	_, penalty := m.engines[home].TranslateAt(now, va, critical)
	return penalty
}

// BackInvalidate implements coherence.Hooks: when node loses an AM block,
// the caches above it are invalidated to preserve inclusion, converting the
// protocol address into each cache's address space (backpointers, §2.2.2).
func (m *Machine) BackInvalidate(node addr.Node, block uint64) {
	bs := m.g.AMBlockSize()
	var flcA, slcA uint64
	switch m.cfg.Scheme {
	case config.L0TLB:
		flcA, slcA = block, block
	case config.L1TLB:
		va := uint64(m.sys.ReverseTranslate(addr.Physical(block)))
		flcA, slcA = va, block
	case config.L2TLB:
		va := uint64(m.sys.ReverseTranslate(addr.Physical(block)))
		flcA, slcA = va, va
	default: // L3, V-COMA: everything virtual
		flcA, slcA = block, block
	}
	m.slcs[node].InvalidateRange(slcA, bs)
	m.flcs[node].InvalidateRange(flcA, bs)
}

// ReplacementTranslate implements coherence.Hooks: in L3-TLB the coherence
// protocol runs on physical addresses, so a node evicting a master copy of
// a virtually-tagged AM block translates its address to send the
// replacement; these TLB accesses are part of L3's translation stream.
func (m *Machine) ReplacementTranslate(now uint64, node addr.Node, block uint64) uint64 {
	if m.cfg.Scheme != config.L3TLB {
		return 0
	}
	return m.tlbAccess(now, node, m.g.Page(addr.Virtual(block)), false)
}

// --- the access path ---

// Access routes one processor reference through node n's hierarchy at time
// now, returning its cost. Addresses are virtual; write selects a store.
func (m *Machine) Access(now uint64, n addr.Node, va addr.Virtual, write bool) AccessResult {
	st := &m.stats[n]
	st.Refs++
	if write {
		st.Writes++
	} else {
		st.Reads++
	}

	g := m.g
	scheme := m.cfg.Scheme
	var trans uint64

	// L0: every reference is translated up front.
	if scheme == config.L0TLB {
		trans += m.tlbAccess(now, n, g.Page(va), false)
	}

	// Resolve per-level addresses.
	pa, protoBlock := m.resolve(va)
	var flcAddr, slcAddr uint64
	switch scheme {
	case config.L0TLB:
		flcAddr, slcAddr = pa, pa
	case config.L1TLB:
		flcAddr, slcAddr = uint64(va), pa
	default:
		flcAddr, slcAddr = uint64(va), uint64(va)
	}

	flc, slc := m.flcs[n], m.slcs[n]

	var res AccessResult
	if !write {
		res = m.read(now, n, va, flcAddr, slcAddr, protoBlock, trans, flc, slc, st)
	} else {
		res = m.write(now, n, va, flcAddr, slcAddr, protoBlock, trans, flc, slc, st)
	}
	if m.checker != nil {
		m.checker.PostAccess(n, va, write, res)
	}
	return res
}

func (m *Machine) read(now uint64, n addr.Node, va addr.Virtual, flcAddr, slcAddr uint64, protoBlock uint64, trans uint64, flc, slc *cache.Cache, st *NodeStats) AccessResult {
	if flc.Read(flcAddr).Hit {
		st.FLCHits++
		st.TransCycles += trans
		m.latAccess.Observe(trans)
		return AccessResult{Cycles: trans, TransCycles: trans, Class: ClassFLCHit}
	}

	// FLC read miss: L1-TLB translates here.
	if m.cfg.Scheme == config.L1TLB {
		trans += m.tlbAccess(now, n, m.g.Page(va), false)
	}

	rs := slc.Read(slcAddr)
	m.handleSLCVictim(now, n, rs, &trans)
	if rs.Hit {
		st.SLCHits++
		st.StallLocal += m.cfg.Timing.SLCHit
		st.TransCycles += trans
		m.latAccess.Observe(m.cfg.Timing.SLCHit + trans)
		return AccessResult{Cycles: m.cfg.Timing.SLCHit + trans, TransCycles: trans, Class: ClassSLCHit}
	}

	// Below the SLC: L2-TLB translates every such transaction; L3-TLB only
	// when the local node cannot satisfy it.
	switch m.cfg.Scheme {
	case config.L2TLB:
		trans += m.tlbAccess(now, n, m.g.Page(va), false)
	case config.L3TLB:
		if m.prot.StateAt(n, protoBlock) == mem.Invalid {
			trans += m.tlbAccess(now, n, m.g.Page(va), false)
		}
	}

	res := m.prot.Access(now+trans, n, protoBlock, false)
	trans += res.TransCycles
	st.TransCycles += trans
	cycles := trans + res.Latency - res.TransCycles
	m.latAccess.Observe(cycles)
	if res.LocalHit {
		st.LocalAM++
		st.StallLocal += res.Latency - res.TransCycles
		return AccessResult{Cycles: cycles, TransCycles: trans, Class: ClassLocalAM}
	}
	st.Remote++
	st.StallRemote += res.Latency - res.TransCycles
	m.latRemote.Observe(cycles)
	return AccessResult{Cycles: cycles, TransCycles: trans, Class: ClassRemote}
}

func (m *Machine) write(now uint64, n addr.Node, va addr.Virtual, flcAddr, slcAddr uint64, protoBlock uint64, trans uint64, flc, slc *cache.Cache, st *NodeStats) AccessResult {
	// Write-through FLC: update on hit, never allocate, always continue.
	flc.Write(flcAddr)

	// L1-TLB: the SLC is physical, so every write-through access
	// translates.
	if m.cfg.Scheme == config.L1TLB {
		trans += m.tlbAccess(now, n, m.g.Page(va), false)
	}

	ws := slc.Write(slcAddr)
	m.handleSLCVictim(now, n, ws, &trans)

	if ws.Hit && m.prot.StateAt(n, protoBlock) == mem.Exclusive {
		// The write completes in the SLC with ownership already held.
		st.SLCHits++
		st.StallLocal += m.cfg.Timing.SLCHit
		st.TransCycles += trans
		m.latAccess.Observe(m.cfg.Timing.SLCHit + trans)
		return AccessResult{Cycles: m.cfg.Timing.SLCHit + trans, TransCycles: trans, Class: ClassSLCHit}
	}

	// Ownership (and possibly data) must come from below the SLC.
	switch m.cfg.Scheme {
	case config.L2TLB:
		trans += m.tlbAccess(now, n, m.g.Page(va), false)
	case config.L3TLB:
		if m.prot.StateAt(n, protoBlock) != mem.Exclusive {
			trans += m.tlbAccess(now, n, m.g.Page(va), false)
		}
	}

	res := m.prot.Access(now+trans, n, protoBlock, true)
	trans += res.TransCycles
	st.TransCycles += trans
	cycles := trans + res.Latency - res.TransCycles
	m.latAccess.Observe(cycles)
	if m.cfg.Scheme == config.VCOMA && !res.LocalHit {
		// The home engine records the page's Modify bit on ownership
		// transfers (§4.3).
		m.engines[m.prot.Home(protoBlock)].SetModified(va)
	}
	if res.LocalHit {
		st.LocalAM++
		st.StallLocal += res.Latency - res.TransCycles
		return AccessResult{Cycles: cycles, TransCycles: trans, Class: ClassLocalAM}
	}
	st.Remote++
	st.StallRemote += res.Latency - res.TransCycles
	m.latRemote.Observe(cycles)
	return AccessResult{Cycles: cycles, TransCycles: trans, Class: ClassRemote}
}

// handleSLCVictim resolves an SLC fill's displaced line: the FLC is
// back-invalidated to keep inclusion, and a dirty victim becomes a
// writeback into the attraction memory — which in L2-TLB means a
// translation request for the victim's page (poor locality, the paper's
// write-back effect, §2.2.2/§5.2).
func (m *Machine) handleSLCVictim(now uint64, n addr.Node, r cache.Result, trans *uint64) {
	if !r.Evicted {
		return
	}
	bs := m.cfg.SLC.BlockBytes
	flcA := r.Victim
	if m.cfg.Scheme == config.L1TLB {
		// SLC victims are physical but the FLC is virtual: follow the
		// backpointer.
		flcA = uint64(m.sys.ReverseTranslate(addr.Physical(r.Victim)))
	}
	m.flcs[n].InvalidateRange(flcA, bs)

	if r.VictimDirty {
		m.stats[n].SLCWritebacks++
		if m.cfg.Scheme == config.L2TLB {
			// The victim's address is virtual; writing it back to the
			// physical AM requires translation.
			vpage := m.g.Page(addr.Virtual(r.Victim))
			*trans += m.tlbAccess(now, n, vpage, true)
		}
	}
}

// PressureProfile returns the Figure 11 pressure profile.
func (m *Machine) PressureProfile() []float64 { return m.sys.PressureProfile() }

// CheckInvariants verifies cross-layer consistency: directory/AM agreement
// and cache inclusion (every valid SLC/FLC block backed by a valid local AM
// block). Tests and debug runs call this; it is O(machine size).
func (m *Machine) CheckInvariants() error {
	if err := m.prot.CheckInvariants(); err != nil {
		return err
	}
	return m.checkInclusion()
}

// checkInclusion walks every node's caches top-down: a valid FLC block must
// be covered by a valid SLC block, and a valid SLC block by a readable local
// attraction-memory copy, converting between the per-level address spaces of
// the scheme (see the package table).
func (m *Machine) checkInclusion() error {
	for i := range m.slcs {
		n := addr.Node(i)
		for _, b := range m.slcs[i].ValidBlocks() {
			pb, ok := m.protoOfSLCAddr(b)
			if !ok {
				return fmt.Errorf("machine: node %d SLC holds block %#x of an unmapped page", i, b)
			}
			if m.prot.StateAt(n, pb) == mem.Invalid {
				return fmt.Errorf("machine: node %d SLC block %#x (proto %#x) has no local AM copy (inclusion broken)", i, b, pb)
			}
		}
		for _, b := range m.flcs[i].ValidBlocks() {
			sa, ok := m.slcAddrOfFLCAddr(b)
			if !ok {
				return fmt.Errorf("machine: node %d FLC holds block %#x of an unmapped page", i, b)
			}
			if !m.slcs[i].Contains(sa) {
				return fmt.Errorf("machine: node %d FLC block %#x not covered by its SLC (inclusion broken)", i, b)
			}
		}
	}
	return nil
}

// protoOfSLCAddr converts an SLC-space address to the protocol address
// space. ok is false when the conversion needs a translation and the page
// is not mapped (which inclusion forbids: a cached block's page is always
// resident).
func (m *Machine) protoOfSLCAddr(a uint64) (uint64, bool) {
	if m.cfg.Scheme == config.L2TLB {
		// Virtual SLC above a physical attraction memory.
		p := m.sys.Lookup(addr.Virtual(a))
		if p == nil {
			return 0, false
		}
		return uint64(m.g.PhysAddr(p.Frame, addr.Virtual(a))), true
	}
	// L0/L1: both physical. L3/V-COMA: both virtual.
	return a, true
}

// slcAddrOfFLCAddr converts an FLC-space address to the SLC address space.
func (m *Machine) slcAddrOfFLCAddr(a uint64) (uint64, bool) {
	if m.cfg.Scheme == config.L1TLB {
		// Virtual FLC above a physical SLC.
		p := m.sys.Lookup(addr.Virtual(a))
		if p == nil {
			return 0, false
		}
		return uint64(m.g.PhysAddr(p.Frame, addr.Virtual(a))), true
	}
	return a, true
}
