package coherence

import (
	"fmt"
	"math/bits"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/mem"
	"vcoma/internal/network"
	"vcoma/internal/obs"
	"vcoma/internal/prng"
)

// Hooks let the machine layer observe and extend protocol actions without
// the protocol knowing about TLBs, DLBs or processor caches.
type Hooks interface {
	// DirLookup fires on every directory operation at a home node's
	// protocol engine, at simulated time now. The returned cycles extend
	// the engine's service time — V-COMA returns its DLB miss penalty
	// here, other schemes 0. onCriticalPath is true when a requesting
	// processor is stalled on this operation (false for replacement hints
	// and injections).
	DirLookup(now uint64, home addr.Node, block uint64, onCriticalPath bool) uint64
	// BackInvalidate fires when node loses an attraction-memory block
	// (invalidation or replacement); the machine must invalidate the
	// processor caches above to maintain inclusion.
	BackInvalidate(node addr.Node, block uint64)
	// ReplacementTranslate fires at simulated time now when node must
	// translate a victim block's address to send replacement traffic
	// (L3-TLB counts these TLB accesses; other schemes return 0). Off the
	// critical path.
	ReplacementTranslate(now uint64, node addr.Node, block uint64) uint64
}

// NopHooks is a Hooks implementation that does nothing; useful in tests.
type NopHooks struct{}

// DirLookup implements Hooks.
func (NopHooks) DirLookup(uint64, addr.Node, uint64, bool) uint64 { return 0 }

// BackInvalidate implements Hooks.
func (NopHooks) BackInvalidate(addr.Node, uint64) {}

// ReplacementTranslate implements Hooks.
func (NopHooks) ReplacementTranslate(uint64, addr.Node, uint64) uint64 { return 0 }

// Stats counts protocol activity machine-wide.
type Stats struct {
	LocalReadHits  uint64 // reads satisfied by the local attraction memory
	LocalWriteHits uint64 // writes finding local Exclusive state
	RemoteReads    uint64 // read transactions through a home directory
	Upgrades       uint64 // writes that only needed ownership, no data
	WriteFetches   uint64 // writes that fetched the block from the master
	Invalidations  uint64 // copies invalidated by write transactions
	SharedDrops    uint64 // silent Shared replacements (with home hint)
	Relocations    uint64 // master evictions resolved by promoting a Shared copy
	Injections     uint64 // master evictions that moved data to another node
	InjectionHops  uint64 // forwarding hops taken by injections (0 = accepted at home)
	Swaps          uint64 // injections that fell off the chain (block left machine)
	SwapRefetches  uint64 // accesses that brought a swapped block back
	ColdCreates    uint64 // blocks created on first touch without preload
}

// Result reports one protocol access back to the machine layer.
type Result struct {
	// LocalHit is true when the access completed in the local node's
	// attraction memory.
	LocalHit bool
	// Latency is the total protocol latency in processor cycles,
	// including network, queueing at protocol engines, and any
	// critical-path translation penalty returned by hooks.
	Latency uint64
	// TransCycles is the portion of Latency contributed by hook-returned
	// translation penalties (V-COMA's DLB misses on this access's path).
	TransCycles uint64
}

// Protocol executes COMA-F transactions atomically at access time. It owns
// the per-node attraction memories, the directory and the fabric.
type Protocol struct {
	g      addr.Geometry
	timing config.Timing
	home   func(block uint64) addr.Node
	ams    []*mem.AM
	dir    *Directory
	fabric *network.Fabric
	hooks  Hooks
	rng    *prng.Source
	peBusy []uint64
	stats  Stats
	tracer *obs.Tracer
	sink   Sink

	noRelocation bool
	infinitePE   bool
	bug          TestBug
}

// DisableMasterRelocation makes every master eviction inject data instead
// of promoting an existing Shared copy (ablation).
func (p *Protocol) DisableMasterRelocation() { p.noRelocation = true }

// DisablePEQueueing removes home-engine occupancy (ablation: infinite
// protocol-engine bandwidth).
func (p *Protocol) DisablePEQueueing() { p.infinitePE = true }

// New builds a protocol instance. home maps a protocol block address to its
// home node; hooks may be nil for no-op hooks.
func New(g addr.Geometry, timing config.Timing, home func(block uint64) addr.Node, hooks Hooks, seed uint64) (*Protocol, error) {
	if g.Nodes() > 64 {
		return nil, fmt.Errorf("coherence: copyset bitmask supports at most 64 nodes, got %d", g.Nodes())
	}
	if home == nil {
		return nil, fmt.Errorf("coherence: nil home function")
	}
	if hooks == nil {
		hooks = NopHooks{}
	}
	p := &Protocol{
		g:      g,
		timing: timing,
		home:   home,
		dir:    NewDirectory(g.AMBlockBits),
		fabric: network.New(g.Nodes(), timing.NetRequest, timing.NetBlock),
		hooks:  hooks,
		rng:    prng.New(seed),
		peBusy: make([]uint64, g.Nodes()),
	}
	for i := 0; i < g.Nodes(); i++ {
		p.ams = append(p.ams, mem.New(g))
	}
	return p, nil
}

// AM returns node n's attraction memory (tests and machine wiring).
func (p *Protocol) AM(n addr.Node) *mem.AM { return p.ams[n] }

// Directory returns the machine-wide directory.
func (p *Protocol) Directory() *Directory { return p.dir }

// Fabric returns the interconnect model.
func (p *Protocol) Fabric() *network.Fabric { return p.fabric }

// Stats returns the protocol counters.
func (p *Protocol) Stats() Stats { return p.stats }

// SetTracer attaches an event tracer. Coherence transactions become
// "coh"-category complete events on the requester's track and replacement
// actions become "repl" instants on the evicting node's track. A nil
// tracer (the default) keeps the protocol event-free.
func (p *Protocol) SetTracer(tr *obs.Tracer) { p.tracer = tr }

// RegisterMetrics registers machine-wide protocol counters ("coh/" series)
// with an observability registry, alongside the fabric's own series.
func (p *Protocol) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Probe("coh/localReadHits", func() float64 { return float64(p.stats.LocalReadHits) })
	r.Probe("coh/localWriteHits", func() float64 { return float64(p.stats.LocalWriteHits) })
	r.Probe("coh/remoteReads", func() float64 { return float64(p.stats.RemoteReads) })
	r.Probe("coh/upgrades", func() float64 { return float64(p.stats.Upgrades) })
	r.Probe("coh/writeFetches", func() float64 { return float64(p.stats.WriteFetches) })
	r.Probe("coh/invalidations", func() float64 { return float64(p.stats.Invalidations) })
	r.Probe("coh/sharedDrops", func() float64 { return float64(p.stats.SharedDrops) })
	r.Probe("coh/relocations", func() float64 { return float64(p.stats.Relocations) })
	r.Probe("coh/injections", func() float64 { return float64(p.stats.Injections) })
	r.Probe("coh/swaps", func() float64 { return float64(p.stats.Swaps) })
	r.Probe("coh/swapRefetches", func() float64 { return float64(p.stats.SwapRefetches) })
	p.fabric.RegisterMetrics(r)
}

// Home returns the home node of a protocol block address.
func (p *Protocol) Home(block uint64) addr.Node { return p.home(p.align(block)) }

func (p *Protocol) align(a uint64) uint64 { return a &^ (p.g.AMBlockSize() - 1) }

func (p *Protocol) bit(n addr.Node) uint64 { return 1 << uint(n) }

// Preload installs block's master copy at node at (its page's initial
// placement) with a directory entry at the home, modelling the data
// placement before the run (§5.1: data sets are preloaded, no paging
// simulated). Evictions during preload go through the normal replacement
// path, though a placement respecting global-set capacity never evicts.
//
// The block's set is scanned once: the scan that finds the block absent
// also yields the free way to fill. Only a full set takes the general
// install path.
func (p *Protocol) Preload(block uint64, at addr.Node) {
	b := p.align(block)
	am := p.ams[at]
	slot, present := am.Slot(b)
	if present {
		return
	}
	e := p.dir.Ensure(b)
	if e.Copyset != 0 {
		return // already resident somewhere
	}
	e.Master = at
	e.Copyset = p.bit(at)
	e.Swapped = false
	if slot < 0 {
		p.installAt(0, at, b, mem.MasterShared, SrcPreload, at)
		return
	}
	am.Fill(slot, b, mem.MasterShared)
	if p.sink != nil {
		p.sink.CopyInstalled(at, b, mem.MasterShared, SrcPreload, at)
	}
}

// StateAt returns node n's attraction-memory state for block, without side
// effects. The machine's write fast path uses this to test for Exclusive.
func (p *Protocol) StateAt(n addr.Node, block uint64) mem.State {
	return p.ams[n].Probe(p.align(block))
}

// peService runs one directory operation at home h starting no earlier than
// t, returning (completion time, hook-extra cycles). Arriving operations
// queue behind the engine's busy time.
func (p *Protocol) peService(t uint64, h addr.Node, block uint64, critical bool) (uint64, uint64) {
	start := t
	if !p.infinitePE && p.peBusy[h] > start {
		start = p.peBusy[h]
	}
	extra := p.hooks.DirLookup(start, h, block, critical)
	done := start + p.timing.DirLookup + extra
	if !p.infinitePE {
		p.peBusy[h] = done
	}
	return done, extra
}

// Access performs a read (write=false) or write (write=true) of block by
// node n starting at time now, executing the full COMA-F transaction and
// returning its latency breakdown.
func (p *Protocol) Access(now uint64, n addr.Node, block uint64, write bool) Result {
	b := p.align(block)
	st := p.ams[n].Lookup(b)

	// Local fast paths.
	if !write && st.Readable() {
		p.stats.LocalReadHits++
		return Result{LocalHit: true, Latency: p.timing.AMHit}
	}
	if write && st == mem.Exclusive {
		p.stats.LocalWriteHits++
		return Result{LocalHit: true, Latency: p.timing.AMHit}
	}

	// Miss: the local probe costs one AM access, then the transaction.
	t := now + p.timing.AMHit
	var trans uint64

	h := p.home(b)
	t = p.fabric.Send(t, n, h, network.Request)
	var extra uint64
	t, extra = p.peService(t, h, b, true)
	trans += extra

	e := p.dir.Lookup(b)
	if e == nil || (e.Copyset == 0 && !e.Swapped) {
		// First touch without preload: create the block at the requester.
		p.stats.ColdCreates++
		e = p.dir.Ensure(b)
		return p.refetch(now, t, trans, n, e, b, write, false)
	}
	if e.Swapped {
		p.stats.SwapRefetches++
		return p.refetch(now, t, trans, n, e, b, write, true)
	}

	if !write {
		return p.remoteRead(now, t, trans, n, h, e, b, st)
	}
	return p.remoteWrite(now, t, trans, n, h, e, b, st)
}

// refetch services an access to a block with no resident copy (cold or
// swapped): the block materializes at the requester from backing store.
func (p *Protocol) refetch(now, t, trans uint64, n addr.Node, e *Entry, b uint64, write, swapped bool) Result {
	if swapped {
		t += p.timing.SwapFetch
	}
	newState := mem.MasterShared
	if write {
		newState = mem.Exclusive
	}
	e.Master = n
	e.Copyset = p.bit(n)
	e.Swapped = false
	p.installAt(t, n, b, newState, SrcBacking, n)
	if p.tracer.Enabled("coh") {
		name := "cold-fetch"
		if swapped {
			name = "swap-refetch"
		}
		p.tracer.Complete("coh", name, int(n), 0, now, t-now)
	}
	return Result{Latency: t - now, TransCycles: trans}
}

func (p *Protocol) remoteRead(now, t, trans uint64, n, h addr.Node, e *Entry, b uint64, prior mem.State) Result {
	if prior != mem.Invalid {
		panic(fmt.Sprintf("coherence: remote read of block %#x with local state %v", b, prior))
	}
	if e.Master == n {
		panic(fmt.Sprintf("coherence: node %d missed on block %#x it masters", n, b))
	}
	p.stats.RemoteReads++
	m := e.Master
	// Forward to the master, read its attraction memory, send the block
	// straight to the requester.
	t = p.fabric.Send(t, h, m, network.Request)
	t += p.timing.AMHit
	if p.ams[m].Probe(b) == mem.Exclusive {
		p.ams[m].SetState(b, mem.MasterShared)
		if p.sink != nil {
			p.sink.StateChanged(m, b, mem.MasterShared)
		}
	}
	t = p.fabric.Send(t, m, n, network.BlockTransfer)
	e.Add(n)
	p.installAt(t, n, b, mem.Shared, SrcMaster, m)
	if p.tracer.Enabled("coh") {
		p.tracer.Complete("coh", "remote-read", int(n), 0, now, t-now)
	}
	return Result{Latency: t - now, TransCycles: trans}
}

func (p *Protocol) remoteWrite(now, t, trans uint64, n, h addr.Node, e *Entry, b uint64, prior mem.State) Result {
	hasData := prior == mem.Shared || prior == mem.MasterShared
	oldMaster := e.Master

	// Data path: fetch from the master if the requester has no copy.
	tData := t
	src, from := SrcLocal, n
	if !hasData {
		p.stats.WriteFetches++
		m := oldMaster
		if m == n {
			panic(fmt.Sprintf("coherence: node %d write-misses block %#x it masters", n, b))
		}
		src, from = SrcMaster, m
		tData = p.fabric.Send(t, h, m, network.Request)
		tData += p.timing.AMHit
		tData = p.fabric.Send(tData, m, n, network.BlockTransfer)
	} else {
		p.stats.Upgrades++
	}

	// Invalidation path: all holders except the requester, in parallel;
	// each sends an acknowledgement back to the home. Iterating the set
	// bits of the copyset directly visits holders in the same ascending
	// node order as a full scan without touching the non-holders.
	tInval := t
	skippedOne := false
	for rest := e.Copyset &^ p.bit(n); rest != 0; rest &= rest - 1 {
		o := addr.Node(bits.TrailingZeros64(rest))
		if p.bug == BugSkipInvalidate && !skippedOne {
			// Injected test bug: this holder keeps a stale readable copy.
			skippedOne = true
			continue
		}
		was := p.ams[o].Invalidate(b)
		if was == mem.Invalid {
			panic(fmt.Sprintf("coherence: directory lists node %d for block %#x but AM has no copy", o, b))
		}
		p.hooks.BackInvalidate(o, b)
		if p.sink != nil {
			p.sink.CopyRemoved(o, b, RemInvalidate)
		}
		p.stats.Invalidations++
		ta := p.fabric.Send(t, h, o, network.Request)
		ta = p.fabric.Send(ta, o, h, network.Request)
		if ta > tInval {
			tInval = ta
		}
	}

	// The write completes when both data and all acks are in, plus the
	// ownership grant from home to requester.
	tDone := tData
	if tInval > tDone {
		tDone = tInval
	}
	tDone = p.fabric.Send(tDone, h, n, network.Request)

	e.Master = n
	e.Copyset = p.bit(n)
	p.installAt(tDone, n, b, mem.Exclusive, src, from)
	if p.tracer.Enabled("coh") {
		name := "upgrade"
		if !hasData {
			name = "write-fetch"
		}
		p.tracer.Complete("coh", name, int(n), 0, now, tDone-now)
	}
	return Result{Latency: tDone - now, TransCycles: trans}
}

// installAt places block b at node n with the given state and resolves any
// displaced victim: Shared victims are dropped with a replacement hint,
// master victims are relocated or injected (§4.2). Replacement traffic is
// off the requester's critical path; it only occupies the network and the
// protocol engines.
func (p *Protocol) installAt(now uint64, n addr.Node, b uint64, s mem.State, src DataSource, from addr.Node) {
	v, evicted := p.ams[n].Install(b, s)
	if p.sink != nil {
		p.sink.CopyInstalled(n, b, s, src, from)
	}
	if !evicted {
		return
	}
	p.hooks.BackInvalidate(n, v.Block)
	if v.State.IsMaster() {
		if p.sink != nil {
			p.sink.CopyRemoved(n, v.Block, RemMasterEvict)
		}
		p.replaceMaster(now, n, v)
	} else {
		if p.sink != nil {
			p.sink.CopyRemoved(n, v.Block, RemSharedDrop)
		}
		p.dropShared(now, n, v.Block)
	}
}

// dropShared handles replacement of a Shared copy: the copy vanishes and a
// hint message updates the home directory so the copyset stays exact.
func (p *Protocol) dropShared(now uint64, n addr.Node, b uint64) {
	p.stats.SharedDrops++
	e := p.dir.Lookup(b)
	if e == nil || !e.Holds(n) {
		panic(fmt.Sprintf("coherence: shared drop of block %#x not in directory for node %d", b, n))
	}
	e.Remove(n)
	h := p.home(b)
	if p.tracer.Enabled("repl") {
		p.tracer.Instant("repl", "drop-shared", int(n), 0, now)
	}
	t := now + p.hooks.ReplacementTranslate(now, n, b)
	t = p.fabric.Send(t, n, h, network.Request)
	p.peService(t, h, b, false)
}

// replaceMaster handles eviction of a MasterShared or Exclusive copy. If
// another node already holds a Shared copy, mastership relocates to it with
// a directory update; otherwise the data is injected at the home node and
// forwarded along a pseudo-random chain until some node has room (§4.2),
// falling off to backing store if no node accepts.
func (p *Protocol) replaceMaster(now uint64, n addr.Node, v mem.Victim) {
	b := v.Block
	e := p.dir.Lookup(b)
	if e == nil || e.Master != n {
		panic(fmt.Sprintf("coherence: master replacement of block %#x but directory master is not node %d", b, n))
	}
	t := now + p.hooks.ReplacementTranslate(now, n, b)
	h := p.home(b)

	if o, ok := e.AnyHolderExcept(n); ok && !p.noRelocation {
		// Promote an existing Shared copy to master: directory update only.
		p.stats.Relocations++
		if p.tracer.Enabled("repl") {
			p.tracer.Instant("repl", "relocate", int(n), 0, now)
		}
		e.Remove(n)
		e.Master = o
		t = p.fabric.Send(t, n, h, network.Request)
		t, _ = p.peService(t, h, b, false)
		// Notify the promoted node.
		p.fabric.Send(t, h, o, network.Request)
		if p.ams[o].Probe(b) != mem.Shared {
			panic(fmt.Sprintf("coherence: promoting node %d for block %#x but its state is %v", o, b, p.ams[o].Probe(b)))
		}
		p.ams[o].SetState(b, mem.MasterShared)
		if p.sink != nil {
			p.sink.StateChanged(o, b, mem.MasterShared)
		}
		return
	}

	// Sole copy: inject. The data travels to the home first.
	e.Remove(n)
	if p.bug == BugDropLastCopy {
		// Injected test bug: the machine's last copy is silently discarded —
		// no injection, no swap, the directory entry is left inconsistent.
		return
	}
	t = p.fabric.Send(t, n, h, network.BlockTransfer)
	t, _ = p.peService(t, h, b, false)

	cur := h
	hops := uint64(0)
	tries := 0
	for {
		accept := false
		if cur == h {
			// The home accepts only into a spare Invalid slot.
			accept = p.ams[cur].HasFreeWay(b)
		} else if cur != n {
			ok, _ := p.ams[cur].HasDroppableWay(b)
			accept = ok
		}
		if accept {
			p.stats.Injections++
			p.stats.InjectionHops += hops
			if p.tracer.Enabled("repl") {
				p.tracer.Instant("repl", "inject", int(n), 0, now)
			}
			e.Master = cur
			e.Add(cur)
			p.installVictimAt(t, cur, b, n)
			return
		}
		tries++
		if tries > p.g.Nodes() {
			// No slot accepted the injection. If some node still holds a
			// Shared copy (possible only under the no-relocation
			// ablation), mastership must relocate there — dropping the
			// last data is a correctness matter, not a policy one.
			if o, ok := e.AnyHolderExcept(n); ok {
				p.stats.Relocations++
				e.Master = o
				p.fabric.Send(t, p.home(b), o, network.Request)
				if p.ams[o].Probe(b) != mem.Shared {
					panic(fmt.Sprintf("coherence: forced relocation to node %d but its state is %v", o, p.ams[o].Probe(b)))
				}
				p.ams[o].SetState(b, mem.MasterShared)
				if p.sink != nil {
					p.sink.StateChanged(o, b, mem.MasterShared)
				}
				return
			}
			// The block leaves the machine (would be paged out).
			p.stats.Swaps++
			if p.tracer.Enabled("repl") {
				p.tracer.Instant("repl", "swap", int(n), 0, now)
			}
			e.Swapped = true
			if p.sink != nil {
				p.sink.BlockSwapped(b, n)
			}
			return
		}
		var next addr.Node
		if cur == h {
			next = addr.Node(p.rng.Intn(p.g.Nodes()))
		} else {
			next = addr.Node((int(cur) + 1) % p.g.Nodes())
		}
		t = p.fabric.Send(t, cur, next, network.BlockTransfer)
		t, _ = p.peService(t, p.home(b), b, false)
		cur = next
		hops++
	}
}

// installVictimAt installs an injected block at its accepting node as the
// new master; from is the evicting node whose data the injection carries.
// The node was checked to have an Invalid or Shared slot, so the displaced
// way (if any) is a Shared copy, handled as a drop.
func (p *Protocol) installVictimAt(now uint64, n addr.Node, b uint64, from addr.Node) {
	v, evicted := p.ams[n].Install(b, mem.MasterShared)
	if p.sink != nil {
		p.sink.CopyInstalled(n, b, mem.MasterShared, SrcInjection, from)
	}
	if !evicted {
		return
	}
	if v.State.IsMaster() {
		panic(fmt.Sprintf("coherence: injection at node %d displaced master block %#x", n, v.Block))
	}
	p.hooks.BackInvalidate(n, v.Block)
	if p.sink != nil {
		p.sink.CopyRemoved(n, v.Block, RemSharedDrop)
	}
	p.dropShared(now, n, v.Block)
}

// CheckInvariants verifies directory/AM agreement machine-wide.
func (p *Protocol) CheckInvariants() error {
	return p.dir.CheckInvariants(func(n addr.Node, block uint64) ProbeState {
		st := p.ams[n].Probe(block)
		return ProbeState{
			Present:   st != mem.Invalid,
			Master:    st.IsMaster(),
			Exclusive: st == mem.Exclusive,
		}
	}, p.g.Nodes())
}
