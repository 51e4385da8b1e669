// Package check is the simulator's correctness-verification subsystem. The
// paper's whole evaluation rests on one unstated invariant: all five
// translation schemes execute the same architectural computation and differ
// only in timing. This package makes that an executable property, in three
// layers:
//
//  1. a runtime invariant Checker, attached through the protocol's event
//     sink and the machine's access-checker seam, which validates the
//     COMA-F safety properties after every reference and eviction (one
//     master per line, the last copy survives replacement, directory state
//     agrees with the cached copies, cache inclusion) and replays each
//     read/write against a shadow memory to flag loads that return a value
//     sequential consistency forbids;
//  2. a cross-scheme Differential oracle that runs one workload under all
//     five schemes and asserts identical architectural outcomes (values,
//     final memory image, per-processor reference streams);
//  3. a deterministic workload fuzzer (package fuzzgen, the FuzzMachine /
//     FuzzSchemesAgree targets, and the cmd/vcoma-check soak binary) that
//     drives both oracles with seeded random reference patterns.
//
// The simulator carries no data payloads, so the shadow memory models each
// block's value as its write count ("version") and follows the protocol's
// data-provenance events (coherence.Sink) to know which version every copy
// holds. Under a correct protocol every readable copy holds the globally
// latest version; a stale read is a sequential-consistency violation.
//
// Everything here is purely observational: attaching a Checker must not
// change any simulated outcome or cycle count (verified by
// TestCheckerIsObservational), so runner cache sharing and suite
// determinism hold.
package check

import (
	"fmt"
	"strings"

	"vcoma/internal/addr"
	"vcoma/internal/coherence"
	"vcoma/internal/config"
	"vcoma/internal/dense"
	"vcoma/internal/machine"
	"vcoma/internal/mem"
)

// Violation is one detected correctness failure.
type Violation struct {
	// Ref is the number of completed references when the violation was
	// detected (0 = during preload or a standalone scan).
	Ref uint64
	// Msg describes the failure.
	Msg string
}

func (v Violation) String() string { return fmt.Sprintf("after ref %d: %s", v.Ref, v.Msg) }

// Checker is the runtime invariant checker and shadow-memory oracle for one
// machine. Build one with Attach; read failures with Err or Violations.
type Checker struct {
	m    *machine.Machine
	prot *coherence.Protocol
	g    addr.Geometry

	// Shadow memory, keyed by virtual block address (the scheme-neutral
	// name of a datum): global is the latest version of each block (its
	// write count), backing the version in backing store, ver the last
	// version each node's copy carried. Versions persist after a copy is
	// removed — presence is the directory's business, provenance is ours.
	global  map[addr.Virtual]uint64
	backing map[addr.Virtual]uint64
	ver     []map[addr.Virtual]uint64

	// touched lists, in first-touch order, the blocks whose architectural
	// state changed since the last settle point; they are re-validated
	// after each reference. stamp marks a block (indexed by block number)
	// as listed when it holds the current gen, so emptying the set is one
	// increment rather than work proportional to every block ever touched.
	touched []addr.Virtual
	stamp   dense.Table[uint64]
	gen     uint64

	refs       uint64
	refsByProc []uint64

	scanEvery     uint64
	maxViolations int
	invariants    bool
	violations    []Violation

	collectValues bool
	valueDigests  []uint64
}

// Attach builds a Checker for m and wires it into the protocol's event sink
// and the machine's access-checker seam. Call before Preload. scanEvery is
// the full-scan period in references (0 = only at Settle/Final);
// maxViolations caps how many failures are recorded (<=0 means 16).
func Attach(m *machine.Machine, scanEvery uint64, maxViolations int) *Checker {
	if maxViolations <= 0 {
		maxViolations = 16
	}
	g := m.Geometry()
	c := &Checker{
		m:             m,
		prot:          m.Protocol(),
		g:             g,
		global:        make(map[addr.Virtual]uint64),
		backing:       make(map[addr.Virtual]uint64),
		ver:           make([]map[addr.Virtual]uint64, g.Nodes()),
		gen:           1,
		refsByProc:    make([]uint64, g.Nodes()),
		scanEvery:     scanEvery,
		maxViolations: maxViolations,
		invariants:    true,
		valueDigests:  make([]uint64, g.Nodes()),
	}
	for i := range c.valueDigests {
		c.valueDigests[i] = fnvOffset
	}
	for i := range c.ver {
		c.ver[i] = make(map[addr.Virtual]uint64)
	}
	m.Protocol().SetSink(c)
	m.SetAccessChecker(c)
	return c
}

// DisableInvariants turns off invariant validation and SC assertions,
// keeping only the shadow-memory bookkeeping and digests. The differential
// oracle uses this to demonstrate that it catches bugs on its own.
func (c *Checker) DisableInvariants() { c.invariants = false }

// CollectValues turns on the per-reference value digest (see ValueDigest).
func (c *Checker) CollectValues() { c.collectValues = true }

// Refs returns the number of completed references observed.
func (c *Checker) Refs() uint64 { return c.refs }

// RefsByProc returns the per-processor reference counts.
func (c *Checker) RefsByProc() []uint64 {
	out := make([]uint64, len(c.refsByProc))
	copy(out, c.refsByProc)
	return out
}

// ValueDigests returns one FNV-1a digest per processor over its (block,
// version, write) observations in program order. Only meaningful after
// CollectValues. Program order is scheme-invariant, so for race-free
// workloads — where each read's observed version is also
// interleaving-invariant — the digests must agree across schemes. (A global
// execution-order digest would not: schemes interleave processors
// differently, which is the paper's subject, not a bug.)
func (c *Checker) ValueDigests() []uint64 {
	out := make([]uint64, len(c.valueDigests))
	copy(out, c.valueDigests)
	return out
}

// Image returns the final memory image as per-virtual-block write counts —
// an interleaving-invariant fingerprint of the architectural computation.
func (c *Checker) Image() map[addr.Virtual]uint64 {
	out := make(map[addr.Virtual]uint64, len(c.global))
	for k, v := range c.global {
		out[k] = v
	}
	return out
}

// Violations returns the recorded failures.
func (c *Checker) Violations() []Violation { return c.violations }

// Err returns nil if no violation was recorded, else an error summarizing
// the first failures.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d violation(s)", len(c.violations))
	for i, v := range c.violations {
		if i == 4 {
			fmt.Fprintf(&b, "; ...")
			break
		}
		fmt.Fprintf(&b, "; %s", v)
	}
	return fmt.Errorf("%s", b.String())
}

func (c *Checker) fail(format string, args ...any) {
	if !c.invariants || len(c.violations) >= c.maxViolations {
		return
	}
	c.violations = append(c.violations, Violation{Ref: c.refs, Msg: fmt.Sprintf(format, args...)})
}

// virt maps a protocol block address to the virtual block it names.
func (c *Checker) virt(block uint64) addr.Virtual {
	return c.m.VirtualOfProtoBlock(block)
}

func (c *Checker) touch(vb addr.Virtual) {
	if s := c.stamp.Ensure(uint64(vb) >> c.g.AMBlockBits); *s != c.gen {
		*s = c.gen
		c.touched = append(c.touched, vb)
	}
}

// --- coherence.Sink ---

// CopyInstalled implements coherence.Sink: record the version the new copy
// carries, following the data's provenance.
func (c *Checker) CopyInstalled(n addr.Node, block uint64, s mem.State, src coherence.DataSource, from addr.Node) {
	vb := c.virt(block)
	switch src {
	case coherence.SrcPreload, coherence.SrcBacking:
		c.ver[n][vb] = c.backing[vb]
	case coherence.SrcMaster, coherence.SrcInjection:
		c.ver[n][vb] = c.ver[from][vb]
	case coherence.SrcLocal:
		// Ownership upgrade: the node already held the data.
	}
	c.touch(vb)
}

// CopyRemoved implements coherence.Sink.
func (c *Checker) CopyRemoved(n addr.Node, block uint64, reason coherence.RemoveReason) {
	c.touch(c.virt(block))
}

// StateChanged implements coherence.Sink.
func (c *Checker) StateChanged(n addr.Node, block uint64, s mem.State) {
	c.touch(c.virt(block))
}

// BlockSwapped implements coherence.Sink: the last copy's data went back to
// backing store.
func (c *Checker) BlockSwapped(block uint64, from addr.Node) {
	vb := c.virt(block)
	c.backing[vb] = c.ver[from][vb]
	c.touch(vb)
}

// BlockEvicted implements coherence.Sink: a deliberate evict writes the
// master's data back to backing store.
func (c *Checker) BlockEvicted(block uint64, master addr.Node) {
	vb := c.virt(block)
	c.backing[vb] = c.ver[master][vb]
	c.touch(vb)
}

// --- machine.AccessChecker ---

// PostAccess implements machine.AccessChecker: replay the reference against
// the shadow memory, assert the SC and ownership properties, and validate
// every block the transaction touched.
func (c *Checker) PostAccess(n addr.Node, va addr.Virtual, write bool, r machine.AccessResult) {
	c.refs++
	c.refsByProc[n]++
	vb := c.g.Block(va)
	pb := c.m.ProtoBlock(va)

	if write {
		c.global[vb]++
		v := c.global[vb]
		c.ver[n][vb] = v
		if st := c.prot.StateAt(n, pb); st != mem.Exclusive {
			c.fail("write of %#x at node %d completed without Exclusive ownership (AM state %v)", uint64(vb), n, st)
		}
		c.observeValue(n, vb, v, true)
	} else {
		st := c.prot.StateAt(n, pb)
		if !st.Readable() {
			c.fail("read of %#x at node %d completed with no local AM copy", uint64(vb), n)
		}
		v := c.ver[n][vb]
		if want := c.global[vb]; v != want {
			c.fail("SC violation: node %d read block %#x version %d but the latest write is version %d (stale copy)",
				n, uint64(vb), v, want)
		}
		c.observeValue(n, vb, v, false)
	}

	c.checkTLBResidency(n, va, write)
	c.touch(vb)
	c.checkTouched()
	if c.scanEvery > 0 && c.refs%c.scanEvery == 0 {
		c.fullScan()
	}
}

// checkTLBResidency asserts the translation-buffer residency the scheme
// guarantees: L0 translates every reference up front, so the page must be
// TLB-resident afterwards; in L1 the write-through FLC makes every write
// consult the TLB.
func (c *Checker) checkTLBResidency(n addr.Node, va addr.Virtual, write bool) {
	if !c.invariants {
		return
	}
	scheme := c.m.Config().Scheme
	if scheme != config.L0TLB && !(scheme == config.L1TLB && write) {
		return
	}
	buf := c.m.TLB(n)
	if buf == nil {
		return
	}
	if p := c.g.Page(va); !buf.Probe(p) {
		c.fail("%v: node %d accessed page %#x but its TLB does not hold it", scheme, n, uint64(p))
	}
}

// checkTouched validates every block whose state changed since the last
// settle point: directory/AM agreement and set occupancy.
func (c *Checker) checkTouched() {
	if len(c.touched) == 0 {
		return
	}
	if c.invariants {
		nodes := c.g.Nodes()
		assoc := c.g.AMAssoc()
		dir := c.prot.Directory()
		for _, vb := range c.touched {
			pb := c.m.ProtoBlock(vb)
			if err := dir.CheckBlock(pb, c.probe, nodes); err != nil {
				c.fail("%v", err)
			}
			for i := 0; i < nodes; i++ {
				if w := c.prot.AM(addr.Node(i)).OccupiedWays(pb); w > assoc {
					c.fail("node %d AM set of block %#x holds %d ways, capacity %d", i, pb, w, assoc)
				}
			}
		}
	}
	c.touched = c.touched[:0]
	c.gen++
}

func (c *Checker) probe(n addr.Node, block uint64) coherence.ProbeState {
	st := c.prot.AM(n).Probe(block)
	return coherence.ProbeState{
		Present:   st != mem.Invalid,
		Master:    st.IsMaster(),
		Exclusive: st == mem.Exclusive,
	}
}

// fullScan validates the whole machine: directory-wide agreement, cache
// inclusion, and orphan copies (AM blocks absent from their directory
// entry, which per-block checks starting from the directory cannot see).
func (c *Checker) fullScan() {
	if !c.invariants {
		return
	}
	if err := c.m.CheckInvariants(); err != nil {
		c.fail("%v", err)
	}
	dir := c.prot.Directory()
	for i := 0; i < c.g.Nodes(); i++ {
		n := addr.Node(i)
		c.prot.AM(n).ForEachValid(func(block uint64, s mem.State) {
			e := dir.Lookup(block)
			if e == nil || !e.Holds(n) {
				c.fail("node %d holds block %#x (%v) absent from its directory entry (orphan copy)", i, block, s)
			}
		})
	}
}

// Settle validates the whole machine at a known-quiescent point (after
// Preload, before the run).
func (c *Checker) Settle() {
	c.checkTouched()
	c.fullScan()
}

// Final validates the whole machine after the run.
func (c *Checker) Final() {
	c.checkTouched()
	c.fullScan()
}

func (c *Checker) observeValue(n addr.Node, vb addr.Virtual, version uint64, write bool) {
	if !c.collectValues {
		return
	}
	d := c.valueDigests[n]
	d = fnvMix(d, uint64(vb))
	d = fnvMix(d, version)
	if write {
		d = fnvMix(d, 1)
	} else {
		d = fnvMix(d, 0)
	}
	c.valueDigests[n] = d
}
