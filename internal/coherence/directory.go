// Package coherence implements the flat-COMA (COMA-F) write-invalidate
// protocol of the paper (§4.2): per-home directories tracking the master
// copy and copyset of every block, read and write/upgrade transactions, and
// the replacement/injection chain that preserves the last copy of a block
// when a master is evicted.
//
// The protocol operates on "protocol addresses": physical block addresses in
// the physically-addressed schemes (L0/L1/L2-TLB) and virtual block
// addresses in L3-TLB and V-COMA (where page colouring makes the two index
// identically and the home node is the same either way — paper Figure 4).
// A pluggable home function maps a block to its home node.
package coherence

import (
	"fmt"
	"math/bits"

	"vcoma/internal/addr"
	"vcoma/internal/dense"
)

// Entry is one directory entry: the global state of one memory block. It
// is 16 bytes (a test pins the size): a paper-scale directory holds one per
// preloaded block.
type Entry struct {
	// Copyset is the bitmask of nodes holding a copy, including the
	// master. The protocol supports up to 64 nodes.
	Copyset uint64
	// Master is the node holding the master (MasterShared or Exclusive)
	// copy. Meaningless when Copyset is zero.
	Master addr.Node
	// Swapped marks a block whose last copy was pushed out of the machine
	// (injection chain exhausted); the next access refetches it from
	// backing store.
	Swapped bool
}

// Holders returns the number of nodes in the copyset.
func (e *Entry) Holders() int { return bits.OnesCount64(e.Copyset) }

// Holds reports whether node n is in the copyset.
func (e *Entry) Holds(n addr.Node) bool { return e.Copyset&(1<<uint(n)) != 0 }

// Add inserts node n into the copyset.
func (e *Entry) Add(n addr.Node) { e.Copyset |= 1 << uint(n) }

// Remove deletes node n from the copyset.
func (e *Entry) Remove(n addr.Node) { e.Copyset &^= 1 << uint(n) }

// AnyHolderExcept returns some copyset node other than n, or (-1, false).
func (e *Entry) AnyHolderExcept(n addr.Node) (addr.Node, bool) {
	rest := e.Copyset &^ (1 << uint(n))
	if rest == 0 {
		return -1, false
	}
	return addr.Node(bits.TrailingZeros64(rest)), true
}

// Directory is the machine-wide set of directory entries, logically
// partitioned across home nodes by the home function.
//
// Entries are indexed by block number, as a home's directory pages are
// (§4): a dense table, not a hash, so preloading a working set and every
// home-side lookup cost an index computation. *Entry pointers stay stable
// for the life of the directory.
type Directory struct {
	entries   dense.Table[Entry]
	blockBits uint
}

// NewDirectory returns an empty directory over blocks of 2^blockBits bytes.
func NewDirectory(blockBits uint) *Directory {
	return &Directory{blockBits: blockBits}
}

// Lookup returns the entry for block, or nil.
func (d *Directory) Lookup(block uint64) *Entry { return d.entries.Lookup(block >> d.blockBits) }

// Ensure returns the entry for block, creating an empty one if needed.
func (d *Directory) Ensure(block uint64) *Entry { return d.entries.Ensure(block >> d.blockBits) }

// Remove deletes block's entry, if any (address-mapping change: the
// directory page is reclaimed). The entry is zeroed in place.
func (d *Directory) Remove(block uint64) { d.entries.Remove(block >> d.blockBits) }

// Len returns the number of entries.
func (d *Directory) Len() int { return d.entries.Len() }

// CheckInvariants validates directory-wide consistency against the per-node
// attraction memories via the probe function (which must return each node's
// view of the block without side effects), visiting blocks in ascending
// order so the first violation reported is deterministic. Used by tests and
// debug runs.
func (d *Directory) CheckInvariants(probe func(n addr.Node, block uint64) ProbeState, nodes int) error {
	var err error
	d.entries.Each(func(i uint64, _ *Entry) {
		if err == nil {
			err = d.CheckBlock(i<<d.blockBits, probe, nodes)
		}
	})
	return err
}

// CheckBlock validates one block's directory entry against the per-node
// attraction memories: exactly one master, copyset/presence agreement,
// Exclusive implies sole holder, and an empty copyset only for swapped
// blocks. A block with no entry must have no resident copies. Used by the
// runtime invariant checker (internal/check) after every touched reference.
func (d *Directory) CheckBlock(block uint64, probe func(n addr.Node, block uint64) ProbeState, nodes int) error {
	e := d.Lookup(block)
	if e == nil {
		for n := 0; n < nodes; n++ {
			if probe(addr.Node(n), block).Present {
				return fmt.Errorf("coherence: block %#x has no directory entry but node %d holds a copy", block, n)
			}
		}
		return nil
	}
	if e.Copyset == 0 {
		if !e.Swapped {
			return fmt.Errorf("coherence: block %#x has empty copyset but is not swapped (last copy destroyed)", block)
		}
		for n := 0; n < nodes; n++ {
			if probe(addr.Node(n), block).Present {
				return fmt.Errorf("coherence: block %#x swapped but node %d holds a copy", block, n)
			}
		}
		return nil
	}
	if e.Swapped {
		return fmt.Errorf("coherence: block %#x swapped with non-empty copyset %#x", block, e.Copyset)
	}
	if !e.Holds(e.Master) {
		return fmt.Errorf("coherence: block %#x master %d not in copyset %#x", block, e.Master, e.Copyset)
	}
	masters := 0
	for n := 0; n < nodes; n++ {
		st := probe(addr.Node(n), block)
		inSet := e.Holds(addr.Node(n))
		if st.Present != inSet {
			return fmt.Errorf("coherence: block %#x node %d presence %v disagrees with copyset %#x",
				block, n, st.Present, e.Copyset)
		}
		if st.Master {
			masters++
			if addr.Node(n) != e.Master {
				return fmt.Errorf("coherence: block %#x node %d is master but directory says %d",
					block, n, e.Master)
			}
		}
		if st.Exclusive && e.Holders() != 1 {
			return fmt.Errorf("coherence: block %#x exclusive at node %d with %d holders",
				block, n, e.Holders())
		}
	}
	if masters != 1 {
		return fmt.Errorf("coherence: block %#x has %d masters", block, masters)
	}
	return nil
}

// ProbeState is a node's view of a block for invariant checking.
type ProbeState struct {
	Present   bool
	Master    bool // MasterShared or Exclusive
	Exclusive bool
}
