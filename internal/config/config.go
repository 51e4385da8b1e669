// Package config defines the simulated machine's configuration: the cache
// hierarchy, attraction memory, translation scheme, TLB/DLB organization and
// the timing model. The zero-configuration entry point is Baseline, the
// paper's §5.1 machine.
package config

import (
	"fmt"
	"strings"

	"vcoma/internal/addr"
)

// Scheme selects where dynamic address translation happens — the paper's
// five design options (§3).
type Scheme int

const (
	// L0TLB translates every processor reference before the (physical)
	// first-level cache: the traditional design and the physical-COMA
	// habitual scheme.
	L0TLB Scheme = iota
	// L1TLB places the TLB after a virtual FLC and before a physical SLC.
	// Because the FLC is write-through, every write still consults the TLB.
	L1TLB
	// L2TLB places the TLB after a virtual SLC and before a physical
	// attraction memory. SLC writebacks access the TLB (see NoWritebackTLB).
	L2TLB
	// L3TLB makes the attraction memory virtual too; translation happens on
	// local-node misses and the coherence protocol runs on physical
	// addresses. Pages are colour-allocated (set-associative VP mapping).
	L3TLB
	// VCOMA is the paper's proposal: no per-processor TLB at all. The home
	// node translates virtual addresses to directory addresses through a
	// shared DLB as part of the coherence protocol.
	VCOMA
)

var schemeNames = [...]string{"L0-TLB", "L1-TLB", "L2-TLB", "L3-TLB", "V-COMA"}

func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemeNames) {
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
	return schemeNames[s]
}

// Schemes lists all five options in paper order.
func Schemes() []Scheme { return []Scheme{L0TLB, L1TLB, L2TLB, L3TLB, VCOMA} }

// ParseScheme parses a scheme name, ignoring case and surrounding space:
// l0 or l0-tlb through l3 or l3-tlb, and v, vcoma or v-coma.
func ParseScheme(s string) (Scheme, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "l0", "l0-tlb":
		return L0TLB, nil
	case "l1", "l1-tlb":
		return L1TLB, nil
	case "l2", "l2-tlb":
		return L2TLB, nil
	case "l3", "l3-tlb":
		return L3TLB, nil
	case "v", "vcoma", "v-coma":
		return VCOMA, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (want l0, l1, l2, l3 or vcoma)", s)
	}
}

// TLBOrg is the organization of a TLB or DLB.
type TLBOrg int

const (
	// FullyAssoc is a fully-associative buffer with random replacement
	// (the paper's default, §5.1).
	FullyAssoc TLBOrg = iota
	// DirectMapped is a direct-mapped buffer (the paper's "/DM" variants).
	DirectMapped
	// SetAssoc2 and SetAssoc4 are intermediate organizations used by the
	// associativity ablation (not evaluated in the paper).
	SetAssoc2
	SetAssoc4
)

func (o TLBOrg) String() string {
	switch o {
	case FullyAssoc:
		return "FA"
	case DirectMapped:
		return "DM"
	case SetAssoc2:
		return "2W"
	case SetAssoc4:
		return "4W"
	default:
		return fmt.Sprintf("TLBOrg(%d)", int(o))
	}
}

// ParseOrg parses the organization of the paper's evaluation, ignoring
// case and surrounding space: fa (or empty) for fully associative, dm for
// direct mapped.
func ParseOrg(s string) (TLBOrg, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "fa":
		return FullyAssoc, nil
	case "dm":
		return DirectMapped, nil
	default:
		return 0, fmt.Errorf("unknown TLB organization %q (want fa or dm)", s)
	}
}

// CacheConfig describes one level of the processor cache hierarchy.
type CacheConfig struct {
	SizeBytes  uint64 // total capacity
	BlockBytes uint64 // line size
	Assoc      int    // ways; 1 = direct mapped
	WriteBack  bool   // write-back write-allocate if true, else write-through no-allocate
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return int(c.SizeBytes / c.BlockBytes / uint64(c.Assoc)) }

// Validate checks that the cache parameters are positive powers of two and
// consistent.
func (c CacheConfig) Validate(name string) error {
	switch {
	case c.SizeBytes == 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("config: %s size %d not a positive power of two", name, c.SizeBytes)
	case c.BlockBytes == 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("config: %s block %d not a positive power of two", name, c.BlockBytes)
	case c.Assoc <= 0 || c.Assoc&(c.Assoc-1) != 0:
		return fmt.Errorf("config: %s associativity %d not a positive power of two", name, c.Assoc)
	case c.SizeBytes < c.BlockBytes*uint64(c.Assoc):
		return fmt.Errorf("config: %s smaller than one set (%d < %d*%d)", name, c.SizeBytes, c.BlockBytes, c.Assoc)
	}
	return nil
}

// Timing holds the latency model in processor cycles (paper §5.1).
type Timing struct {
	SLCHit        uint64 // second-level cache hit
	AMHit         uint64 // attraction-memory hit at the local node
	NetRequest    uint64 // 8-byte request message on the crossbar
	NetBlock      uint64 // message carrying one AM block
	TLBMiss       uint64 // TLB miss service time
	DLBMiss       uint64 // DLB miss service time
	DirLookup     uint64 // directory/DLB access at the home node
	SwapFetch     uint64 // refetch of a block whose last copy left the machine
	LockRetryGap  uint64 // back-off between lock acquisition attempts
	BarrierNotify uint64 // cost to signal barrier arrival
}

// Config is the full machine configuration.
type Config struct {
	Geometry addr.Geometry

	FLC CacheConfig
	SLC CacheConfig

	Scheme Scheme

	// TLBEntries is the per-node TLB size (L0..L3) or per-node DLB size
	// (V-COMA).
	TLBEntries int
	// TLBOrg is the TLB/DLB organization.
	TLBOrg TLBOrg
	// NoWritebackTLB models physical pointers stored in the virtual SLC so
	// that writebacks bypass the TLB (the paper's L2-TLB/no_wback variant).
	// Only meaningful for L2TLB.
	NoWritebackTLB bool

	Timing Timing

	// Seed drives all pseudo-random choices (replacement, injection
	// forwarding). Same seed, same run.
	Seed uint64

	// Ablation switches off individual design choices for the ablation
	// studies; all false is the evaluated design.
	Ablation Ablation
}

// Ablation toggles individual simulator design decisions so their
// contribution can be measured (see experiments.AblationVariants).
type Ablation struct {
	// NoMasterRelocation disables promoting an existing Shared copy when
	// a master is evicted: every master eviction injects data instead.
	NoMasterRelocation bool
	// SharedNetworkChannel collapses the request and reply virtual
	// networks into one, making short messages wait behind block
	// transfers.
	SharedNetworkChannel bool
	// InfinitePEBandwidth removes queueing at the home protocol engines.
	InfinitePEBandwidth bool
}

// Baseline returns the paper's §5.1 machine: 32 nodes, 200 MHz processors,
// 16 KB direct-mapped write-through FLC with 32 B blocks, 64 KB 4-way
// write-back SLC with 64 B blocks, 4 MB 4-way attraction memory with 128 B
// blocks, 4 KB pages, and the crossbar/TLB timing constants.
func Baseline() Config {
	return Config{
		Geometry: addr.Geometry{
			NodeBits:    5,  // 32 nodes
			PageBits:    12, // 4 KB pages
			AMBlockBits: 7,  // 128 B AM blocks
			AMSetBits:   13, // 8192 sets -> 4 MB with 4 ways
			AMAssocBits: 2,  // 4-way
		},
		FLC: CacheConfig{SizeBytes: 16 << 10, BlockBytes: 32, Assoc: 1, WriteBack: false},
		SLC: CacheConfig{SizeBytes: 64 << 10, BlockBytes: 64, Assoc: 4, WriteBack: true},

		Scheme:     L0TLB,
		TLBEntries: 8,
		TLBOrg:     FullyAssoc,

		Timing: Timing{
			SLCHit:        6,
			AMHit:         74,
			NetRequest:    16,
			NetBlock:      272,
			TLBMiss:       40,
			DLBMiss:       40,
			DirLookup:     8,
			SwapFetch:     4000,
			LockRetryGap:  40,
			BarrierNotify: 16,
		},
		Seed: 0xC0A1A,
	}
}

// SmallTest returns a scaled-down machine used by unit tests: 4 nodes,
// 256 B pages, tiny caches. All structural invariants still hold, runs are
// fast, and conflict behaviour is easy to trigger.
func SmallTest() Config {
	c := Baseline()
	c.Geometry = addr.Geometry{
		NodeBits:    2, // 4 nodes
		PageBits:    8, // 256 B pages
		AMBlockBits: 5, // 32 B AM blocks
		AMSetBits:   6, // 64 sets -> 4 KB AM per node with 2 ways
		AMAssocBits: 1, // 2-way
	}
	c.FLC = CacheConfig{SizeBytes: 256, BlockBytes: 16, Assoc: 1, WriteBack: false}
	c.SLC = CacheConfig{SizeBytes: 1024, BlockBytes: 32, Assoc: 2, WriteBack: true}
	c.TLBEntries = 4
	return c
}

// MaxTLBEntries bounds TLBEntries at eight times the paper's largest buffer
// (512 entries, Figures 8 and 9). Every node allocates its buffer up front,
// so a size taken from outside the program must not be unbounded.
const MaxTLBEntries = 4096

// Validate checks the whole configuration for consistency.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.FLC.Validate("FLC"); err != nil {
		return err
	}
	if err := c.SLC.Validate("SLC"); err != nil {
		return err
	}
	if c.FLC.BlockBytes > c.SLC.BlockBytes {
		return fmt.Errorf("config: FLC block (%d) larger than SLC block (%d)", c.FLC.BlockBytes, c.SLC.BlockBytes)
	}
	if c.SLC.BlockBytes > c.Geometry.AMBlockSize() {
		return fmt.Errorf("config: SLC block (%d) larger than AM block (%d)", c.SLC.BlockBytes, c.Geometry.AMBlockSize())
	}
	if c.Scheme < L0TLB || c.Scheme > VCOMA {
		return fmt.Errorf("config: unknown scheme %d", int(c.Scheme))
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("config: TLB/DLB must have at least one entry, got %d", c.TLBEntries)
	}
	if c.TLBEntries > MaxTLBEntries {
		return fmt.Errorf("config: TLB/DLB size %d exceeds the maximum %d", c.TLBEntries, MaxTLBEntries)
	}
	if c.TLBOrg != FullyAssoc && c.TLBEntries&(c.TLBEntries-1) != 0 {
		return fmt.Errorf("config: %v TLB/DLB size %d not a power of two", c.TLBOrg, c.TLBEntries)
	}
	if c.NoWritebackTLB && c.Scheme != L2TLB {
		return fmt.Errorf("config: NoWritebackTLB only applies to L2-TLB, scheme is %v", c.Scheme)
	}
	return nil
}

// WithScheme returns a copy of c with the scheme (and, for V-COMA, nothing
// else) changed.
func (c Config) WithScheme(s Scheme) Config {
	c.Scheme = s
	if s != L2TLB {
		c.NoWritebackTLB = false
	}
	return c
}

// WithTLB returns a copy of c with the TLB/DLB size and organization changed.
func (c Config) WithTLB(entries int, org TLBOrg) Config {
	c.TLBEntries = entries
	c.TLBOrg = org
	return c
}
