package tlb

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vcoma/internal/addr"
	"vcoma/internal/config"
)

// Spec names one buffer configuration inside an observer bank.
type Spec struct {
	Entries int
	Org     config.TLBOrg
}

func (s Spec) String() string { return fmt.Sprintf("%d/%v", s.Entries, s.Org) }

// MarshalText encodes the spec as "<entries>/<org>" so Spec can key JSON
// maps — the experiment runner caches merged observer banks on disk.
func (s Spec) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the "<entries>/<org>" form produced by MarshalText.
func (s *Spec) UnmarshalText(text []byte) error {
	parts := strings.SplitN(string(text), "/", 2)
	if len(parts) != 2 {
		return fmt.Errorf("tlb: malformed spec %q", text)
	}
	n, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("tlb: malformed spec %q: %v", text, err)
	}
	var org config.TLBOrg
	switch parts[1] {
	case "FA":
		org = config.FullyAssoc
	case "DM":
		org = config.DirectMapped
	case "2W":
		org = config.SetAssoc2
	case "4W":
		org = config.SetAssoc4
	default:
		return fmt.Errorf("tlb: unknown organization %q in spec", parts[1])
	}
	*s = Spec{Entries: n, Org: org}
	return nil
}

// PaperSizes are the TLB/DLB sizes swept in the paper's Figures 8 and 9.
var PaperSizes = []int{8, 16, 32, 64, 128, 256, 512}

// PaperSpecs returns the full (size × organization) grid the paper
// evaluates: every size in PaperSizes, fully associative and direct mapped.
func PaperSpecs() []Spec {
	specs := make([]Spec, 0, 2*len(PaperSizes))
	for _, n := range PaperSizes {
		specs = append(specs, Spec{Entries: n, Org: config.FullyAssoc})
	}
	for _, n := range PaperSizes {
		specs = append(specs, Spec{Entries: n, Org: config.DirectMapped})
	}
	return specs
}

// Bank is a set of translation buffers of different sizes and organizations
// that all observe the same translation-request stream. One simulation pass
// therefore measures every point of a Figure 8/9 curve at once — valid
// because miss counting does not feed back into the reference stream.
//
// A request for the same page as the bank's previous request is counted
// and goes no further: every buffer already holds that page (it hit or was
// just filled), and a hit changes no replacement state in any organization,
// so the buffers' miss counts are the same as if each had seen it.
type Bank struct {
	specs   []Spec
	buffers []Buffer

	last    addr.PageNum // page of the previous request
	lastOK  bool
	repeats uint64 // requests skipped because they repeated last
}

// NewBank builds one buffer per spec. indexShift and seed are as in New;
// each buffer gets an independent deterministic replacement stream.
func NewBank(specs []Spec, indexShift uint, seed uint64) (*Bank, error) {
	b := &Bank{specs: append([]Spec(nil), specs...)}
	for i, sp := range specs {
		buf, err := New(sp.Entries, sp.Org, indexShift, seed+uint64(i)*0x9E37)
		if err != nil {
			return nil, err
		}
		b.buffers = append(b.buffers, buf)
	}
	return b, nil
}

// Access feeds one translation request to every buffer in the bank.
func (b *Bank) Access(p addr.PageNum) {
	if b.lastOK && p == b.last {
		b.repeats++
		return
	}
	b.last, b.lastOK = p, true
	for _, buf := range b.buffers {
		buf.Access(p)
	}
}

// Specs returns the bank's configuration grid.
func (b *Bank) Specs() []Spec { return b.specs }

// Stats returns the counters for the buffer matching spec, and whether the
// spec exists in the bank.
func (b *Bank) Stats(sp Spec) (Stats, bool) {
	for i, s := range b.specs {
		if s == sp {
			st := b.buffers[i].Stats()
			st.Accesses += b.repeats
			return st, true
		}
	}
	return Stats{}, false
}

// Accesses returns the request count seen by the bank (identical for every
// buffer).
func (b *Bank) Accesses() uint64 {
	if len(b.buffers) == 0 {
		return 0
	}
	return b.buffers[0].Stats().Accesses + b.repeats
}

// Misses returns the miss count of the buffer matching spec; it panics if
// the spec is not in the bank (a programming error in the harness).
func (b *Bank) Misses(sp Spec) uint64 {
	st, ok := b.Stats(sp)
	if !ok {
		panic(fmt.Sprintf("tlb: bank has no spec %v", sp))
	}
	return st.Misses
}

// MergedBank aggregates per-node banks into machine totals, used to report
// per-node averages across a whole run.
type MergedBank struct {
	specs  []Spec
	misses map[Spec]uint64
	acc    uint64
	nodes  int
}

// Merge sums the statistics of per-node banks. All banks must share the same
// spec grid.
func Merge(banks []*Bank) *MergedBank {
	m := &MergedBank{misses: make(map[Spec]uint64)}
	for _, b := range banks {
		if b == nil {
			continue
		}
		if m.specs == nil {
			m.specs = b.Specs()
		}
		m.nodes++
		m.acc += b.Accesses()
		for _, sp := range b.Specs() {
			m.misses[sp] += b.Misses(sp)
		}
	}
	return m
}

// Nodes returns how many banks were merged.
func (m *MergedBank) Nodes() int { return m.nodes }

// TotalAccesses returns the machine-wide translation-request count.
func (m *MergedBank) TotalAccesses() uint64 { return m.acc }

// TotalMisses returns the machine-wide miss count for spec.
func (m *MergedBank) TotalMisses(sp Spec) uint64 { return m.misses[sp] }

// MissesPerNode returns the average miss count per node for spec, the
// paper's Figure 8/9 y-axis.
func (m *MergedBank) MissesPerNode(sp Spec) float64 {
	if m.nodes == 0 {
		return 0
	}
	return float64(m.misses[sp]) / float64(m.nodes)
}

// mergedBankJSON is the serialized form of a MergedBank. The experiment
// runner persists merged banks in its result cache; the JSON form must
// round-trip exactly so reports rendered from cached results are
// byte-identical to freshly computed ones (all fields are integers).
type mergedBankJSON struct {
	Specs  []Spec          `json:"specs"`
	Misses map[Spec]uint64 `json:"misses"`
	Acc    uint64          `json:"accesses"`
	Nodes  int             `json:"nodes"`
}

// MarshalJSON implements json.Marshaler.
func (m *MergedBank) MarshalJSON() ([]byte, error) {
	return json.Marshal(mergedBankJSON{Specs: m.specs, Misses: m.misses, Acc: m.acc, Nodes: m.nodes})
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *MergedBank) UnmarshalJSON(data []byte) error {
	var j mergedBankJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Misses == nil {
		j.Misses = make(map[Spec]uint64)
	}
	*m = MergedBank{specs: j.Specs, misses: j.Misses, acc: j.Acc, nodes: j.Nodes}
	return nil
}

// Sizes returns the sorted distinct entry counts present in the merged grid.
func (m *MergedBank) Sizes() []int {
	seen := map[int]struct{}{}
	for _, sp := range m.specs {
		seen[sp.Entries] = struct{}{}
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
