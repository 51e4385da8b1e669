package coherence

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"vcoma/internal/addr"
	"vcoma/internal/mem"
	"vcoma/internal/prng"
)

// eventLog is a Sink that records every event as a line of text.
type eventLog []string

func (l *eventLog) add(format string, args ...any) { *l = append(*l, fmt.Sprintf(format, args...)) }

func (l *eventLog) CopyInstalled(n addr.Node, b uint64, s mem.State, src DataSource, from addr.Node) {
	l.add("install n%d %#x %v %v from n%d", n, b, s, src, from)
}
func (l *eventLog) CopyRemoved(n addr.Node, b uint64, r RemoveReason) {
	l.add("remove n%d %#x %v", n, b, r)
}
func (l *eventLog) StateChanged(n addr.Node, b uint64, s mem.State) {
	l.add("state n%d %#x %v", n, b, s)
}
func (l *eventLog) BlockSwapped(b uint64, from addr.Node) { l.add("swap %#x from n%d", b, from) }
func (l *eventLog) BlockEvicted(b uint64, m addr.Node)    { l.add("evict %#x master n%d", b, m) }

// preloadThreeScans is Preload as it was before the single-scan path: a
// Probe, then Install's own residence scan and free-way scan.
func (p *Protocol) preloadThreeScans(block uint64, at addr.Node) {
	b := p.align(block)
	if p.ams[at].Probe(b) != mem.Invalid {
		return
	}
	e := p.dir.Ensure(b)
	if e.Copyset != 0 {
		return
	}
	e.Master = at
	e.Copyset = p.bit(at)
	e.Swapped = false
	p.installAt(0, at, b, mem.MasterShared, SrcPreload, at)
}

// protocolState renders everything a preload can change: each node's AM
// contents and counters, every directory entry, the protocol and fabric
// counters.
func protocolState(p *Protocol) []string {
	var out []string
	for n := 0; n < p.g.Nodes(); n++ {
		am := p.AM(addr.Node(n))
		am.ForEachValid(func(b uint64, s mem.State) { out = append(out, fmt.Sprintf("am n%d %#x %v", n, b, s)) })
		out = append(out, fmt.Sprintf("am n%d stats %+v", n, am.Stats()))
	}
	p.dir.entries.Each(func(i uint64, e *Entry) { out = append(out, fmt.Sprintf("dir %#x %+v", i, *e)) })
	return append(out, fmt.Sprintf("stats %+v fabric %+v", p.Stats(), p.Fabric().Stats()))
}

// TestPreloadSingleScanMatchesThreeScans preloads the same block sequences
// through Preload and through the three-scan path it replaced, and requires
// identical AMs, directories, counters and sink events. One layout respects
// set capacity; the others pile blocks onto few sets at one node, so sets
// overfill and Preload must fall back to Install with its evictions and
// injections.
func TestPreloadSingleScanMatchesThreeScans(t *testing.T) {
	layouts := map[string]func(rng *prng.Source) (uint64, addr.Node){
		"spread": func(rng *prng.Source) (uint64, addr.Node) {
			return rng.Uint64n(1 << 14), addr.Node(rng.Intn(4))
		},
		"overfull-set": func(rng *prng.Source) (uint64, addr.Node) {
			return sameSetBlock(rng.Intn(12)), 0
		},
		"overfull-few-sets": func(rng *prng.Source) (uint64, addr.Node) {
			return sameSetBlock(rng.Intn(10)) + uint64(rng.Intn(2))<<5, addr.Node(rng.Intn(2))
		},
	}
	for name, next := range layouts {
		t.Run(name, func(t *testing.T) {
			single, three := newProtocol(t, nil), newProtocol(t, nil)
			var singleLog, threeLog eventLog
			single.SetSink(&singleLog)
			three.SetSink(&threeLog)
			rng := prng.New(7)
			for i := 0; i < 400; i++ {
				b, at := next(rng)
				single.Preload(b, at)
				three.preloadThreeScans(b, at)
			}
			if !slices.Equal(singleLog, threeLog) {
				t.Fatalf("sink events differ:\nsingle %v\nthree  %v", singleLog, threeLog)
			}
			if got, want := protocolState(single), protocolState(three); !slices.Equal(got, want) {
				t.Fatalf("state differs:\nsingle %v\nthree  %v", got, want)
			}
			if name != "spread" && single.AM(0).Stats().Evictions == 0 {
				t.Fatal("layout never overfilled a set: the Install fallback went untested")
			}
			if err := single.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEntrySize pins the directory entry at 16 bytes: a paper-scale
// directory holds one per preloaded block.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 16 {
		t.Fatalf("directory entry is %d bytes, want 16", got)
	}
}
