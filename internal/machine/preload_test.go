package machine

import (
	"fmt"
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/mem"
	"vcoma/internal/prng"
	"vcoma/internal/vm"
	"vcoma/internal/workload"
)

var allSchemes = []config.Scheme{config.L0TLB, config.L1TLB, config.L2TLB, config.L3TLB, config.VCOMA}

// unalignedLayout returns a replayed layout whose region bases and lengths
// are not block-aligned, so a region's first block starts before its base
// and its last byte may fall in a block the preload does not cover.
func unalignedLayout(t *testing.T, g addr.Geometry) *vm.Layout {
	t.Helper()
	ps := g.PageSize()
	base := uint64(vm.LayoutBase)
	regions := []vm.Region{
		{Name: "a", Base: addr.Virtual(base + 0x13), Bytes: 3*ps + 0x45},
		{Name: "b", Base: addr.Virtual(base + 5*ps + 0x7b), Bytes: 0x51},
		{Name: "c", Base: addr.Virtual(base + 7*ps + ps - 3), Bytes: 7},
		{Name: "d", Base: addr.Virtual(base + 9*ps), Bytes: 2*ps + 1},
	}
	l, err := vm.LayoutFromRegions(g, regions)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestResolveMatchesProtoBlock(t *testing.T) {
	for _, sch := range allSchemes {
		m := newMachine(t, sch)
		l := unalignedLayout(t, m.Geometry())
		m.Preload(l)
		rng := prng.New(uint64(sch) + 11)
		for _, r := range l.Regions() {
			for i := 0; i < 200; i++ {
				va := r.At(rng.Uint64n(r.Bytes))
				pa, pb := m.resolve(va)
				if want := m.ProtoBlock(va); pb != want {
					t.Fatalf("%v: va %#x resolves to block %#x, ProtoBlock says %#x", sch, uint64(va), pb, want)
				}
				if sch <= config.L2TLB && pa != uint64(m.VM().Translate(va)) {
					t.Fatalf("%v: va %#x resolves to pa %#x, Translate says %#x", sch, uint64(va), pa, uint64(m.VM().Translate(va)))
				}
			}
		}
	}
}

// preloadPerBlock is the block-at-a-time preload that Machine.Preload must
// reproduce: translation and placement looked up for every block.
func preloadPerBlock(m *Machine, l *vm.Layout) {
	l.PreloadAll(m.sys)
	bs := m.g.AMBlockSize()
	for _, r := range l.Regions() {
		for off := uint64(0); off < r.Bytes; off += bs {
			va := m.g.Block(r.Base + addr.Virtual(off))
			m.prot.Preload(m.protoAddr(va), m.sys.PlacementNode(va))
		}
	}
}

type amCopy struct {
	block uint64
	state mem.State
}

func amContents(m *Machine) [][]amCopy {
	out := make([][]amCopy, m.g.Nodes())
	for i := range out {
		m.prot.AM(addr.Node(i)).ForEachValid(func(block uint64, s mem.State) {
			out[i] = append(out[i], amCopy{block, s})
		})
	}
	return out
}

func TestPreloadMatchesPerBlockLoop(t *testing.T) {
	for _, sch := range allSchemes {
		for _, layout := range []string{"unaligned", "fft"} {
			got, want := newMachine(t, sch), newMachine(t, sch)
			var l *vm.Layout
			if layout == "unaligned" {
				l = unalignedLayout(t, got.Geometry())
			} else {
				w, err := workload.ByName("FFT", workload.ScaleTest)
				if err != nil {
					t.Fatal(err)
				}
				p, err := w.Build(got.Geometry(), got.Geometry().Nodes())
				if err != nil {
					t.Fatal(err)
				}
				l = p.Layout()
			}
			got.Preload(l)
			preloadPerBlock(want, l)

			name := fmt.Sprintf("%v/%s", sch, layout)
			gd, wd := got.Protocol().Directory(), want.Protocol().Directory()
			if gd.Len() != wd.Len() {
				t.Fatalf("%s: %d directory entries, per-block loop made %d", name, gd.Len(), wd.Len())
			}
			for _, r := range l.Regions() {
				for va := got.g.Block(r.Base); va < r.End(); va += addr.Virtual(got.g.AMBlockSize()) {
					b := want.ProtoBlock(va)
					ge, we := gd.Lookup(b), wd.Lookup(b)
					if (ge == nil) != (we == nil) || ge != nil && *ge != *we {
						t.Fatalf("%s: block %#x entry %+v, per-block loop %+v", name, b, ge, we)
					}
				}
			}
			ga, wa := amContents(got), amContents(want)
			for n := range ga {
				if fmt.Sprint(ga[n]) != fmt.Sprint(wa[n]) {
					t.Fatalf("%s: node %d AM holds %v, per-block loop %v", name, n, ga[n], wa[n])
				}
			}
			if got.VM().MappedPages() != want.VM().MappedPages() ||
				fmt.Sprint(got.VM().PagesPerGlobalSet()) != fmt.Sprint(want.VM().PagesPerGlobalSet()) {
				t.Fatalf("%s: page tables differ", name)
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestPreloadAllocsGrowWithChunks preloads a layout 16 times larger than
// another and checks the extra allocations are bounded by the extra table
// chunks, not by the extra blocks or pages.
func TestPreloadAllocsGrowWithChunks(t *testing.T) {
	cfg := config.SmallTest().WithScheme(config.L0TLB)
	cfg.Geometry.AMSetBits = 12 // 1 MB of attraction memory machine-wide
	g := cfg.Geometry
	allocs := func(bytes uint64) (float64, uint64) {
		l := vm.NewLayout(g)
		l.Alloc("data", bytes, 0)
		var ms []*Machine
		for i := 0; i < 3; i++ { // AllocsPerRun's warm-up plus two runs
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, m)
		}
		return testing.AllocsPerRun(2, func() {
			ms[0].Preload(l)
			ms = ms[1:]
		}), bytes >> g.AMBlockBits
	}
	small, smallBlocks := allocs(16 << 10)
	large, largeBlocks := allocs(256 << 10)
	// Every 1024 new blocks add one directory chunk, and every 1024 new
	// pages a page-table and a frame chunk; slice growth adds a few more.
	chunks := float64((largeBlocks-smallBlocks)/1024 + 2*((largeBlocks-smallBlocks)>>(g.PageBits-g.AMBlockBits))/1024 + 2)
	if large-small > chunks+8 {
		t.Fatalf("preloading %d blocks took %.0f allocations, %d blocks took %.0f: growth %.0f exceeds %.0f new chunks",
			smallBlocks, small, largeBlocks, large, large-small, chunks)
	}
}

// BenchmarkMachinePreload times Machine.Preload of the small-scale FFT
// working set on a fresh small-scale machine.
func BenchmarkMachinePreload(b *testing.B) {
	for _, sch := range []config.Scheme{config.L0TLB, config.VCOMA} {
		b.Run(sch.String(), func(b *testing.B) {
			cfg := config.Baseline().WithScheme(sch)
			cfg.Geometry.AMSetBits = workload.ScaleSmall.AMSetBits()
			w, err := workload.ByName("FFT", workload.ScaleSmall)
			if err != nil {
				b.Fatal(err)
			}
			p, err := w.Build(cfg.Geometry, cfg.Geometry.Nodes())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				m.Preload(p.Layout())
			}
		})
	}
}

// BenchmarkMachineNew times building the baseline machine with its
// attraction memory at test scale (512 KB per node, the size behind every
// test-scale pass and served request) and at the paper's 4 MB: the AMs,
// caches, directory and TLBs of all 32 nodes.
func BenchmarkMachineNew(b *testing.B) {
	for _, sc := range []workload.Scale{workload.ScaleTest, workload.ScalePaper} {
		b.Run(sc.String(), func(b *testing.B) {
			cfg := config.Baseline()
			cfg.Geometry.AMSetBits = sc.AMSetBits()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
