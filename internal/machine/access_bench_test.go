package machine

import (
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/vm"
)

// BenchmarkMachineAccess times one reference through a paper-scale node's
// hierarchy for the three hit paths that dominate a run: an FLC read hit,
// an SLC read hit (two blocks that conflict in the direct-mapped FLC but
// share the SLC), and an SLC write hit on a block the node holds Exclusive
// (write-through FLC, SLC hit, AM state probe).
func BenchmarkMachineAccess(b *testing.B) {
	for _, sch := range []config.Scheme{config.L0TLB, config.VCOMA} {
		cfg := config.Baseline().WithScheme(sch)
		flcBytes := cfg.FLC.SizeBytes
		cases := []struct {
			name  string
			write bool
			addrs []addr.Virtual
			want  Class
		}{
			{"FLC-hit", false, []addr.Virtual{vm.LayoutBase}, ClassFLCHit},
			{"SLC-hit", false, []addr.Virtual{vm.LayoutBase, vm.LayoutBase + addr.Virtual(flcBytes)}, ClassSLCHit},
			{"SLC-write-hit", true, []addr.Virtual{vm.LayoutBase}, ClassSLCHit},
		}
		for _, c := range cases {
			b.Run(sch.String()+"/"+c.name, func(b *testing.B) {
				m, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				preloadRange(m, vm.LayoutBase, 2*flcBytes)
				n := m.sys.PlacementNode(vm.LayoutBase)
				// Warm up: bring the blocks in (and take ownership).
				now := uint64(0)
				for i := 0; i < 4; i++ {
					for _, va := range c.addrs {
						now += m.Access(now, n, va, c.write).Cycles + 1
					}
				}
				if got := m.Access(now, n, c.addrs[0], c.write).Class; got != c.want {
					b.Fatalf("warm access is %v, want %v", got, c.want)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now += m.Access(now, n, c.addrs[i%len(c.addrs)], c.write).Cycles + 1
				}
			})
		}
	}
}
