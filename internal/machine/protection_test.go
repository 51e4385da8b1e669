package machine

import (
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/mem"
	"vcoma/internal/vm"
)

func TestProtString(t *testing.T) {
	if vm.ProtRW.String() != "rw-" || vm.ProtExec.String() != "--x" {
		t.Fatalf("prot strings: %v %v", vm.ProtRW, vm.ProtExec)
	}
}

func TestCheckProtection(t *testing.T) {
	m := newMachine(t, config.VCOMA)
	preloadRange(m, 0x10000, 4096)
	v := addr.Virtual(0x10000)
	if p := m.sys.Lookup(v); p == nil || p.Prot != vm.ProtRW {
		t.Fatalf("preloaded page: %+v, want prot %v", p, vm.ProtRW)
	}
	m.ChangeProtection(0, 0, v, vm.ProtRead)
	if p := m.sys.Lookup(v); p == nil || p.Prot != vm.ProtRead {
		t.Fatalf("after ChangeProtection: %+v, want prot %v", p, vm.ProtRead)
	}
}

func TestProtChangeShootsDownTLBs(t *testing.T) {
	m := newMachine(t, config.L0TLB)
	preloadRange(m, 0x10000, 4096)
	v := addr.Virtual(0x10000)
	// Warm the TLB of two nodes.
	m.Access(0, 0, v, false)
	m.Access(0, 2, v, false)
	res := m.ChangeProtection(1000, 1, v, vm.ProtRead)
	if res.TLBShootdowns != 2 {
		t.Fatalf("shootdowns = %d, want 2", res.TLBShootdowns)
	}
	if res.Cycles == 0 {
		t.Fatal("shootdown was free")
	}
	pn := m.Geometry().Page(v)
	for n := addr.Node(0); n < 4; n++ {
		if m.TLB(n).Probe(pn) {
			t.Fatalf("node %d TLB still maps the page", n)
		}
	}
}

func TestProtChangeVCOMACheaperThanShootdown(t *testing.T) {
	// The paper's §4.3 point: a protection change in V-COMA is one
	// home-node transaction plus holder updates, not a machine-wide
	// interrupt storm.
	var costs [2]uint64
	for i, sch := range []config.Scheme{config.L0TLB, config.VCOMA} {
		m := newMachine(t, sch)
		preloadRange(m, 0x10000, 4096)
		v := addr.Virtual(0x10000)
		m.Access(0, 0, v, false)
		res := m.ChangeProtection(1000, 0, v, vm.ProtRead)
		costs[i] = res.Cycles
	}
	if costs[1] >= costs[0] {
		t.Fatalf("V-COMA protection change (%d) not cheaper than L0 shootdown (%d)",
			costs[1], costs[0])
	}
}

func TestProtChangeFlushesVirtualCaches(t *testing.T) {
	m := newMachine(t, config.VCOMA)
	preloadRange(m, 0x10000, 4096)
	v := addr.Virtual(0x10000)
	m.Access(0, 2, v, false)
	if !m.SLC(2).Contains(uint64(v)) {
		t.Fatal("setup: SLC not warm")
	}
	res := m.ChangeProtection(1000, 0, v, vm.ProtRead)
	if res.CacheFlushes == 0 {
		t.Fatal("no cache blocks flushed")
	}
	if m.SLC(2).Contains(uint64(v)) || m.FLC(2).Contains(uint64(v)) {
		t.Fatal("holder's caches still hold the page after a protection change")
	}
}

func TestDemapRemovesEverything(t *testing.T) {
	for _, sch := range config.Schemes() {
		m := newMachine(t, sch)
		preloadRange(m, 0x10000, 4096)
		v := addr.Virtual(0x10000)
		// Spread copies: two readers and a writer on various blocks.
		m.Access(0, 0, v, false)
		m.Access(0, 2, v, false)
		m.Access(0, 3, v+64, true)

		res, err := m.Demap(5000, 1, v)
		if err != nil {
			t.Fatalf("%v: %v", sch, err)
		}
		if res.CopiesDropped == 0 {
			t.Fatalf("%v: no attraction-memory copies dropped", sch)
		}
		if res.Cycles == 0 {
			t.Fatalf("%v: demap was free", sch)
		}
		if m.VM().Lookup(v) != nil {
			t.Fatalf("%v: page still mapped", sch)
		}
		// No node may still hold any block of the page.
		g := m.Geometry()
		for n := addr.Node(0); int(n) < g.Nodes(); n++ {
			if m.FLC(n).OccupiedLines()+m.SLC(n).OccupiedLines() > 0 {
				// Cache occupancy from OTHER pages is fine; check this page.
				for off := uint64(0); off < g.PageSize(); off += 16 {
					if m.FLC(n).Contains(uint64(v) + off) {
						t.Fatalf("%v: node %d FLC holds demapped page", sch, n)
					}
				}
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", sch, err)
		}
		// Demapping again fails cleanly.
		if _, err := m.Demap(9000, 1, v); err == nil {
			t.Fatalf("%v: double demap succeeded", sch)
		}
	}
}

func TestDemapVCOMAAvoidsShootdownStorm(t *testing.T) {
	var shootdowns [2]int
	for i, sch := range []config.Scheme{config.L3TLB, config.VCOMA} {
		m := newMachine(t, sch)
		preloadRange(m, 0x10000, 4096)
		v := addr.Virtual(0x10000)
		// Make every node touch the page so TLBs/DLB are warm.
		for n := addr.Node(0); n < 4; n++ {
			m.Access(uint64(n)*100, n, v, false)
		}
		res, err := m.Demap(5000, 0, v)
		if err != nil {
			t.Fatal(err)
		}
		shootdowns[i] = res.TLBShootdowns
	}
	if shootdowns[1] > 1 {
		t.Fatalf("V-COMA demap touched %d translation buffers, want at most 1", shootdowns[1])
	}
}

func TestDemappedBlocksRefetchable(t *testing.T) {
	// After a demap, re-touching the address remaps the page and
	// refetches data (fresh, from backing store).
	m := newMachine(t, config.VCOMA)
	preloadRange(m, 0x10000, 4096)
	v := addr.Virtual(0x10000)
	m.Access(0, 2, v, false)
	if _, err := m.Demap(1000, 0, v); err != nil {
		t.Fatal(err)
	}
	r := m.Access(10000, 2, v, false)
	if r.Cycles == 0 {
		t.Fatal("access to demapped page was free")
	}
	if m.Protocol().StateAt(2, uint64(m.Geometry().Block(v))) == mem.Invalid {
		t.Fatal("refetched block absent")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
