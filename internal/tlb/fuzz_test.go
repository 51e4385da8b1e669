package tlb

import (
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/prng"
)

// FuzzBufferParity model-checks every buffer organization against the
// Buffer contract with random operation sequences:
//
//   - Access(p) returns hit exactly when Probe(p) held beforehand, and p is
//     present afterwards;
//   - Probe has no side effects;
//   - Invalidate(p) removes p; Flush removes everything;
//   - at most Entries() pages are ever resident;
//   - the access counter matches the number of accesses;
//   - two identically-built buffers fed the same sequence behave
//     identically (replacement is seeded, not nondeterministic);
//   - a fully-associative buffer large enough for the whole working set
//     never evicts: presence matches the exact reference set.
func FuzzBufferParity(f *testing.F) {
	f.Add(uint64(1), uint64(3), uint64(0), uint64(64))
	f.Add(uint64(2), uint64(0), uint64(1), uint64(128))
	f.Add(uint64(3), uint64(2), uint64(2), uint64(200))
	f.Add(uint64(4), uint64(4), uint64(3), uint64(90))
	f.Fuzz(func(t *testing.T, seed, entriesRaw, orgRaw, nRaw uint64) {
		entries := 1 << (entriesRaw % 5) // 1..16
		org := []config.TLBOrg{config.FullyAssoc, config.DirectMapped, config.SetAssoc2, config.SetAssoc4}[orgRaw%4]
		if org == config.SetAssoc2 && entries < 2 || org == config.SetAssoc4 && entries < 4 {
			t.Skip("fewer entries than ways")
		}
		ops := 16 + int(nRaw%512)

		b, err := New(entries, org, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := New(entries, org, 0, seed)
		if err != nil {
			t.Fatal(err)
		}

		rng := prng.New(seed ^ 0xb0ffe4)
		target := 1 + rng.Intn(24)
		distinct := make(map[addr.PageNum]bool)
		for len(distinct) < target {
			distinct[addr.PageNum(rng.Uint64n(1<<20))] = true
		}
		universe := make([]addr.PageNum, 0, len(distinct))
		for p := range distinct {
			universe = append(universe, p)
		}
		exactRef := org == config.FullyAssoc && len(universe) <= entries
		ref := make(map[addr.PageNum]bool) // exact contents when exactRef

		accesses := uint64(0)
		for i := 0; i < ops; i++ {
			p := universe[rng.Intn(len(universe))]
			switch rng.Intn(8) {
			case 0:
				b.Invalidate(p)
				twin.Invalidate(p)
				delete(ref, p)
				if b.Probe(p) {
					t.Fatalf("op %d: page %#x present after Invalidate", i, uint64(p))
				}
			case 1:
				b.Flush()
				twin.Flush()
				ref = make(map[addr.PageNum]bool)
				for _, q := range universe {
					if b.Probe(q) {
						t.Fatalf("op %d: page %#x present after Flush", i, uint64(q))
					}
				}
			default:
				before := b.Probe(p)
				if again := b.Probe(p); again != before {
					t.Fatalf("op %d: Probe changed state: %v then %v", i, before, again)
				}
				hit := b.Access(p)
				twinHit := twin.Access(p)
				accesses++
				if hit != before {
					t.Fatalf("op %d: Access(%#x) returned hit=%v but Probe said %v", i, uint64(p), hit, before)
				}
				if hit != twinHit {
					t.Fatalf("op %d: identically-seeded twin diverged (hit=%v vs %v)", i, hit, twinHit)
				}
				if !b.Probe(p) {
					t.Fatalf("op %d: page %#x absent immediately after Access", i, uint64(p))
				}
				ref[p] = true
			}
			if resident := countResident(b, universe); resident > entries {
				t.Fatalf("op %d: %d pages resident in a %d-entry buffer", i, resident, entries)
			}
			if exactRef {
				for _, q := range universe {
					if b.Probe(q) != ref[q] {
						t.Fatalf("op %d: FA buffer with no capacity pressure evicted or invented page %#x", i, uint64(q))
					}
				}
			}
		}
		if s := b.Stats(); s.Accesses != accesses || s.Misses > s.Accesses {
			t.Fatalf("stats %+v inconsistent with %d accesses", s, accesses)
		}
	})
}

func countResident(b Buffer, universe []addr.PageNum) int {
	n := 0
	for _, p := range universe {
		if b.Probe(p) {
			n++
		}
	}
	return n
}

// FuzzBankParity checks a Bank against independently built buffers fed the
// same page sequence: a Bank skips a request that repeats its previous page,
// and that skip must leave every buffer's statistics exactly as if the
// buffer had seen the request. The grid mixes all four organizations with
// sizes up to 512, so fully-associative buffers grow their index through
// several doublings; those are also checked against a naive slice model of
// random replacement, which pins that growing leaves replacement unchanged.
func FuzzBankParity(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(500), uint64(0))
	f.Add(uint64(2), uint64(7), uint64(3000), uint64(1))
	f.Add(uint64(3), uint64(13), uint64(1200), uint64(2))
	f.Add(uint64(4), uint64(21), uint64(4000), uint64(3))
	f.Fuzz(func(t *testing.T, seed, gridRaw, nRaw, shiftRaw uint64) {
		rng := prng.New(seed ^ 0xba4c)
		orgs := []config.TLBOrg{config.FullyAssoc, config.DirectMapped, config.SetAssoc2, config.SetAssoc4}
		var specs []Spec
		seen := make(map[Spec]bool)
		for i := 0; i < 4+int(gridRaw%12); i++ {
			sp := Spec{Entries: 1 << (2 + rng.Intn(8)), Org: orgs[rng.Intn(len(orgs))]} // 4..512 entries
			if !seen[sp] {
				seen[sp] = true
				specs = append(specs, sp)
			}
		}
		shift := uint(shiftRaw % 3)
		bank, err := NewBank(specs, shift, seed)
		if err != nil {
			t.Fatal(err)
		}
		bufs := make([]Buffer, len(specs))
		naive := make([]*naiveFA, len(specs))
		for i, sp := range specs {
			if bufs[i], err = New(sp.Entries, sp.Org, shift, seed+uint64(i)*0x9E37); err != nil {
				t.Fatal(err)
			}
			if sp.Org == config.FullyAssoc {
				naive[i] = &naiveFA{capacity: sp.Entries, rng: prng.New(seed + uint64(i)*0x9E37)}
			}
		}

		// A universe of up to ~700 pages lets the largest buffers fill and
		// evict; requests come in bursts that repeat one page.
		universe := make([]addr.PageNum, 1+rng.Intn(700))
		for i := range universe {
			universe[i] = addr.PageNum(rng.Uint64n(1 << 16))
		}
		ops := 64 + int(nRaw%8192)
		for i := 0; i < ops; {
			p := universe[rng.Intn(len(universe))]
			for burst := 1 + rng.Intn(4); burst > 0 && i < ops; burst-- {
				bank.Access(p)
				for k, buf := range bufs {
					buf.Access(p)
					if naive[k] != nil {
						naive[k].access(p)
					}
				}
				i++
			}
		}

		if bank.Accesses() != uint64(ops) {
			t.Fatalf("bank counted %d accesses, want %d", bank.Accesses(), ops)
		}
		for i, sp := range specs {
			got, ok := bank.Stats(sp)
			if !ok {
				t.Fatalf("spec %v missing from bank", sp)
			}
			if want := bufs[i].Stats(); got != want {
				t.Fatalf("spec %v: bank stats %+v, independent buffer %+v", sp, got, want)
			}
			if n := naive[i]; n != nil && n.misses != bufs[i].Stats().Misses {
				t.Fatalf("spec %v: %d misses, naive random-replacement model %d", sp, bufs[i].Stats().Misses, n.misses)
			}
		}
	})
}

// naiveFA is the reference model of a fully-associative buffer with random
// replacement: a linear list of resident pages, filled in order, with each
// victim slot drawn from the rng once the list is full.
type naiveFA struct {
	capacity int
	slots    []addr.PageNum
	rng      *prng.Source
	misses   uint64
}

func (n *naiveFA) access(p addr.PageNum) {
	for _, q := range n.slots {
		if q == p {
			return
		}
	}
	n.misses++
	if len(n.slots) < n.capacity {
		n.slots = append(n.slots, p)
		return
	}
	n.slots[n.rng.Intn(n.capacity)] = p
}
