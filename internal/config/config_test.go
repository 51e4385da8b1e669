package config

import (
	"strings"
	"testing"
)

func TestBaselineMatchesPaper(t *testing.T) {
	c := Baseline()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Geometry.Nodes() != 32 {
		t.Errorf("nodes = %d, want 32", c.Geometry.Nodes())
	}
	if c.FLC.SizeBytes != 16<<10 || c.FLC.BlockBytes != 32 || c.FLC.Assoc != 1 || c.FLC.WriteBack {
		t.Errorf("FLC %+v does not match the paper (16 KB direct-mapped write-through, 32 B)", c.FLC)
	}
	if c.SLC.SizeBytes != 64<<10 || c.SLC.BlockBytes != 64 || c.SLC.Assoc != 4 || !c.SLC.WriteBack {
		t.Errorf("SLC %+v does not match the paper (64 KB 4-way write-back, 64 B)", c.SLC)
	}
	if c.Geometry.AMBytesPerNode() != 4<<20 || c.Geometry.AMBlockSize() != 128 || c.Geometry.AMAssoc() != 4 {
		t.Errorf("AM does not match the paper (4 MB 4-way, 128 B blocks)")
	}
	tm := c.Timing
	if tm.SLCHit != 6 || tm.AMHit != 74 || tm.NetRequest != 16 || tm.NetBlock != 272 || tm.TLBMiss != 40 || tm.DLBMiss != 40 {
		t.Errorf("timing %+v does not match §5.1", tm)
	}
}

func TestSmallTestValidates(t *testing.T) {
	if err := SmallTest().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejections covers every error branch of Config.Validate and
// the Geometry and CacheConfig validations it delegates to. Each case
// mutates a valid SmallTest configuration and asserts the right branch
// fired by matching a distinctive fragment of its message.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // substring of the expected error
	}{
		// Geometry branches.
		{"page smaller than AM block",
			func(c *Config) { c.Geometry.PageBits = 4 }, "smaller than AM block"},
		{"page does not fit AM index",
			func(c *Config) { c.Geometry.AMSetBits = 2 }, "does not fit the AM index"},
		{"too few global page sets for home bits",
			func(c *Config) { c.Geometry.AMSetBits = 4 }, "global page sets"},
		{"geometry out of supported range",
			func(c *Config) { c.Geometry.NodeBits = 21; c.Geometry.AMSetBits = 25 }, "out of supported range"},
		// CacheConfig branches, via FLC and SLC.
		{"FLC size zero",
			func(c *Config) { c.FLC.SizeBytes = 0 }, "FLC size 0"},
		{"FLC size not a power of two",
			func(c *Config) { c.FLC.SizeBytes = 3000 }, "FLC size 3000"},
		{"SLC block not a power of two",
			func(c *Config) { c.SLC.BlockBytes = 24 }, "SLC block 24"},
		{"SLC associativity zero",
			func(c *Config) { c.SLC.Assoc = 0 }, "SLC associativity 0"},
		{"FLC associativity not a power of two",
			func(c *Config) { c.FLC.Assoc = 3 }, "FLC associativity 3"},
		{"SLC smaller than one set",
			func(c *Config) { c.SLC.Assoc = 2; c.SLC.SizeBytes = 32; c.SLC.BlockBytes = 32 }, "smaller than one set"},
		// Config's own branches.
		{"FLC block larger than SLC block",
			func(c *Config) { c.FLC.BlockBytes = 64; c.SLC.BlockBytes = 32 }, "FLC block"},
		{"SLC block larger than AM block",
			func(c *Config) { c.SLC.BlockBytes = 256 }, "larger than AM block"},
		{"scheme above range",
			func(c *Config) { c.Scheme = Scheme(99) }, "unknown scheme"},
		{"scheme below range",
			func(c *Config) { c.Scheme = Scheme(-1) }, "unknown scheme"},
		{"zero TLB entries",
			func(c *Config) { c.TLBEntries = 0 }, "at least one entry"},
		{"negative TLB entries",
			func(c *Config) { c.TLBEntries = -4 }, "at least one entry"},
		{"oversized TLB",
			func(c *Config) { c.TLBOrg = DirectMapped; c.TLBEntries = 1 << 40 }, "exceeds the maximum"},
		{"non-power-of-two direct-mapped TLB",
			func(c *Config) { c.TLBOrg = DirectMapped; c.TLBEntries = 6 }, "not a power of two"},
		{"non-power-of-two set-associative TLB",
			func(c *Config) { c.TLBOrg = SetAssoc2; c.TLBEntries = 12 }, "not a power of two"},
		{"NoWritebackTLB outside L2-TLB",
			func(c *Config) { c.NoWritebackTLB = true; c.Scheme = L0TLB }, "only applies to L2-TLB"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := SmallTest()
			tc.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("invalid configuration accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q — wrong branch fired", err, tc.want)
			}
		})
	}
	// A non-power-of-two size is legal only for a fully-associative TLB.
	c := SmallTest()
	c.TLBOrg = FullyAssoc
	c.TLBEntries = 6
	if err := c.Validate(); err != nil {
		t.Errorf("fully-associative TLB of 6 entries rejected: %v", err)
	}
}

func TestCacheConfigSets(t *testing.T) {
	c := CacheConfig{SizeBytes: 64 << 10, BlockBytes: 64, Assoc: 4, WriteBack: true}
	if c.Sets() != 256 {
		t.Errorf("sets = %d, want 256", c.Sets())
	}
}

func TestWithScheme(t *testing.T) {
	c := Baseline().WithScheme(L2TLB)
	c.NoWritebackTLB = true
	c2 := c.WithScheme(VCOMA)
	if c2.NoWritebackTLB {
		t.Error("NoWritebackTLB survived a scheme change away from L2-TLB")
	}
	if c2.Scheme != VCOMA {
		t.Errorf("scheme = %v", c2.Scheme)
	}
}

func TestWithTLB(t *testing.T) {
	c := Baseline().WithTLB(128, DirectMapped)
	if c.TLBEntries != 128 || c.TLBOrg != DirectMapped {
		t.Errorf("WithTLB: %d/%v", c.TLBEntries, c.TLBOrg)
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		L0TLB: "L0-TLB", L1TLB: "L1-TLB", L2TLB: "L2-TLB", L3TLB: "L3-TLB", VCOMA: "V-COMA",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
	if len(Schemes()) != 5 {
		t.Errorf("Schemes() has %d entries", len(Schemes()))
	}
	if FullyAssoc.String() != "FA" || DirectMapped.String() != "DM" {
		t.Error("TLBOrg strings wrong")
	}
}

func TestParseOrg(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want TLBOrg
		ok   bool
	}{
		{"", FullyAssoc, true},
		{"fa", FullyAssoc, true},
		{"DM", DirectMapped, true},
		{" dm ", DirectMapped, true},
		{"bogus", 0, false},
	} {
		got, err := ParseOrg(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseOrg(%q) = %v, %v; want %v (ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestParseScheme(t *testing.T) {
	for in, want := range map[string]Scheme{
		"l0": L0TLB, "l0-tlb": L0TLB, "l1": L1TLB, "l1-tlb": L1TLB,
		"l2": L2TLB, "l2-tlb": L2TLB, "l3": L3TLB, "l3-tlb": L3TLB,
		"v": VCOMA, "vcoma": VCOMA, "v-coma": VCOMA,
		" V-COMA ": VCOMA, "L0-TLB": L0TLB, "\tl3\n": L3TLB,
	} {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"bogus", "", "l4", "coma", "l0tlb"} {
		if _, err := ParseScheme(in); err == nil {
			t.Errorf("ParseScheme(%q) accepted", in)
		}
	}
}
