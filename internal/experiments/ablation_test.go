package experiments

import (
	"strings"
	"testing"

	"vcoma/internal/config"
)

func TestAblationStudy(t *testing.T) {
	rows, err := runPlan(t, func(p *Plan) error { return p.AddAblation("OCEAN") }).Ablation("OCEAN")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0].Relative != 1.0 {
		t.Fatalf("baseline relative %f", rows[0].Relative)
	}
	// The shared-channel variant must queue at least as much as the
	// baseline (requests now wait behind blocks).
	var baseQ, sharedQ uint64
	for _, r := range rows {
		switch r.Label {
		case "baseline (evaluated design)":
			baseQ = r.QueueCycles
		case "shared request/reply channel":
			sharedQ = r.QueueCycles
		}
	}
	if sharedQ < baseQ {
		t.Fatalf("shared channel queued less (%d) than split channels (%d)", sharedQ, baseQ)
	}
	if !strings.Contains(RenderAblation("OCEAN", rows, false), "baseline") {
		t.Fatal("render incomplete")
	}
}

func TestDLBOrgStudy(t *testing.T) {
	sizes := []int{4, 16}
	data, err := runPlan(t, func(p *Plan) error { return p.AddDLBOrg("FFT", sizes) }).DLBOrg("FFT")
	if err != nil {
		t.Fatal(err)
	}
	for _, org := range []config.TLBOrg{config.FullyAssoc, config.SetAssoc4, config.SetAssoc2, config.DirectMapped} {
		if data[org][4] < data[org][16] {
			t.Fatalf("%v: more entries, more misses (%d < %d)", org, data[org][4], data[org][16])
		}
	}
	if !strings.Contains(RenderDLBOrg("FFT", data, sizes, true), "FA") {
		t.Fatal("render incomplete")
	}
}
