package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expectedJSON is the committed correctness gate: what every deterministic
// output of the benchmark must be, keyed by workload scale. Regenerate it
// after a deliberate model change with
//
//	cd perfbench && go test -run TestExpected -update
//
// and review the diff: a changed digest or count is a changed result.
//
//go:embed expected.json
var expectedJSON []byte

type expected struct {
	// Cells maps scale -> cell name -> what the cell must produce.
	Cells map[string]map[string]cellExpect `json:"cells"`
	// CampaignReportSHA256 maps scale -> the sha256 of the rendered report.
	CampaignReportSHA256 map[string]string `json:"campaign_report_sha256"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("reading expected.json: %w", err)
	}
	return &e, nil
}
