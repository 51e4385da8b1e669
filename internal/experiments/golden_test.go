package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden files pin the rendered Table 4 and Figure 10 outputs at test
// scale, computed through the Plan the report runs. The simulator is deterministic, so any diff is a real behavioural
// change: inspect it, and if intended, regenerate with
//
//	go test ./internal/experiments/ -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s — a deliberate behaviour change needs -update\ngot:\n%s\nwant:\n%s",
			path, got, string(want))
	}
}

func TestGoldenTable4(t *testing.T) {
	row, err := runPlan(t, func(p *Plan) error { return p.AddTable4("RADIX") }).Table4("RADIX")
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "table4_radix.golden", RenderTable4([]Table4Row{row}, false))
}

func TestGoldenFigure10(t *testing.T) {
	res, err := runPlan(t, func(p *Plan) error { return p.AddFigure10("RAYTRACE") }).Figure10("RAYTRACE")
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "figure10_raytrace.golden", res.Render(false))
}
