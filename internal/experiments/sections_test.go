package experiments

import (
	"slices"
	"strings"
	"testing"

	"vcoma/internal/config"
	"vcoma/internal/runner"
	"vcoma/internal/workload"
)

// extensionsHeading opens the report's extension sections.
const extensionsHeading = "## Extensions beyond the paper's tables\n\n"

// planIDs returns the names and keys of a suite's planned jobs.
func planIDs(t *testing.T, s *Suite) []string {
	t.Helper()
	p, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, j := range p.Jobs() {
		ids = append(ids, j.Name+" "+string(j.Key))
	}
	return ids
}

// Each section plans exactly the passes it reads, with the names and keys
// the Plan's Add* methods give them.
func TestSectionPlans(t *testing.T) {
	names := []string{"RADIX", "RAYTRACE"}
	adds := map[string]func(p *Plan, name string) error{
		"fig8": (*Plan).AddObserve, "fig9": (*Plan).AddObserve,
		"table2": (*Plan).AddObserve, "table3": (*Plan).AddObserve,
		"table4": (*Plan).AddTable4, "fig10": (*Plan).AddFigure10, "fig11": (*Plan).AddFigure11,
		"ablation": (*Plan).AddAblation,
		"dlborg":   func(p *Plan, name string) error { return p.AddDLBOrg(name, DLBOrgSizes) },
		"tags":     nil,
	}
	for _, id := range SectionIDs {
		s := &Suite{Cfg: config.Baseline(), Scale: workload.ScaleTest, Benchmarks: names, Only: []string{id}}
		want := NewPlan(ConfigForScale(s.Cfg, s.Scale), s.Scale)
		if id == "mgmt" {
			if err := want.AddMgmt(names[0], MgmtSamplePages); err != nil {
				t.Fatal(err)
			}
		} else if add := adds[id]; add != nil {
			for _, name := range names {
				if err := add(want, name); err != nil {
					t.Fatal(err)
				}
			}
		}
		var wantIDs []string
		for _, j := range want.Jobs() {
			wantIDs = append(wantIDs, j.Name+" "+string(j.Key))
		}
		if got := planIDs(t, s); !slices.Equal(got, wantIDs) {
			t.Errorf("-only %s plans %d jobs %v, want %d %v", id, len(got), got, len(wantIDs), wantIDs)
		}
	}
}

// The default plan is unchanged: benchmark by benchmark, the per-section
// plans in report order (the observe passes shared by fig8, fig9, table2
// and table3 planned once), then the management study on the first
// benchmark. Job names, keys and order are what caches and -resume
// journals of earlier runs hold.
func TestDefaultPlanIsSectionConcatenation(t *testing.T) {
	suite := func(benchmarks []string, only ...string) *Suite {
		return &Suite{Cfg: config.Baseline(), Scale: workload.ScaleTest, Benchmarks: benchmarks, Only: only}
	}
	var want []string
	for _, name := range workload.Names() {
		for _, id := range SectionIDs {
			if id == "mgmt" || id == "ablation" || id == "dlborg" {
				continue
			}
			for _, job := range planIDs(t, suite([]string{name}, id)) {
				if !slices.Contains(want, job) {
					want = append(want, job)
				}
			}
		}
	}
	want = append(want, planIDs(t, suite(nil, "mgmt"))...)
	got := planIDs(t, suite(nil))
	if !slices.Equal(got, want) {
		t.Fatalf("default plan (%d jobs) is not the section concatenation (%d jobs)\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	if len(got) != 90 {
		t.Errorf("default plan has %d jobs, want 90", len(got))
	}
}

// Each section renders byte-identically alone and in the full report: the
// full report is the shared header followed by every section's body in
// report order.
func TestSectionMarkdownMatchesFullReport(t *testing.T) {
	if testing.Short() {
		t.Skip("suite runs")
	}
	cache := t.TempDir()
	render := func(only ...string) string {
		s := &Suite{Cfg: config.Baseline(), Scale: workload.ScaleTest, Benchmarks: []string{"RADIX"}, CacheDir: cache, Only: only}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.RenderMarkdown()
	}
	full := render(SectionIDs...)
	header := full[:strings.Index(full, "\n## ")+1]
	assembled, deflt := header, header
	for _, id := range SectionIDs {
		md := render(id)
		body, ok := strings.CutPrefix(md, header)
		if !ok {
			t.Fatalf("-only %s: header differs from the full report's", id)
		}
		if id == "tags" {
			assembled += extensionsHeading
			deflt += extensionsHeading
		}
		if i := slices.Index(SectionIDs, id); i >= slices.Index(SectionIDs, "tags") {
			if body, ok = strings.CutPrefix(body, extensionsHeading); !ok {
				t.Fatalf("-only %s: extension renders without its heading", id)
			}
		}
		if body == "" {
			t.Errorf("-only %s rendered nothing", id)
		}
		assembled += body
		if id != "ablation" && id != "dlborg" {
			deflt += body
		}
	}
	if assembled != full {
		t.Errorf("sections rendered alone do not assemble into the full report\ngot:\n%s\nwant:\n%s", assembled, full)
	}
	if got := render(); got != deflt {
		t.Errorf("default report is not the concatenation of its sections\ngot:\n%s\nwant:\n%s", got, deflt)
	}
}

func TestUnknownSectionListsValidIDs(t *testing.T) {
	s := &Suite{Cfg: config.Baseline(), Scale: workload.ScaleTest, Only: []string{"fig8", "bogus"}}
	_, err := s.Plan()
	if err == nil {
		t.Fatal("unknown section accepted")
	}
	for _, want := range append([]string{`"bogus"`}, SectionIDs...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("Run accepted an unknown section")
	}
}

// The tag-overhead table is analytic: selecting it alone runs no pass.
func TestOnlyTagsRunsNothing(t *testing.T) {
	prog := runner.NewProgress(nil)
	s := &Suite{Cfg: config.Baseline(), Scale: workload.ScaleTest, Only: []string{"tags"}, Progress: prog}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := prog.Summary().Total; n != 0 {
		t.Errorf("-only tags ran %d passes", n)
	}
	md := res.RenderMarkdown()
	if !strings.Contains(md, extensionsHeading+"Tag-memory overhead") || strings.Contains(md, "## Figure") {
		t.Errorf("-only tags rendered:\n%s", md)
	}
}
