package experiments

import (
	"context"
	"fmt"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/report"
	"vcoma/internal/vm"
	"vcoma/internal/workload"
)

// MgmtRow holds one scheme's average memory-management costs: the paper
// motivates V-COMA partly by the TLB-consistency problem (§1) and sketches
// the V-COMA protection-change protocol in §4.3. This study measures both
// operations on a warmed machine.
type MgmtRow struct {
	Scheme config.Scheme
	// ProtChangeCycles is the mean latency of a page protection change.
	ProtChangeCycles float64
	// ProtShootdowns is the mean number of translation-buffer entries
	// invalidated per protection change.
	ProtShootdowns float64
	// DemapCycles is the mean latency of unmapping a page.
	DemapCycles float64
	// DemapCopies is the mean number of attraction-memory copies evicted
	// per demap.
	DemapCopies float64
}

// MgmtStudyScheme warms one scheme's machine with the benchmark, then
// changes protection on — and afterwards unmaps — a sample of the
// workload's pages, reporting mean costs. It is the per-scheme pass the
// experiment runner schedules and caches, bounded by ctx (cancellation,
// deadline, watchdog budget).
func MgmtStudyScheme(ctx context.Context, cfg config.Config, bench workload.Benchmark, sch config.Scheme, samplePages int) (MgmtRow, error) {
	c := cfg.WithScheme(sch).WithTLB(64, config.FullyAssoc)
	m, prog, _, err := Pass(ctx, c, bench, nil, nil)
	if err != nil {
		return MgmtRow{}, err
	}
	// Sample pages across the workload's regions.
	var pages []addr.Virtual
	for _, r := range prog.Layout().Regions() {
		for off := uint64(0); off < r.Bytes && len(pages) < samplePages; off += c.Geometry.PageSize() * 7 {
			pages = append(pages, c.Geometry.PageBase(r.Base+addr.Virtual(off)))
		}
		if len(pages) >= samplePages {
			break
		}
	}
	if len(pages) == 0 {
		return MgmtRow{}, fmt.Errorf("experiments: no pages to sample for %s", bench.Name())
	}

	row := MgmtRow{Scheme: sch}
	now := uint64(1 << 30)
	for _, v := range pages {
		res := m.ChangeProtection(now, 0, v, vm.ProtRead)
		row.ProtChangeCycles += float64(res.Cycles)
		row.ProtShootdowns += float64(res.TLBShootdowns)
		now += res.Cycles + 1000
	}
	for _, v := range pages {
		res, err := m.Demap(now, 0, v)
		if err != nil {
			return MgmtRow{}, err
		}
		row.DemapCycles += float64(res.Cycles)
		row.DemapCopies += float64(res.CopiesDropped)
		now += res.Cycles + 1000
	}
	n := float64(len(pages))
	row.ProtChangeCycles /= n
	row.ProtShootdowns /= n
	row.DemapCycles /= n
	row.DemapCopies /= n
	return row, nil
}

// RenderMgmt renders the management study.
func RenderMgmt(rows []MgmtRow, markdown bool) string {
	headers := []string{"scheme", "prot-change cycles", "TLB/DLB invals", "demap cycles", "copies evicted"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Scheme.String(),
			fmt.Sprintf("%.0f", r.ProtChangeCycles),
			fmt.Sprintf("%.1f", r.ProtShootdowns),
			fmt.Sprintf("%.0f", r.DemapCycles),
			fmt.Sprintf("%.1f", r.DemapCopies),
		})
	}
	title := "Management study — page protection change and demap costs (§1, §4.3)\n"
	if markdown {
		return title + "\n" + report.MarkdownTable(headers, out)
	}
	return title + report.Table(headers, out)
}
