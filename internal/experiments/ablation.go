package experiments

import (
	"context"
	"fmt"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/report"
	"vcoma/internal/workload"
)

// AblationRow measures one design variant of the V-COMA machine against
// the baseline.
type AblationRow struct {
	Label string
	// ExecTime is the parallel execution time.
	ExecTime uint64
	// RemoteStall is total remote-stall cycles across processors.
	RemoteStall uint64
	// Injections counts data injections (replacement traffic).
	Injections uint64
	// QueueCycles is total network queueing.
	QueueCycles uint64
	// Relative is ExecTime / baseline ExecTime.
	Relative float64
}

// AblationVariant is one design knob disabled in isolation: a label and
// the exact configuration the timed pass runs.
type AblationVariant struct {
	Label string
	Cfg   config.Config
}

// AblationVariants enumerates the study's configurations on the V-COMA
// machine, baseline first (DESIGN.md's ablation list): master relocation in
// the replacement protocol, split request/reply networks, and
// protocol-engine occupancy.
func AblationVariants(cfg config.Config) []AblationVariant {
	base := cfg.WithScheme(config.VCOMA).WithTLB(8, config.FullyAssoc)
	noReloc := base
	noReloc.Ablation.NoMasterRelocation = true
	shared := base
	shared.Ablation.SharedNetworkChannel = true
	infPE := base
	infPE.Ablation.InfinitePEBandwidth = true
	return []AblationVariant{
		{"baseline (evaluated design)", base},
		{"no master relocation", noReloc},
		{"shared request/reply channel", shared},
		{"infinite PE bandwidth", infPE},
	}
}

// AblationRun executes one variant's pass under ctx (cancellation,
// deadline, watchdog budget). Relative is left zero; the assembly
// normalizes against the baseline row.
func AblationRun(ctx context.Context, v AblationVariant, bench workload.Benchmark) (AblationRow, error) {
	m, _, res, err := Pass(ctx, v.Cfg, bench, nil, nil)
	if err != nil {
		return AblationRow{}, err
	}
	tot := res.TotalProc()
	return AblationRow{
		Label:       v.Label,
		ExecTime:    res.ExecTime,
		RemoteStall: tot.StallRemote,
		Injections:  m.Protocol().Stats().Injections,
		QueueCycles: m.Protocol().Fabric().Stats().QueueCycles,
	}, nil
}

// NormalizeAblation fills each row's Relative against the first (baseline)
// row and returns rows for chaining.
func NormalizeAblation(rows []AblationRow) []AblationRow {
	if len(rows) == 0 || rows[0].ExecTime == 0 {
		return rows
	}
	base := float64(rows[0].ExecTime)
	for i := range rows {
		rows[i].Relative = float64(rows[i].ExecTime) / base
	}
	return rows
}

// RenderAblation renders one benchmark's ablation study.
func RenderAblation(bench string, rows []AblationRow, markdown bool) string {
	headers := []string{"variant", "exec cycles", "vs baseline", "remote stall", "injections", "net queue"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Label,
			fmt.Sprint(r.ExecTime),
			fmt.Sprintf("%.3f", r.Relative),
			report.Count(float64(r.RemoteStall)),
			fmt.Sprint(r.Injections),
			report.Count(float64(r.QueueCycles)),
		})
	}
	title := fmt.Sprintf("Ablation — %s: V-COMA design choices in isolation\n", bench)
	if markdown {
		return title + "\n" + report.MarkdownTable(headers, out)
	}
	return title + report.Table(headers, out)
}

// DLBOrgs are the organizations the associativity sweep covers.
var DLBOrgs = []config.TLBOrg{config.FullyAssoc, config.SetAssoc4, config.SetAssoc2, config.DirectMapped}

// DLBOrgCell runs one (organization, size) cell of the sweep on the V-COMA
// machine under ctx (cancellation, deadline, watchdog budget) and returns
// the machine-wide DLB miss count.
func DLBOrgCell(ctx context.Context, cfg config.Config, bench workload.Benchmark, size int, org config.TLBOrg) (uint64, error) {
	c := cfg.WithScheme(config.VCOMA).WithTLB(size, org)
	m, _, _, err := Pass(ctx, c, bench, nil, nil)
	if err != nil {
		return 0, err
	}
	var misses uint64
	for n := 0; n < c.Geometry.Nodes(); n++ {
		misses += m.Engine(addr.Node(n)).Stats().Misses
	}
	return misses, nil
}

// RenderDLBOrg renders one benchmark's organization sweep: the
// associativity dimension the paper only samples at its two extremes in
// Figure 9.
func RenderDLBOrg(bench string, data map[config.TLBOrg]map[int]uint64, sizes []int, markdown bool) string {
	headers := []string{"organization"}
	for _, s := range sizes {
		headers = append(headers, fmt.Sprint(s))
	}
	var out [][]string
	for _, org := range DLBOrgs {
		row := []string{org.String()}
		for _, s := range sizes {
			row = append(row, fmt.Sprint(data[org][s]))
		}
		out = append(out, row)
	}
	title := fmt.Sprintf("DLB associativity sweep — %s: total DLB misses machine-wide\n", bench)
	if markdown {
		return title + "\n" + report.MarkdownTable(headers, out)
	}
	return title + report.Table(headers, out)
}
