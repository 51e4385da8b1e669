package experiments

import (
	"context"
	"fmt"

	"vcoma/internal/config"
	"vcoma/internal/report"
	"vcoma/internal/runner"
	"vcoma/internal/sim"
	"vcoma/internal/vm"
	"vcoma/internal/workload"
)

// Breakdown is a Figure 10 execution-time decomposition, averaged per
// processor, in cycles. It is the shared report schema so runner cache
// entries and vcoma-sim -json output serialize identically.
type Breakdown = report.Breakdown

// Timed runs one exact configuration and returns its breakdown. The pass
// is bounded by ctx (cancellation, deadline, WithBudget watchdog budget),
// and when the context carries an observability sink
// (runner.Options.Metrics) it is instrumented and the runner persists its
// time series next to the job's cache entry. The breakdown itself is
// identical either way.
func Timed(ctx context.Context, cfg config.Config, bench workload.Benchmark, label string) (Breakdown, error) {
	_, _, res, err := Pass(ctx, cfg, bench, nil, runner.ObserverFrom(ctx))
	if err != nil {
		return Breakdown{}, err
	}
	return breakdownOf(label, res, cfg), nil
}

func breakdownOf(label string, res sim.Result, cfg config.Config) Breakdown {
	t := res.TotalProc()
	n := float64(cfg.Geometry.Nodes())
	return Breakdown{
		Label:  label,
		Busy:   float64(t.Busy) / n,
		Sync:   float64(t.Sync) / n,
		Local:  float64(t.StallLocal) / n,
		Remote: float64(t.StallRemote) / n,
		Trans:  float64(t.Trans) / n,
		Exec:   res.ExecTime,
	}
}

// --- Table 4: translation time / total stall time (%) ---

// Table4Sizes are the TLB/DLB sizes of the paper's Table 4.
var Table4Sizes = []int{8, 16}

// Table4Row is one benchmark's ratios.
type Table4Row struct {
	Benchmark string
	// Ratio[size]["L0-TLB"|"DLB"] = translation cycles / (local+remote
	// stall cycles) * 100.
	Ratio map[int]map[string]float64
}

// table4Cell names one timed pass behind a Table 4 row.
type table4Cell struct {
	Size   int
	Scheme config.Scheme
	System string // "L0-TLB" or "DLB", the paper's row labels
}

func (c table4Cell) key() string { return fmt.Sprintf("%s/%d", c.System, c.Size) }

// table4Cells enumerates the timed passes behind one benchmark's Table 4
// row: the L0-TLB and V-COMA machines at each size.
func table4Cells() []table4Cell {
	var cells []table4Cell
	for _, size := range Table4Sizes {
		cells = append(cells,
			table4Cell{size, config.L0TLB, "L0-TLB"},
			table4Cell{size, config.VCOMA, "DLB"})
	}
	return cells
}

// table4FromBreakdowns assembles a Table 4 row from its four timed cells,
// keyed "system/size" (e.g. "DLB/16").
func table4FromBreakdowns(bench string, cells map[string]Breakdown) Table4Row {
	row := Table4Row{Benchmark: bench, Ratio: make(map[int]map[string]float64)}
	for _, c := range table4Cells() {
		if row.Ratio[c.Size] == nil {
			row.Ratio[c.Size] = make(map[string]float64)
		}
		b := cells[c.key()]
		if stall := b.Local + b.Remote; stall > 0 {
			row.Ratio[c.Size][c.System] = 100 * b.Trans / stall
		}
	}
	return row
}

// --- Figure 10: execution time breakdown ---

// Figure10Result is one benchmark's set of configuration breakdowns, in the
// paper's order: TLB/8, TLB/8/DM, DLB/8, DLB/8/DM, and for RAYTRACE also
// DLB/8/V2 (ray stacks realigned to one page).
type Figure10Result struct {
	Benchmark  string
	Breakdowns []Breakdown
}

// Fig10Variant is one timed configuration of Figure 10: a label, the exact
// machine configuration, and the benchmark instance to run (the V2 variant
// rebuilds RAYTRACE with page-aligned ray stacks, so the benchmark is part
// of the variant, not shared).
type Fig10Variant struct {
	Label string
	Cfg   config.Config
	Bench workload.Benchmark
}

// Figure10Variants enumerates the paper's Figure 10 configurations for one
// benchmark at the given scale, in rendering order.
func Figure10Variants(cfg config.Config, name string, scale workload.Scale) ([]Fig10Variant, error) {
	bench, err := workload.ByName(name, scale)
	if err != nil {
		return nil, err
	}
	variants := []Fig10Variant{
		{"TLB/8", cfg.WithScheme(config.L0TLB).WithTLB(8, config.FullyAssoc), bench},
		{"TLB/8/DM", cfg.WithScheme(config.L0TLB).WithTLB(8, config.DirectMapped), bench},
		{"DLB/8", cfg.WithScheme(config.VCOMA).WithTLB(8, config.FullyAssoc), bench},
		{"DLB/8/DM", cfg.WithScheme(config.VCOMA).WithTLB(8, config.DirectMapped), bench},
	}
	if name == "RAYTRACE" {
		// V2: the raystruct padding aligned to one page instead of 32 KB,
		// spreading the stacks' page colours across global sets (§5.3).
		p := scale.Raytrace()
		p.StackAlign = cfg.Geometry.PageSize()
		variants = append(variants, Fig10Variant{
			"DLB/8/V2",
			cfg.WithScheme(config.VCOMA).WithTLB(8, config.FullyAssoc),
			workload.NewRaytrace(p),
		})
	}
	return variants, nil
}

// --- Figure 11: pressure profile ---

// Figure11Result is the per-global-page-set occupancy fraction after
// preloading one benchmark on the V-COMA machine.
type Figure11Result struct {
	Benchmark string
	Pressure  []float64
	// MaxSlots is the global-set capacity P*K the fractions are relative
	// to.
	MaxSlots int
}

// Figure11 computes the pressure profile. No simulation is needed: the
// paper's profile is a property of the virtual address layout (pressure is
// set at page allocation, i.e. preload).
func Figure11(cfg config.Config, bench workload.Benchmark) (Figure11Result, error) {
	prog, err := bench.Build(cfg.Geometry, cfg.Geometry.Nodes())
	if err != nil {
		return Figure11Result{}, err
	}
	sys := vm.NewSystem(cfg.Geometry, vm.VirtualOnly)
	prog.Layout().PreloadAll(sys)
	return Figure11Result{
		Benchmark: bench.Name(),
		Pressure:  sys.PressureProfile(),
		MaxSlots:  cfg.Geometry.PageSlotsPerGlobalSet(),
	}, nil
}
