// Command vcoma-trace records workload reference streams to files and
// replays recorded traces through the simulator — the classic trace-driven
// methodology, and the way to feed custom traces to the machine without
// writing a generator.
//
//	vcoma-trace -record -bench RADIX -scale test -dir /tmp/radix
//	vcoma-trace -replay -dir /tmp/radix -scheme vcoma -tlb 8
//	vcoma-trace -replay -dir /tmp/radix -trace-out radix.trace.json -metrics-out radix.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vcoma"
	"vcoma/internal/addr"
	"vcoma/internal/cli"
	"vcoma/internal/config"
	"vcoma/internal/experiments"
	"vcoma/internal/fsio"
	"vcoma/internal/machine"
	"vcoma/internal/obs"
	"vcoma/internal/report"
	"vcoma/internal/sim"
	"vcoma/internal/trace"
	"vcoma/internal/vm"
	"vcoma/internal/workload"
)

func main() {
	var (
		record    = flag.Bool("record", false, "record a benchmark's streams to -dir")
		replay    = flag.Bool("replay", false, "replay streams from -dir through a machine")
		dir       = flag.String("dir", "", "trace directory (one file per processor + layout)")
		benchName = flag.String("bench", "RADIX", "benchmark to record")
		scaleStr  = flag.String("scale", "test", "workload scale: test, small, paper")
		schemeStr = flag.String("scheme", "vcoma", "scheme for -replay: l0, l1, l2, l3, vcoma")
		entries   = flag.Int("tlb", 8, "TLB/DLB entries for -replay")

		metricsOut      = flag.String("metrics-out", "", "replay: write epoch-sampled metrics to this file (.csv for CSV, else JSON)")
		metricsInterval = flag.Uint64("metrics-interval", 10000, "sampling epoch in simulated cycles for -metrics-out")
		traceOut        = flag.String("trace-out", "", "replay: write Chrome trace-event JSON (open in Perfetto) to this file")
		traceCats       = flag.String("trace-categories", "", "comma-separated trace categories to keep: trans,dlb,coh,repl,sync (empty = all)")
		pprofAddr       = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	budgetOf := cli.BudgetFlags()
	fsFaultOf := cli.FsFaultFlags()
	newLog := cli.LogFlags("vcoma-trace")
	flag.Parse()
	log = newLog()
	if *dir == "" || *record == *replay {
		fatal(fmt.Errorf("need exactly one of -record/-replay, and -dir"))
	}
	if err := obs.StartPprof(*pprofAddr); err != nil {
		fatal(err)
	}
	fsys, fsDump, err := fsFaultOf()
	if err != nil {
		fatal(err)
	}
	dumpOpLog = fsDump

	scale, err := workload.ParseScale(*scaleStr)
	if err != nil {
		fatal(err)
	}
	cfg := experiments.ConfigForScale(vcoma.Baseline(), scale)

	if *record {
		if err := doRecord(cfg, *benchName, scale, *dir, fsys); err != nil {
			fatal(err)
		}
		cli.LogExit(log, "vcoma-trace", startTime, cli.ExitOK, nil)
		return
	}
	scheme, err := config.ParseScheme(*schemeStr)
	if err != nil {
		fatal(err)
	}
	var o *obs.Observer
	if *metricsOut != "" || *traceOut != "" {
		opt := obs.Options{TraceCategories: *traceCats}
		if *metricsOut != "" {
			opt.MetricsInterval = *metricsInterval
		}
		if *traceOut != "" {
			opt.TraceCapacity = 1 << 16
		}
		o = obs.New(opt)
	}
	if err := doReplay(cfg.WithScheme(scheme).WithTLB(*entries, vcoma.FullyAssoc), *dir, o, *metricsOut, *traceOut, budgetOf(), fsys); err != nil {
		var we *sim.WatchdogError
		if errors.As(err, &we) {
			fmt.Fprint(os.Stderr, we.Dump.Render())
		}
		fatal(err)
	}
	writeOpLog()
	cli.LogExit(log, "vcoma-trace", startTime, cli.ExitOK, nil)
}

// layoutFile stores the regions needed to preload a replayed trace:
// name, base, bytes per line.
const layoutFile = "layout.txt"

func doRecord(cfg vcoma.Config, benchName string, scale workload.Scale, dir string, fsys *fsio.FS) error {
	bench, err := workload.ByName(strings.ToUpper(benchName), scale)
	if err != nil {
		return err
	}
	prog, err := bench.Build(cfg.Geometry, cfg.Geometry.Nodes())
	if err != nil {
		return err
	}
	if err := fsys.MkdirAll("record", dir); err != nil {
		return err
	}

	var lay strings.Builder
	for _, r := range prog.Layout().Regions() {
		fmt.Fprintf(&lay, "%s %d %d\n", r.Name, uint64(r.Base), r.Bytes)
	}
	if err := fsys.WriteFileAtomic("record", filepath.Join(dir, layoutFile), []byte(lay.String())); err != nil {
		return err
	}

	total := uint64(0)
	for p, s := range prog.Streams() {
		f, err := fsys.Create("record", filepath.Join(dir, fmt.Sprintf("proc%03d.vct", p)))
		if err != nil {
			return err
		}
		rec, err := trace.NewRecorder(s, f)
		if err != nil {
			return err
		}
		for {
			if _, ok := rec.Next(); !ok {
				break
			}
		}
		if err := rec.Close(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		total += rec.Count()
	}
	fmt.Printf("recorded %s: %d events across %d processors into %s\n",
		prog.Name(), total, prog.Procs(), dir)
	return nil
}

func doReplay(cfg vcoma.Config, dir string, o *obs.Observer, metricsOut, traceOut string, budget sim.Budget, fsys *fsio.FS) error {
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	m.AttachObserver(o)

	// Preload from the saved layout.
	layBytes, err := os.ReadFile(filepath.Join(dir, layoutFile))
	if err != nil {
		return err
	}
	var regions []vm.Region
	for _, line := range strings.Split(strings.TrimSpace(string(layBytes)), "\n") {
		var name string
		var base, size uint64
		if _, err := fmt.Sscanf(line, "%s %d %d", &name, &base, &size); err != nil {
			return fmt.Errorf("bad layout line %q: %w", line, err)
		}
		regions = append(regions, vm.Region{Name: name, Base: addr.Virtual(base), Bytes: size})
	}
	layout, err := vm.LayoutFromRegions(cfg.Geometry, regions)
	if err != nil {
		return err
	}
	m.Preload(layout)

	var streams []trace.Stream
	var files []*os.File
	for p := 0; p < cfg.Geometry.Nodes(); p++ {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("proc%03d.vct", p)))
		if err != nil {
			return err
		}
		files = append(files, f)
		rd, err := trace.NewReader(f)
		if err != nil {
			return err
		}
		streams = append(streams, rd)
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()

	eng, err := sim.New(m, streams)
	if err != nil {
		return err
	}
	// Replays are supervised like live runs: Ctrl-C cancels, budgets trip
	// with a diagnostic dump.
	ctx, cancel := cli.SignalContext(context.Background(), "vcoma-trace")
	defer cancel(nil)
	runCtx = ctx
	eng.SetBudget(budget)
	eng.SetContext(ctx)
	eng.SetObserver(o)
	start := time.Now()
	res, err := eng.Run()
	if err != nil {
		return err
	}
	tot := res.TotalProc()
	fmt.Printf("replayed %d events on %v in %v\n", res.Events, cfg.Scheme, time.Since(start).Round(time.Millisecond))
	fmt.Printf("exec=%d cycles  busy=%d sync=%d loc=%d rem=%d trans=%d\n",
		res.ExecTime, tot.Busy, tot.Sync, tot.StallLocal, tot.StallRemote, tot.Trans)

	fmt.Printf("\n%s", replaySummary(res))
	if o != nil {
		for _, h := range o.Registry.Histograms() {
			fmt.Printf("\n%s\n", h.Render())
		}
	}

	if metricsOut != "" && o.Sampler != nil {
		ts := o.Sampler.Export()
		render := ts.WriteJSON
		if strings.HasSuffix(metricsOut, ".csv") {
			render = ts.WriteCSV
		}
		if err := cli.AtomicOutput(fsys, "metrics-out", metricsOut, render); err != nil {
			return err
		}
		fmt.Printf("\nwrote metrics to %s\n", metricsOut)
	}
	if traceOut != "" && o.Tracer != nil {
		if err := cli.AtomicOutput(fsys, "trace-out", traceOut, func(w io.Writer) error {
			return o.Tracer.WriteJSON(w, "node")
		}); err != nil {
			return err
		}
		fmt.Printf("wrote trace to %s (open at https://ui.perfetto.dev)\n", traceOut)
		if n := o.Tracer.Dropped(); n > 0 {
			fmt.Printf("trace: ring buffer full, %d oldest events dropped\n", n)
		}
	}
	return nil
}

// replaySummary renders the per-processor cycle breakdown as a table: where
// each processor spent its time, and when it finished relative to the rest.
func replaySummary(res sim.Result) string {
	headers := []string{"proc", "refs", "busy", "sync", "loc", "rem", "trans", "finish"}
	var rows [][]string
	for p, st := range res.Procs {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%d", st.Refs),
			fmt.Sprintf("%d", st.Busy),
			fmt.Sprintf("%d", st.Sync),
			fmt.Sprintf("%d", st.StallLocal),
			fmt.Sprintf("%d", st.StallRemote),
			fmt.Sprintf("%d", st.Trans),
			fmt.Sprintf("%d", st.Finish),
		})
	}
	return report.Table(headers, rows)
}

// runCtx is the replay's signal context once armed; fatal consults it so an
// interrupted replay exits 128+signum per the shared convention. startTime
// and log feed the final structured line every exit path emits.
var (
	runCtx    context.Context
	startTime = time.Now()
	log       *slog.Logger
)

// dumpOpLog writes the -fsfault-log op trace; set once flags are parsed.
var dumpOpLog func() error

func writeOpLog() {
	if dumpOpLog != nil {
		if err := dumpOpLog(); err != nil {
			fmt.Fprintf(os.Stderr, "vcoma-trace: fsfault-log: %v\n", err)
		}
	}
}

func fatal(err error) {
	writeOpLog()
	fmt.Fprintln(os.Stderr, "vcoma-trace:", err)
	code := cli.ExitCode(runCtx, err)
	cli.LogExit(log, "vcoma-trace", startTime, code, err)
	os.Exit(code)
}
