// Command vcoma-sim runs one benchmark on one machine configuration and
// prints a run summary: execution-time breakdown, cache and protocol
// statistics, and translation-buffer behaviour. The cell resolves the way
// vcoma-serve resolves a request (experiments.Cell), attraction memory
// scaled to the workload.
//
// -record DIR writes the cell's reference streams to a trace directory
// instead of simulating; -replay DIR runs a recorded trace in place of
// -bench, on the machine the other flags describe, with every output the
// live run has. A replay runs at the scale the trace was recorded at; a
// -scale that names another is an error.
//
// Examples:
//
//	vcoma-sim -bench RADIX -scheme vcoma -scale small
//	vcoma-sim -bench FFT -scheme l0 -tlb 16 -org dm -scale test
//	vcoma-sim -bench OCEAN -scheme vcoma -json | jq .breakdown
//	vcoma-sim -record /tmp/radix -bench RADIX -scale test
//	vcoma-sim -replay /tmp/radix -scheme l0 -v
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"vcoma"
	"vcoma/internal/cli"
	"vcoma/internal/experiments"
	"vcoma/internal/network"
	"vcoma/internal/obs"
	"vcoma/internal/report"
	"vcoma/internal/workload"
)

// cellFlags registers the flags naming the simulated cell on fs and
// returns a function that assembles the cell after parsing.
func cellFlags(fs *flag.FlagSet) func() experiments.Cell {
	bench := fs.String("bench", "RADIX", "benchmark: RADIX, FFT, FMM, OCEAN, RAYTRACE, BARNES")
	scheme := fs.String("scheme", "vcoma", "translation scheme: l0, l1, l2, l3, vcoma")
	scale := fs.String("scale", "small", "workload scale: test, small, paper")
	entries := fs.Int("tlb", 8, "TLB/DLB entries (0 = the baseline's)")
	org := fs.String("org", "fa", "TLB/DLB organization: fa (fully associative) or dm (direct mapped)")
	seed := fs.Uint64("seed", 0, "override the configuration seed (0 = default)")
	return func() experiments.Cell {
		return experiments.Cell{Bench: *bench, Scheme: *scheme, Scale: *scale, Org: *org, TLB: *entries, Seed: *seed}
	}
}

func main() {
	code, err := run()
	cli.Exit(log, "vcoma-sim", startTime, dumpOpLog, code, err)
}

func run() (int, error) {
	cellOf := cellFlags(flag.CommandLine)
	var (
		verbose   = flag.Bool("v", false, "print per-node statistics")
		jsonOut   = flag.Bool("json", false, "emit the run summary as JSON (report.RunSummary schema)")
		recordDir = flag.String("record", "", "record the cell's reference streams to this trace directory instead of simulating")
		replayDir = flag.String("replay", "", "simulate the trace recorded in this directory instead of -bench")

		metricsOut      = flag.String("metrics-out", "", "write epoch-sampled metrics to this file (.csv for CSV, else JSON)")
		metricsInterval = flag.Uint64("metrics-interval", 10000, "sampling epoch in simulated cycles for -metrics-out")
		traceOut        = flag.String("trace-out", "", "write Chrome trace-event JSON (open in Perfetto) to this file")
		traceCats       = flag.String("trace-categories", "", "comma-separated trace categories to keep: trans,dlb,coh,repl,sync (empty = all)")
		pprofAddr       = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	budgetOf, jobTimeout := cli.BudgetFlags()
	fsFaultOf := cli.FsFaultFlags()
	newLog := cli.LogFlags("vcoma-sim")
	flag.Parse()
	log = newLog()

	if err := obs.StartPprof(*pprofAddr); err != nil {
		return cli.ExitErr, err
	}
	fsys, fsDump, err := fsFaultOf()
	if err != nil {
		return cli.ExitErr, err
	}
	dumpOpLog = fsDump

	if *recordDir != "" && *replayDir != "" {
		return cli.ExitErr, errors.New("-record and -replay are exclusive")
	}
	cell := cellOf()
	if *replayDir != "" {
		recorded, err := workload.RecordedScale(*replayDir)
		if err != nil {
			return cli.ExitErr, err
		}
		set := false
		flag.Visit(func(f *flag.Flag) { set = set || f.Name == "scale" })
		if s, err := workload.ParseScale(cell.Scale); set && (err != nil || s != recorded) {
			return cli.ExitErr, fmt.Errorf("-scale %s, but %s was recorded at scale %s", cell.Scale, *replayDir, recorded)
		}
		cell.Scale = recorded.String()
	}
	cfg, bench, scale, err := cell.Resolve()
	if err != nil {
		return cli.ExitErr, err
	}
	if *recordDir != "" {
		prog, err := bench.Build(cfg.Geometry, cfg.Geometry.Nodes())
		if err != nil {
			return cli.ExitErr, err
		}
		n, err := workload.Record(prog, scale, *recordDir, fsys)
		if err != nil {
			return cli.ExitErr, err
		}
		fmt.Printf("recorded %s: %d events across %d processors into %s\n", prog.Name(), n, prog.Procs(), *recordDir)
		return cli.ExitOK, nil
	}
	if *replayDir != "" {
		bench = workload.Recorded(*replayDir)
	}

	var o *vcoma.Observer
	if *metricsOut != "" || *traceOut != "" {
		opt := vcoma.ObserverOptions{TraceCategories: *traceCats}
		if *metricsOut != "" {
			opt.MetricsInterval = *metricsInterval
		}
		if *traceOut != "" {
			opt.TraceCapacity = 1 << 16
		}
		o = vcoma.NewObserver(opt)
	}

	// The run is supervised: Ctrl-C aborts it cleanly (exit 128+signum),
	// and any armed watchdog budget or -job-timeout trips with a full
	// diagnostic dump instead of a hang.
	ctx, cancel := cli.SignalContext(context.Background(), "vcoma-sim")
	defer cancel(nil)
	runCtx := ctx
	if *jobTimeout > 0 {
		var stop context.CancelFunc
		runCtx, stop = context.WithTimeout(ctx, *jobTimeout)
		defer stop()
	}

	start := time.Now()
	res, err := vcoma.Run(runCtx, cfg, bench, vcoma.RunOptions{Observer: o, Budget: budgetOf()})
	if err != nil {
		var we *vcoma.WatchdogError
		if errors.As(err, &we) {
			fmt.Fprint(os.Stderr, we.Dump.Render())
		}
		return cli.ExitCode(ctx, err), err
	}
	elapsed := time.Since(start)

	if *metricsOut != "" {
		ts := o.Sampler.Export()
		render := ts.WriteJSON
		if strings.HasSuffix(*metricsOut, ".csv") {
			render = ts.WriteCSV
		}
		if err := cli.AtomicOutput(fsys, "metrics-out", *metricsOut, render); err != nil {
			return cli.ExitErr, err
		}
	}
	if *traceOut != "" {
		if err := cli.AtomicOutput(fsys, "trace-out", *traceOut, func(w io.Writer) error {
			return o.Tracer.WriteJSON(w, "node")
		}); err != nil {
			return cli.ExitErr, err
		}
	}

	// The deterministic part of the summary is built by the same helper the
	// service uses, so `vcoma-sim -json` and a vcoma-serve artifact agree
	// field for field; wall time is stamped on afterwards.
	sum := experiments.RunSummaryOf(cfg, bench.Name(), scale, res.Layout(), res.Machine, res.Sim)
	sum.SimSeconds = elapsed.Seconds()
	if *jsonOut {
		if o != nil {
			if o.Sampler != nil {
				ts := o.Sampler.Export()
				sum.TimeSeries = &ts
			}
			sum.Latency = o.Registry.Histograms()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return cli.ExitErr, err
		}
		return cli.ExitOK, nil
	}
	printSummary(sum, elapsed, res.Machine.Protocol().Fabric().Stats())
	if o != nil {
		for _, h := range o.Registry.Histograms() {
			fmt.Printf("\n%s\n", h.Render())
		}
		if tr := o.Tracer; tr != nil && tr.Dropped() > 0 {
			fmt.Printf("\ntrace: ring buffer full, %d oldest events dropped\n", tr.Dropped())
		}
	}
	if *verbose {
		fmt.Println("\nper-node references and stalls:")
		var rows [][]string
		for n, p := range res.Sim.Procs {
			rows = append(rows, []string{
				fmt.Sprint(n), fmt.Sprint(p.Refs), fmt.Sprint(p.Busy), fmt.Sprint(p.Sync),
				fmt.Sprint(p.StallLocal), fmt.Sprint(p.StallRemote), fmt.Sprint(p.Trans), fmt.Sprint(p.Finish),
			})
		}
		fmt.Println(report.Table([]string{"node", "refs", "busy", "sync", "loc", "rem", "trans", "finish"}, rows))
	}
	return cli.ExitOK, nil
}

// printSummary renders the run summary as text; ns adds the network
// traffic the summary schema leaves out.
func printSummary(sum report.RunSummary, elapsed time.Duration, ns network.Stats) {
	fmt.Printf("%s on %s (%d entries, %s), scale %s — simulated in %v\n\n",
		sum.Benchmark, sum.Scheme, sum.TLBEntries, sum.TLBOrg, sum.Scale, elapsed.Round(time.Millisecond))
	fmt.Printf("shared data: %.2f MB in %d regions\n", sum.SharedMB, sum.Regions)
	fmt.Printf("execution time: %d cycles (%.2f ms at 200 MHz)\n\n", sum.ExecCycles, float64(sum.ExecCycles)/200e3)

	b := sum.Breakdown
	var rows [][]string
	for _, c := range []struct {
		name   string
		cycles float64
	}{{"busy", b.Busy}, {"sync", b.Sync}, {"loc-stall", b.Local}, {"rem-stall", b.Remote}, {"translation", b.Trans}} {
		rows = append(rows, []string{c.name, fmt.Sprint(uint64(c.cycles)), fmt.Sprintf("%.1f%%", 100*c.cycles/b.Total())})
	}
	fmt.Println(report.Table([]string{"category", "cycles/proc", "share"}, rows))

	fmt.Printf("references: %d (%.1f%% writes)\n", sum.Refs, sum.WritePct)
	fmt.Printf("hits: FLC %.1f%%  SLC %.1f%%  local-AM %.1f%%  remote %.2f%%\n",
		sum.Hits.FLC, sum.Hits.SLC, sum.Hits.LocalAM, sum.Hits.Remote)
	if t := sum.TLB; t != nil {
		fmt.Printf("TLB: %d accesses, %d misses (%.2f%% of refs)\n", t.Accesses, t.Misses, t.MissPctOfRefs)
	}
	if d := sum.DLB; d != nil {
		fmt.Printf("DLB: %d lookups, %d misses (%.4f%% of refs)\n", d.Accesses, d.Misses, d.MissPctOfRefs)
	}
	ps := sum.Protocol
	fmt.Printf("protocol: %d remote reads, %d upgrades, %d write fetches, %d invalidations\n",
		ps.RemoteReads, ps.Upgrades, ps.WriteFetches, ps.Invalidations)
	fmt.Printf("replacement: %d shared drops, %d relocations, %d injections (%d hops), %d swaps\n",
		ps.SharedDrops, ps.Relocations, ps.Injections, ps.InjectionHops, ps.Swaps)
	fmt.Printf("network: %d requests, %d blocks, %.1f queue cycles/message\n",
		ns.Requests, ns.Blocks, float64(ns.QueueCycles)/float64(ns.Requests+ns.Blocks))
}

// startTime and log feed the final structured line every exit path emits;
// dumpOpLog writes the -fsfault-log op trace once flags are parsed.
var (
	startTime = time.Now()
	log       *slog.Logger
	dumpOpLog func() error
)
