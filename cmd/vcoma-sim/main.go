// Command vcoma-sim runs one benchmark on one machine configuration and
// prints a run summary: execution-time breakdown, cache and protocol
// statistics, and translation-buffer behaviour.
//
// Examples:
//
//	vcoma-sim -bench RADIX -scheme vcoma -scale small
//	vcoma-sim -bench FFT -scheme l0 -tlb 16 -org dm -scale test
//	vcoma-sim -bench OCEAN -scheme vcoma -json | jq .breakdown
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
	"vcoma/internal/config"
	"vcoma/internal/experiments"
	"vcoma/internal/obs"
	"vcoma/internal/report"
	"vcoma/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "RADIX", "benchmark: RADIX, FFT, FMM, OCEAN, RAYTRACE, BARNES")
		schemeStr = flag.String("scheme", "vcoma", "translation scheme: l0, l1, l2, l3, vcoma")
		scaleStr  = flag.String("scale", "small", "workload scale: test, small, paper")
		entries   = flag.Int("tlb", 8, "TLB/DLB entries")
		orgStr    = flag.String("org", "fa", "TLB/DLB organization: fa (fully associative) or dm (direct mapped)")
		seed      = flag.Uint64("seed", 0, "override the configuration seed (0 = default)")
		verbose   = flag.Bool("v", false, "print per-node statistics")
		jsonOut   = flag.Bool("json", false, "emit the run summary as JSON (report.RunSummary schema)")

		metricsOut      = flag.String("metrics-out", "", "write epoch-sampled metrics to this file (.csv for CSV, else JSON)")
		metricsInterval = flag.Uint64("metrics-interval", 10000, "sampling epoch in simulated cycles for -metrics-out")
		traceOut        = flag.String("trace-out", "", "write Chrome trace-event JSON (open in Perfetto) to this file")
		traceCats       = flag.String("trace-categories", "", "comma-separated trace categories to keep: trans,dlb,coh,repl,sync (empty = all)")
		pprofAddr       = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	budgetOf := cli.BudgetFlags()
	fsFaultOf := cli.FsFaultFlags()
	newLog := cli.LogFlags("vcoma-sim")
	flag.Parse()
	log = newLog()

	if err := obs.StartPprof(*pprofAddr); err != nil {
		fatal(err)
	}
	fsys, fsDump, err := fsFaultOf()
	if err != nil {
		fatal(err)
	}
	dumpOpLog = fsDump

	cfg := vcoma.Baseline()
	scheme, err := config.ParseScheme(*schemeStr)
	if err != nil {
		fatal(err)
	}
	org := vcoma.FullyAssoc
	if strings.EqualFold(*orgStr, "dm") {
		org = vcoma.DirectMapped
	}
	cfg = cfg.WithScheme(scheme).WithTLB(*entries, org)
	if *seed != 0 {
		cfg.Seed = *seed
	}
	scale, err := workload.ParseScale(*scaleStr)
	if err != nil {
		fatal(err)
	}
	bench, err := vcoma.BenchmarkByName(strings.ToUpper(*benchName), scale)
	if err != nil {
		fatal(err)
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

	// The run is supervised: Ctrl-C aborts it cleanly, and any armed
	// watchdog budget trips with a full diagnostic dump instead of a hang.
	ctx, cancel := cli.SignalContext(context.Background(), "vcoma-sim")
	defer cancel(nil)
	runCtx = ctx

	start := time.Now()
	res, err := vcoma.Run(ctx, cfg, bench, vcoma.RunOptions{Observer: o, Budget: budgetOf()})
	if err != nil {
		var we *vcoma.WatchdogError
		if errors.As(err, &we) {
			fmt.Fprint(os.Stderr, we.Dump.Render())
		}
		fatal(err)
	}
	elapsed := time.Since(start)

	if *metricsOut != "" {
		ts := o.Sampler.Export()
		render := ts.WriteJSON
		if strings.HasSuffix(*metricsOut, ".csv") {
			render = ts.WriteCSV
		}
		if err := cli.AtomicOutput(fsys, "metrics-out", *metricsOut, render); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if err := cli.AtomicOutput(fsys, "trace-out", *traceOut, func(w io.Writer) error {
			return o.Tracer.WriteJSON(w, "node")
		}); err != nil {
			fatal(err)
		}
	}

	tot := res.Sim.TotalProc()
	ms := res.Machine.TotalStats()
	ps := res.Machine.Protocol().Stats()
	ns := res.Machine.Protocol().Fabric().Stats()

	if *jsonOut {
		// The deterministic part of the summary is built by the same helper
		// the service uses, so `vcoma-sim -json` and a vcoma-serve artifact
		// agree field for field; wall time is stamped on afterwards.
		sum := experiments.RunSummaryOf(cfg, bench.Name(), scale, res.Program.Layout(), res.Machine, res.Sim)
		sum.SimSeconds = elapsed.Seconds()
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
			fatal(err)
		}
		writeOpLog()
		cli.LogExit(log, "vcoma-sim", startTime, cli.ExitOK, nil)
		return
	}

	fmt.Printf("%s on %v (%d entries, %v), scale %v — simulated in %v\n\n",
		bench.Name(), scheme, *entries, org, scale, elapsed.Round(time.Millisecond))
	fmt.Printf("shared data: %.2f MB in %d regions\n", res.SharedMB(), len(res.Layout().Regions()))
	fmt.Printf("execution time: %d cycles (%.2f ms at 200 MHz)\n\n",
		res.ExecTime(), float64(res.ExecTime())/200e3)

	total := float64(tot.Total())
	rows := [][]string{
		{"busy", fmt.Sprint(tot.Busy / uint64(len(res.Sim.Procs))), pct(float64(tot.Busy), total)},
		{"sync", fmt.Sprint(tot.Sync / uint64(len(res.Sim.Procs))), pct(float64(tot.Sync), total)},
		{"loc-stall", fmt.Sprint(tot.StallLocal / uint64(len(res.Sim.Procs))), pct(float64(tot.StallLocal), total)},
		{"rem-stall", fmt.Sprint(tot.StallRemote / uint64(len(res.Sim.Procs))), pct(float64(tot.StallRemote), total)},
		{"translation", fmt.Sprint(tot.Trans / uint64(len(res.Sim.Procs))), pct(float64(tot.Trans), total)},
	}
	fmt.Println(report.Table([]string{"category", "cycles/proc", "share"}, rows))

	fmt.Printf("references: %d (%.1f%% writes)\n", ms.Refs, 100*float64(ms.Writes)/float64(ms.Refs))
	fmt.Printf("hits: FLC %.1f%%  SLC %.1f%%  local-AM %.1f%%  remote %.2f%%\n",
		100*float64(ms.FLCHits)/float64(ms.Refs), 100*float64(ms.SLCHits)/float64(ms.Refs),
		100*float64(ms.LocalAM)/float64(ms.Refs), 100*float64(ms.Remote)/float64(ms.Refs))
	if ms.TLBAccesses > 0 {
		fmt.Printf("TLB: %d accesses, %d misses (%.2f%% of refs)\n",
			ms.TLBAccesses, ms.TLBMisses, 100*float64(ms.TLBMisses)/float64(ms.Refs))
	}
	if scheme == vcoma.VCOMA {
		var lookups, misses uint64
		for n := 0; n < cfg.Geometry.Nodes(); n++ {
			st := res.Machine.Engine(vcoma.Node(n)).Stats()
			lookups += st.Lookups
			misses += st.Misses
		}
		fmt.Printf("DLB: %d lookups, %d misses (%.4f%% of refs)\n",
			lookups, misses, 100*float64(misses)/float64(ms.Refs))
	}
	fmt.Printf("protocol: %d remote reads, %d upgrades, %d write fetches, %d invalidations\n",
		ps.RemoteReads, ps.Upgrades, ps.WriteFetches, ps.Invalidations)
	fmt.Printf("replacement: %d shared drops, %d relocations, %d injections (%d hops), %d swaps\n",
		ps.SharedDrops, ps.Relocations, ps.Injections, ps.InjectionHops, ps.Swaps)
	fmt.Printf("network: %d requests, %d blocks, %.1f queue cycles/message\n",
		ns.Requests, ns.Blocks, float64(ns.QueueCycles)/float64(ns.Requests+ns.Blocks))

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
		for n := 0; n < cfg.Geometry.Nodes(); n++ {
			s := res.Machine.NodeStats(vcoma.Node(n))
			p := res.Sim.Procs[n]
			rows = append(rows, []string{
				fmt.Sprint(n), fmt.Sprint(s.Refs), fmt.Sprint(p.Busy), fmt.Sprint(p.Sync),
				fmt.Sprint(p.StallLocal), fmt.Sprint(p.StallRemote), fmt.Sprint(p.Trans), fmt.Sprint(p.Finish),
			})
		}
		fmt.Println(report.Table([]string{"node", "refs", "busy", "sync", "loc", "rem", "trans", "finish"}, rows))
	}
	writeOpLog()
	cli.LogExit(log, "vcoma-sim", startTime, cli.ExitOK, nil)
}

func pct(v, total float64) string { return fmt.Sprintf("%.1f%%", 100*v/total) }

// runCtx is the signal context once armed; fatal consults it so an
// interrupted run exits 128+signum per the shared convention. startTime and
// log feed the final structured line every exit path emits.
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
			fmt.Fprintf(os.Stderr, "vcoma-sim: fsfault-log: %v\n", err)
		}
	}
}

func fatal(err error) {
	writeOpLog()
	fmt.Fprintln(os.Stderr, "vcoma-sim:", err)
	code := cli.ExitCode(runCtx, err)
	cli.LogExit(log, "vcoma-sim", startTime, code, err)
	os.Exit(code)
}
