// Command vcoma-sweep regenerates one of the paper's tables or figures.
// Passes run through the experiment runner: in parallel on a bounded worker
// pool (-jobs) with an on-disk result cache (-cache) shared with
// vcoma-report. Output order follows the benchmark list, never completion
// order.
//
// Runs are supervised: SIGINT/SIGTERM cancels cleanly, per-pass deadlines
// (-job-timeout) and watchdog budgets (-max-cycles, -stall-events, ...)
// reclaim hung simulations, transient failures retry (-retries), and an
// interrupted sweep resumes from its journal (-resume) without recomputing
// finished passes.
//
// Examples:
//
//	vcoma-sweep -exp fig8 -bench RADIX -scale small
//	vcoma-sweep -exp table2 -scale small          # all six benchmarks
//	vcoma-sweep -exp fig10 -bench RAYTRACE -scale small -jobs 4
//	vcoma-sweep -exp table4 -scale paper -job-timeout 10m -retries 2
//	vcoma-sweep -exp table4 -scale paper -resume  # after an interruption
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"vcoma"
	"vcoma/internal/cli"
	"vcoma/internal/experiments"
	"vcoma/internal/obs"
	"vcoma/internal/runner"
	"vcoma/internal/workload"
)

func main() {
	code := run()
	cli.LogExit(log, "vcoma-sweep", startTime, code, nil)
	os.Exit(code)
}

func run() int {
	var (
		expName    = flag.String("exp", "fig8", "experiment: fig8, fig9, table2, table3, table4, fig10, fig11, mgmt, tags, ablation, dlborg")
		benchList  = flag.String("bench", "", "comma-separated benchmarks (default: all six)")
		scaleStr   = flag.String("scale", "small", "workload scale: test, small, paper")
		markdown   = flag.Bool("md", false, "emit Markdown tables")
		jobs       = flag.Int("jobs", 0, "parallel simulation jobs (0 = GOMAXPROCS)")
		cacheDir   = flag.String("cache", ".vcoma-cache", "result cache directory")
		noCache    = flag.Bool("no-cache", false, "disable the result cache")
		metrics    = flag.Bool("job-metrics", false, "sample each freshly-computed pass and write its time series next to the cache entry")
		metricsInt = flag.Uint64("metrics-interval", 0, "sampling epoch in simulated cycles for -job-metrics (0 = default)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		keepGoing  = flag.Bool("keep-going", false, "render the cells that succeeded when some passes fail (partial output, exit status 2)")
		resume     = flag.Bool("resume", false, "resume an interrupted sweep from the journal in the cache directory")
		chaosSpec  = flag.String("chaos", "", "fault-injection spec for testing the supervisor: panic:<substr>,hang:<substr>,flaky:<substr>:<n>,cancel:<n>,corrupt:<substr>")
	)
	budgetOf := cli.BudgetFlags()
	retryOf, jobTimeout := cli.RetryFlags()
	fsFaultOf := cli.FsFaultFlags()
	newLog := cli.LogFlags("vcoma-sweep")
	flag.Parse()
	log = newLog()
	if err := obs.StartPprof(*pprofAddr); err != nil {
		return fatal(err)
	}

	scale, err := parseScale(*scaleStr)
	if err != nil {
		return fatal(err)
	}
	names := workload.Names()
	if *benchList != "" {
		names = nil
		for _, n := range strings.Split(*benchList, ",") {
			names = append(names, strings.ToUpper(strings.TrimSpace(n)))
		}
	}
	cfg := experiments.ConfigForScale(vcoma.Baseline(), scale)
	exp := strings.ToLower(*expName)

	if exp == "tags" {
		// Analytic table; nothing to simulate.
		fmt.Println(experiments.RenderTagOverhead(*markdown))
		return 0
	}

	dlbSizes := []int{8, 16, 32, 64}

	// Enumerate the experiment's passes as runner jobs.
	plan := experiments.NewPlan(cfg, scale)
	for _, name := range names {
		var err error
		switch exp {
		case "fig8", "fig9", "table2", "table3":
			err = plan.AddObserve(name)
		case "table4":
			err = plan.AddTable4(name)
		case "fig10":
			err = plan.AddFigure10(name)
		case "fig11":
			err = plan.AddFigure11(name)
		case "mgmt":
			err = plan.AddMgmt(name, experiments.MgmtSamplePages)
		case "ablation":
			err = plan.AddAblation(name)
		case "dlborg":
			err = plan.AddDLBOrg(name, dlbSizes)
		default:
			err = fmt.Errorf("unknown experiment %q", *expName)
		}
		if err != nil {
			return fatal(err)
		}
	}

	chaos, err := runner.ParseChaos(*chaosSpec)
	if err != nil {
		return fatal(err)
	}
	fsys, fsDump, err := fsFaultOf()
	if err != nil {
		return fatal(err)
	}
	defer func() {
		if err := fsDump(); err != nil {
			fmt.Fprintf(os.Stderr, "fsfault-log: %v\n", err)
		}
	}()

	ctx, cancel := cli.SignalContext(context.Background(), "vcoma-sweep")
	defer cancel(nil)
	ctx = experiments.WithBudget(ctx, budgetOf())
	runCtx = ctx

	var cache *runner.Cache
	var journal *runner.Journal
	if !*noCache {
		if cache, err = runner.OpenCacheFS(*cacheDir, fsys); err != nil {
			return fatal(err)
		}
		// One sweep per cache directory: a second writer would interleave
		// journal records and progress output with ours.
		lock, err := runner.AcquireDirLock(*cacheDir)
		if err != nil {
			return fatal(err)
		}
		defer lock.Release()

		if journal, err = runner.SweepJournal(*cacheDir, plan.Jobs(), *resume, fsys, os.Stderr); err != nil {
			return fatal(err)
		}
		defer journal.Close()
	} else if *resume {
		return fatal(errors.New("-resume needs the cache: the journal lives in the cache directory"))
	}

	if chaos != nil {
		chaos.BindCancel(cancel)
		if cache != nil {
			if n, err := chaos.CorruptMatching(cache, plan.Jobs()); err != nil {
				return fatal(err)
			} else if n > 0 {
				fmt.Fprintf(os.Stderr, "chaos: corrupted %d cache entr(ies)\n", n)
			}
		}
		plan.ApplyChaos(chaos)
	}

	policy := runner.FailFast
	if *keepGoing {
		policy = runner.CollectAll
	}
	res, runErr := plan.Run(ctx, runner.Options{
		Workers:         *jobs,
		Cache:           cache,
		Policy:          policy,
		Progress:        runner.NewProgress(os.Stderr),
		Metrics:         *metrics,
		MetricsInterval: *metricsInt,
		JobTimeout:      *jobTimeout,
		Retry:           retryOf(),
		Journal:         journal,
	})
	if runErr != nil && !*keepGoing {
		// The journal stays behind: rerunning with -resume picks up here.
		return fatal(runErr)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "vcoma-sweep: continuing past failures (-keep-going): %v\n", runErr)
	}

	// Render in benchmark-list order, never completion order. Under
	// -keep-going a failed cell prints a warning instead of output.
	failed := 0
	cell := func(name string, f func() error) {
		if err := f(); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "vcoma-sweep: %s/%s failed: %v\n", exp, name, err)
		}
	}
	var t2 []experiments.Table2Row
	var t3 []experiments.Table3Row
	var t4 []experiments.Table4Row
	for _, name := range names {
		name := name
		switch exp {
		case "fig8", "fig9", "table2", "table3":
			cell(name, func() error {
				obs, err := res.Observed(name)
				if err != nil {
					return err
				}
				switch exp {
				case "fig8":
					fmt.Println(experiments.Figure8(obs).Render(*markdown))
				case "fig9":
					fmt.Println(experiments.Figure9(obs).Render(*markdown))
				case "table2":
					t2 = append(t2, experiments.Table2(obs))
				case "table3":
					t3 = append(t3, experiments.Table3(obs))
				}
				return nil
			})
		case "table4":
			cell(name, func() error {
				row, err := res.Table4(name)
				if err != nil {
					return err
				}
				t4 = append(t4, row)
				return nil
			})
		case "fig10":
			cell(name, func() error {
				r, err := res.Figure10(name)
				if err != nil {
					return err
				}
				fmt.Println(r.Render(*markdown))
				return nil
			})
		case "fig11":
			cell(name, func() error {
				r, err := res.Figure11(name)
				if err != nil {
					return err
				}
				fmt.Println(r.Render(*markdown))
				return nil
			})
		case "mgmt":
			cell(name, func() error {
				rows, err := res.Mgmt(name)
				if err != nil {
					return err
				}
				fmt.Printf("(%s)\n%s\n", name, experiments.RenderMgmt(rows, *markdown))
				return nil
			})
		case "ablation":
			cell(name, func() error {
				rows, err := res.Ablation(name)
				if err != nil {
					return err
				}
				fmt.Printf("(%s)\n%s\n", name, experiments.RenderAblation(rows, *markdown))
				return nil
			})
		case "dlborg":
			cell(name, func() error {
				data, err := res.DLBOrg(name)
				if err != nil {
					return err
				}
				fmt.Printf("(%s)\n%s\n", name, experiments.RenderDLBOrg(data, dlbSizes, *markdown))
				return nil
			})
		}
	}
	if t2 != nil {
		fmt.Println(experiments.RenderTable2(t2, *markdown))
	}
	if t3 != nil {
		fmt.Println(experiments.RenderTable3(t3, *markdown))
	}
	if t4 != nil {
		fmt.Println(experiments.RenderTable4(t4, *markdown))
	}
	if failed > 0 || runErr != nil {
		fmt.Fprintf(os.Stderr, "vcoma-sweep: PARTIAL OUTPUT: %d cell(s) failed; rerun with -resume to fill them in\n", failed)
		// A signal outranks partial status: an interrupted -keep-going run
		// reports 128+signum, not 2.
		if sig := cli.ExitCode(ctx, context.Cause(ctx)); sig > cli.ExitPartial {
			return sig
		}
		return cli.ExitPartial
	}
	if journal != nil {
		if err := journal.Complete(); err != nil {
			return fatal(err)
		}
	}
	return 0
}

func parseScale(s string) (workload.Scale, error) {
	switch strings.ToLower(s) {
	case "test":
		return workload.ScaleTest, nil
	case "small":
		return workload.ScaleSmall, nil
	case "paper":
		return workload.ScalePaper, nil
	default:
		return 0, fmt.Errorf("unknown scale %q", s)
	}
}

// runCtx is the signal context once armed; fatal consults it so an
// interrupted sweep exits 128+signum per the shared convention. startTime
// and log feed the final structured line main emits on every exit path.
var (
	runCtx    context.Context
	startTime = time.Now()
	log       *slog.Logger
)

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "vcoma-sweep:", err)
	return cli.ExitCode(runCtx, err)
}
