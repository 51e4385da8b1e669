// Command vcoma-report runs the paper's evaluation — every table and
// figure, or the sections -only selects — and emits a Markdown report with
// paper-vs-measured numbers. This is the tool that regenerates
// EXPERIMENTS.md.
//
// Passes run in parallel on a bounded worker pool (-jobs) with an on-disk
// result cache (-cache, default .vcoma-cache); the rendered report is
// byte-identical regardless of worker count or cache state.
//
// Runs are supervised: SIGINT/SIGTERM cancels cleanly, watchdog budgets
// and per-pass deadlines reclaim hung simulations, -keep-going renders a
// partial report with failed cells marked (exit status 2), and -resume
// continues an interrupted run from its journal.
//
//	vcoma-report -scale small -o EXPERIMENTS.md
//	vcoma-report -only fig8 -bench RADIX -scale small
//	vcoma-report -only table2,table3 -scale test
//	vcoma-report -only ablation,dlborg -bench OCEAN -scale test
//	vcoma-report -scale small -jobs 8 -progress-json progress.json
//	vcoma-report -scale paper -job-timeout 15m -keep-going
//	vcoma-report -scale paper -resume
//	vcoma-report -clear-cache
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
	code, err := run()
	cli.Exit(log, "vcoma-report", startTime, dumpOpLog, code, err)
}

func run() (int, error) {
	var (
		scaleStr   = flag.String("scale", "small", "workload scale: test, small, paper")
		outPath    = flag.String("o", "", "output file (default stdout)")
		benchList  = flag.String("bench", "", "comma-separated benchmarks (default: all six)")
		only       = flag.String("only", "", "comma-separated sections to run and render (default: all but ablation, dlborg): "+strings.Join(experiments.SectionIDs, ", "))
		jobs       = flag.Int("jobs", 0, "parallel simulation jobs (0 = GOMAXPROCS)")
		cacheDir   = flag.String("cache", ".vcoma-cache", "result cache directory")
		noCache    = flag.Bool("no-cache", false, "disable the result cache")
		clearCache = flag.Bool("clear-cache", false, "remove all cached results and exit")
		progPath   = flag.String("progress-json", "", "write the run's job-level progress summary as JSON to this file")
		metrics    = flag.Bool("job-metrics", false, "sample each freshly-computed pass and write its time series next to the cache entry")
		metricsInt = flag.Uint64("metrics-interval", 0, "sampling epoch in simulated cycles for -job-metrics (0 = default)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		keepGoing  = flag.Bool("keep-going", false, "render a partial report with failed cells marked when some passes fail (exit status 2)")
		resume     = flag.Bool("resume", false, "resume an interrupted run from the journal in the cache directory")
		chaosSpec  = flag.String("chaos", "", "fault-injection spec for testing the supervisor: panic:<substr>,hang:<substr>,cancel:<n>,corrupt:<substr>")
	)
	budgetOf, jobTimeout := cli.BudgetFlags()
	fsFaultOf := cli.FsFaultFlags()
	newLog := cli.LogFlags("vcoma-report")
	flag.Parse()
	log = newLog()
	if err := obs.StartPprof(*pprofAddr); err != nil {
		return fatal(err)
	}
	fsys, fsDump, err := fsFaultOf()
	if err != nil {
		return fatal(err)
	}
	dumpOpLog = fsDump

	if *clearCache {
		c, err := runner.OpenCacheFS(*cacheDir, fsys)
		if err != nil {
			return fatal(err)
		}
		if err := c.Clear(); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cleared result cache under %s\n", *cacheDir)
		return 0, nil
	}

	scale, err := workload.ParseScale(*scaleStr)
	if err != nil {
		return fatal(err)
	}

	ctx, cancel := cli.SignalContext(context.Background(), "vcoma-report")
	defer cancel(nil)
	runCtx = ctx

	chaos, err := runner.ParseChaos(*chaosSpec)
	if err != nil {
		return fatal(err)
	}
	if chaos != nil {
		chaos.BindCancel(cancel)
	}

	prog := runner.NewProgress(os.Stderr)
	suite := &experiments.Suite{
		Cfg:             vcoma.Baseline(),
		Scale:           scale,
		Jobs:            *jobs,
		Progress:        prog,
		Context:         ctx,
		Metrics:         *metrics,
		MetricsInterval: *metricsInt,
		KeepGoing:       *keepGoing,
		JobTimeout:      *jobTimeout,
		Budget:          budgetOf(),
		Chaos:           chaos,
	}
	if !*noCache {
		suite.CacheDir = *cacheDir
		suite.FS = fsys
	}
	if *benchList != "" {
		for _, n := range strings.Split(*benchList, ",") {
			suite.Benchmarks = append(suite.Benchmarks, strings.ToUpper(strings.TrimSpace(n)))
		}
	}
	if *only != "" {
		suite.Only = strings.Split(*only, ",")
	}
	// Planning validates the benchmark and section names before the cache
	// directory is touched.
	plan, err := suite.Plan()
	if err != nil {
		return fatal(err)
	}

	if !*noCache {
		// One writer per cache directory.
		lock, err := runner.AcquireDirLock(*cacheDir)
		if err != nil {
			return fatal(err)
		}
		defer lock.Release()

		if suite.Journal, err = runner.SweepJournal(*cacheDir, plan.Jobs(), *resume, fsys, os.Stderr); err != nil {
			return fatal(err)
		}
		defer suite.Journal.Close()

		if chaos != nil {
			cache, err := runner.OpenCacheFS(*cacheDir, fsys)
			if err != nil {
				return fatal(err)
			}
			if n, err := chaos.CorruptMatching(cache, plan.Jobs()); err != nil {
				return fatal(err)
			} else if n > 0 {
				fmt.Fprintf(os.Stderr, "chaos: corrupted %d cache entr(ies)\n", n)
			}
		}
	} else if *resume {
		return fatal(errors.New("-resume needs the cache: the journal lives in the cache directory"))
	}

	res, err := suite.Run()
	if *progPath != "" {
		// The progress export is useful even for failed runs: it records
		// which job broke and what was skipped.
		f, ferr := os.Create(*progPath)
		if ferr != nil {
			return fatal(ferr)
		}
		if werr := prog.Summary().WriteJSON(f); werr != nil {
			return fatal(werr)
		}
		if cerr := f.Close(); cerr != nil {
			return fatal(cerr)
		}
	}
	if err != nil && res == nil {
		// Nothing to render; the journal stays behind for -resume.
		return fatal(err)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vcoma-report: continuing past failures (-keep-going): %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "suite: %v wall, %d cache hits\n",
		res.Elapsed.Round(time.Millisecond), res.CacheHits)

	md := res.RenderMarkdown()
	if *outPath == "" {
		fmt.Print(md)
	} else {
		if werr := os.WriteFile(*outPath, []byte(md), 0o644); werr != nil {
			return fatal(werr)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *outPath, len(md))
	}
	if res.Partial() {
		fmt.Fprintf(os.Stderr, "vcoma-report: PARTIAL REPORT: %d cell(s) failed; rerun with -resume to fill them in\n", len(res.Failures))
		// A signal outranks partial status: an interrupted -keep-going run
		// reports 128+signum, not 2.
		if sig := cli.ExitCode(ctx, context.Cause(ctx)); sig > cli.ExitPartial {
			return sig, context.Cause(ctx)
		}
		return cli.ExitPartial, nil
	}
	if suite.Journal != nil {
		if jerr := suite.Journal.Complete(); jerr != nil {
			return fatal(jerr)
		}
	}
	return 0, nil
}

// runCtx is the signal context once armed; fatal consults it so an
// interrupted suite exits 128+signum per the shared convention. startTime
// and log feed the final structured line main emits on every exit path,
// after dumpOpLog writes the -fsfault-log op trace.
var (
	runCtx    context.Context
	startTime = time.Now()
	log       *slog.Logger
	dumpOpLog func() error
)

func fatal(err error) (int, error) {
	return cli.ExitCode(runCtx, err), err
}
