// Command vcoma-check soaks the simulator's correctness oracles
// (internal/check) over seeded random workloads: the runtime invariant
// checker and shadow-memory oracle per run, and optionally the cross-scheme
// differential oracle. Failing seeds are written in Go fuzz-corpus format so
// they drop straight into internal/check/testdata/fuzz/ as regressions.
//
//	vcoma-check -seeds 1000                         # invariant soak, all scenarios
//	vcoma-check -seeds 200 -diff                    # cross-scheme differential soak
//	vcoma-check -scenario thrash -budget 30s        # one scenario until the budget runs out
//	vcoma-check -bench RAYTRACE -scale test -diff   # oracles over a real benchmark
//	vcoma-check -seeds 500 -artifacts /tmp/failing  # write failing inputs as corpus files
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vcoma/internal/check"
	"vcoma/internal/check/fuzzgen"
	"vcoma/internal/cli"
	"vcoma/internal/config"
	"vcoma/internal/experiments"
	"vcoma/internal/fsio"
	"vcoma/internal/workload"
)

func main() {
	var (
		seeds     = flag.Int("seeds", 100, "number of seeded workloads to run")
		start     = flag.Int64("start", 0, "first seed")
		scenario  = flag.String("scenario", "all", "fuzz scenario: partitioned, locked, barrierstorm, thrash, pathological, or all")
		schemeStr = flag.String("scheme", "all", "scheme for invariant runs: l0, l1, l2, l3, vcoma, or all (cycled)")
		diff      = flag.Bool("diff", false, "run the cross-scheme differential oracle instead of single-scheme invariant runs")
		benchName = flag.String("bench", "", "check a real benchmark instead of fuzz workloads")
		scaleStr  = flag.String("scale", "test", "benchmark scale for -bench: test, small, paper")
		budget    = flag.Duration("budget", 0, "stop after this wall-clock budget (0 = run all seeds)")
		artifacts = flag.String("artifacts", "", "directory for failing inputs in Go fuzz-corpus format")
		scanEvery = flag.Uint64("scan-every", 512, "full invariant scan period in references")
		verbose   = flag.Bool("v", false, "print every run, not just failures")
	)
	fsFaultOf := cli.FsFaultFlags()
	newLog := cli.LogFlags("vcoma-check")
	flag.Parse()
	log = newLog()

	var err error
	if fsys, dumpOpLog, err = fsFaultOf(); err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM stops the soak at the next seed boundary: artifacts
	// already written stay on disk and the summary still prints.
	ctx, cancel := cli.SignalContext(context.Background(), "vcoma-check")
	defer cancel(nil)

	if *benchName != "" {
		if err := checkBenchmark(*benchName, *scaleStr, *diff, *scanEvery); err != nil {
			fatal(err)
		}
		writeOpLog()
		cli.LogExit(log, "vcoma-check", startTime, cli.ExitOK, nil)
		return
	}

	schemes := config.Schemes()
	if *schemeStr != "all" {
		s, err := config.ParseScheme(*schemeStr)
		if err != nil {
			fatal(err)
		}
		schemes = []config.Scheme{s}
	}

	deadline := time.Time{}
	if *budget > 0 {
		deadline = time.Now().Add(*budget)
	}

	failures := 0
	ran := 0
	interrupted := false
	for i := 0; i < *seeds; i++ {
		if ctx.Err() != nil {
			fmt.Printf("interrupted after %d seeds: %v\n", ran, context.Cause(ctx))
			interrupted = true
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			fmt.Printf("budget exhausted after %d seeds\n", ran)
			break
		}
		seed := uint64(*start) + uint64(i)
		scen, size := deriveInputs(seed, *scenario)
		w := fuzzgen.Derive(seed, scen, size)
		ran++

		var err error
		if *diff {
			err = runDiff(w, *scanEvery)
			if *verbose || err != nil {
				status(err, "seed %d: %s across all schemes", seed, w.Name())
			}
			if err != nil {
				failures++
				writeArtifact(*artifacts, "FuzzSchemesAgree", seed, []uint64{seed, scen, size})
			}
			continue
		}
		scheme := schemes[i%len(schemes)]
		cfg := config.SmallTest().WithScheme(scheme)
		_, err = check.RunChecked(cfg, w, check.Options{ScanEvery: *scanEvery})
		if *verbose || err != nil {
			status(err, "seed %d: %s under %v", seed, w.Name(), scheme)
		}
		if err != nil {
			failures++
			writeArtifact(*artifacts, "FuzzMachine", seed, []uint64{seed, scen, size, uint64(scheme)})
		}
	}

	fmt.Printf("%d run(s), %d failure(s)\n", ran, failures)
	writeOpLog()
	if failures > 0 {
		cli.LogExit(log, "vcoma-check", startTime, cli.ExitErr, fmt.Errorf("%d failing seed(s)", failures))
		os.Exit(1)
	}
	if interrupted {
		// 128+signum per the shared convention (130 SIGINT, 143 SIGTERM).
		code := cli.ExitCode(ctx, context.Cause(ctx))
		cli.LogExit(log, "vcoma-check", startTime, code, context.Cause(ctx))
		os.Exit(code)
	}
	cli.LogExit(log, "vcoma-check", startTime, cli.ExitOK, nil)
}

// deriveInputs maps a seed to (scenario, size) fuzz inputs, honoring a
// pinned scenario name.
func deriveInputs(seed uint64, scenario string) (scen, size uint64) {
	size = seed * 31
	if scenario == "all" {
		return seed, size
	}
	s, err := fuzzgen.ScenarioByName(strings.ToLower(scenario))
	if err != nil {
		fatal(err)
	}
	return uint64(s), size
}

func runDiff(w *fuzzgen.Workload, scanEvery uint64) error {
	res, err := check.Differential(config.SmallTest(), w, check.DiffOptions{
		Invariants:    true,
		CompareValues: w.RaceFree(),
		ScanEvery:     scanEvery,
	})
	if err != nil {
		return err
	}
	return res.Err()
}

func checkBenchmark(name, scaleStr string, diff bool, scanEvery uint64) error {
	scale, err := workload.ParseScale(scaleStr)
	if err != nil {
		return err
	}
	bench, err := workload.ByName(strings.ToUpper(name), scale)
	if err != nil {
		return err
	}
	base := experiments.ConfigForScale(config.SmallTest(), scale)
	if diff {
		res, err := check.Differential(base, bench, check.DiffOptions{Invariants: true, ScanEvery: scanEvery})
		if err != nil {
			return err
		}
		if err := res.Err(); err != nil {
			return err
		}
		fmt.Printf("%s: all schemes agree\n", bench.Name())
		return nil
	}
	for _, s := range config.Schemes() {
		out, err := check.RunChecked(base.WithScheme(s), bench, check.Options{ScanEvery: scanEvery})
		if err != nil {
			return fmt.Errorf("%s under %v: %w", bench.Name(), s, err)
		}
		fmt.Printf("%s under %v: %d refs clean\n", bench.Name(), s, out.Checker.Refs())
	}
	return nil
}

// writeArtifact records a failing input as a Go fuzz-corpus file, ready to
// commit under internal/check/testdata/fuzz/<target>/.
func writeArtifact(dir, target string, seed uint64, vals []uint64) {
	if dir == "" {
		return
	}
	sub := filepath.Join(dir, target)
	if err := fsys.MkdirAll("artifact", sub); err != nil {
		fmt.Fprintf(os.Stderr, "vcoma-check: %v\n", err)
		return
	}
	var b strings.Builder
	b.WriteString("go test fuzz v1\n")
	for _, v := range vals {
		fmt.Fprintf(&b, "uint64(%d)\n", v)
	}
	path := filepath.Join(sub, fmt.Sprintf("seed-%d", seed))
	if err := fsys.WriteFileAtomic("artifact", path, []byte(b.String())); err != nil {
		fmt.Fprintf(os.Stderr, "vcoma-check: %v\n", err)
		return
	}
	fmt.Printf("failing input written to %s\n", path)
}

func status(err error, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", msg, err)
		return
	}
	fmt.Printf("ok   %s\n", msg)
}

// startTime and log feed the final structured line every exit path emits;
// fsys is the filesystem seam artifact writes go through, and dumpOpLog
// flushes the -fsfault-log op trace, which fatal must do itself because
// os.Exit skips deferred calls.
var (
	startTime = time.Now()
	log       *slog.Logger
	fsys      *fsio.FS
	dumpOpLog func() error
)

func writeOpLog() {
	if dumpOpLog == nil {
		return
	}
	if err := dumpOpLog(); err != nil {
		fmt.Fprintf(os.Stderr, "vcoma-check: fsfault-log: %v\n", err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "vcoma-check: %v\n", err)
	writeOpLog()
	cli.LogExit(log, "vcoma-check", startTime, cli.ExitErr, err)
	os.Exit(1)
}
