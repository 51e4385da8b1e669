// Command vcoma-serve runs the simulation harness as a long-lived HTTP/JSON
// service: clients submit cells (bench + scheme + scale, the cache-key
// schema) and the daemon answers from the shared artifact store or queues a
// simulation in one FIFO, with a bounded backlog, request coalescing and
// crash-safe resume. See README "Running as a service".
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"os"
	"time"

	"vcoma/internal/cli"
	"vcoma/internal/runner"
	"vcoma/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	start := time.Now()
	addr := flag.String("addr", "127.0.0.1:8377", "listen address")
	state := flag.String("state", "serve-state", "state directory (artifact store, journal, lock)")
	workers := flag.Int("workers", 2, "concurrent simulations")
	queueLen := flag.Int("queue", 64, "admission control: maximum queued jobs; beyond it submits get 429")
	maxStoreMB := flag.Int64("max-store-mb", 0, "artifact store size bound in MB, LRU-evicted (0 = unbounded)")
	jobMetrics := flag.Bool("job-metrics", false, "write per-job observability sidecars next to artifacts")
	chaosSpec := flag.String("chaos", "", "fault injection spec (testing only), e.g. hang:serve")
	drainGrace := flag.Duration("drain-grace", 5*time.Second, "HTTP shutdown grace on SIGTERM")
	faultControl := flag.Bool("fsfault-control", false, "expose POST /debug/fsfault for swapping the failpoint spec at runtime (chaos drills only)")
	budget, jobTimeout := cli.BudgetFlags()
	fsFaultOf := cli.FsFaultFlags()
	newLog := cli.LogFlags("vcoma-serve")
	flag.Parse()
	log := newLog()

	chaos, err := runner.ParseChaos(*chaosSpec)
	if err != nil {
		log.Error("chaos spec", "error", err.Error())
		cli.LogExit(log, "vcoma-serve", start, cli.ExitErr, err)
		return cli.ExitErr
	}
	fsys, fsDump, err := fsFaultOf()
	if err != nil {
		log.Error("fsfault spec", "error", err.Error())
		cli.LogExit(log, "vcoma-serve", start, cli.ExitErr, err)
		return cli.ExitErr
	}
	defer func() {
		if err := fsDump(); err != nil {
			log.Warn("fsfault-log", "error", err.Error())
		}
	}()

	ctx, cancel := cli.SignalContext(context.Background(), "vcoma-serve")
	defer cancel(nil)
	if chaos != nil {
		chaos.BindCancel(cancel)
	}

	srv, err := serve.New(serve.Options{
		StateDir:      *state,
		Workers:       *workers,
		MaxQueue:      *queueLen,
		MaxStoreBytes: *maxStoreMB << 20,
		JobTimeout:    *jobTimeout,
		Budget:        budget(),
		Metrics:       *jobMetrics,
		Chaos:         chaos,
		DrainGrace:    *drainGrace,
		FS:            fsys,
		FaultControl:  *faultControl,
		Log:           log,
	})
	if err != nil {
		log.Error("startup", "error", err.Error())
		cli.LogExit(log, "vcoma-serve", start, cli.ExitErr, err)
		return cli.ExitErr
	}

	err = srv.Run(ctx, *addr)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		code := cli.ExitCode(ctx, err)
		cli.LogExit(log, "vcoma-serve", start, code, err)
		return code
	}
	cli.LogExit(log, "vcoma-serve", start, cli.ExitOK, nil)
	return cli.ExitOK
}
