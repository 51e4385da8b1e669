// Package cli holds the resilience plumbing shared by the vcoma commands:
// signal-aware run contexts, the exit-code convention, and the flag groups
// that arm the simulation watchdog, the per-pass deadline and storage fault
// injection. Keeping these in one place makes every binary interruptible
// and supervisable the same way.
package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vcoma/internal/fsio"
	"vcoma/internal/sim"
)

// The shared exit-code convention of every vcoma binary:
//
//	0        success
//	1        error (bad flags, failed run, I/O)
//	2        partial output (-keep-going runs with failed cells)
//	128+sig  interrupted by a signal (130 SIGINT, 143 SIGTERM)
//
// Commands derive their run context from SignalContext and map their final
// error through ExitCode, so a Ctrl-C'd sweep and a SIGTERM'd daemon report
// the interruption the same way scripts expect.
const (
	ExitOK      = 0
	ExitErr     = 1
	ExitPartial = 2
)

// SignalError is the cancellation cause SignalContext installs: it names the
// signal that interrupted the run and carries the conventional exit status.
type SignalError struct {
	Sig os.Signal
}

func (e *SignalError) Error() string { return fmt.Sprintf("interrupted by %v", e.Sig) }

// ExitCode returns the conventional 128+signum status (130 for SIGINT, 143
// for SIGTERM); 130 when the signal number is unknown.
func (e *SignalError) ExitCode() int {
	if s, ok := e.Sig.(syscall.Signal); ok {
		return 128 + int(s)
	}
	return 130
}

// ExitCode maps a command's final error to the shared exit-code convention:
// 0 for nil, 128+signum when the error (or the run context's cancellation
// cause, for errors that only record context.Canceled) traces back to a
// SignalContext signal, and 1 otherwise. Partial-output status (2) is the
// caller's decision; a signal outranks it.
func ExitCode(ctx context.Context, err error) int {
	if err == nil {
		return ExitOK
	}
	var se *SignalError
	if errors.As(err, &se) {
		return se.ExitCode()
	}
	// Cancellation usually surfaces as context.Canceled from deep inside the
	// engine; the signal that caused it is recorded on the context.
	if ctx != nil && errors.Is(err, context.Canceled) {
		if errors.As(context.Cause(ctx), &se) {
			return se.ExitCode()
		}
	}
	return ExitErr
}

// SignalContext derives a context that SIGINT/SIGTERM cancels. The first
// signal finishes the terminal's current line, announces the shutdown, and
// cancels with a *SignalError cause naming the signal so in-flight work can
// flush journals and release locks (and so ExitCode can report 128+signum);
// a second signal force-quits with the conventional 128+signum status.
func SignalContext(parent context.Context, prog string) (context.Context, context.CancelCauseFunc) {
	ctx, cancel := context.WithCancelCause(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		fmt.Fprintf(os.Stderr, "\n%s: %v: cancelling, flushing state (signal again to force-quit)\n", prog, sig)
		cancel(&SignalError{Sig: sig})
		sig = <-ch
		if s, ok := sig.(syscall.Signal); ok {
			os.Exit(128 + int(s))
		}
		os.Exit(130)
	}()
	return ctx, cancel
}

// BudgetFlags registers the watchdog-budget flags on the default flag set
// and returns a function that assembles the sim.Budget after flag.Parse,
// plus the parsed per-pass wall-clock deadline (-job-timeout), which the
// caller applies as a context deadline. All limits default to 0
// (disarmed): legitimate paper-scale runs must never trip a default budget.
func BudgetFlags() (budget func() sim.Budget, jobTimeout *time.Duration) {
	maxCycles := flag.Uint64("max-cycles", 0, "watchdog: abort any pass past this many simulated cycles (0 = unlimited)")
	maxEvents := flag.Uint64("max-events", 0, "watchdog: abort any pass past this many retired events (0 = unlimited)")
	stall := flag.Uint64("stall-events", 0, "watchdog: abort any pass after this many events without a processor clock advancing (livelock detector; 0 = off)")
	jobTimeout = flag.Duration("job-timeout", 0, "per-pass deadline; a pass past it aborts with a watchdog diagnostic (0 = none)")
	return func() sim.Budget {
		return sim.Budget{MaxCycles: *maxCycles, MaxEvents: *maxEvents, StallEvents: *stall}
	}, jobTimeout
}

// FsFaultFlags registers the storage fault-injection flags shared by every
// command and returns a builder that, after flag.Parse, assembles the
// filesystem seam: armed with the -fsfault failpoint spec (empty = plain
// durable I/O) and, when -fsfault-log is set, recording every operation
// through the seam. The returned dump function writes the recorded op log
// (a no-op without -fsfault-log); call it on every exit path — the log is
// most valuable precisely when the run failed.
func FsFaultFlags() func() (*fsio.FS, func() error, error) {
	spec := flag.String("fsfault", "", "storage failpoint spec, e.g. 'enospc:put:3', 'eio:fsync:*,torn:journal:128', 'powercut:7' (empty = none)")
	logPath := flag.String("fsfault-log", "", "record every filesystem op through the seam to this JSONL file")
	return func() (*fsio.FS, func() error, error) {
		fp, err := fsio.ParseFailpoints(*spec)
		if err != nil {
			return nil, nil, err
		}
		fs := fsio.New(fp)
		if *logPath == "" {
			return fs, func() error { return nil }, nil
		}
		wd, _ := os.Getwd()
		rec := fsio.NewRecorder(wd, false)
		fs.SetRecorder(rec)
		path := *logPath
		return fs, func() error { return rec.WriteFile(path) }, nil
	}
}

// AtomicOutput renders an output file into memory and writes it through the
// seam with whole-file atomicity: partial renders or injected faults never
// leave a torn CSV/JSON on disk under the requested name.
func AtomicOutput(fs *fsio.FS, tag, path string, render func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return err
	}
	return fs.WriteFileAtomic(tag, path, buf.Bytes())
}
