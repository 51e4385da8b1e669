package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"
)

// Structured logging shared by every vcoma binary. All operational output
// goes through log/slog so lines are machine-parseable and uniformly keyed:
//
//	prog       the emitting binary (vcoma-sim, vcoma-serve, …)
//	trace_id   request correlation id (service-side lines)
//	job_key    content-address of the job a line belongs to
//	tenant     submitting tenant (service-side lines)
//	outcome    final line only: ok, error, partial, interrupted, terminated
//	exit_code  final line only: the process's exit status
//	duration   final line only: wall time of the whole invocation
//
// The final line is the contract the exit-code table in the README is
// observable by: every binary emits exactly one, whatever the exit path.

// NewLogger builds a slog.Logger writing to w in the given format ("json"
// or anything else for text) at the given level, with prog attached to
// every line. A nil w discards everything.
func NewLogger(w io.Writer, prog, format string, level slog.Level) *slog.Logger {
	if w == nil {
		return Discard()
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if strings.EqualFold(format, "json") {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h).With("prog", prog)
}

// Discard returns a logger that drops every record — the nil-object for
// APIs that take a *slog.Logger.
func Discard() *slog.Logger { return slog.New(discardHandler{}) }

// discardHandler is slog's no-op handler (slog.DiscardHandler is newer than
// the toolchain floor this module keeps).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// LogFlags registers -log-format and -log-level on the default flag set and
// returns a constructor assembling the binary's logger (stderr) after
// flag.Parse.
func LogFlags(prog string) func() *slog.Logger {
	format := flag.String("log-format", "text", "structured log format: text or json")
	level := flag.String("log-level", "info", "log level: debug, info, warn or error")
	return func() *slog.Logger {
		return NewLogger(os.Stderr, prog, *format, ParseLevel(*level))
	}
}

// ParseLevel maps a level name to a slog.Level; unknown spellings degrade
// to info rather than failing the whole invocation.
func ParseLevel(s string) slog.Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// Outcome names an exit code for the final log line: the README's exit-code
// table, spelled for humans and greppable by fleet tooling.
func Outcome(code int) string {
	switch code {
	case ExitOK:
		return "ok"
	case ExitPartial:
		return "partial"
	case 130:
		return "interrupted" // 128+SIGINT
	case 143:
		return "terminated" // 128+SIGTERM
	case ExitErr:
		return "error"
	default:
		if code > 128 {
			return fmt.Sprintf("signal(%d)", code-128)
		}
		return "error"
	}
}

// LogExit emits the binary's final structured line: outcome, exit code and
// wall duration, plus the error when there is one. Every vcoma binary calls
// it exactly once, on every exit path, so the shared exit-code convention
// is observable in logs, not just in $?. A nil logger falls back to a text
// logger on stderr — the final line must never be lost to wiring order.
func LogExit(l *slog.Logger, prog string, start time.Time, code int, err error) {
	if l == nil {
		l = NewLogger(os.Stderr, prog, "text", slog.LevelInfo)
	}
	attrs := []any{
		"outcome", Outcome(code),
		"exit_code", code,
		"duration", time.Since(start).Round(time.Millisecond).String(),
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	switch {
	case code == ExitOK:
		l.Info("exit", attrs...)
	case code == ExitErr:
		l.Error("exit", attrs...)
	default:
		l.Warn("exit", attrs...)
	}
}

// Exit ends a batch command the shared way: it flushes the -fsfault-log op
// trace (dump may be nil), prints err, emits the final LogExit line and
// exits with code.
func Exit(l *slog.Logger, prog string, start time.Time, dump func() error, code int, err error) {
	if dump != nil {
		if derr := dump(); derr != nil {
			fmt.Fprintf(os.Stderr, "%s: fsfault-log: %v\n", prog, derr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	}
	LogExit(l, prog, start, code, err)
	os.Exit(code)
}
