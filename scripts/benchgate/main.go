// Command benchgate is the performance gate. From the repository root,
//
//	go run ./scripts/benchgate origin/main
//
// runs the benchmark BENCHMARK.json declares on the parent commit (git
// merge-base HEAD <base>, checked out into a temporary worktree) and on the
// working tree, in pairs on this host, and fails when the change broke a
// run or made an end-to-end metric worse than its bound. Exit status: 0
// pass, 1 the change failed, 2 no verdict (a git error or a broken parent).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// pairs per workload: three workloads × 4 pairs × 2 runs of 35 s take about
// 15 minutes on 2 vCPUs. "Worse in most pairs" means three of four: with
// three pairs, identical code read serve-mixed's op_p50_ms +23% in two of
// three, a hair from a false failure on a shared host.
const pairs = 4

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Command    []string
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name, Better string
	Bound        float64
}

func main() {
	if len(os.Args) != 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, "usage: benchgate <base>   (origin/main in CI, main locally)")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := gate(ctx, os.Args[1])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
	}
	os.Exit(code)
}

func gate(ctx context.Context, base string) (int, error) {
	var s spec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &s)
	}
	if err != nil || len(s.Command) == 0 {
		return 2, fmt.Errorf("BENCHMARK.json names no command (%v); run from the repository root", err)
	}
	rev, err := git(ctx, "merge-base", "HEAD", base)
	if err != nil {
		return 2, err
	}
	tmp, err := os.MkdirTemp("", "benchgate-")
	if err != nil {
		return 2, err
	}
	parent := filepath.Join(tmp, "parent")
	defer func() { // not ctx: a signal may have cancelled it
		_, _ = git(context.Background(), "worktree", "remove", "--force", parent)
		os.RemoveAll(tmp)
		_, _ = git(context.Background(), "worktree", "prune")
	}()
	if _, err := git(ctx, "worktree", "add", "--detach", parent, rev); err != nil {
		return 2, err
	}
	os.Setenv("TMPDIR", tmp) // so an interrupted go build's work directory goes too
	fmt.Fprintf(os.Stderr, "benchgate: parent %.12s (merge-base with %s) against the working tree\n", rev, base)

	var v verdict
	for _, w := range s.Workloads {
		ps := make([]pair, pairs)
		for i := range ps {
			if i%2 == 0 { // calls run left to right: the parent goes first in seeds 1, 3, …
				ps[i].parent, ps[i].change = runOnce(ctx, s, parent, w.Name, i+1), runOnce(ctx, s, ".", w.Name, i+1)
			} else {
				ps[i].change, ps[i].parent = runOnce(ctx, s, ".", w.Name, i+1), runOnce(ctx, s, parent, w.Name, i+1)
			}
			if ctx.Err() != nil {
				return 2, ctx.Err()
			}
			fmt.Fprintf(os.Stderr, "benchgate: %s seed %d ran; faults: parent %q, change %q\n", w.Name, i+1, ps[i].parent.fault, ps[i].change.fault)
		}
		v.decide(w.Name, s.EndToEnd, ps)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tparent median\tchange median\tΔ%\tpairs worse\t")
	fmt.Fprintln(tw, strings.Join(v.rows, "\n"))
	tw.Flush()
	for _, line := range append(v.parentErrors, v.failures...) {
		fmt.Println(line)
	}
	switch {
	case len(v.failures) > 0:
		return 1, fmt.Errorf("FAIL: %d failure(s) against parent %.12s", len(v.failures), rev)
	case len(v.parentErrors) > 0:
		return 2, fmt.Errorf("no verdict: the parent's benchmark broke")
	}
	fmt.Println("PASS")
	return 0, nil
}

// runOnce runs the benchmark once in dir, in a process group of its own
// that is interrupted, as Ctrl-C would, and then killed when ctx ends, so
// nothing the benchmark started outlives the gate.
func runOnce(ctx context.Context, s spec, dir, workload string, seed int) run {
	cmd := exec.CommandContext(ctx, s.Command[0], append(append([]string{}, s.Command[1:]...), "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.FormatFloat(s.RunSeconds, 'f', -1, 64), "--trace", "0")...)
	var stderr bytes.Buffer
	cmd.Dir, cmd.Stderr, cmd.WaitDelay = dir, &stderr, 10*time.Second
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGINT) }
	out, err := cmd.Output()
	if ctx.Err() != nil {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // ESRCH once the group is gone
	}
	if lines := strings.Split(strings.TrimSpace(stderr.String()), "\n"); err != nil {
		err = fmt.Errorf("%w: %s", err, lines[len(lines)-1])
	}
	return parseRun(out, err)
}

func git(ctx context.Context, args ...string) (string, error) {
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// run is one benchmark run's result line, and what is wrong with the run.
type run struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 }
	fault             string // "" when the run is sound
}

type pair struct{ parent, change run }

// parseRun reads a run's output and the error it exited with. The line
// before the result is JSON too, so a line without metrics is no result.
func parseRun(stdout []byte, err error) run {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var r run
	switch {
	case json.Unmarshal([]byte(lines[len(lines)-1]), &r) != nil || r.Metrics == nil:
		return run{fault: fmt.Sprintf("printed no result line (%v)", err)}
	case !r.Correct:
		r.fault = fmt.Sprintf("reported correct: false (%d of %d operations failed)", r.Failed, r.Attempted)
	case err != nil:
		r.fault = fmt.Sprintf("exited with %v", err)
	}
	return r
}

// verdict collects the table's rows (tab-separated), the change's failures,
// and the parent's broken runs, which say nothing about the change.
type verdict struct{ rows, failures, parentErrors []string }

// decide judges one workload's pairs. The change fails when one of its runs
// broke, when its share of failed operations exceeds the parent's, or when
// an end-to-end metric's median is worse than the parent's by more than its
// bound and the change is worse in most pairs. Only pairs whose runs are
// both sound are compared.
func (v *verdict) decide(workload string, metrics []metricSpec, ps []pair) {
	var sound []pair
	var pf, pa, cf, ca int // failed and attempted operations, parent and change
	for i, p := range ps {
		if p.parent.fault != "" {
			v.parentErrors = append(v.parentErrors, fmt.Sprintf("PARENT ERROR: %s seed %d: parent run %s", workload, i+1, p.parent.fault))
		}
		if p.change.fault != "" {
			v.failures = append(v.failures, fmt.Sprintf("FAIL: %s seed %d: change run %s", workload, i+1, p.change.fault))
		}
		if p.parent.fault+p.change.fault == "" {
			sound = append(sound, p)
		}
		pf, pa, cf, ca = pf+p.parent.Failed, pa+p.parent.Attempted, cf+p.change.Failed, ca+p.change.Attempted
	}
	if cf*pa > pf*ca {
		v.failures = append(v.failures, fmt.Sprintf("FAIL: %s: change failed %d of %d operations, parent %d of %d", workload, cf, ca, pf, pa))
	}
	if len(sound) == 0 {
		return
	}
	for _, m := range metrics {
		sign := 1.0 // of a worse delta
		if m.Better == "higher" {
			sign = -1
		}
		var pv, cv []float64
		worse := 0
		for _, p := range sound {
			a, aok := p.parent.Metrics[m.Name]
			b, bok := p.change.Metrics[m.Name]
			if !aok || !bok {
				v.failures = append(v.failures, fmt.Sprintf("FAIL: %s: a result lacks %s (the parent's has it: %t)", workload, m.Name, aok))
				return
			}
			pv, cv = append(pv, a.Value), append(cv, b.Value)
			if sign*(b.Value-a.Value) > 0 {
				worse++
			}
		}
		pm, cm := median(pv), median(cv)
		delta := (cm - pm) / pm
		v.rows = append(v.rows, fmt.Sprintf("%s\t%s\t%.4g\t%.4g\t%+.1f\t%d/%d\t", workload, m.Name, pm, cm, 100*delta, worse, len(sound)))
		if sign*delta > m.Bound && 2*worse > len(sound) {
			v.failures = append(v.failures, fmt.Sprintf("FAIL: %s: %s median %.4g against the parent's %.4g (%+.1f%%, bound %.0f%%), worse in %d of %d pairs",
				workload, m.Name, cm, pm, 100*delta, 100*m.Bound, worse, len(sound)))
		}
	}
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}
