// Command perfbench is the repository's benchmark. One invocation runs one
// workload against the simulator's public entry points for a fixed time,
// checks every output it produces, and prints the measurements as a single
// JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload paper-cells --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the object holds the end-to-end metrics; with --trace 1 the
// same workload runs with spans recorded around every call into a layer and
// the object holds the per-layer metrics instead. README.md names the
// workloads, defines every metric and lists which layer metric should move
// which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"vcoma/internal/obs"
	"vcoma/internal/workload"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	// scale is the workload scale of the simulations a workload runs; the
	// benchmark uses the workload's own scale, the self-test uses test.
	scale workload.Scale
	// trace records spans around every layer call (nil when untraced).
	trace *obs.Trace
	// work is a private scratch directory, removed when the run ends.
	work string
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	// mismatches describes every output that failed its check.
	mismatches []string
	// e2e holds the end-to-end metric values, layer the per-layer ones, in
	// the units endToEnd and perLayer declare.
	e2e, layer map[string]float64
}

func (o *outcome) mismatch(format string, args ...any) {
	o.failed++
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

type workloadFunc func(runConfig) (*outcome, error)

var workloads = map[string]struct {
	run   workloadFunc
	scale workload.Scale
}{
	"paper-cells":   {runCells, workload.ScalePaper},
	"campaign-test": {runCampaign, workload.ScaleTest},
	"serve-mixed":   {runServe, workload.ScaleTest},
}

func main() {
	var (
		name    = flag.String("workload", "", "paper-cells, campaign-test or serve-mixed")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 30, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		sweep   = flag.Bool("sweep", false, "run the serve capacity sweep instead of a workload")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *sweep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, sweep bool) error {
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return fmt.Errorf("creating the scratch directory (run from the repository root): %w", err)
	}
	defer os.RemoveAll(work)
	if sweep {
		return capacitySweep(runConfig{seed: seed, seconds: seconds, scale: workload.ScaleTest, work: work})
	}
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	cfg := runConfig{seed: seed, seconds: seconds, scale: w.scale, work: work}
	if trace == 1 {
		cfg.trace = obs.NewTrace(obs.NewTraceID())
	}

	out, err := w.run(cfg)
	if err != nil {
		return err
	}
	for _, m := range out.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", m)
	}
	if cfg.trace != nil {
		if err := writeSpans(cfg.trace, name, seed); err != nil {
			return err
		}
	}

	// The run record: seed and host, so a result can be re-checked.
	rec, _ := json.Marshal(map[string]any{"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "host": hostRecord()})
	fmt.Println(string(rec))

	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	defs, values := endToEnd, out.e2e
	if cfg.trace != nil {
		defs, values = perLayer, out.layer
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && cfg.trace == nil {
			return fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed or produced wrong output", out.failed, out.attempted)
	}
	return nil
}

// writeSpans keeps the benchmark's own span tree next to the build output.
func writeSpans(tr *obs.Trace, name string, seed int64) error {
	b, err := json.Marshal(tr.Export())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", name, seed)), b, 0o644)
}

// hostRecord names the machine a result was measured on.
func hostRecord() map[string]any {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        model,
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// peakRSSMB is the process's peak resident set. Each invocation runs one
// workload, so this is the workload's own peak.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedLoop calls step until the timed phase is spent: a new step starts
// only while at least half of the previous step's duration remains, so a
// run of long steps ends close to the deadline instead of overshooting by a
// whole step. It always runs at least one step.
func timedLoop(seconds float64, step func() (time.Duration, error)) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for {
		d, err := step()
		if err != nil {
			return err
		}
		if time.Until(deadline) < d/2 {
			return nil
		}
	}
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (q = 0.5 is the median). It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
