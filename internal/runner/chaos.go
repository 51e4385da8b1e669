package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Chaos is a fault injector for the experiment pipeline itself — the
// negative-testing discipline of coherence.InjectTestBug applied one layer
// up. It wraps a job plan so that selected jobs panic, hang until their
// context aborts them, or trigger a mid-run cancellation, and it can
// corrupt on-disk cache entries in place; the chaos tests and the CI chaos
// smoke use it to prove the supervisor detects, quarantines and resumes
// correctly.
//
// Faults are matched by job-name substring and injected deterministically,
// so a chaos run is as reproducible as a healthy one.
type Chaos struct {
	Faults []Fault

	mu        sync.Mutex
	completed int
	cancel    context.CancelCauseFunc
}

// FaultKind enumerates the injectable pipeline faults.
type FaultKind int

const (
	// FaultPanic makes matching jobs panic on every execution.
	FaultPanic FaultKind = iota
	// FaultHang makes matching jobs block until their context ends —
	// modelling a hung simulation that only the per-job deadline (or a
	// run-level cancellation) can reclaim.
	FaultHang
	// FaultCancel cancels the run context after Count jobs have completed,
	// modelling a SIGTERM arriving mid-sweep.
	FaultCancel
	// FaultCorrupt corrupts the existing cache entries of matching jobs in
	// place (see CorruptMatching); the wrapped jobs themselves are
	// untouched.
	FaultCorrupt
)

// Fault is one injected failure: a kind, a job-name substring to match
// (unused for FaultCancel), and a count (FaultCancel: completed jobs
// before cancellation).
type Fault struct {
	Kind  FaultKind
	Match string
	Count int
}

// ErrChaosCancel is the cancellation cause a FaultCancel injects.
var ErrChaosCancel = errors.New("chaos: injected mid-run cancellation")

// ParseChaos parses a comma-separated fault spec:
//
//	panic:<substr>    matching jobs panic
//	hang:<substr>     matching jobs block until their context aborts them
//	cancel:<n>        cancel the run after n completed jobs
//	corrupt:<substr>  corrupt matching jobs' cache entries before the run
//
// An empty spec yields a nil (disarmed) Chaos.
func ParseChaos(spec string) (*Chaos, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	c := &Chaos{}
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		bad := func() error {
			return fmt.Errorf("runner: bad chaos fault %q (want panic:<substr>, hang:<substr>, cancel:<n>, or corrupt:<substr>)", part)
		}
		f := Fault{}
		switch fields[0] {
		case "panic", "hang", "corrupt":
			if len(fields) != 2 || fields[1] == "" {
				return nil, bad()
			}
			f.Kind = map[string]FaultKind{"panic": FaultPanic, "hang": FaultHang, "corrupt": FaultCorrupt}[fields[0]]
			f.Match = fields[1]
		case "cancel":
			if len(fields) != 2 {
				return nil, bad()
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 {
				return nil, bad()
			}
			f.Kind, f.Count = FaultCancel, n
		default:
			return nil, bad()
		}
		c.Faults = append(c.Faults, f)
	}
	return c, nil
}

// String renders the armed faults in spec form.
func (c *Chaos) String() string {
	if c == nil {
		return ""
	}
	var parts []string
	for _, f := range c.Faults {
		switch f.Kind {
		case FaultPanic:
			parts = append(parts, "panic:"+f.Match)
		case FaultHang:
			parts = append(parts, "hang:"+f.Match)
		case FaultCancel:
			parts = append(parts, fmt.Sprintf("cancel:%d", f.Count))
		case FaultCorrupt:
			parts = append(parts, "corrupt:"+f.Match)
		}
	}
	return strings.Join(parts, ",")
}

// BindCancel gives the injector the run context's cancel function, armed by
// any FaultCancel fault. Call it with the CancelCauseFunc guarding the
// context passed to Run.
func (c *Chaos) BindCancel(cancel context.CancelCauseFunc) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.cancel = cancel
	c.mu.Unlock()
}

// Wrap returns the plan with every execution fault woven into the matching
// jobs' run functions. Names and keys are untouched, so cache identity and
// report assembly are exactly those of a healthy run.
// A nil Chaos returns jobs unchanged.
func (c *Chaos) Wrap(jobs []Job) []Job {
	if c == nil {
		return jobs
	}
	out := make([]Job, len(jobs))
	for i := range jobs {
		out[i] = jobs[i]
		inner := out[i].run
		name := out[i].Name
		out[i].run = func(ctx context.Context) (any, error) {
			if err := c.before(ctx, name); err != nil {
				return nil, err
			}
			v, err := inner(ctx)
			c.after(name)
			return v, err
		}
	}
	return out
}

// before injects pre-execution faults into one execution of the named job.
func (c *Chaos) before(ctx context.Context, name string) error {
	for _, f := range c.Faults {
		if f.Match == "" || !strings.Contains(name, f.Match) {
			continue
		}
		switch f.Kind {
		case FaultPanic:
			panic(fmt.Sprintf("chaos: injected panic in %s", name))
		case FaultHang:
			<-ctx.Done()
			return ctx.Err()
		}
	}
	return nil
}

// after counts a completed execution and fires any armed FaultCancel.
func (c *Chaos) after(name string) {
	c.mu.Lock()
	c.completed++
	n := c.completed
	cancel := c.cancel
	c.mu.Unlock()
	if cancel == nil {
		return
	}
	for _, f := range c.Faults {
		if f.Kind == FaultCancel && n == f.Count {
			cancel(ErrChaosCancel)
		}
	}
}

// CorruptMatching applies every FaultCorrupt fault to the cache: each
// existing entry of a matching job has its recorded checksum damaged in
// place (still valid JSON, so the quarantine reason is the checksum
// mismatch, the subtlest corruption the cache can detect). It returns how
// many entries were corrupted. Call it after the cache is populated and
// before the run that should trip over the damage.
func (c *Chaos) CorruptMatching(cache *Cache, jobs []Job) (int, error) {
	if c == nil || cache == nil {
		return 0, nil
	}
	n := 0
	for _, f := range c.Faults {
		if f.Kind != FaultCorrupt {
			continue
		}
		for i := range jobs {
			j := &jobs[i]
			if j.Key == "" || !strings.Contains(j.Name, f.Match) {
				continue
			}
			corrupted, err := corruptEntry(cache.EntryPath(j.Key))
			if err != nil {
				return n, fmt.Errorf("runner: chaos: corrupting %s: %w", j.Name, err)
			}
			if corrupted {
				n++
			}
		}
	}
	return n, nil
}

// corruptEntry damages the entry file at path: a parsable envelope gets its
// checksum flipped (valid JSON, wrong sum); anything else is overwritten
// with garbage. Reports false when no entry exists.
func corruptEntry(path string) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	var e envelope
	if json.Unmarshal(data, &e) == nil && len(e.Sum) > 0 {
		flip := byte('0')
		if e.Sum[0] == '0' {
			flip = '1'
		}
		e.Sum = string(flip) + e.Sum[1:]
		if out, err := json.Marshal(e); err == nil {
			return true, os.WriteFile(path, out, 0o644)
		}
	}
	return true, os.WriteFile(path, []byte("chaos: corrupted entry\n"), 0o644)
}
