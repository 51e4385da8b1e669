// Package serve turns the vcoma harness into a long-running simulation
// service: an HTTP/JSON front end over a multi-tenant job queue layered on
// internal/runner, with the content-addressed result cache promoted to a
// shared artifact store. Requests are keyed exactly like runner cache
// entries, so two tenants asking for the same cell share one simulation and
// one stored artifact, and a server restart re-serves previous results
// byte-identically.
package serve

import (
	"fmt"
	"strings"

	"vcoma/internal/config"
	"vcoma/internal/experiments"
	"vcoma/internal/obs"
	"vcoma/internal/runner"
	"vcoma/internal/workload"
)

// requestVersion salts every job key. Bumping it orphans served results the
// same way bumping the runner cache schema orphans cache entries — the
// invalidation path for request-semantics changes.
const requestVersion = "vcoma-serve-v1"

// Priority orders jobs in the queue and picks load-shedding victims.
// Smaller is more urgent.
type Priority int

const (
	PriorityHigh Priority = iota
	PriorityNormal
	PriorityLow
	numPriorities
)

func (p Priority) String() string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityNormal:
		return "normal"
	case PriorityLow:
		return "low"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// ParsePriority maps the wire spelling to a Priority; empty means normal.
func ParsePriority(s string) (Priority, error) {
	switch strings.ToLower(s) {
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	case "low":
		return PriorityLow, nil
	default:
		return 0, fmt.Errorf("serve: unknown priority %q (want high, normal or low)", s)
	}
}

// Request is the submit-body schema: one simulation cell named the same way
// the suite and the cache name them. Tenant and Priority route the job
// through the queue but are deliberately excluded from the job key, so
// key-equal requests from different tenants coalesce onto one simulation
// and one shared artifact.
type Request struct {
	// Bench is a paper benchmark name (RADIX, FFT, FMM, OCEAN, RAYTRACE,
	// BARNES; case-insensitive).
	Bench string `json:"bench"`
	// Scheme is one of l0, l1, l2, l3, vcoma.
	Scheme string `json:"scheme"`
	// Scale is test, small or paper.
	Scale string `json:"scale"`
	// TLB overrides the TLB/DLB entry count (default: baseline's 8).
	TLB int `json:"tlb,omitempty"`
	// Org is the TLB organization: fa (default) or dm.
	Org string `json:"org,omitempty"`
	// Seed overrides the baseline seed when nonzero.
	Seed uint64 `json:"seed,omitempty"`
	// Priority is high, normal (default) or low.
	Priority string `json:"priority,omitempty"`
	// Tenant names the submitting client for fairness accounting; empty
	// clients share the "anon" tenant.
	Tenant string `json:"tenant,omitempty"`
}

// Spec is a validated, normalized request: the exact simulation inputs plus
// the queueing attributes, ready to run.
//
// Trace and Root are per-submit observability state: like Tenant
// and Priority they ride the queue but are deliberately excluded from Key,
// so a traced and an untraced request for the same cell still coalesce onto
// one simulation and one artifact.
type Spec struct {
	Config   config.Config
	Bench    workload.Benchmark
	Scale    workload.Scale
	Priority Priority
	Tenant   string

	// Trace is the submit's request trace (nil = untraced).
	Trace *obs.Trace
	// Root is the open request-root span, ended when the job retires.
	Root *obs.Span
}

// Key returns the job's content address: a hash of everything that can
// change the result and nothing that can't. It doubles as the job ID in the
// HTTP API and as the artifact store key.
func (s Spec) Key() runner.Key {
	return runner.KeyOf(requestVersion, "sim", s.Config, s.Bench.Name(), s.Scale.String())
}

// Resolve validates a wire request and assembles the simulation spec. The
// cell resolves through experiments.Cell, the resolver vcoma-sim's flags
// use too, so a malformed request is rejected at the API boundary with the
// same diagnostics the CLIs print.
func (r Request) Resolve() (Spec, error) {
	cfg, bench, scale, err := experiments.Cell{
		Bench: r.Bench, Scheme: r.Scheme, Scale: r.Scale, Org: r.Org, TLB: r.TLB, Seed: r.Seed,
	}.Resolve()
	if err != nil {
		return Spec{}, fmt.Errorf("serve: %w", err)
	}
	prio, err := ParsePriority(r.Priority)
	if err != nil {
		return Spec{}, err
	}
	tenant := strings.TrimSpace(r.Tenant)
	if tenant == "" {
		tenant = "anon"
	}
	return Spec{Config: cfg, Bench: bench, Scale: scale, Priority: prio, Tenant: tenant}, nil
}

// Name renders the spec the way runner jobs are named, so progress lines,
// journal records and chaos matchers all see the same identity.
func (s Spec) Name() string {
	return fmt.Sprintf("serve/%s/%s/%s/%d%s", s.Bench.Name(), s.Config.Scheme, s.Scale, s.Config.TLBEntries, s.Config.TLBOrg)
}
