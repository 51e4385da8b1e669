// Package serve turns the vcoma harness into a long-running simulation
// service: an HTTP/JSON front end over one FIFO of coalesced jobs layered
// on internal/runner, with the content-addressed result cache promoted to a
// shared artifact store. Requests are keyed exactly like runner cache
// entries, so two clients asking for the same cell share one simulation and
// one stored artifact, and a server restart re-serves previous results
// byte-identically.
package serve

import (
	"fmt"

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

// Request is the submit-body schema: one simulation cell named the same way
// the suite and the cache name them. Unknown fields are ignored, so bodies
// from older clients that still carry "priority" or "tenant" resolve to the
// same job key as the bare cell.
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
}

// Spec is a validated, normalized request: the exact simulation inputs,
// ready to run.
//
// Trace and Root are per-submit observability state: they ride the queue
// but are deliberately excluded from Key, so a traced and an untraced
// request for the same cell still coalesce onto one simulation and one
// artifact.
type Spec struct {
	Config config.Config
	Bench  workload.Benchmark
	Scale  workload.Scale

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
	return Spec{Config: cfg, Bench: bench, Scale: scale}, nil
}

// Name renders the spec the way runner jobs are named, so progress lines,
// journal records and chaos matchers all see the same identity.
func (s Spec) Name() string {
	return fmt.Sprintf("serve/%s/%s/%s/%d%s", s.Bench.Name(), s.Config.Scheme, s.Scale, s.Config.TLBEntries, s.Config.TLBOrg)
}
