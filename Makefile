GO ?= go

.PHONY: all vet build test race fuzz-smoke soak check chaos-smoke serve-smoke fsfault-smoke pprof-smoke crashsim perf-gate clean

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short native-fuzz runs of the correctness oracles; new interesting inputs
# stay in the Go build cache, crashers land in the fuzzed package's
# testdata/fuzz/ ready to commit as regressions.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSchemesAgree -fuzztime 30s ./internal/check/
	$(GO) test -run '^$$' -fuzz FuzzMachine -fuzztime 30s ./internal/check/
	$(GO) test -run '^$$' -fuzz FuzzBufferParity -fuzztime 10s ./internal/tlb/
	$(GO) test -run '^$$' -fuzz FuzzBankParity -fuzztime 10s ./internal/tlb/
	$(GO) test -run '^$$' -fuzz FuzzCacheModel -fuzztime 10s ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzRequestResolve -fuzztime 30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzRecordedBuild -fuzztime 30s ./internal/workload/
	$(GO) test -run '^$$' -fuzz FuzzTraceReader -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzParseFailpoints -fuzztime 10s ./internal/fsio/
	$(GO) test -run '^$$' -fuzz FuzzParseChaos -fuzztime 10s ./internal/runner/

# Longer oracle soak over seeded random workloads; failing seeds are written
# to fuzz-artifacts/ in Go fuzz-corpus format.
soak:
	mkdir -p fuzz-artifacts
	$(GO) run ./cmd/vcoma-check -seeds 1000 -budget 3m -artifacts fuzz-artifacts
	$(GO) run ./cmd/vcoma-check -seeds 150 -diff -budget 3m -artifacts fuzz-artifacts

# Supervision-layer smoke through the real CLIs: interrupt/resume
# byte-identity, cache-corruption quarantine, hung-pass reclaim, watchdog
# diagnostics (see scripts/chaos-smoke.sh).
chaos-smoke:
	sh scripts/chaos-smoke.sh chaos-smoke.tmp
	rm -rf chaos-smoke.tmp

# Service smoke through real HTTP: SIGTERM mid-job → restart → byte-identical
# resume, coalescing onto the artifact store, 429 flood control
# (see scripts/serve-smoke.sh).
serve-smoke:
	sh scripts/serve-smoke.sh serve-smoke.tmp
	rm -rf serve-smoke.tmp

# Storage-fault smoke through real HTTP: ENOSPC on every artifact put →
# degraded-mode serving from memory (byte-identical), 503 + Retry-After on
# a dead journal, self-heal via the write probe once the failpoints clear
# (see scripts/fsfault-smoke.sh). The scratch dir keeps the -fsfault-log op
# trace on failure for post-mortems.
fsfault-smoke:
	sh scripts/fsfault-smoke.sh fsfault-smoke.tmp
	rm -rf fsfault-smoke.tmp

# Profiling smoke: a 2 s CPU profile fetched from a small-scale report's
# live -pprof endpoint must carry job labels naming its passes
# (see scripts/pprof-smoke.sh).
pprof-smoke:
	sh scripts/pprof-smoke.sh pprof-smoke.tmp
	rm -rf pprof-smoke.tmp

# Power-cut crash-consistency sweeps: replay every fsync-truncated prefix of
# recorded op traces and reopen the shared durable log, the runner cache, the
# sweep journal and the serve accept journal in each crash state, asserting
# their recovery invariants (synced records read back and torn ones never,
# whole-entries-or-nothing, byte-identical resume, pending ⊆ accepted).
crashsim:
	$(GO) test ./internal/fsio/... -count=1
	$(GO) test ./internal/runner/ ./internal/serve/ -run 'CrashSweep|Torn' -count=1

# Perf gate: the benchmark (BENCHMARK.json, perfbench/) on the merge-base
# with origin/main and on the working tree, four alternating pairs per
# workload on this host; fails on a broken change run or an end-to-end
# regression beyond its bound in most pairs (see scripts/benchgate).
perf-gate:
	$(GO) run ./scripts/benchgate origin/main

# The full local gate: what CI runs, minus the long benchmark artifacts.
check: vet build
	$(GO) test -race ./...
	mkdir -p fuzz-artifacts
	$(GO) run ./cmd/vcoma-check -seeds 32000 -budget 60s -artifacts fuzz-artifacts
	$(GO) run ./cmd/vcoma-check -seeds 30 -diff -budget 60s -artifacts fuzz-artifacts

clean:
	rm -rf fuzz-artifacts artifacts chaos-smoke.tmp serve-smoke.tmp fsfault-smoke.tmp pprof-smoke.tmp
