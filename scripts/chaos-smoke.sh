#!/bin/sh
# Chaos smoke: exercise the supervision layer end to end through the real
# CLIs at test scale. Proves the acceptance path of the resilience work: an
# interrupted report run resumes byte-identically, corrupted cache entries are
# quarantined (never trusted), a hung pass is reclaimed by its deadline
# with partial output, and a tripped watchdog yields a diagnostic dump.
#
# Runs in a scratch directory; pass one as $1 (default: ./chaos-smoke.tmp).
set -eu

work=${1:-chaos-smoke.tmp}
rm -rf "$work"
mkdir -p "$work/bin"
go build -o "$work/bin" ./cmd/...
cd "$work"

echo "== unknown report sections are rejected"
rc=0
bin/vcoma-report -only bogus -no-cache > /dev/null 2> bogus.err || rc=$?
test "$rc" -eq 1 || { echo "FAIL: -only bogus exited $rc, want 1" >&2; exit 1; }
grep -q 'error=' bogus.err || { echo "FAIL: -only bogus exit line carries no error=" >&2; cat bogus.err >&2; exit 1; }

echo "== reference: uninterrupted run"
bin/vcoma-report -only table2 -scale test -cache cache-ref > ref.out 2> /dev/null

echo "== chaos: cancel mid-run, then resume byte-identically"
if bin/vcoma-report -only table2 -scale test -cache cache-chaos -chaos cancel:3 > int.out 2> int.err; then
    echo "FAIL: interrupted run exited 0" >&2; exit 1
fi
test -f cache-chaos/journal.json || { echo "FAIL: no journal left behind" >&2; exit 1; }
bin/vcoma-report -only table2 -scale test -cache cache-chaos -resume > res.out 2> res.err
grep -q "resuming: journal records" res.err
cmp ref.out res.out || { echo "FAIL: resumed output differs from uninterrupted run" >&2; exit 1; }
if test -f cache-chaos/journal.json; then
    echo "FAIL: completed resume left its journal" >&2; exit 1
fi

echo "== chaos: corrupted cache entries are quarantined, then recomputed"
bin/vcoma-report -only table2 -scale test -cache cache-chaos -chaos corrupt:observe > cor.out 2> cor.err
cmp ref.out cor.out || { echo "FAIL: output after corruption differs" >&2; exit 1; }
ls cache-chaos/quarantine/*.reason > /dev/null 2>&1 || { echo "FAIL: no quarantined entries" >&2; exit 1; }

echo "== chaos: hung pass reclaimed by -job-timeout, partial output exits 2"
rc=0
bin/vcoma-report -only table2 -scale test -bench RADIX -no-cache \
    -chaos hang:L3 -job-timeout 5s -keep-going > part.out 2> part.err || rc=$?
test "$rc" -eq 2 || { echo "FAIL: partial run exited $rc, want 2" >&2; exit 1; }
grep -q "PARTIAL" part.err

echo "== watchdog: tripped budget dumps diagnostics instead of hanging"
rc=0
bin/vcoma-sim -bench RADIX -scale test -max-cycles 2000 2> dump.txt || rc=$?
test "$rc" -eq 1 || { echo "FAIL: tripped sim exited $rc, want 1" >&2; exit 1; }
grep -q "watchdog: cycle budget exceeded" dump.txt
grep -q "processors:" dump.txt

echo "chaos smoke: all scenarios passed"
