#!/bin/sh
# Pprof smoke: prove from outside the process that CPU samples are
# attributable to passes. A small-scale report runs with -pprof; a 2 s CPU
# profile is fetched from its live /debug/pprof/profile endpoint, and
# `go tool pprof -tags` must list a job: label naming an FFT or OCEAN pass
# (the labels runner.Run sets on every attempt).
#
# Runs in a scratch directory; pass one as $1 (default: ./pprof-smoke.tmp)
# and a listen port as $2 (default: 16061).
set -eu

work=${1:-pprof-smoke.tmp}
port=${2:-16061}
rm -rf "$work"
mkdir -p "$work/bin"
go build -o "$work/bin" ./cmd/vcoma-report
cd "$work"

bin/vcoma-report -scale small -bench FFT,OCEAN -no-cache -jobs 1 -o /dev/null \
    -pprof "127.0.0.1:$port" 2> report.err &
pid=$!
trap 'kill "$pid" 2> /dev/null || true' EXIT

echo "== waiting for the pprof listener"
up=0
for _ in $(seq 50); do
    if curl -sf -o /dev/null "http://127.0.0.1:$port/debug/pprof/"; then
        up=1
        break
    fi
    sleep 0.1
done
test "$up" -eq 1 || { echo "FAIL: no pprof listener on port $port" >&2; cat report.err >&2; exit 1; }

echo "== capturing a 2 s CPU profile mid-campaign"
curl -sf -o cpu.pprof "http://127.0.0.1:$port/debug/pprof/profile?seconds=2"
go tool pprof -tags cpu.pprof > tags.txt 2> /dev/null
cat tags.txt
# The job: section lists one line per labelled pass; at least one must name
# a pass of the benchmarks under way.
awk '/^ *job:/ { in_job = 1; next } /^ *[a-z]+:/ { in_job = 0 } in_job' tags.txt > jobs.txt
grep -Eq '/(FFT|OCEAN)/' jobs.txt || { echo "FAIL: profile carries no job: label naming an FFT or OCEAN pass" >&2; exit 1; }

echo "== the report still completes"
wait "$pid" || { echo "FAIL: vcoma-report exited $?" >&2; cat report.err >&2; exit 1; }
trap - EXIT
echo "pprof smoke: OK"
