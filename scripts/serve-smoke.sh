#!/bin/sh
# Serve smoke: exercise vcoma-serve end to end through real HTTP at test
# scale. Proves the service acceptance path: one submit's trace id shows up
# in the 202 header/body, the span tree, the persisted Perfetto file and
# the structured log; /metrics is well-formed Prometheus text exposition;
# a SIGTERM mid-job drains with exit 143 and leaves the job pending in the
# journal, a job withdrawn while queued is journaled as canceled, a
# restarted server resumes only the pending job and serves a result
# byte-identical to an uninterrupted run, repeat submits coalesce onto the stored artifact
# instead of re-simulating, and an over-budget flood is rejected with
# 429 + Retry-After.
#
# Runs in a scratch directory; pass one as $1 (default: ./serve-smoke.tmp).
set -eu

work=${1:-serve-smoke.tmp}
rm -rf "$work"
mkdir -p "$work/bin"
go build -o "$work/bin" ./cmd/...
cd "$work"

ADDR=127.0.0.1:8391
BASE=http://$ADDR
BODY='{"bench":"RADIX","scheme":"vcoma","scale":"test"}'

# wait_http <url>: poll until the endpoint answers.
wait_http() {
    for _ in $(seq 1 100); do
        if curl -fsS "$1" > /dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "FAIL: $1 never came up" >&2
    return 1
}

# field <name>: extract a string field from JSON on stdin.
field() {
    sed -n 's/.*"'"$1"'": *"\([^"]*\)".*/\1/p' | head -n 1
}

# wait_state <key> <state>: poll a job until it reaches the state.
wait_state() {
    for _ in $(seq 1 300); do
        st=$(curl -fsS "$BASE/v1/jobs/$1" | field state)
        [ "$st" = "$2" ] && return 0
        sleep 0.1
    done
    echo "FAIL: job $1 never reached $2 (last: $st)" >&2
    return 1
}

echo "== reference: uninterrupted server computes the cell"
bin/vcoma-serve -addr "$ADDR" -state state-ref -workers 1 -log-format json > ref-server.log 2>&1 &
REF=$!
wait_http "$BASE/healthz"
curl -fsS -D submit-headers.txt -X POST -d "$BODY" "$BASE/v1/jobs" > submit.json
KEY=$(field key < submit.json)
[ -n "$KEY" ] || { echo "FAIL: submit returned no key" >&2; exit 1; }
TID=$(field trace_id < submit.json)
[ -n "$TID" ] || { echo "FAIL: submit returned no trace_id" >&2; exit 1; }
grep -qi "^x-vcoma-trace: *$TID" submit-headers.txt \
    || { echo "FAIL: X-Vcoma-Trace header missing or != body trace_id" >&2; exit 1; }
wait_state "$KEY" done
curl -fsS "$BASE/v1/jobs/$KEY/result" > ref.json

echo "== tracing: the accept's trace id names the span tree and log lines"
curl -fsS "$BASE/v1/jobs/$KEY/trace" > trace.json
grep -q "\"trace_id\": *\"$TID\"" trace.json \
    || { echo "FAIL: span tree trace_id != submit trace_id $TID" >&2; cat trace.json >&2; exit 1; }
for span in request admit journal-fsync queue-wait run simulate; do
    grep -q "\"name\": *\"$span\"" trace.json \
        || { echo "FAIL: span tree missing $span span" >&2; cat trace.json >&2; exit 1; }
done
[ -f "state-ref/traces/$KEY.trace.json" ] \
    || { echo "FAIL: no Perfetto trace file persisted" >&2; exit 1; }
grep -q "$TID" "state-ref/traces/$KEY.trace.json" \
    || { echo "FAIL: Perfetto file lacks the trace id" >&2; exit 1; }
grep -q "\"trace_id\":\"$TID\"" ref-server.log \
    || { echo "FAIL: server log lines lack the trace id" >&2; exit 1; }

echo "== metrics: Prometheus exposition is well-formed"
curl -fsS "$BASE/metrics" > metrics.txt
grep -q '^# HELP vcoma_serve_sims_executed ' metrics.txt \
    || { echo "FAIL: /metrics missing HELP line" >&2; exit 1; }
grep -q '^# TYPE vcoma_serve_sims_executed counter$' metrics.txt \
    || { echo "FAIL: /metrics missing TYPE line" >&2; exit 1; }
grep -q '^# TYPE vcoma_serve_lat_run_ms histogram$' metrics.txt \
    || { echo "FAIL: /metrics missing histogram TYPE" >&2; exit 1; }
grep -q '^vcoma_serve_lat_run_ms_bucket{le="+Inf"} ' metrics.txt \
    || { echo "FAIL: /metrics histogram lacks +Inf bucket" >&2; exit 1; }
grep -q '^vcoma_serve_lat_run_ms_sum ' metrics.txt \
    || { echo "FAIL: /metrics histogram lacks _sum" >&2; exit 1; }
grep -q '^vcoma_serve_lat_run_ms_count ' metrics.txt \
    || { echo "FAIL: /metrics histogram lacks _count" >&2; exit 1; }

echo "== coalescing: a repeat submit is served from the store, no re-run"
st=$(curl -fsS -X POST -d "$BODY" "$BASE/v1/jobs" | field state)
[ "$st" = done ] || { echo "FAIL: repeat submit state $st" >&2; exit 1; }
sims=$(curl -fsS "$BASE/metrics" | sed -n 's|^vcoma_serve_sims_executed ||p')
[ "$sims" = 1 ] || { echo "FAIL: sims.executed=$sims, want 1" >&2; exit 1; }

echo "== SIGTERM on idle server drains with exit 143"
kill -TERM $REF
rc=0; wait $REF || rc=$?
[ "$rc" = 143 ] || { echo "FAIL: idle drain exited $rc, want 143" >&2; exit 1; }

echo "== chaos server: SIGTERM mid-job leaves the journal pending"
bin/vcoma-serve -addr "$ADDR" -state state-chaos -workers 1 -chaos hang:serve > chaos-server.log 2>&1 &
PID=$!
wait_http "$BASE/healthz"
K2=$(curl -fsS -X POST -d "$BODY" "$BASE/v1/jobs" | field key)
[ "$K2" = "$KEY" ] || { echo "FAIL: same request keyed differently ($K2 vs $KEY)" >&2; exit 1; }
wait_state "$K2" running
# Withdraw a job queued behind the held one: no worker ever sees it, so
# the cancel itself must be journaled or a restart would resume it.
curl -fsS -X POST -d '{"bench":"RADIX","scheme":"l0","scale":"test"}' "$BASE/v1/jobs" > queued.json
KQ=$(field key < queued.json)
WQ=$(field waiter_id < queued.json)
curl -fsS -X DELETE "$BASE/v1/jobs/$KQ?waiter=$WQ" > /dev/null
wait_state "$KQ" canceled
kill -TERM $PID
rc=0; wait $PID || rc=$?
[ "$rc" = 143 ] || { echo "FAIL: mid-job drain exited $rc, want 143" >&2; exit 1; }
grep -q '"op":"accept"' state-chaos/serve-journal.json \
    || { echo "FAIL: journal lost the in-flight job" >&2; exit 1; }
grep -q "\"op\":\"cancel\",\"key\":\"$KQ\"" state-chaos/serve-journal.json \
    || { echo "FAIL: journal lacks the cancel of queued job $KQ" >&2; exit 1; }

echo "== restart resumes the job and serves byte-identical bytes"
bin/vcoma-serve -addr "$ADDR" -state state-chaos -workers 1 > resume-server.log 2>&1 &
PID=$!
wait_http "$BASE/healthz"
wait_state "$K2" done
resumed=$(curl -fsS "$BASE/metrics" | sed -n 's|^vcoma_serve_resumed ||p')
[ "$resumed" = 1 ] || { echo "FAIL: restart resumed $resumed jobs, want 1" >&2; exit 1; }
curl -fsS "$BASE/v1/jobs/$K2/result" > res.json
kill -TERM $PID
rc=0; wait $PID || rc=$?
[ "$rc" = 143 ] || { echo "FAIL: resume server drain exited $rc, want 143" >&2; exit 1; }
cmp ref.json res.json || { echo "FAIL: resumed result differs from uninterrupted run" >&2; exit 1; }

echo "== admission control: over-budget flood is 429'd, Retry-After set"
bin/vcoma-serve -addr "$ADDR" -state state-flood -workers 1 -queue 2 -chaos hang:serve > flood-server.log 2>&1 &
PID=$!
wait_http "$BASE/healthz"
# One running (held by chaos) + two queued fill the budget. Wait for the
# first job to be dequeued so the next two land in the queue, not a 429.
K3=$(curl -fsS -X POST -d '{"bench":"RADIX","scheme":"l0","scale":"test","seed":1}' \
    "$BASE/v1/jobs" | field key)
wait_state "$K3" running
for seed in 2 3; do
    curl -fsS -X POST -d '{"bench":"RADIX","scheme":"l0","scale":"test","seed":'"$seed"'}' \
        "$BASE/v1/jobs" > /dev/null
done
for seed in 4 5 6; do
    code=$(curl -sS -o flood.out -w '%{http_code}' -X POST \
        -d '{"bench":"RADIX","scheme":"l0","scale":"test","seed":'"$seed"'}' "$BASE/v1/jobs")
    [ "$code" = 429 ] || { echo "FAIL: flood submit $seed got $code, want 429" >&2; cat flood.out >&2; exit 1; }
done
curl -sSi -X POST -d '{"bench":"RADIX","scheme":"l0","scale":"test","seed":7}' "$BASE/v1/jobs" \
    | grep -qi '^retry-after:' || { echo "FAIL: 429 without Retry-After" >&2; exit 1; }
kill -TERM $PID
rc=0; wait $PID || rc=$?
[ "$rc" = 143 ] || { echo "FAIL: flood server drain exited $rc, want 143" >&2; exit 1; }

echo "serve smoke: all scenarios passed"
