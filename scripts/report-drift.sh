#!/bin/sh
# Report drift: regenerate the paper-scale report and compare it with the
# generated part of EXPERIMENTS.md, so the committed numbers cannot drift
# from what the code computes. The generated part runs from the line
# "# Experiments — paper vs. measured" up to the blank line before the
# first hand-written section after it ("## Observability — ...").
#
#	sh scripts/report-drift.sh       # exit 1 if the two differ
#	sh scripts/report-drift.sh -w    # splice the new report in place
#
# A cold paper campaign: ~85 s wall at -jobs 2 on 2 vCPUs.
set -eu

doc=EXPERIMENTS.md
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

start=$(grep -n -x '# Experiments — paper vs. measured' "$doc" | cut -d: -f1)
end=$(grep -n '^## Observability — ' "$doc" | head -n 1 | cut -d: -f1)
test -n "$start" && test -n "$end" && test "$start" -lt "$end" || {
    echo "report-drift: cannot find the generated part of $doc" >&2; exit 1; }
head -n $((start - 1)) "$doc" > "$tmp/before.md"
sed -n "${start},$((end - 2))p" "$doc" > "$tmp/doc-part.md"
tail -n +$((end - 1)) "$doc" > "$tmp/after.md"

go run ./cmd/vcoma-report -scale paper -no-cache -jobs 2 -o "$tmp/r.md"

if [ "${1:-}" = "-w" ]; then
    cat "$tmp/before.md" "$tmp/r.md" "$tmp/after.md" > "$doc"
    exit 0
fi
cmp "$tmp/doc-part.md" "$tmp/r.md" || {
    echo "report-drift: $doc lines $start-$((end - 2)) differ from a fresh paper report; regenerate with: sh scripts/report-drift.sh -w" >&2
    diff "$tmp/doc-part.md" "$tmp/r.md" | head -n 40 >&2
    exit 1
}
echo "report-drift: $doc matches a fresh paper report ($(wc -l < "$tmp/r.md") lines from line $start)"
