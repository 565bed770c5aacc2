#!/usr/bin/env bash
# bench_gate.sh — same-runner A/B regression gate for the event engine.
# Builds the internal/sim test binary twice, at BASE-REF and from the
# working tree, then alternates RUNS runs of each side (base first on
# odd rounds, head first on even ones) of BenchmarkEngineHotLoop/heap4
# and BenchmarkEngineEvent. It fails when the working tree's median of
# either benchmark is more than MAX_REGRESS percent slower than the
# base's. Both sides run on the same machine in the same job, so the
# gate needs no recorded baseline and does not depend on the host.
#
# Usage: scripts/bench_gate.sh [base-ref]     (base-ref defaults to HEAD^)
# Env: MAX_REGRESS (default 25), RUNS (default 5, at least 5),
#      BENCHTIME (default 300ms).
set -euo pipefail

cd "$(dirname "$0")/.."
base_ref="${1:-HEAD^}"
max="${MAX_REGRESS:-25}"
runs="${RUNS:-5}"
if [ "$runs" -lt 5 ]; then
    echo "RUNS must be at least 5" >&2
    exit 2
fi
base_sha="$(git rev-parse --verify "${base_ref}^{commit}")"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base_sha" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" ./internal/sim/)
go test -c -o "$tmp/head.test" ./internal/sim/

for i in $(seq "$runs"); do
    order="base head"
    if [ $((i % 2)) -eq 0 ]; then
        order="head base"
    fi
    for side in $order; do
        (cd internal/sim && "$tmp/$side.test" -test.run '^$' \
            -test.bench 'EngineEvent$|EngineHotLoop/heap4$' \
            -test.benchtime "${BENCHTIME:-300ms}" -test.cpu 1) |
            awk -v side="$side" '/^Benchmark/ { print side, $1, $3 }' | tee -a "$tmp/samples"
    done
done

median() {
    awk -v side="$1" -v name="$2" '$1 == side && $2 == name { print $3 }' "$tmp/samples" |
        sort -g | awk '{ v[NR] = $1 } END {
            if (NR == 0) exit 1
            if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2
        }'
}

status=0
for name in BenchmarkEngineHotLoop/heap4 BenchmarkEngineEvent; do
    if ! base="$(median base "$name")" || ! head="$(median head "$name")"; then
        echo "FAIL: no $name samples (base $base_sha or head)" >&2
        status=1
        continue
    fi
    awk -v name="$name" -v base="$base" -v head="$head" -v max="$max" -v runs="$runs" 'BEGIN {
        lim = base * (1 + max / 100)
        printf "%s: base median %.2f ns/op, head median %.2f ns/op (%+.1f%%), limit %.2f ns/op (+%d%%), %d runs each\n",
            name, base, head, (head / base - 1) * 100, lim, max, runs
        exit head > lim
    }' || { echo "FAIL: $name regressed beyond ${max}%"; status=1; }
done
if [ "$status" -eq 0 ]; then
    echo "OK"
fi
exit "$status"
