#!/usr/bin/env bash
# event_gate.sh — events-per-I/O gate for the event engine. Runs
# BenchmarkEventsPerIO (fixed deterministic cells in internal/core) and
# fails if any cell's engine events per completed device I/O exceeds
# its budget. Like allocs/op, events/io is machine-independent and
# exactly reproducible, so the budgets are hard numbers pinned just
# above the measured counts:
#   fig4-none        4.492 measured (5.382 before in-place timers)
#   fig3-qd1-iocost  4.010 measured
#   iomax-throttled  2.741 measured (2.814 before release waits
#                    rounded up, 3.770 before in-place timers)
#   iocost-throttled 5.273 measured (6.121 before release waits
#                    rounded up)
# A timer that goes back to leaving a stale event per I/O, a release
# timer that fires before its budget returns, or a new per-I/O hop,
# adds far more than the headroom. A change that lowers events per I/O
# lowers these budgets in the same diff.
#
# Usage: scripts/event_gate.sh
set -euo pipefail

cd "$(dirname "$0")/.."

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
go test -run '^$' -bench 'EventsPerIO' -benchtime 1x ./internal/core/ | tee "$raw"

fail=0
# gate CELL BUDGET
gate() {
    local cell="$1" max="$2" got
    got="$(awk -v p="BenchmarkEventsPerIO/$cell" 'index($0, p) == 1 {
        for (i = 1; i < NF; i++) if ($(i+1) == "events/io") { print $i; exit }
    }' "$raw")"
    if [ -z "$got" ]; then
        echo "FAIL: cell $cell produced no events/io sample" >&2
        fail=1
        return
    fi
    if awk -v got="$got" -v max="$max" 'BEGIN { exit !(got > max) }'; then
        echo "FAIL: $cell runs $got events/io, budget $max" >&2
        fail=1
        return
    fi
    echo "OK: $cell $got events/io within budget $max"
}

gate fig4-none 4.55
gate fig3-qd1-iocost 4.05
gate iomax-throttled 2.76
gate iocost-throttled 5.30
exit "$fail"
