#!/usr/bin/env bash
# Multi-config benchmark gate: run the BenchmarkGate matrix —
# {workers=1, workers=max(NumCPU,2)} × {small, full-scale} on the
# native solver and the incremental span replay (bench_gate_test.go;
# the wmax floor keeps the parallel axis in the matrix even on a
# single-core host) — and compare against the checked-in baseline with
# cmd/benchgate, which applies a Mann–Whitney rank-sum test per
# configuration (benchmark names normalized across GOMAXPROCS) and
# FAILS on any statistically significant median slowdown beyond the
# threshold, or — via -strict — on any matrix configuration missing
# from the baseline.
# This is the CI tooth; perfbench/ (bash perfbench/run.sh) is the
# end-to-end and per-layer trajectory.
#
#   scripts/bench_gate.sh            # run + gate against the baseline
#   scripts/bench_gate.sh update     # run + overwrite the baseline
#   COUNT=10 scripts/bench_gate.sh   # more samples (min 5: the exact
#                                    # rank-sum test needs the power)
#   BENCHGATE_THRESHOLD=0.25 scripts/bench_gate.sh   # loosen the gate
#
# The baseline (internal/bench/testdata/gate_baseline.txt) is refreshed
# intentionally — never by CI — whenever a deliberate performance
# change lands, so the gate always measures against the last accepted
# state, not a drifting one.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-5}"
if [ "$COUNT" -lt 5 ]; then
    echo ">> COUNT=$COUNT is below the minimum of 5 samples the rank-sum test needs" >&2
    exit 2
fi
BASELINE=internal/bench/testdata/gate_baseline.txt
CURRENT="$(mktemp /tmp/bench_gate.XXXXXX.txt)"
trap 'rm -f "$CURRENT"' EXIT

# Small configs: many engine runs per sample for stable medians.
echo ">> small scale: go test -bench 'BenchmarkGate/small' -benchtime 20x -count $COUNT"
go test -run '^$' -bench 'BenchmarkGate/small' -benchtime 20x -count "$COUNT" . | tee "$CURRENT"

# Full scale: one engine run per sample (a solve takes ~hundreds of ms,
# so -benchtime=1x keeps COUNT samples affordable while the rank-sum
# test supplies the statistics).
echo ">> full scale: go test -bench 'BenchmarkGate/full' -benchtime 1x -count $COUNT"
go test -run '^$' -bench 'BenchmarkGate/full' -benchtime 1x -count "$COUNT" -timeout 30m . | tee -a "$CURRENT"

if [ "${1:-}" = "update" ]; then
    mkdir -p "$(dirname "$BASELINE")"
    cp "$CURRENT" "$BASELINE"
    echo ">> gate baseline refreshed: $BASELINE"
    exit 0
fi

if [ ! -f "$BASELINE" ]; then
    echo ">> no baseline at $BASELINE; run 'scripts/bench_gate.sh update' to create it" >&2
    exit 1
fi

echo
echo ">> benchgate baseline vs current (threshold ${BENCHGATE_THRESHOLD:-0.15}, exact rank-sum test, strict coverage)"
go run ./cmd/benchgate -strict "$BASELINE" "$CURRENT"
