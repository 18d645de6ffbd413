#!/usr/bin/env bash
# Inlining guard: fail unless the compiler reports that the PRAM
# simulator's step methods can be inlined. The simulator's speed rests
# on it: an inlined Step folds its func literal into the caller, so a
# simulated step costs what the equivalent host loop costs. A change
# that pushes a step past the inliner's budget (a formatted panic, an
# extra call) fails here rather than as a silent slowdown.
#
#   scripts/check_inline.sh
set -euo pipefail
cd "$(dirname "$0")/.."

if ! report="$(go build -gcflags=-m ./internal/pram 2>&1)"; then
    echo "$report" >&2
    exit 1
fi
fail=0
for fn in Step StepN StepCost; do
    if ! grep -qE ": can inline \(\*Machine\)\.$fn\$" <<<"$report"; then
        echo "check_inline: the compiler no longer inlines (*Machine).$fn (go build -gcflags=-m=2 ./internal/pram says why)" >&2
        fail=1
    fi
done
exit "$fail"
