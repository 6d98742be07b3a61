#!/usr/bin/env bash
# Non-test lines per crate: for every src/**/*.rs, the lines before the
# first `#[cfg(test)]` or `#![cfg(test)]` at column 0 (comments and blanks
# included — the rule is deliberately too simple to game by reformatting).
# A test-only file opens with the gate and counts nothing.
#
#   scripts/loc.sh           print the table
#   scripts/loc.sh --check   also fail when a budget below is exceeded
#
# Four budgets: the library crates of the deletion sweep (core, simnet,
# cli), the service, the bench harness, and the support crates
# (topology, telemetry, cluster, spmm, and integration, the package of
# tests/ and examples/). Every crate under crates/ is in one; --check
# fails on a crate in none. Each budget is the count the last change to
# move it left behind: lower a budget when code goes, never raise it.
# CHANGES.md records every move and why.
set -euo pipefail
cd "$(dirname "$0")/.."

SWEEP_BUDGET=12430   # crates/{core,simnet,cli}/src
SERVICE_BUDGET=1490  # crates/service/src
BENCH_BUDGET=3758    # crates/bench/src
SUPPORT_BUDGET=3076  # crates/{topology,telemetry,cluster,spmm,integration}/src

count() {
  find "crates/$1/src" -name '*.rs' -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { live = 1 } /^#!?\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }'
}

sweep=0
support=0
unbudgeted=
for dir in crates/*/; do
  crate=$(basename "$dir")
  n=$(count "$crate")
  printf '%-12s %6d\n' "$crate" "$n"
  case "$crate" in
    core | simnet | cli) sweep=$((sweep + n)) ;;
    service) service=$n ;;
    bench) bench=$n ;;
    topology | telemetry | cluster | spmm | integration) support=$((support + n)) ;;
    *) unbudgeted="$unbudgeted $crate" ;;
  esac
done
printf '%-12s %6d  (core + simnet + cli; budget %d)\n' sweep "$sweep" "$SWEEP_BUDGET"
printf '%-12s %6d  (topology + telemetry + cluster + spmm + integration; budget %d)\n' \
  support "$support" "$SUPPORT_BUDGET"

if [ "${1:-}" = "--check" ]; then
  fail=0
  if [ "$sweep" -gt "$SWEEP_BUDGET" ]; then
    echo "error: core + simnet + cli hold $sweep non-test lines, budget $SWEEP_BUDGET" >&2
    fail=1
  fi
  if [ "$service" -gt "$SERVICE_BUDGET" ]; then
    echo "error: service holds $service non-test lines, budget $SERVICE_BUDGET" >&2
    fail=1
  fi
  if [ "$bench" -gt "$BENCH_BUDGET" ]; then
    echo "error: bench holds $bench non-test lines, budget $BENCH_BUDGET" >&2
    fail=1
  fi
  if [ "$support" -gt "$SUPPORT_BUDGET" ]; then
    echo "error: the support crates hold $support non-test lines, budget $SUPPORT_BUDGET" >&2
    fail=1
  fi
  if [ -n "$unbudgeted" ]; then
    echo "error: no budget covers crates/{${unbudgeted# }}; add each to one above" >&2
    fail=1
  fi
  exit $fail
fi
