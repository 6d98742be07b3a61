#!/usr/bin/env bash
# Non-test lines per crate: for every src/**/*.rs, the lines before the
# first `#[cfg(test)]` or `#![cfg(test)]` at column 0 (comments and blanks
# included — the rule is deliberately too simple to game by reformatting).
# A test-only file opens with the gate and counts nothing.
#
#   scripts/loc.sh           print the table
#   scripts/loc.sh --check   also fail when a budget below is exceeded
#
# Budgets ratchet ROADMAP item 3's gate: the three library crates the
# deletion sweep targets, and the service, which must not grow (and,
# since the gate harness, crates/bench — see the last entry). They are
# the counts the last PR to move them left behind (PR 15: 13,943 ->
# 13,675 / 1,716 -> 1,680; PR 16: 13,664 / 1,672; PR 18 deleted the byte-staging arena and met
# ISSUE 15's <= 13,540; PR 19 put five send/recv matchers on one kernel:
# 13,539) — lower them when code goes, never raise them.
#
# Those sweep counts were 684 lines short. Until PR 20 `collective.rs`
# declared `#[cfg(test)] mod goldens;` at line 59 — the only file with an
# early gate — so the rule above stopped there and none of `DType` ...
# `reference_allreduce` was ever counted: the honest sweep after PR 19
# was 14,223, not 13,539. PR 20 moved the declaration down beside `mod
# tests` (the rule is unchanged), deleted the second plan IR, and set the
# budget from the corrected count *after* its deletions: 14,223 ->
# 14,035. That is a correction of the ruler, not a raise. The test-only
# `collective/goldens.rs` has no gate line and stays counted whole:
# over-counting is not a loophole.
#
# PR 21 deleted the second engine (the slot-run arena layout, both
# gather executors, the second thread-per-rank runtime, the second
# robust path): 14,035 -> 13,599 / 1,671 -> 1,645. ISSUE 21 aimed at
# <= 13,535; the 64 lines over are the lean gather compile and the
# delivery table that kept fresh-buffer latency and cold-compile bytes
# at the parent's (CHANGES.md).
#
# PR 22 is the one raise: 13,599 -> 14,033. The flat plan is a read
# API, a writer and the row form where there was a public field —
# plan.rs 493 -> 939 — and the builders, repair, plan_cache and the CLI
# gave back 74 lines, not 446 (the key memo, the in-place `RespMap`
# splice and the writer-fed decoder are the other + 62). ISSUE 22 asked for <= 13,599 and that is NOT met: nothing in
# its scope holds 434 more removable lines, and denser formatting is not a
# reduction. The lines it pays for are ROADMAP item 2(ii)'s to take back
# — the per-rank lazy decoder and the second reader in plan_io.rs (726
# lines; <= 400 once the file is the tables).
#
# PR 23 paid most of it back: 14,033 -> 13,696. What PR 22's raise
# bought was the flat plan's read API, writer and row form (plan.rs
# 493 -> 939); what came back is the plan file — three readers, two
# writers, three format generations, the per-rank lazy decoder and the
# `mmap` FFI became one encoder and one parser over the tables
# (plan_io.rs 726 -> 400), and one dual-seeded digest serves the
# fingerprint, the topology digest and the checksum (plan_cache.rs
# 524 -> 512). The stretch — PR 21's 13,599, the whole raise — is
# missed by 97 lines: plan.rs's 939 did not move (the file codec no
# longer needs `try_finish`, and nothing else there is the format's).
#
# PR 25 merged the negotiation: 13,696 -> 13,167. Algorithms 2-3 were
# written twice and scored three times (selection.rs 807 lines,
# distributed_builder.rs 733, builder.rs' inline kernel); they are one
# kernel, one transition function and two drivers in negotiate.rs
# (its contract tests sit in negotiate/*_tests.rs behind a first-line
# `#[cfg(test)]`, so they count nothing). ISSUE 25 asked for <= 13,296.
#
# Then the replay split: 13,167 -> 13,435 (+268), against an allowance
# of at most +80 that is NOT met. What the lines bought: a schedule's
# structure is validated, matched and placed once per plan (`Prepared`,
# sharded.rs +95) and kept in the arena beside the plan's programs
# (arena.rs +51); a warm simulated request writes three price columns
# through the lowering that writes a whole schedule (`PriceColumns`,
# `PhaseWriter`: schedule.rs +20, sim_exec.rs +66, program.rs +6) and
# replays; `DistGraphComm::simulate_on` is the service's one Sim call
# (request.rs +29). Paid back: `validate` is the width-1 prepare, the
# replay's per-send and per-recv cost tables and its flag hand-off are
# gone, and so are the service's three Sim branches (service 1,645 ->
# 1,640). Nothing else in the sweep fell with them; sim-sweep ops_per_s
# rose 54 % over ten pairs (CHANGES.md).
#
# The ruler, corrected: `collective/goldens.rs` is test-only (declared
# `#[cfg(test)] mod goldens;` from collective.rs) yet has no gate line of
# its own, so it counted whole — 325 lines — while the test-only
# `negotiate/{fifo,thread}_tests.rs` open with `#[cfg(test)]` and counted
# nothing. One rule for both: a file counts up to its first test gate,
# outer or inner, and goldens.rs opens with `#![cfg(test)]`. The budget
# moves 13,435 -> 13,110, exactly the 325: a correction of the ruler,
# not a reduction.
#
# Then the rank runtime, on that ruler: 13,110 -> 13,312 (+202), where a
# reduction was asked for — NOT met. The two thread-per-rank runtimes
# (454 lines: exec/threaded.rs' `RankCtx`, transport and `thread::scope`;
# negotiate.rs' `Net` / `Wire` over channels and a parking map) became
# two rank machines — exec/threaded.rs 297 -> 225, negotiate.rs 729 ->
# 700 — on one new module, runtime.rs (312: the one fault transport, one
# driver on a wall-clock worker pool or a seeded logical clock, per-rank
# clocks for stalls, panic capture), and fault.rs folded `send_action_at`,
# `link_is_down` and `crash_phase` into `send_action` (356 -> 344). What
# the lines bought: no sleep, no channel and no thread per rank left in
# core, one place that reads a FaultPlan, a negotiation that replays per
# fault seed, 1,000-seed interleaving tests per (op x algorithm), and a
# threaded gather that runs 2,160 ranks. What they cost: a rank that
# yields instead of blocking carries its own control state, and the
# scheduling that OS threads and channels did is now code.
#
# Then the Distance Halving pattern became columns: 13,312 -> 13,191
# (-121). csr.rs (`RespMap` / `RespBuilder`, 191 lines) is gone; the
# pattern's three tables behind per-rank offsets, its assembler writing
# them in place and a repair that edits single deliveries are about as
# long as the per-rank forms they replace. `DhStep`'s 32-bit fields
# behind accessors (+57) are what keeps the step table, the one
# Theta(n log n) column, under BENCH_9's 10x peak-RSS gate. (The
# topology crate, outside the sweep, grew 1,475 -> 1,582: the
# counting-sort build, the row splice and the one rule for which edits
# are real.)
#
# Then the gate harness: crates/bench gets a budget of its own, 4,501 ->
# 3,746. Seven gated suites had seven argument loops, seven hand-rolled
# `write_json`s, seven `GateReport`s and seven mains; they report through
# one module (suite.rs: one `Gate` record, one document writer, one
# driver) and one binary, `bench N`. What the suites keep is their
# measurement. The repro binary and the figure code did not move.
#
# Then traffic counted per rank: 13,191 -> 13,190, the service 1,640 ->
# 1,632, the bench 3,746 -> 3,747. The per-rank tally (`Traffic`, the
# program's per-rank units, each rank machine's record) is paid for by
# one relay gather / intra-node send / relay scatter shared by the
# hierarchical leader and Bruck planners; the service tick no longer
# builds a grouping map. The bench's extra line names a gate's
# comparison as the checked-in BENCH_*.json files spell it (`at_least`,
# not the `AtLeast` its `Debug` printed), so a regenerated file matches.
#
# Then the lean Auto pass: 13,190 -> 13,187, the bench 3,747 -> 3,922.
# The leader hierarchy's and Bruck's B-tree grouping and per-pair
# `has_edge` scatter became one sorted row table, a gathered flag per
# block and a stamp-array scatter shared by both (leader.rs + bruck.rs
# 303 -> 289); the tuner's `tune_sized` wrapper and the CLI's second
# portfolio call went. What the sweep paid for: PAT's regime in
# autotune.rs (+16 — BENCH_10's frontier has PAT win tiny blocks on
# near-complete graphs, so it is confined there, not dropped). The
# bench's +175 are the frontier's own lines: one tuning pass per cell
# over the historical ten arms, its per-arm rows and two gates.
#
# Then one prepare and one allreduce shape: 13,187 -> 13,120, the bench
# 3,922 -> 3,837. simnet prepares a schedule in one serial pass (the
# sharded matcher, its chunking and the pool threaded through `prepare`,
# `run_sharded` and `Sim::threads` went: simnet 1,389 -> 1,344), and
# allreduce partials coalesce by source set on every lane (the fold-tree
# interning and `Shape::Allreduce { exact }` went; program.rs' module doc
# gained the proof that made them redundant). What the sweep paid for:
# the leader hierarchy's typed refusal of the reduce ops on nodes with
# fewer ranks than leaders (leader.rs, collective.rs +22). The bench lost
# BENCH_9's sharded-simulation section with the sharded prepare.
#
# Then a run ends at its first failure: 13,120 -> 13,040 (core 10,421 ->
# 10,348, cli 1,366 -> 1,359). The rank runtime returns one result, not
# one per rank, and the threaded executor's root-cause ranking went; the
# robust policy kept its two timeouts (the phase deadline, the retry
# copies, the repair and fallback switches and `RepairPolicy` went — the
# repair bounds are two constants), and `with_tuner_cost` went with the
# tuner-cost field.
#
# Then one memo per topology epoch: 13,040 -> 13,030. The communicator's
# key cell, tuner slot and routing memo became one cell that only an
# epoch change replaces (comm/mod.rs, resolve.rs, request.rs), and
# `plan_shared_recorded` went. What the sweep paid for: `mutate` off
# block placement re-plans through `remap` (one Distance Halving build
# path, `dh_plan`, serves `plan` and `mutate` on either placement).
#
# Then one placement rule: 13,030 -> 13,008, the bench 3,837 -> 3,834.
# The builders plan in rank order and read only the layout's shape:
# `BuildError::NonBlockPlacement`, the leader hierarchy's and Bruck's
# placement panics and the tuner's placement condition went, and
# `remap::plan_distance_halving_reordered` (with its block-twin layout)
# became `remap::reranked` around any builder. `DistGraphComm` decides
# block-or-relabel in one helper, which Distance Halving, the leader
# hierarchy and Bruck all go through.
#
# Then one plan table per topology epoch: 13,008 -> 12,981. The churn
# slot, the memo's routing entry and the tuner's winner cell became one
# table with one entry per algorithm that every plan request looks in
# first (comm/resolve.rs); `ChurnSlot`, `live_slot`, `TunerEntry`,
# `resolve_auto` and `routing_plan` went.
#
# Then the content-addressed plan cache: 12,981 -> 12,921. `mutate`
# reads nothing from the cache and stores only a full rebuild, under the
# new graph's build key; `PlanFingerprint::mutated`, `PlanCache::retire`,
# the memo entry's cache key and `mutate`'s key derivation, tuner-key
# read and two retirements went. The unvalidated `PlanCache::insert`
# stays until the benchmark stops timing it.
#
# Then one plan identity: the sweep holds at 12,921, the service 1,632 ->
# 1,570. A service batch is one tenant's run, so the service's own
# fingerprint, `BatchKey` and `submit_at` went; the robust path takes its
# plans from the epoch memo (comm/robust.rs) at no net line.
#
# Then the simulator is a pricing call: 12,921 -> 12,814 (core 10,229 ->
# 10,118, cli 1,359 -> 1,363). The `Sim` executor — its struct, three
# knobs, two builders and `impl Executor` — `ExecError::SimFailed`,
# `ExecOutcome::sim` and `DistGraphComm::best_common_neighbor` went; a
# warm simulated request is one crate-private `simulate_kept` behind
# `simulate_on`. The cli's +4: `nhood trace --backend sim` replays the
# schedule through `Engine::prepare` + `run_prepared`.
#
# Then one Distance Halving entry on every placement: the sweep holds at
# 12,814, the service 1,570 -> 1,566. Every build keeps its pattern in
# virtual ranks and both repairs run there; `churn_plan`, the
# `mutate(&[], &[])` warm-up (the service's registration branch among
# them), the placement forks in comm/ and `lower_checked` went. What the
# sweep paid for: the `remap::Relabel` impls both directions share, the
# plan's being one pass over its tables (plan.rs).
#
# Then one plan check: 12,814 -> 12,755, the service 1,566 -> 1,558. A
# gather compiles what `CollectivePlan::validate` admits: the compile's
# own possession walk (per-rank held-block tables, `check_recvs`) and the
# gather's arena slots went (program.rs). The service keeps one set of
# books: per-tenant counters live on the tenant and `report` sums them.
#
# Then a reduce partial is staged only when it folds: 12,755 -> 12,754.
# `Reduction::combine_into` shares `combine`'s one lane kernel, and the
# program keeps one key per wire block with read sites for the reduce
# shapes only; the routed arrival branch, `Tables::sent` and the
# `arrive_partial` wrapper went, and the test-only `Program::cells_of`
# moved into the test module it serves.
set -euo pipefail
cd "$(dirname "$0")/.."

SWEEP_BUDGET=12754   # crates/{core,simnet,cli}/src
SERVICE_BUDGET=1558  # crates/service/src
BENCH_BUDGET=3834    # crates/bench/src

count() {
  find "crates/$1/src" -name '*.rs' -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { live = 1 } /^#!?\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }'
}

sweep=0
for dir in crates/*/; do
  crate=$(basename "$dir")
  n=$(count "$crate")
  printf '%-12s %6d\n' "$crate" "$n"
  case "$crate" in
    core | simnet | cli) sweep=$((sweep + n)) ;;
    service) service=$n ;;
    bench) bench=$n ;;
  esac
done
printf '%-12s %6d  (core + simnet + cli; budget %d)\n' sweep "$sweep" "$SWEEP_BUDGET"

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
  exit $fail
fi
