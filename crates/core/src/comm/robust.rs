//! The fault-tolerant path of [`DistGraphComm::collective`]: the
//! [`RobustPolicy`] knobs, the [`ExecReport`] a robust run returns, and
//! the engine — distributed negotiation, mid-run link-down repair, and
//! degradation to the naive plan — both robust collectives (the
//! allgather family and alltoallv) report and degrade through.

use super::{CommError, DistGraphComm};
use crate::arena::BlockArena;
use crate::collective::program::{
    compile, run_combining_threaded, CombineOp, CombineProgram, CombineScratch,
};
use crate::collective::{CollectiveOutput, CollectiveRequest};
use crate::distributed_builder::{build_pattern_distributed_pooled_v, RECV_TIMEOUT};
use crate::exec::threaded::DEFAULT_TIMEOUT;
use crate::exec::{ExecError, ExecOptions, ExecOutcome, Executor, Threaded};
use crate::fault::{FaultCounts, FaultStats};
use crate::pattern::DhPattern;
use crate::plan::{Algorithm, CollectivePlan};
use crate::repair::{repair_link_down, Completeness, RepairPolicy};
use crate::sizes::{BlockSizes, LoadMetric};
use nhood_telemetry::{labels, Counts, Recorder, NULL};
use nhood_topology::Rank;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Robustness knobs of a communicator: timeouts, the retry policy of the
/// threaded transport, link-down self-healing, and whether failures
/// degrade to the naive plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RobustPolicy {
    /// Per-receive timeout of the threaded executor (previously the
    /// hard-coded `DEFAULT_TIMEOUT`).
    pub recv_timeout: Duration,
    /// Optional wall-clock budget per plan phase; `None` leaves only the
    /// per-receive timeout.
    pub phase_deadline: Option<Duration>,
    /// Per-receive timeout of the distributed pattern negotiation.
    pub negotiation_timeout: Duration,
    /// Retransmissions per message under fault injection.
    pub max_retries: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Degrade to the naive plan when Distance Halving pattern
    /// construction or execution fails, instead of returning the error.
    pub fallback_to_naive: bool,
    /// When a link dies mid-execution, repair the plan around it
    /// ([`crate::repair::repair_link_down`]) and re-execute, instead of
    /// immediately degrading to naive (which would cross the same dead
    /// link anyway whenever it is a graph edge).
    pub repair_link_down: bool,
    /// Blast-radius bounds for incremental repairs — both mid-run
    /// link-down recovery and [`DistGraphComm::mutate`].
    pub repair: RepairPolicy,
}

impl Default for RobustPolicy {
    fn default() -> Self {
        Self {
            recv_timeout: DEFAULT_TIMEOUT,
            phase_deadline: None,
            negotiation_timeout: RECV_TIMEOUT,
            max_retries: 4,
            backoff_base: Duration::from_micros(200),
            fallback_to_naive: true,
            repair_link_down: true,
            repair: RepairPolicy::default(),
        }
    }
}

/// Why a robust allgather abandoned the requested algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// Pattern construction (the distributed negotiation) failed.
    BuildFailed(String),
    /// The plan built, but executing it failed.
    ExecFailed(String),
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackReason::BuildFailed(e) => write!(f, "pattern build failed ({e})"),
            FallbackReason::ExecFailed(e) => write!(f, "execution failed ({e})"),
        }
    }
}

/// Structured outcome of a robust run ([`DistGraphComm::collective`] with
/// `CollectiveRequest::robust(true)`).
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// The algorithm the caller asked for.
    pub requested: Algorithm,
    /// The algorithm whose plan actually produced the buffers.
    pub used: Algorithm,
    /// `Some` iff the run degraded from `requested` to `used`.
    pub fallback: Option<FallbackReason>,
    /// Faults injected and retries spent, across **every** attempt this
    /// call made — the failed primary run, repaired re-executions and
    /// the naive fallback all tally into one shared sink.
    pub faults: FaultCounts,
    /// Telemetry counter totals, when the run was given a counting
    /// recorder (`CollectiveRequest::recorder`); `None` otherwise.
    pub counters: Option<Counts>,
    /// Mid-execution link-down repairs performed before the buffers were
    /// produced (0 on the happy path).
    pub repairs: u32,
    /// Ranks that did not receive every in-neighbor block the virtual
    /// topology promises (targets of dropped deliveries), ascending.
    /// Empty unless `completeness` is degraded.
    pub degraded_ranks: Vec<Rank>,
    /// Whether the returned buffers honor the full virtual topology or a
    /// quorum-degraded subset of it.
    pub completeness: Completeness,
}

impl ExecReport {
    /// The report of a run that has degraded nowhere yet.
    fn new(requested: Algorithm) -> Self {
        Self {
            requested,
            used: requested,
            fallback: None,
            faults: FaultCounts::default(),
            counters: None,
            repairs: 0,
            degraded_ranks: Vec::new(),
            completeness: Completeness::Full,
        }
    }

    /// `true` if the requested algorithm completed without degradation:
    /// no fallback, no mid-run repairs, every delivery served.
    pub fn clean(&self) -> bool {
        self.fallback.is_none() && self.repairs == 0 && self.completeness.is_full()
    }
}

impl std::fmt::Display for ExecReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.fallback {
            None => write!(f, "{} ok ({})", self.used, self.faults)?,
            Some(r) => {
                write!(f, "{} -> {} fallback: {r} ({})", self.requested, self.used, self.faults)?
            }
        }
        if self.repairs > 0 {
            write!(f, " [{} repairs]", self.repairs)?;
        }
        if let Completeness::Degraded { missing } = &self.completeness {
            write!(f, " [degraded: {} deliveries dropped]", missing.len())?;
        }
        if let Some(c) = &self.counters {
            write!(f, " [{c}]")?;
        }
        Ok(())
    }
}

impl DistGraphComm {
    /// The threaded transport's options under this communicator's
    /// [`RobustPolicy`] and attached fault plan, on top of `base`.
    pub(super) fn threaded_opts<'a>(&'a self, base: ExecOptions<'a>) -> ExecOptions<'a> {
        let opts = base
            .recv_timeout(self.policy.recv_timeout)
            .phase_deadline(self.policy.phase_deadline)
            .retries(self.policy.max_retries, self.policy.backoff_base);
        match &self.fault {
            Some(fp) => opts.fault(fp),
            None => opts,
        }
    }

    /// Plans `algo` the way the robust path does: Distance Halving runs
    /// the *distributed* negotiation (under the communicator's fault
    /// plan and negotiation timeout), so pattern construction is itself
    /// exposed to injected faults; every other algorithm plans as
    /// [`Self::plan`].
    pub fn robust_plan(&self, algo: Algorithm) -> Result<CollectivePlan, CommError> {
        self.robust_plan_with_pattern(algo, &NULL).map(|(plan, _)| Arc::unwrap_or_clone(plan))
    }

    /// The planning path of the robust collective, keeping the built
    /// [`DhPattern`] alive alongside the plan — mid-execution link-down
    /// repair needs the pattern's decisions, not just the lowered
    /// messages. Non-DH algorithms have no pattern. The distributed
    /// negotiation reports per-rank negotiation rounds, signal retries
    /// and `negotiate` spans into `rec` as it runs.
    fn robust_plan_with_pattern(
        &self,
        algo: Algorithm,
        rec: &dyn Recorder,
    ) -> Result<(Arc<CollectivePlan>, Option<DhPattern>), CommError> {
        if algo != Algorithm::DistanceHalving {
            return Ok((Arc::new(self.plan(algo)?), None));
        }
        let sizes = self.planning_sizes();
        // A live churn slot IS the current plan — no negotiation.
        if let Some(slot) = self.live_slot(&sizes, rec) {
            return Ok((Arc::clone(&slot.plan), Some((*slot.pattern).clone())));
        }
        let pattern = build_pattern_distributed_pooled_v(
            &self.graph,
            &self.layout,
            self.fault.as_ref(),
            self.policy.negotiation_timeout,
            &sizes,
            self.metric,
            &self.build_pool,
            rec,
        )?;
        Ok((Arc::new(self.lower_checked(&pattern, &self.graph)?), Some(pattern)))
    }

    /// The one degradation decision of the robust path: a failed attempt
    /// (`why`, `err`) either surfaces `err` — the policy forbids the
    /// fallback, or the failed plan already was the naive one — or is
    /// recorded in `report` (and against rank 0 of `rec`, the
    /// communicator-wide event's representative), after which the caller
    /// runs the naive plan.
    fn degrade(
        &self,
        report: &mut ExecReport,
        rec: &dyn Recorder,
        why: FallbackReason,
        err: CommError,
    ) -> Result<(), CommError> {
        if !(self.policy.fallback_to_naive && report.used != Algorithm::Naive) {
            return Err(err);
        }
        rec.fallback(0);
        report.fallback = Some(why);
        report.used = Algorithm::Naive;
        // Naive routes directly over graph edges: a degraded repair's
        // dropped deliveries don't apply to it.
        report.degraded_ranks = Vec::new();
        report.completeness = Completeness::Full;
        Ok(())
    }

    /// The robust-allgather engine behind [`Self::collective`] with
    /// `robust = true`: distributed negotiation, mid-run link-down
    /// self-healing, and naive degradation, per the communicator's
    /// [`RobustPolicy`].
    ///
    /// Plans the request's algorithm (Distance Halving via the
    /// distributed negotiation, so construction itself can fail under
    /// faults) and executes on the threaded backend with the policy's
    /// timeouts, retry budget and the attached fault plan. If the policy
    /// allows it, a failed build or a liveness failure during execution
    /// **degrades to the naive plan** instead of erroring; the returned
    /// [`ExecReport`] records what was requested, what ran, why it
    /// degraded, and the fault/retry tally. Buffers are only ever
    /// returned when some plan ran to completion — a fault schedule that
    /// defeats both the requested plan and the naive fallback yields a
    /// typed error, never corrupt data or a hang. Negotiation, execution,
    /// retries and the degradation decision all report into the
    /// request's recorder; a counting recorder's totals are copied into
    /// [`ExecReport::counters`].
    pub(super) fn robust_gather(
        &self,
        req: &CollectiveRequest,
    ) -> Result<CollectiveOutput, CommError> {
        let (payloads, rec) = (req.payloads, req.recorder);
        let mut report = ExecReport::new(req.algorithm);
        // One shared sink tallies every attempt — the failed primary,
        // repaired re-executions and the naive fallback — so the final
        // report never under-counts the faults a failed run absorbed.
        let sink = FaultStats::default();
        // Ragged (`allgatherv`-shaped) payloads flow through the same
        // robust machinery: the executors derive per-rank extents from
        // the payloads themselves, so detecting raggedness here is all
        // the plumbing the degraded paths need.
        let first_len = payloads.first().map_or(0, Vec::len);
        let ragged = payloads.iter().any(|p| p.len() != first_len);
        let opts =
            self.threaded_opts(ExecOptions::new().ragged(ragged).recorder(rec).fault_sink(&sink));
        let mut arena = BlockArena::new();
        let primary = self
            .robust_plan_with_pattern(req.algorithm, rec)
            .map_err(|e| (FallbackReason::BuildFailed(e.to_string()), e))
            .and_then(|(plan, pattern)| {
                self.run_self_healing(plan, pattern, payloads, &mut arena, &opts, &mut report)
                    .map_err(|e| (FallbackReason::ExecFailed(e.to_string()), e.into()))
            });
        let run = match primary {
            Ok(run) => run,
            Err((why, err)) => {
                self.degrade(&mut report, rec, why, err)?;
                // The naive plan under the same faults and policy. The
                // shared sink already accumulated the failed attempts'
                // tallies, so the outcome's snapshot is the complete count.
                let naive = Arc::new(self.plan(Algorithm::Naive)?);
                Threaded.run(&naive, &self.graph, payloads, &mut arena, &opts)?
            }
        };
        report.faults = run.faults;
        report.counters = rec.counts();
        Ok(CollectiveOutput {
            rbufs: run.rbufs,
            faults: run.faults,
            report: Some(report),
            sim: None,
        })
    }

    /// Executes `plan`, self-healing around dead links: a LinkDown error
    /// marks the edge dead, the plan is repaired to route around it, and
    /// execution restarts — up to the policy's repair budget. Repairs
    /// are tallied in `report`; only an unrepairable failure returns.
    fn run_self_healing(
        &self,
        mut plan: Arc<CollectivePlan>,
        mut pattern: Option<DhPattern>,
        payloads: &[Vec<u8>],
        arena: &mut BlockArena,
        opts: &ExecOptions<'_>,
        report: &mut ExecReport,
    ) -> Result<ExecOutcome, ExecError> {
        let rec = opts.recorder;
        // Auto resolves during planning: report the winner that ran,
        // not the `auto` placeholder the caller requested.
        report.used = plan.algorithm;
        let mut exec_graph = self.graph.clone();
        let mut dead: HashSet<(Rank, Rank)> = HashSet::new();
        loop {
            let err = match Threaded.run(&plan, &exec_graph, payloads, arena, opts) {
                Ok(run) => return Ok(run),
                Err(e) => e,
            };
            let (ExecError::LinkDown { src, dst, .. }, Some(base)) = (&err, &pattern) else {
                return Err(err);
            };
            if !self.policy.repair_link_down
                || report.repairs >= self.policy.repair.max_repair_rounds
            {
                return Err(err);
            }
            dead.insert((*src, *dst));
            dead.insert((*dst, *src));
            rec.span_begin(0, labels::REPAIR);
            // Repair around the full dead set; past the damage
            // threshold, rebuild the matchings from scratch first —
            // fresh negotiation avoids the dead links where it can,
            // and the reroute pass covers what it cannot.
            let repaired = repair_link_down(base, &plan, &self.graph, &dead)
                .ok()
                .filter(|r| r.damage_frac <= self.policy.repair.max_damage_frac)
                .or_else(|| {
                    let (sizes, metric) = (BlockSizes::default(), LoadMetric::Neighbors);
                    let fresh = self.dh_pattern(&self.graph, &sizes, metric, &NULL).ok()?;
                    repair_link_down(&fresh, &plan, &self.graph, &dead).ok()
                });
            rec.span_end(0, labels::REPAIR);
            let Some(rep) = repaired else { return Err(err) };
            rec.repair(0);
            report.repairs += 1;
            report.degraded_ranks = match &rep.completeness {
                Completeness::Full => Vec::new(),
                Completeness::Degraded { missing } => {
                    let mut targets: Vec<Rank> = missing.iter().map(|&(_, t)| t).collect();
                    targets.sort_unstable();
                    targets.dedup();
                    targets
                }
            };
            report.completeness = rep.completeness;
            // Patch only the arena rows the repair touched; a failed
            // patch just leaves the run to rebuild the layout itself.
            plan = Arc::new(rep.plan);
            let _ = arena.repair(&plan, &rep.exec_graph, &rep.changed_ranks);
            exec_graph = rep.exec_graph;
            pattern = Some(rep.pattern);
        }
    }

    /// Robust alltoallv on the threaded transport: items are idempotent
    /// to re-route (no hop-applied reductions to replay), so a failed
    /// run degrades to the **naive item routing** — direct sends over
    /// graph edges only — when the policy allows, mirroring the
    /// allgather family's fallback. The combining transport takes no
    /// fault plan; robustness here covers real liveness failures
    /// (timeouts) of the primary routing.
    pub(super) fn robust_alltoallv(
        &self,
        prog: &CombineProgram,
        scratch: &mut CombineScratch,
        op: CombineOp,
        req: &CollectiveRequest,
        sizes: &BlockSizes,
    ) -> Result<CollectiveOutput, CommError> {
        let rec = req.recorder;
        let mut report = ExecReport::new(req.algorithm);
        report.used = self.combining_algorithm(req.algorithm)?;
        let timeout = self.policy.recv_timeout;
        let mut run = |prog: &CombineProgram| {
            run_combining_threaded(prog, scratch, op, req.payloads, sizes, timeout, rec)
        };
        let rbufs = match run(prog) {
            Ok(rbufs) => rbufs,
            Err(e) => {
                self.degrade(
                    &mut report,
                    rec,
                    FallbackReason::ExecFailed(e.to_string()),
                    e.into(),
                )?;
                run(&compile(&self.plan(Algorithm::Naive)?, &self.graph, op.shape)?)?
            }
        };
        report.counters = rec.counts();
        Ok(CollectiveOutput { rbufs, report: Some(report), ..Default::default() })
    }
}
