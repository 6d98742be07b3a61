//! The fault-tolerant path of [`DistGraphComm::collective`]: its two
//! timeouts ([`RobustPolicy`]), the [`ExecReport`] a robust run returns,
//! and the engine — distributed negotiation, mid-run link-down repair, and
//! degradation to the naive plan — every robust collective reports and
//! degrades through.

use super::{CommError, DistGraphComm};
use crate::arena::BlockArena;
use crate::collective::{CollectiveOutput, CollectiveRequest};
use crate::exec::threaded::DEFAULT_TIMEOUT;
use crate::exec::{execute, ExecError, ExecOptions, ExecOutcome};
use crate::fault::{FaultCounts, FaultStats};
use crate::negotiate::{build_pattern_distributed_pooled_v, RECV_TIMEOUT};
use crate::pattern::DhPattern;
use crate::plan::{Algorithm, CollectivePlan};
use crate::repair::{repair_dead_links, Completeness, MAX_DAMAGE_FRAC, MAX_REPAIR_ROUNDS};
use crate::runtime::Clock;
use crate::sizes::{BlockSizes, LoadMetric};
use nhood_cluster::Placement;
use nhood_telemetry::{labels, Counts, Recorder, NULL};
use nhood_topology::{Rank, Topology};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// The two timeouts of a communicator's robust path. The rest of it is
/// fixed: the transport retries as [`ExecOptions`]' defaults say, a dead
/// link is repaired around (within [`MAX_REPAIR_ROUNDS`] repairs, each
/// touching at most [`MAX_DAMAGE_FRAC`] of the ranks), and a run that
/// cannot be built or repaired degrades to the naive plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RobustPolicy {
    /// Per-receive timeout of the threaded executor.
    pub recv_timeout: Duration,
    /// Per-signal timeout of the distributed pattern negotiation,
    /// measured on its logical clock: a rank that hears nothing for this
    /// long in virtual time gives up, so an unsurvivable negotiation
    /// fails at once in wall time, and the same way every time.
    pub negotiation_timeout: Duration,
}

impl Default for RobustPolicy {
    fn default() -> Self {
        Self { recv_timeout: DEFAULT_TIMEOUT, negotiation_timeout: RECV_TIMEOUT }
    }
}

/// Why a robust collective abandoned the requested algorithm.
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

/// One attempt of a robust run: executes a plan on a (possibly degraded)
/// topology.
type Attempt<'a> =
    dyn FnMut(&Arc<CollectivePlan>, &Topology) -> Result<ExecOutcome, ExecError> + 'a;

impl DistGraphComm {
    /// The threaded transport's options under this communicator's
    /// receive timeout and attached fault plan, on top of `base`.
    pub(super) fn threaded_opts<'a>(&'a self, base: ExecOptions<'a>) -> ExecOptions<'a> {
        let opts = base.recv_timeout(self.policy.recv_timeout);
        match &self.fault {
            Some(fp) => opts.fault(fp),
            None => opts,
        }
    }

    /// The planning path of the robust collective: Distance Halving runs
    /// the *distributed* negotiation over the transport of `opts` (the
    /// communicator's fault plan and the default retry budget, under its
    /// negotiation timeout), so pattern construction is itself exposed to
    /// injected faults; every other algorithm — and Distance Halving off
    /// block placement, which re-ranks through [`crate::remap`] — takes
    /// its plan from the epoch memo ([`Self::plan_shared`]). The negotiated
    /// [`DhPattern`] stays alive alongside the plan — mid-execution
    /// link-down repair needs the pattern's decisions, not just the lowered
    /// messages; the other plans keep none, and a dead link degrades them
    /// to naive. The negotiation tallies its faults into `opts`' sink and
    /// reports per-rank rounds, signal retries and `negotiate` spans into
    /// its recorder.
    pub(super) fn robust_plan_with_pattern(
        &self,
        algo: Algorithm,
        opts: &ExecOptions<'_>,
    ) -> Result<(Arc<CollectivePlan>, Option<DhPattern>), CommError> {
        let sizes = self.planning_sizes();
        if algo != Algorithm::DistanceHalving || self.layout.placement() != Placement::Block {
            return Ok((self.plan_shared_sized(algo, &sizes, opts.recorder)?, None));
        }
        // The memo's Distance Halving entry, when `mutate` installed it
        // with its pattern, IS the current plan — no negotiation.
        let live = self
            .memo()
            .get(algo, self.keyed_sizes(algo, &sizes))
            .and_then(|entry| Some((Arc::clone(&entry.plan), Arc::clone(entry.pattern.as_ref()?))));
        if let Some((plan, pattern)) = live {
            opts.recorder.plan_cache(0, true);
            return Ok((plan, Some((*pattern).clone())));
        }
        let opts = opts.recv_timeout(self.policy.negotiation_timeout);
        let (graph, layout) = (&self.graph, &self.layout);
        let pool = &self.build_pool;
        let pattern =
            build_pattern_distributed_pooled_v(graph, layout, &sizes, self.metric, pool, &opts)?;
        Ok((Arc::new(self.lower_checked(&pattern, &self.graph)?), Some(pattern)))
    }

    /// The one degradation decision of the robust path: a failed attempt
    /// (`why`, `err`) either surfaces `err` — the failed plan already was
    /// the naive one — or is recorded in `report` (and against rank 0 of
    /// `rec`, the communicator-wide event's representative), after which
    /// the caller runs the naive plan.
    fn degrade(
        &self,
        report: &mut ExecReport,
        rec: &dyn Recorder,
        why: FallbackReason,
        err: CommError,
    ) -> Result<(), CommError> {
        if report.used == Algorithm::Naive {
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

    /// The robust engine behind [`Self::collective`] with `robust =
    /// true`, for every op: distributed negotiation, mid-run link-down
    /// self-healing, and naive degradation, under the communicator's
    /// [`RobustPolicy`] timeouts.
    ///
    /// Plans the request's algorithm (Distance Halving via the
    /// distributed negotiation, so construction itself can fail under
    /// faults; a combining op routes over the same plan) and executes on
    /// the threaded backend with the policy's receive timeout, the default
    /// retry budget and the attached fault plan. A failed build or a
    /// failure during execution that repair cannot heal **degrades to the
    /// naive plan** instead of erroring; the returned [`ExecReport`] records
    /// what was requested, what ran, why it degraded, and the fault/retry
    /// tally. Every attempt restarts from the send buffers and the
    /// transport drops duplicates before anything is integrated, so a
    /// retried reduction never applies its operator twice. Buffers are
    /// only ever returned when some plan ran to completion — a fault
    /// schedule that defeats both the requested plan and the naive
    /// fallback yields a typed error, never corrupt data or a hang.
    /// Negotiation, execution, retries and the degradation decision all
    /// report into the request's recorder; a counting recorder's totals
    /// are copied into [`ExecReport::counters`].
    pub(super) fn robust(
        &self,
        req: &CollectiveRequest,
        sizes: Option<&BlockSizes>,
        arena: &mut BlockArena,
    ) -> Result<CollectiveOutput, CommError> {
        let rec = req.recorder;
        let algo = if req.op.is_gather() {
            req.algorithm
        } else {
            self.combining_algorithm(req.algorithm)?
        };
        let mut report = ExecReport::new(req.algorithm);
        // One shared sink tallies every attempt — the failed primary,
        // repaired re-executions and the naive fallback — so the final
        // report never under-counts the faults a failed run absorbed.
        let sink = FaultStats::default();
        let opts = self.threaded_opts(ExecOptions::new().recorder(rec).fault_sink(&sink));
        let mut run = |plan: &Arc<CollectivePlan>, graph: &Topology| {
            execute(req.op, sizes, plan, graph, req.payloads, arena, Some(Clock::Wall), &opts)
        };
        let primary = self
            .robust_plan_with_pattern(algo, &opts)
            .map_err(|e| {
                let why = match &e {
                    CommError::Build(b) => b.to_string(),
                    e => e.to_string(),
                };
                (FallbackReason::BuildFailed(why), e)
            })
            .and_then(|(plan, pattern)| {
                self.run_self_healing(plan, pattern, &mut run, rec, &mut report)
                    .map_err(|e| (FallbackReason::ExecFailed(e.to_string()), e.into()))
            });
        let out = match primary {
            Ok(out) => out,
            Err((why, err)) => {
                self.degrade(&mut report, rec, why, err)?;
                // The naive plan under the same faults and policy; the shared
                // sink already holds every failed attempt's tally.
                let naive =
                    self.plan_shared_sized(Algorithm::Naive, &self.planning_sizes(), rec)?;
                run(&naive, &self.graph)?
            }
        };
        report.faults = out.faults;
        report.counters = rec.counts();
        Ok(CollectiveOutput {
            rbufs: out.rbufs,
            faults: out.faults,
            report: Some(report),
            sim: None,
        })
    }

    /// Executes `plan` through `run`, self-healing around dead links: a
    /// LinkDown error — which ends the run at once — marks the edge dead,
    /// the plan is repaired to route around it, and execution restarts,
    /// up to [`MAX_REPAIR_ROUNDS`] times. Repairs are tallied in `report`;
    /// only an unrepairable failure returns.
    fn run_self_healing(
        &self,
        mut plan: Arc<CollectivePlan>,
        mut pattern: Option<DhPattern>,
        run: &mut Attempt<'_>,
        rec: &dyn Recorder,
        report: &mut ExecReport,
    ) -> Result<ExecOutcome, ExecError> {
        // Auto resolves during planning: report the winner that ran,
        // not the `auto` placeholder the caller requested.
        report.used = plan.algorithm;
        let mut exec_graph = self.graph.clone();
        let mut dead: HashSet<(Rank, Rank)> = HashSet::new();
        loop {
            let err = match run(&plan, &exec_graph) {
                Ok(out) => return Ok(out),
                Err(e) => e,
            };
            let (ExecError::LinkDown { src, dst, .. }, Some(base)) = (&err, &pattern) else {
                return Err(err);
            };
            if report.repairs >= MAX_REPAIR_ROUNDS {
                return Err(err);
            }
            dead.insert((*src, *dst));
            dead.insert((*dst, *src));
            rec.span_begin(0, labels::REPAIR);
            // Repair around the full dead set; past the damage
            // threshold, rebuild the matchings from scratch first —
            // fresh negotiation avoids the dead links where it can,
            // and the reroute pass covers what it cannot.
            let repaired = repair_dead_links(base, &plan, &self.graph, &dead)
                .ok()
                .filter(|r| r.damage_frac <= MAX_DAMAGE_FRAC)
                .or_else(|| {
                    let (sizes, metric) = (BlockSizes::default(), LoadMetric::Neighbors);
                    let fresh = self.dh_pattern(&self.graph, &sizes, metric, &NULL).ok()?;
                    repair_dead_links(&fresh, &plan, &self.graph, &dead).ok()
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
            plan = Arc::new(rep.plan);
            exec_graph = rep.exec_graph;
            pattern = Some(rep.pattern);
        }
    }
}
