//! The fault-tolerant path of [`DistGraphComm::collective`]: its two
//! timeouts ([`RobustPolicy`]), the [`ExecReport`] a robust run returns,
//! and the engine every robust collective runs through — distributed
//! negotiation, mid-run link-down repair, degradation to the naive plan.

use super::{resolve::Entry, CommError, DistGraphComm};
use crate::arena::BlockArena;
use crate::collective::program::Checked;
use crate::collective::{CollectiveOutput, CollectiveRequest};
use crate::exec::threaded::DEFAULT_TIMEOUT;
use crate::exec::{execute, ExecError, ExecOptions, ExecOutcome};
use crate::fault::{FaultCounts, FaultStats};
use crate::negotiate::RECV_TIMEOUT;
use crate::pattern::DhPattern;
use crate::plan::Algorithm;
use crate::repair::{repair_dead_links, Completeness, MAX_DAMAGE_FRAC, MAX_REPAIR_ROUNDS};
use crate::runtime::Clock;
use crate::sizes::{BlockSizes, LoadMetric};
use nhood_telemetry::{labels, Counts, Recorder, NULL};
use nhood_topology::{Rank, Topology};
use std::collections::{BTreeSet, HashSet};
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

/// One attempt of a robust run: executes a plan on the (possibly
/// degraded) topology its cell was made for.
type Attempt<'a> = dyn FnMut(&Arc<Checked>, &Topology) -> Result<ExecOutcome, ExecError> + 'a;

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

    /// The robust collective's plan, from the epoch memo: Distance
    /// Halving's with the pattern link-down repair needs. A served plan
    /// without one (from the cache or the tuner) gets it built; with no
    /// plan, the *distributed* negotiation runs over `opts`' transport,
    /// exposed to its faults and tallied into it. Either installs the
    /// epoch's live entry; a failure installs nothing.
    pub(super) fn robust_plan_with_pattern(
        &self,
        algo: Algorithm,
        opts: &ExecOptions<'_>,
    ) -> Result<(Arc<Checked>, Option<Arc<DhPattern>>), CommError> {
        let sizes = self.planning_sizes();
        if algo != Algorithm::DistanceHalving {
            return Ok((self.plan_shared_sized(algo, &sizes, opts.recorder)?, None));
        }
        let keyed = self.keyed_sizes(algo, &sizes).cloned();
        let served =
            self.memo().get(algo, keyed.as_ref()).map(|e| (Arc::clone(&e.plan), e.pattern.clone()));
        opts.recorder.plan_cache(0, served.is_some());
        if let Some((plan, Some(pattern))) = served {
            return Ok((plan, Some(pattern)));
        }
        // a plan the cache or the tuner served gets its pattern built
        let opts = opts.recv_timeout(self.policy.negotiation_timeout);
        let (plan, pattern) =
            self.dh_plan(&self.graph, &sizes, &NULL, served.is_none().then_some(&opts))?;
        let (plan, pattern) = (Arc::new(Checked::new(Arc::new(plan))), Some(Arc::new(pattern)));
        Ok(self.memo().install_live(Entry { algo, sizes: keyed, plan, pattern, repairs: 0 }))
    }

    /// The one degradation decision of the robust path: a failed attempt
    /// (`why`, `err`) surfaces `err` if its plan was the naive one, else is
    /// recorded in `report` (and against `rec`'s rank 0, the
    /// communicator-wide event's representative) for the naive rerun.
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
    /// Plans the request's algorithm (Distance Halving negotiated once per
    /// epoch, so construction itself can fail under faults; a combining
    /// op routes over the same plan) and executes on the threaded backend
    /// with the policy's receive timeout, the default retry budget and the
    /// attached fault plan. A failed build, or an execution failure repair
    /// cannot heal, **degrades to the naive plan**; the [`ExecReport`]
    /// records what was requested, what ran, why it degraded, and the
    /// fault/retry tally. Every attempt restarts from the send buffers and
    /// the transport drops duplicates, so a retried reduction never applies
    /// its operator twice; a fault schedule that defeats the naive plan too
    /// yields a typed error, never corrupt data or a hang. Everything
    /// reports into the request's recorder, whose counts, if it keeps
    /// them, are copied into [`ExecReport::counters`].
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
        let mut run = |plan: &Arc<Checked>, graph: &Topology| {
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
    /// LinkDown error, which ends the run at once, marks the edge dead; the
    /// plan is repaired around it in the pattern's ranks and checked, and
    /// execution restarts, up to [`MAX_REPAIR_ROUNDS`] times (in `report`).
    fn run_self_healing(
        &self,
        mut plan: Arc<Checked>,
        mut pattern: Option<Arc<DhPattern>>,
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
            let budget = report.repairs < MAX_REPAIR_ROUNDS;
            let (ExecError::LinkDown { src, dst, .. }, Some(base), true) = (&err, &pattern, budget)
            else {
                return Err(err);
            };
            let v = |r: &Rank| self.order.as_ref().map_or(*r, |o| o.virtual_of[*r]);
            dead.extend([(v(src), v(dst)), (v(dst), v(src))]);
            rec.span_begin(0, labels::REPAIR);
            // Past the damage threshold, or failing its check, rebuild the
            // matchings first: they avoid the dead links where they can.
            let (graph, old) = (self.to_virtual(&self.graph), self.to_virtual(&**plan));
            let repair = |pattern: &DhPattern, max_damage: f64| {
                let rep = repair_dead_links(pattern, &old, &graph, &dead).ok();
                let rep = rep.filter(|rep| rep.damage_frac <= max_damage)?;
                let exec_graph = self.to_physical(rep.exec_graph);
                let cell = Arc::new(Checked::new(Arc::new(self.to_physical(rep.plan))));
                cell.check(&exec_graph).ok()?;
                Some((cell, exec_graph, rep.pattern, rep.completeness))
            };
            let repaired = repair(base, MAX_DAMAGE_FRAC).or_else(|| {
                let (sizes, metric) = (BlockSizes::default(), LoadMetric::Neighbors);
                repair(&self.dh_pattern(&graph, &sizes, metric, &NULL).ok()?, 1.0)
            });
            rec.span_end(0, labels::REPAIR);
            let Some((cell, graph, repaired, mut completeness)) = repaired else { return Err(err) };
            rec.repair(0);
            report.repairs += 1;
            report.degraded_ranks.clear();
            if let Completeness::Degraded { missing } = &mut completeness {
                *missing = self.to_physical(std::mem::take(missing));
                let targets: BTreeSet<Rank> = missing.iter().map(|&(_, t)| t).collect();
                report.degraded_ranks.extend(targets);
            }
            report.completeness = completeness;
            (plan, exec_graph, pattern) = (cell, graph, Some(Arc::new(repaired)));
        }
    }
}
