//! The public communicator API — the `MPI_Dist_graph_create_adjacent` /
//! `MPI_Neighbor_*` surface of this library, fronted by the
//! collective-agnostic [`DistGraphComm::collective`] entry point.
//!
//! The module is split along its seams: this file holds the
//! communicator's state, its builder-style configuration and
//! [`DistGraphComm::mutate`]; `resolve` turns an algorithm choice into a
//! plan through the one lookup every request takes (normalize, the
//! epoch's plan table, the plan cache, a build or a tuning pass) and
//! holds that table; `request` is [`DistGraphComm::collective`] and its
//! backends; `robust` is the fault-tolerant path ([`RobustPolicy`],
//! [`ExecReport`], repair and naive degradation).
//!
//! ```
//! use nhood_cluster::ClusterLayout;
//! use nhood_core::collective::CollectiveRequest;
//! use nhood_core::comm::DistGraphComm;
//! use nhood_core::plan::Algorithm;
//! use nhood_topology::random::erdos_renyi;
//!
//! let graph = erdos_renyi(16, 0.3, 42);
//! let layout = ClusterLayout::new(2, 2, 4);
//! let comm = DistGraphComm::create_adjacent(graph, layout).unwrap();
//! let payloads: Vec<Vec<u8>> = (0..16).map(|r| vec![r as u8; 8]).collect();
//! let req = CollectiveRequest::allgather(&payloads).algorithm(Algorithm::DistanceHalving);
//! let out = comm.collective(&req).unwrap();
//! assert_eq!(out.rbufs.len(), 16);
//! ```

mod request;
mod resolve;
mod robust;

pub use robust::{ExecReport, FallbackReason, RobustPolicy};

use resolve::{Entry, Memo};

use crate::arena::BlockArena;
use crate::builder::BuildError;
use crate::collective::program::Checked;
use crate::collective::{CollectiveOp, Reduction};
use crate::exec::ExecError;
use crate::fault::FaultPlan;
use crate::plan::{Algorithm, PlanValidationError};
use crate::plan_cache::{PlanCache, PlanFingerprint};
use crate::remap::{locality_order, RankOrder};
use crate::repair::{repair_for_churn, MAX_DAMAGE_FRAC, MAX_REPAIR_ROUNDS};
use crate::sizes::{BlockSizes, LoadMetric};
use nhood_cluster::{ClusterLayout, Placement, WorkerPool};
use nhood_simnet::SimError;
use nhood_telemetry::NULL;
use nhood_topology::{Rank, Topology};
use std::sync::{Arc, Mutex};

/// Errors from the communicator API.
#[derive(Debug)]
pub enum CommError {
    /// Pattern construction failed.
    Build(BuildError),
    /// Plan execution failed.
    Exec(ExecError),
    /// Simulation failed.
    Sim(SimError),
    /// A produced plan failed validation — an internal bug, surfaced
    /// loudly (and typed, so tests can match on the cause) rather than
    /// silently returning wrong data.
    InvalidPlan(PlanValidationError),
    /// The requested (op, algorithm, robustness, backend) combination is
    /// outside the support matrix (see docs/EXECUTION_API.md) — e.g.
    /// PAT's merged trees cannot carry the reduce ops, nor can a leader
    /// hierarchy whose node hosts fewer ranks than leaders, and robust
    /// execution needs the threaded transport.
    UnsupportedCollective {
        /// The collective that was requested.
        op: CollectiveOp,
        /// The algorithm it was requested under.
        algorithm: Algorithm,
        /// Which support-matrix rule rejected it.
        reason: &'static str,
    },
    /// The reduction itself is malformed: an undefined operator/lane
    /// combination, or block lengths that don't split into whole lanes.
    InvalidReduction {
        /// The offending reduction.
        reduction: Reduction,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// An algorithm parameter is degenerate for this communicator —
    /// e.g. `CommonNeighbor { k: 0 }`, `Pat { radix: 0 | 1 }` or
    /// `HierarchicalLeader { leaders_per_node: 0 }`. Oversized but
    /// well-formed parameters are clamped instead (see
    /// [`DistGraphComm::normalize_algorithm`]); only parameters with no
    /// sensible reading reject.
    BadAlgorithmParam {
        /// The offending algorithm as requested.
        algorithm: Algorithm,
        /// Which parameter rule rejected it.
        reason: &'static str,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Build(e) => write!(f, "pattern build failed: {e}"),
            CommError::Exec(e) => write!(f, "execution failed: {e}"),
            CommError::Sim(e) => write!(f, "simulation failed: {e}"),
            CommError::InvalidPlan(m) => write!(f, "internal plan invariant violated: {m}"),
            CommError::UnsupportedCollective { op, algorithm, reason } => {
                write!(f, "{op} under {algorithm} is unsupported: {reason}")
            }
            CommError::InvalidReduction { reduction, reason } => {
                write!(f, "invalid reduction {reduction}: {reason}")
            }
            CommError::BadAlgorithmParam { algorithm, reason } => {
                write!(f, "invalid parameter for {algorithm}: {reason}")
            }
        }
    }
}

impl std::error::Error for CommError {}

impl From<BuildError> for CommError {
    fn from(e: BuildError) -> Self {
        CommError::Build(e)
    }
}
impl From<ExecError> for CommError {
    fn from(e: ExecError) -> Self {
        CommError::Exec(e)
    }
}
impl From<SimError> for CommError {
    fn from(e: SimError) -> Self {
        CommError::Sim(e)
    }
}

/// What [`DistGraphComm::mutate`] did to absorb a topology change.
#[derive(Clone, Debug)]
pub struct MutationReport {
    /// Edges actually added (after dropping no-ops the graph already had).
    pub edges_added: usize,
    /// Edges actually removed (after dropping edges the graph lacked).
    pub edges_removed: usize,
    /// `true` when the change was absorbed by a full pattern rebuild
    /// (no live plan, damage over threshold, or repair-round budget
    /// spent); `false` when the surgical repair path handled it.
    pub full_rebuild: bool,
    /// Ranks whose plan rows changed (= `n` for a full rebuild).
    pub changed_ranks: usize,
    /// `changed_ranks / n`.
    pub damage_frac: f64,
    /// Successive surgical repairs absorbed by the active plan since its
    /// last full build (resets to 0 on rebuild).
    pub repairs: u32,
}

/// A communicator with an attached virtual topology and cluster layout.
///
/// Construction corresponds to `MPI_Dist_graph_create_adjacent`: it is
/// the point where pattern-creation work happens (and where Distance
/// Halving pays its one-time agent-selection overhead — see Fig. 8).
#[derive(Clone, Debug)]
pub struct DistGraphComm {
    graph: Topology,
    layout: ClusterLayout,
    /// The virtual ranks the rank-order builders plan in, derived once
    /// from the layout: [`locality_order`], `None` on block placement.
    order: Option<Arc<RankOrder>>,
    policy: RobustPolicy,
    fault: Option<FaultPlan>,
    cache: Option<Arc<PlanCache>>,
    build_pool: WorkerPool,
    metric: LoadMetric,
    sizes: Option<BlockSizes>,
    /// The plans resolved for the current topology epoch ([`Memo`]).
    /// Clones share the cell until one changes epoch: [`Self::mutate`],
    /// `with_load_metric` and `with_block_sizes` install a fresh one.
    memo: Arc<Mutex<Memo>>,
    /// The engine workspace [`Self::collective`] runs on — the programs
    /// compiled from the plans last run and grow-only offset tables,
    /// reused across ops, size tables and epochs, so it outlives the memo.
    /// Clones share it; a running request takes it out of the cell.
    arena: Arc<Mutex<BlockArena>>,
    /// Candidate simulations the tuner has performed through this
    /// communicator (and its clones) — the cache-effectiveness counter
    /// [`Self::tuner_sims`] exposes.
    tuner_sims: Arc<std::sync::atomic::AtomicU64>,
}

// Tenants of the collective service own one communicator each and may
// be dispatched from worker threads while sharing a plan cache — the
// communicator (and everything a robust run threads through it) must
// stay `Send + Sync`-clean. Compile-time pin, not a runtime check.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DistGraphComm>();
    assert_send_sync::<RobustPolicy>();
    assert_send_sync::<ExecReport>();
};

impl DistGraphComm {
    /// Creates a communicator. Fails if the layout has fewer cores than
    /// the topology has ranks.
    pub fn create_adjacent(graph: Topology, layout: ClusterLayout) -> Result<Self, CommError> {
        if graph.n() > layout.capacity() {
            return Err(CommError::Build(BuildError::LayoutTooSmall {
                ranks: graph.n(),
                capacity: layout.capacity(),
            }));
        }
        let block = layout.placement() == Placement::Block;
        let order = (!block).then(|| Arc::new(locality_order(&layout, graph.n())));
        Ok(Self {
            graph,
            layout,
            order,
            policy: RobustPolicy::default(),
            fault: None,
            cache: None,
            build_pool: WorkerPool::serial(),
            metric: LoadMetric::default(),
            sizes: None,
            memo: Arc::default(),
            arena: Arc::default(),
            tuner_sims: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        })
    }

    /// Total candidate simulations the auto-tuner has performed through
    /// this communicator and its clones. A second resolution of an
    /// identical tuner fingerprint must not move this counter — the
    /// winner comes from the epoch's memo or the attached [`PlanCache`].
    pub fn tuner_sims(&self) -> u64 {
        self.tuner_sims.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Selects the load metric of agent selection:
    /// [`LoadMetric::Neighbors`] (the paper's count-based scoring, the
    /// default) or [`LoadMetric::Bytes`], which weighs candidates by
    /// their block size — from [`Self::with_block_sizes`] when set,
    /// otherwise derived per call from the `allgatherv` payloads.
    pub fn with_load_metric(mut self, metric: LoadMetric) -> Self {
        self.metric = metric;
        self.memo = Arc::default();
        self
    }

    /// Pins the per-rank block-size table consulted by
    /// [`LoadMetric::Bytes`] selection (and by the size-aware plan-cache
    /// fingerprint). Without it, sized paths derive the table from the
    /// payloads they are handed.
    pub fn with_block_sizes(mut self, sizes: BlockSizes) -> Self {
        self.sizes = Some(sizes);
        self.memo = Arc::default();
        self
    }

    /// The size table planning uses when nothing better is known: the
    /// pinned table, or the uniform default.
    fn planning_sizes(&self) -> BlockSizes {
        self.sizes.clone().unwrap_or_default()
    }

    /// Replaces the robust path's two timeouts.
    pub fn with_policy(mut self, policy: RobustPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a fault plan: the transport of a robust
    /// [`Self::collective`] request — its distributed negotiation and
    /// its threaded execution — consults it at every send.
    pub fn with_fault_plan(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Attaches a shared plan cache: [`Self::plan_shared`] (and every
    /// collective that plans through it) first consults the cache, keyed
    /// by a [`PlanFingerprint`] of this communicator's topology, layout
    /// and the requested algorithm.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the worker-thread count for pattern construction and plan
    /// lowering (`0` = size to the host's available parallelism). The
    /// default is serial, which parallel builds are byte-identical to.
    pub fn with_build_threads(mut self, threads: usize) -> Self {
        self.build_pool = if threads == 0 { WorkerPool::auto() } else { WorkerPool::new(threads) };
        self
    }

    /// The attached plan cache, if any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.cache.as_ref()
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// The virtual topology.
    pub fn graph(&self) -> &Topology {
        &self.graph
    }

    /// The cluster layout.
    pub fn layout(&self) -> &ClusterLayout {
        &self.layout
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Absorbs a topology change — `edges_added` joins the neighborhood,
    /// `edges_removed` leaves it — by **repairing** the communicator's
    /// live Distance Halving plan instead of rebuilding it.
    ///
    /// The live plan is this epoch's Distance Halving entry with the
    /// pattern its build kept. Without one (none built this epoch, or a
    /// plan from the [`PlanCache`], which keeps no pattern), past
    /// [`MAX_DAMAGE_FRAC`] or after [`MAX_REPAIR_ROUNDS`] successive
    /// repairs, the call builds and validates the new topology's plan.
    /// Otherwise [`crate::repair::repair_for_churn`] keeps every agent
    /// matching and patches only what the changed edges touch, in the
    /// pattern's virtual ranks: the result is byte-identical to a
    /// decision-preserving rebuild (a property the repair engine pins with
    /// tests) and costs O(clone + changed). Either plan, with its pattern,
    /// is the one entry of the fresh epoch's memo: every op's next request
    /// is served it, and the first checks it, once.
    ///
    /// `mutate` reads nothing from an attached [`PlanCache`] and writes at
    /// most a full rebuild, checked, under the new topology's build key; a
    /// repaired plan lives in the memo alone. What the cache holds for the
    /// old topology stays there for communicators still on it.
    ///
    /// Edits that change nothing — edges the graph has (adds) or lacks
    /// (removes), self-loops, endpoints `>= n` — are ignored
    /// ([`Topology::edits`]); the new topology is
    /// [`Topology::with_edits`] of the old. Clones made before the call
    /// keep the old topology and what they resolved for it.
    pub fn mutate(
        &mut self,
        edges_added: &[(Rank, Rank)],
        edges_removed: &[(Rank, Rank)],
    ) -> Result<MutationReport, CommError> {
        let (added, removed) = self.graph.edits(edges_added, edges_removed);
        let new_graph = self.graph.with_edits(&added, &removed);
        let sizes = self.planning_sizes();
        let dh = Algorithm::DistanceHalving;
        let keyed = self.keyed_sizes(dh, &sizes).cloned();
        // The live plan this epoch resolved, which the churn supersedes.
        let live = self.memo().plans.iter().find(|e| e.algo == dh).cloned();

        // Surgical attempt against the live plan, within the repair bounds.
        let surgical = live.as_ref().filter(|e| e.sizes == keyed && e.repairs < MAX_REPAIR_ROUNDS);
        let surgical = surgical.and_then(|e| {
            let pattern = e.pattern.as_ref()?;
            let (plan, graph) = (self.to_virtual(&**e.plan), self.to_virtual(&new_graph));
            let (add, rm) = (self.to_virtual(&added), self.to_virtual(&removed));
            repair_for_churn(pattern, &plan, &graph, &add, &rm)
                .ok()
                .filter(|rep| rep.damage_frac <= MAX_DAMAGE_FRAC)
                .map(|rep| (rep, e.repairs + 1))
        });
        let (plan, pattern, repairs, changed_ranks, damage_frac) = match surgical {
            Some((rep, repairs)) => {
                let plan = self.to_physical(rep.plan);
                (plan, rep.pattern, repairs, rep.changed_ranks.len(), rep.damage_frac)
            }
            None => {
                let (plan, pattern) = self.dh_plan(&new_graph, &sizes, &NULL, None)?;
                (plan, pattern, 0, new_graph.n(), 1.0)
            }
        };
        let (plan, pattern) = (Arc::new(Checked::new(Arc::new(plan))), Some(Arc::new(pattern)));
        if let (Some(cache), 0) = (&self.cache, repairs) {
            let key =
                PlanFingerprint::of_build_v(&new_graph, &self.layout, dh, &sizes, self.metric);
            cache.insert_cell(key, &plan, Some(&new_graph)).map_err(CommError::InvalidPlan)?;
        }
        let report = MutationReport {
            edges_added: added.len(),
            edges_removed: removed.len(),
            full_rebuild: repairs == 0,
            changed_ranks,
            damage_frac,
            repairs,
        };
        self.graph = new_graph;
        self.memo = Arc::default();
        self.memo().install_live(Entry { algo: dh, sizes: keyed, plan, pattern, repairs });
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{CollectiveRequest, ExecBackend};
    use crate::exec::sim_exec::{simulate, simulate_v, SimCost};
    use crate::exec::virtual_exec::{reference_allgather, test_payloads};
    use crate::exec::ExecOptions;
    use crate::plan::CollectivePlan;
    use nhood_topology::random::erdos_renyi;
    use std::time::Duration;

    fn comm(n: usize, delta: f64) -> DistGraphComm {
        let graph = erdos_renyi(n, delta, 21);
        let layout = ClusterLayout::new(n / 8, 2, 4);
        DistGraphComm::create_adjacent(graph, layout).unwrap()
    }

    fn allgather(c: &DistGraphComm, algo: Algorithm, payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
        c.collective(&CollectiveRequest::allgather(payloads).algorithm(algo)).unwrap().rbufs
    }

    fn robust(
        c: &DistGraphComm,
        algo: Algorithm,
        payloads: &[Vec<u8>],
    ) -> Result<(Vec<Vec<u8>>, ExecReport), CommError> {
        let req = CollectiveRequest::allgather(payloads)
            .algorithm(algo)
            .robust(true)
            .backend(ExecBackend::Threaded);
        c.collective(&req).map(|o| (o.rbufs, o.report.expect("robust run carries a report")))
    }

    #[test]
    fn all_algorithms_agree_with_reference() {
        let c = comm(32, 0.3);
        let payloads = test_payloads(32, 16, 5);
        let want = reference_allgather(c.graph(), &payloads);
        for algo in [
            Algorithm::Naive,
            Algorithm::CommonNeighbor { k: 4 },
            Algorithm::DistanceHalving,
            Algorithm::HierarchicalLeader { leaders_per_node: 2 },
            Algorithm::Bruck,
            Algorithm::Pat { radix: 2 },
            Algorithm::Pat { radix: 4 },
            Algorithm::Auto,
        ] {
            let got = allgather(&c, algo, &payloads);
            assert_eq!(got, want, "{algo}");
        }
    }

    #[test]
    fn degenerate_algorithm_params_reject_or_clamp() {
        let c = comm(32, 0.4);
        let payloads = test_payloads(32, 8, 1);
        // no sensible reading: typed rejection, not a panic
        for bad in [
            Algorithm::CommonNeighbor { k: 0 },
            Algorithm::Pat { radix: 0 },
            Algorithm::Pat { radix: 1 },
            Algorithm::HierarchicalLeader { leaders_per_node: 0 },
        ] {
            match c.plan(bad) {
                Err(CommError::BadAlgorithmParam { algorithm, .. }) => assert_eq!(algorithm, bad),
                other => panic!("{bad}: expected BadAlgorithmParam, got {other:?}"),
            }
            let req = CollectiveRequest::allgather(&payloads).algorithm(bad);
            assert!(
                matches!(c.collective(&req), Err(CommError::BadAlgorithmParam { .. })),
                "{bad}"
            );
        }
        // k = 1 (singleton groups) and k ∤ n (ragged last group): valid
        let want = reference_allgather(c.graph(), &payloads);
        for k in [1usize, 5, 7] {
            let plan = c.plan(Algorithm::CommonNeighbor { k }).unwrap();
            assert_eq!(plan.algorithm, Algorithm::CommonNeighbor { k });
            assert_eq!(allgather(&c, Algorithm::CommonNeighbor { k }, &payloads), want, "k={k}");
        }
        // k ≥ n clamps to n — documented, and canonicalizes the cache key
        for k in [32usize, 33, 200] {
            let plan = c.plan(Algorithm::CommonNeighbor { k }).unwrap();
            assert_eq!(plan.algorithm, Algorithm::CommonNeighbor { k: 32 }, "k={k} must clamp");
            assert_eq!(allgather(&c, Algorithm::CommonNeighbor { k }, &payloads), want, "k={k}");
        }
        let cache = Arc::new(PlanCache::new(8));
        let c = comm(32, 0.4).with_plan_cache(Arc::clone(&cache));
        let a = c.plan_shared(Algorithm::CommonNeighbor { k: 200 }).unwrap();
        let b = c.plan_shared(Algorithm::CommonNeighbor { k: 32 }).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "clamped k must share the canonical cache slot");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn auto_tunes_once_then_serves_cached_winner() {
        let cache = Arc::new(PlanCache::new(16));
        let c = comm(32, 0.4).with_plan_cache(Arc::clone(&cache));
        let p1 = c.plan_shared(Algorithm::Auto).unwrap();
        let sims = c.tuner_sims();
        assert!(sims > 0, "a cold Auto resolution must simulate candidates");
        assert_ne!(p1.algorithm, Algorithm::Auto, "the cached plan is the concrete winner");
        // same fingerprint again: served from the memo, zero new sims
        let p2 = c.plan_shared(Algorithm::Auto).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(c.tuner_sims(), sims, "second resolution must not simulate");
        // a FRESH communicator (cold memo) sharing the cache: still zero
        let c2 = DistGraphComm::create_adjacent(c.graph().clone(), c.layout().clone())
            .unwrap()
            .with_plan_cache(Arc::clone(&cache));
        let p3 = c2.plan_shared(Algorithm::Auto).unwrap();
        assert_eq!(c2.tuner_sims(), 0, "shared cache serves the winner with zero simulations");
        assert_eq!(p3.algorithm, p1.algorithm);
        // the winner also landed under its own canonical build key
        let explicit = c2.plan_shared(p1.algorithm).unwrap();
        assert!(Arc::ptr_eq(&p3, &explicit), "explicit winner requests coalesce with Auto");
    }

    #[test]
    fn auto_winner_is_deterministic_across_build_threads() {
        // same fingerprint ⇒ same winner, regardless of worker count
        let base = comm(48, 0.3);
        let want = base.resolve_algorithm(Algorithm::Auto).unwrap();
        for threads in [1usize, 2, 4] {
            for _ in 0..2 {
                let c = comm(48, 0.3).with_build_threads(threads);
                assert_eq!(
                    c.resolve_algorithm(Algorithm::Auto).unwrap(),
                    want,
                    "threads={threads}"
                );
            }
        }
    }

    /// The tuner's winner, re-scored independently, is no slower than
    /// any candidate under the same cost model and size table.
    fn assert_winner_is_argmin(c: &DistGraphComm, table: &[usize]) {
        let sizes = BlockSizes::per_rank(table.to_vec());
        let cands = crate::autotune::candidates(c.graph(), c.layout(), &sizes);
        let winner = c.tune_candidates(&cands, &sizes, &NULL).unwrap().winner;
        let score = |algo| {
            let plan = c.plan(algo).unwrap();
            simulate_v(&plan, c.layout(), table, &SimCost::niagara()).unwrap().makespan
        };
        let t_win = score(winner);
        for cand in cands {
            let t = score(cand);
            assert!(
                t_win <= t + 1e-15,
                "winner {winner} ({t_win:.2e}s) beaten by {cand} ({t:.2e}s)"
            );
        }
    }

    #[test]
    fn tuned_winner_is_the_simulated_argmin() {
        let layout = ClusterLayout::niagara(6, 36);
        for (delta, m) in [(0.3f64, 64usize), (0.3, 262_144), (0.5, 64), (0.1, 65_536)] {
            let g = erdos_renyi(216, delta, 7);
            let c = DistGraphComm::create_adjacent(g, layout.clone()).unwrap();
            assert_winner_is_argmin(&c, &[m; 216]);
        }
    }

    #[test]
    fn ragged_sizes_flow_into_the_tuner() {
        // every 7th rank huge, the rest tiny — a mean-m classifier and a
        // table-aware one see very different workloads; the winner must
        // be the argmin under THOSE byte totals
        let g = erdos_renyi(128, 0.3, 3);
        let c = DistGraphComm::create_adjacent(g, ClusterLayout::niagara(4, 32)).unwrap();
        let table: Vec<usize> = (0..128).map(|r| if r % 7 == 0 { 1 << 18 } else { 16 }).collect();
        assert_winner_is_argmin(&c, &table);
    }

    #[test]
    fn mutate_leaves_the_tuner_entry_to_its_topology() {
        let cache = Arc::new(PlanCache::new(16));
        let mut c = comm(32, 0.4).with_plan_cache(Arc::clone(&cache));
        let winner = c.plan_shared(Algorithm::Auto).unwrap();
        let old_key = c.tuner_fingerprint();
        let old_graph = c.graph().clone();
        assert!(cache.lookup(old_key, &old_graph).is_some(), "tuner entry cached");
        let (added, removed) = churn_sets(c.graph(), 2, 4);
        c.mutate(&added, &removed).unwrap();
        assert_ne!(c.tuner_fingerprint(), old_key, "churn moves the tuner key");
        // the old key still names the old topology's winner, for any
        // communicator still on it
        let kept = cache.lookup(old_key, &old_graph).expect("mutate leaves the tuner entry");
        assert!(Arc::ptr_eq(&kept, &winner));
        // a fresh Auto resolution tunes against the churned topology
        let sims = c.tuner_sims();
        let payloads = test_payloads(32, 8, 2);
        let got = allgather(&c, Algorithm::Auto, &payloads);
        assert_eq!(got, reference_allgather(c.graph(), &payloads));
        assert!(c.tuner_sims() > sims, "post-churn Auto must re-tune");
    }

    #[test]
    fn a_siblings_mutate_leaves_a_clones_tuner_memo_warm() {
        // no plan cache: the memo alone stands between a request and a
        // tuning pass, and the sibling's epoch change is its own
        let c = comm(32, 0.3);
        let payloads = test_payloads(32, 8, 2);
        assert_eq!(
            allgather(&c, Algorithm::Auto, &payloads),
            reference_allgather(c.graph(), &payloads)
        );
        let sims = c.tuner_sims();
        assert!(sims > 0, "a cold Auto resolution tunes");
        let mut sibling = c.clone();
        let (added, removed) = churn_sets(sibling.graph(), 2, 4);
        sibling.mutate(&added, &removed).unwrap();
        assert_eq!(
            allgather(&c, Algorithm::Auto, &payloads),
            reference_allgather(c.graph(), &payloads)
        );
        assert_eq!(c.tuner_sims(), sims, "the untouched clone's winner stays memoized");
        // the sibling tunes once for its own epoch, then hits
        let want = reference_allgather(sibling.graph(), &payloads);
        assert_eq!(allgather(&sibling, Algorithm::Auto, &payloads), want);
        let retuned = sibling.tuner_sims();
        assert!(retuned > sims, "the mutated clone tunes its new topology");
        assert_eq!(allgather(&sibling, Algorithm::Auto, &payloads), want);
        assert_eq!(
            allgather(&c, Algorithm::Auto, &payloads),
            reference_allgather(c.graph(), &payloads)
        );
        assert_eq!(c.tuner_sims(), retuned, "neither epoch evicts the other");
    }

    #[test]
    fn robust_alltoallv_runs_on_threaded_with_a_report() {
        // ...and so do the reductions: one robust path serves every op
        let c = comm(16, 0.4);
        let m = 4usize;
        let per_edge: Vec<Vec<u8>> = (0..16)
            .map(|p| (0..c.graph().outdegree(p) * m).map(|i| (p * 17 + i) as u8).collect())
            .collect();
        let own = test_payloads(16, m, 3);
        for (op, sbufs) in [
            (CollectiveOp::Alltoallv, &per_edge),
            (CollectiveOp::ReduceScatter(Reduction::SUM_U8), &per_edge),
            (CollectiveOp::Allreduce(Reduction::SUM_U8), &own),
        ] {
            let req = CollectiveRequest::new(op, sbufs).robust(true).backend(ExecBackend::Threaded);
            let out = c.collective(&req).unwrap();
            assert_eq!(
                out.rbufs,
                crate::collective::reference(c.graph(), op, sbufs, None).unwrap()
            );
            let report = out.report.expect("a robust run carries a report");
            assert!(report.clean(), "{op}: {report}");
            assert_eq!(report.used, Algorithm::DistanceHalving);
        }
    }

    #[test]
    fn create_rejects_oversized_graph() {
        let graph = erdos_renyi(100, 0.1, 1);
        let layout = ClusterLayout::new(2, 2, 4);
        assert!(matches!(
            DistGraphComm::create_adjacent(graph, layout),
            Err(CommError::Build(BuildError::LayoutTooSmall { ranks: 100, capacity: 16 }))
        ));
    }

    #[test]
    fn latency_positive_and_algorithm_dependent() {
        let c = comm(64, 0.5);
        let cost = SimCost::niagara();
        let latency = |algo| {
            let plan = c.plan_shared(algo).unwrap();
            crate::exec::sim_exec::simulate(&plan, c.layout(), 64, &cost).unwrap().makespan
        };
        let (tn, td) = (latency(Algorithm::Naive), latency(Algorithm::DistanceHalving));
        assert!(tn > 0.0 && td > 0.0);
        assert_ne!(tn, td);
    }

    #[test]
    fn best_k_sweep_picks_a_swept_value() {
        let c = comm(32, 0.4);
        let cost = SimCost::niagara();
        let ks = [2, 4, 8].map(|k| Algorithm::CommonNeighbor { k });
        let out = c.tune_candidates(&ks, &BlockSizes::uniform(256), &NULL).unwrap();
        let Algorithm::CommonNeighbor { k } = out.winner else { panic!("{}", out.winner) };
        assert!([2, 4, 8].contains(&k));
        assert_eq!(out.plan.algorithm, out.winner);
        // the chosen K is at least as good as the others
        let t_best = simulate(&out.plan, c.layout(), 256, &cost).unwrap().makespan;
        for other in [2usize, 4, 8] {
            let p = c.plan(Algorithm::CommonNeighbor { k: other }).unwrap();
            let t = simulate(&p, c.layout(), 256, &cost).unwrap().makespan;
            assert!(t_best <= t + 1e-15, "k={other} beat the sweep winner");
        }
    }

    #[test]
    fn sim_request_rejects_a_short_payload_table_typed() {
        // one payload (= one simulated size) per rank, or a typed error:
        // the Sim backend never reaches the schedule lowering's assert
        let c = comm(32, 0.3);
        let payloads = test_payloads(31, 64, 1);
        let req = CollectiveRequest::allgatherv(&payloads).backend(ExecBackend::Sim);
        let err = c.collective(&req.algorithm(Algorithm::Naive)).unwrap_err();
        assert!(
            matches!(err, CommError::Exec(ExecError::PayloadCountMismatch { got: 31, want: 32 })),
            "{err}"
        );
    }

    #[test]
    fn tuner_rejects_an_empty_candidate_list_typed() {
        // regression: this public entry point used to hit `expect`
        let c = comm(32, 0.3);
        let err = c.tune_candidates(&[], &BlockSizes::uniform(64), &NULL).unwrap_err();
        assert!(matches!(err, CommError::BadAlgorithmParam { .. }), "{err}");
        assert_eq!(c.tuner_sims(), 0);
    }

    #[test]
    fn tuner_scores_distance_halving_on_a_round_robin_layout() {
        // Off block placement Distance Halving plans through the locality
        // re-ranking and is a scored candidate, as are the
        // node-hierarchical designs.
        use nhood_cluster::Placement;
        let layout = ClusterLayout::new(4, 2, 4).with_placement(Placement::RoundRobinNodes);
        let c = DistGraphComm::create_adjacent(erdos_renyi(32, 0.4, 21), layout).unwrap();
        let plan = c.plan(Algorithm::DistanceHalving).unwrap();
        assert_eq!(plan.algorithm, Algorithm::DistanceHalving);
        let tuned = c.tune().unwrap();
        for algo in [
            Algorithm::DistanceHalving,
            Algorithm::HierarchicalLeader { leaders_per_node: 8 },
            Algorithm::Bruck,
        ] {
            assert!(tuned.scores.iter().any(|(a, _)| *a == algo), "{algo} missing");
        }
        assert_eq!(tuned.scores.len() as u64, tuned.simulations);
        let payloads = test_payloads(32, 16, 5);
        let want = reference_allgather(c.graph(), &payloads);
        assert_eq!(allgather(&c, Algorithm::DistanceHalving, &payloads), want);
        assert_eq!(allgather(&c, Algorithm::Auto, &payloads), want);
        // the robust path is served the memo's entry, pattern included (a
        // dead link is repaired around in locality order)
        let (robust, pattern) =
            c.robust_plan_with_pattern(Algorithm::DistanceHalving, &ExecOptions::new()).unwrap();
        let live = c.plan_shared(Algorithm::DistanceHalving).unwrap();
        assert!(Arc::ptr_eq(&robust.plan, &live) && pattern.is_some());
    }

    #[test]
    fn combining_ops_route_distance_halving_on_a_round_robin_layout() {
        // The combining family resolves the gather plan, which re-ranks
        // through `remap` off block placement — for Distance Halving, the
        // leader hierarchy and Bruck alike.
        use crate::collective::reference;
        use nhood_cluster::Placement;
        let layout = ClusterLayout::new(4, 2, 4).with_placement(Placement::RoundRobinNodes);
        let c = DistGraphComm::create_adjacent(erdos_renyi(32, 0.4, 21), layout).unwrap();
        let own = test_payloads(32, 8, 5);
        let per_edge: Vec<Vec<u8>> = (0..32)
            .map(|p| (0..c.graph().outdegree(p) * 8).map(|i| (p * 17 + i) as u8).collect())
            .collect();
        for (op, sbufs) in [
            (CollectiveOp::Alltoallv, &per_edge),
            (CollectiveOp::ReduceScatter(Reduction::SUM_U8), &per_edge),
            (CollectiveOp::Allreduce(Reduction::SUM_U8), &own),
        ] {
            let want = reference(c.graph(), op, sbufs, None).unwrap();
            for algo in [
                Algorithm::DistanceHalving,
                Algorithm::Auto,
                Algorithm::HierarchicalLeader { leaders_per_node: 2 },
                Algorithm::Bruck,
            ] {
                let got = c.collective(&CollectiveRequest::new(op, sbufs).algorithm(algo));
                assert_eq!(got.unwrap_or_else(|e| panic!("{op} {algo}: {e}")).rbufs, want);
            }
        }
    }

    /// HL and Bruck read nodes off rank numbers, so off block placement
    /// the communicator relabels into locality order first: the plan
    /// validates, moves reference bytes, and crosses fewer node boundaries
    /// than the builder run straight on the round-robin rank order.
    fn plans_off_block_placement_through_remap(
        in_rank_order: impl Fn(&Topology, &ClusterLayout) -> CollectivePlan,
    ) {
        use nhood_cluster::Placement;
        let graph = erdos_renyi(32, 0.4, 21);
        let layout = ClusterLayout::new(4, 2, 4).with_placement(Placement::RoundRobinNodes);
        let c = DistGraphComm::create_adjacent(graph.clone(), layout.clone()).unwrap();
        let payloads = test_payloads(32, 8, 5);
        let internode = |plan: &CollectivePlan| {
            let sends = (0..32)
                .flat_map(|r| plan.phases(r).flat_map(|ph| ph.sends()).map(move |m| (r, m.peer())));
            sends.filter(|&(r, peer)| !layout.same_node(r, peer)).count()
        };
        let plain = in_rank_order(&graph, &layout);
        let algo = plain.algorithm;
        let plan = c.plan(algo).unwrap_or_else(|e| panic!("{algo}: {e}"));
        plan.validate(&graph).unwrap();
        let want = reference_allgather(&graph, &payloads);
        assert_eq!(allgather(&c, algo, &payloads), want, "{algo}");
        assert!(internode(&plan) < internode(&plain), "{algo}");
    }

    #[test]
    fn hierarchical_leader_plans_off_block_placement() {
        plans_off_block_placement_through_remap(|g, l| {
            crate::leader::plan_hierarchical_leader(g, l, 2)
        });
    }

    #[test]
    fn bruck_plans_off_block_placement() {
        plans_off_block_placement_through_remap(crate::bruck::plan_bruck);
    }

    #[test]
    fn plan_exposes_selection_stats_only_for_dh() {
        let c = comm(32, 0.3);
        assert!(c.plan(Algorithm::Naive).unwrap().selection.is_none());
        assert!(c.plan(Algorithm::DistanceHalving).unwrap().selection.is_some());
    }

    #[test]
    fn unsupported_combinations_reject_typed() {
        let c = comm(16, 0.4);
        let payloads = test_payloads(16, 4, 3);
        // PAT routes items, but its merged trees cannot carry a reduction
        let pat = Algorithm::Pat { radix: 2 };
        assert_eq!(c.alltoall_plan(pat).unwrap().algorithm, pat);
        for op in [
            CollectiveOp::ReduceScatter(Reduction::SUM_U8),
            CollectiveOp::Allreduce(Reduction::SUM_U8),
        ] {
            match c.collective(&CollectiveRequest::new(op, &payloads).algorithm(pat)) {
                Err(CommError::UnsupportedCollective { op: named, algorithm, reason }) => {
                    assert_eq!((named, algorithm), (op, pat));
                    assert!(reason.contains("co-routing"), "{reason}");
                }
                other => panic!("expected UnsupportedCollective, got {other:?}"),
            }
        }
        // robustness covers every op (a retried reduction restarts from
        // the send buffers)...
        let req = CollectiveRequest::allreduce(&payloads, Reduction::SUM_U8)
            .robust(true)
            .backend(ExecBackend::Threaded);
        assert!(c.collective(&req).unwrap().report.is_some());
        // ...and runs on the threaded transport only
        for backend in [ExecBackend::Virtual, ExecBackend::Sim] {
            let req = CollectiveRequest::allgather(&payloads).robust(true).backend(backend);
            assert!(matches!(c.collective(&req), Err(CommError::UnsupportedCollective { .. })));
        }
    }

    #[test]
    fn combining_family_shares_one_memoized_routing_plan() {
        let c = comm(32, 0.4);
        let rec = nhood_telemetry::CountingRecorder::new(32);
        let m = 8usize;
        let payloads = test_payloads(32, m, 2);
        let sbufs: Vec<Vec<u8>> = (0..32)
            .map(|p| (0..c.graph().outdegree(p) * m).map(|i| (p * 13 + i) as u8).collect())
            .collect();
        // alltoallv (cold build), then reduce ops: all hit the same memo
        let req = CollectiveRequest::alltoallv(&sbufs).sizes(BlockSizes::uniform(m)).recorder(&rec);
        c.collective(&req).unwrap();
        let req = CollectiveRequest::reduce_scatter(&sbufs, Reduction::SUM_U8)
            .sizes(BlockSizes::uniform(m))
            .recorder(&rec);
        c.collective(&req).unwrap();
        let req = CollectiveRequest::allreduce(&payloads, Reduction::SUM_U8).recorder(&rec);
        c.collective(&req).unwrap();
        let t = rec.totals();
        assert_eq!(t.plan_cache_misses, 1, "one cold item-plan build");
        assert_eq!(t.plan_cache_hits, 2, "subsequent combining ops reuse the memo");
    }

    #[test]
    fn mutate_invalidates_the_combining_plan_memo() {
        let mut c = comm(32, 0.4);
        let payloads = test_payloads(32, 8, 8);
        let run = |c: &DistGraphComm| {
            c.collective(&CollectiveRequest::allreduce(&payloads, Reduction::SUM_U8)).unwrap().rbufs
        };
        let before = run(&c);
        assert_eq!(
            before,
            crate::collective::reference_allreduce(c.graph(), &payloads, Reduction::SUM_U8)
        );
        let (added, removed) = churn_sets(c.graph(), 2, 3);
        c.mutate(&added, &removed).unwrap();
        let after = run(&c);
        assert_eq!(
            after,
            crate::collective::reference_allreduce(c.graph(), &payloads, Reduction::SUM_U8),
            "post-mutate allreduce must plan against the new topology"
        );
    }

    #[test]
    fn sim_backend_returns_bytes_and_makespan() {
        let c = comm(32, 0.3);
        let payloads = test_payloads(32, 16, 4);
        let req =
            CollectiveRequest::allreduce(&payloads, Reduction::SUM_U8).backend(ExecBackend::Sim);
        let out = c.collective(&req).unwrap();
        assert_eq!(
            out.rbufs,
            crate::collective::reference_allreduce(c.graph(), &payloads, Reduction::SUM_U8)
        );
        assert!(out.sim.expect("sim backend reports").makespan > 0.0);

        let req = CollectiveRequest::allgather(&payloads).backend(ExecBackend::Sim);
        let out = c.collective(&req).unwrap();
        assert_eq!(out.rbufs, reference_allgather(c.graph(), &payloads));
        assert!(out.sim.expect("sim backend reports").makespan > 0.0);
    }

    #[test]
    fn robust_allgather_without_faults_is_clean() {
        let c = comm(32, 0.3);
        let payloads = test_payloads(32, 8, 7);
        let (bufs, report) = robust(&c, Algorithm::DistanceHalving, &payloads).unwrap();
        assert_eq!(bufs, reference_allgather(c.graph(), &payloads));
        assert!(report.clean());
        assert_eq!(report.used, Algorithm::DistanceHalving);
        assert_eq!(report.faults.total_injected(), 0);
    }

    #[test]
    fn robust_allgather_retries_through_moderate_drops() {
        let c = comm(32, 0.3).with_fault_plan(
            crate::fault::FaultPlan::seeded(11)
                .with_message_drop(0.05)
                .with_message_delay(0.05, Duration::from_micros(200)),
        );
        let payloads = test_payloads(32, 8, 2);
        let (bufs, report) = robust(&c, Algorithm::DistanceHalving, &payloads).unwrap();
        assert_eq!(bufs, reference_allgather(c.graph(), &payloads), "{report}");
        assert!(report.faults.drops + report.faults.delays > 0);
    }

    #[test]
    fn starved_negotiation_degrades_to_naive() {
        // rank 0 stalls 300 ms at every negotiation step while its peers
        // give up after 60 ms: the DH build reliably times out. The
        // fallback's naive plan tolerates the same straggler (it has no
        // negotiation and a 10 s receive timeout), so the robust call
        // still returns correct buffers — just on the degraded plan.
        let graph = erdos_renyi(32, 0.3, 21);
        let layout = ClusterLayout::new(4, 2, 4);
        let c = DistGraphComm::create_adjacent(graph, layout)
            .unwrap()
            .with_policy(RobustPolicy {
                negotiation_timeout: Duration::from_millis(60),
                ..RobustPolicy::default()
            })
            .with_fault_plan(
                crate::fault::FaultPlan::seeded(3).with_slow_rank(0, Duration::from_millis(300)),
            );
        let payloads = test_payloads(32, 4, 1);
        let (bufs, report) = robust(&c, Algorithm::DistanceHalving, &payloads).unwrap();
        assert_eq!(bufs, reference_allgather(c.graph(), &payloads));
        assert_eq!(report.used, Algorithm::Naive);
        assert!(matches!(report.fallback, Some(FallbackReason::BuildFailed(_))), "{report}");
        // the reason is the build error's own text, said once
        assert_eq!(report.to_string().matches("pattern build failed").count(), 1, "{report}");
    }

    type EdgeSet = Vec<(usize, usize)>;

    /// Picks churn sets for a graph: `k` present edges and `k` absent
    /// pairs, deterministically.
    fn churn_sets(g: &Topology, k: usize, seed: u64) -> (EdgeSet, EdgeSet) {
        let edges: Vec<_> = g.edges().collect();
        let removed: Vec<_> =
            (0..k).map(|i| edges[(seed as usize + i * 101) % edges.len()]).collect();
        let mut added = Vec::new();
        let mut x = seed | 1;
        while added.len() < k {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (x >> 16) as usize % g.n();
            let v = (x >> 40) as usize % g.n();
            if u != v && !g.has_edge(u, v) && !added.contains(&(u, v)) {
                added.push((u, v));
            }
        }
        (added, removed)
    }

    #[test]
    fn mutate_cold_builds_then_repairs_surgically() {
        let mut c = comm(32, 0.3);
        let payloads = test_payloads(32, 8, 3);
        // no live plan → full build
        let (added, _) = churn_sets(c.graph(), 1, 7);
        let cold = c.mutate(&added, &[]).unwrap();
        assert!(cold.full_rebuild);
        assert_eq!(cold.repairs, 0);

        let (added, removed) = churn_sets(c.graph(), 2, 5);
        let rep = c.mutate(&added, &removed).unwrap();
        assert!(!rep.full_rebuild, "small churn must take the surgical path");
        assert_eq!(rep.edges_added, 2);
        assert_eq!(rep.edges_removed, 2);
        assert!(rep.repairs == 1 && rep.damage_frac < 1.0);

        // the mutated communicator serves correct allgathers on the NEW topology
        let got = allgather(&c, Algorithm::DistanceHalving, &payloads);
        assert_eq!(got, reference_allgather(c.graph(), &payloads));

        // reference-output equality vs a from-scratch communicator on the same graph
        let fresh = DistGraphComm::create_adjacent(c.graph().clone(), c.layout().clone()).unwrap();
        let want = allgather(&fresh, Algorithm::DistanceHalving, &payloads);
        assert_eq!(got, want);
    }

    #[test]
    fn a_request_at_another_size_table_leaves_the_live_plan_to_repair() {
        // under `Bytes` a ragged allgatherv keys its own Distance Halving
        // plan; the live one stays the memo's, and the next churn repairs it
        let mut c = comm(32, 0.3).with_load_metric(LoadMetric::Bytes);
        c.plan_shared(Algorithm::DistanceHalving).unwrap();
        let ragged: Vec<Vec<u8>> = (0..32).map(|r| vec![r as u8; r % 5]).collect();
        let req = CollectiveRequest::allgatherv(&ragged).algorithm(Algorithm::DistanceHalving);
        assert_eq!(c.collective(&req).unwrap().rbufs, reference_allgather(c.graph(), &ragged));
        let (added, removed) = churn_sets(c.graph(), 1, 5);
        assert!(!c.mutate(&added, &removed).unwrap().full_rebuild, "the live plan was kept");
    }

    #[test]
    fn mutate_ignores_edges_with_an_endpoint_out_of_range() {
        // A removed edge whose source is >= n used to index past the
        // adjacency offsets and panic; it is an edge the graph lacks.
        let mut c = comm(16, 0.3);
        c.plan_shared(Algorithm::DistanceHalving).unwrap();
        let before = c.graph().clone();
        let junk = [(16, 0), (0, 16), (usize::MAX, 3), (5, 5)];
        let rep = c.mutate(&junk, &junk).unwrap();
        assert_eq!((rep.edges_added, rep.edges_removed), (0, 0));
        assert_eq!(c.graph(), &before);
        // and beside a real edit
        let real = before.edges().next().unwrap();
        let rep = c.mutate(&[(3, 99)], &[(16, 0), real]).unwrap();
        assert_eq!((rep.edges_added, rep.edges_removed), (0, 1));
        assert!(!c.graph().has_edge(real.0, real.1));
        let payloads = test_payloads(16, 8, 4);
        let got = allgather(&c, Algorithm::DistanceHalving, &payloads);
        assert_eq!(got, reference_allgather(c.graph(), &payloads));
    }

    #[test]
    fn mutate_churns_the_topology_a_rebuild_would_build() {
        let mut c = comm(32, 0.3);
        let before = c.graph().clone();
        let (added, removed) = churn_sets(&before, 3, 11);
        // repeats, an edit that is already true, a self-loop
        let noisy_added = [&added[..], &added[..1], &[before.edges().next().unwrap(), (4, 4)]];
        let noisy_removed = [&removed[..], &removed[1..], &[added[0]]];
        let rep = c.mutate(&noisy_added.concat(), &noisy_removed.concat()).unwrap();
        assert_eq!((rep.edges_added, rep.edges_removed), (3, 3));
        let kept = before.edges().filter(|e| !removed.contains(e));
        let want = Topology::from_edges(32, kept.chain(added.iter().copied()));
        assert_eq!(c.graph(), &want);
    }

    #[test]
    fn mutate_keeps_the_plan_cache_coherent() {
        let cache = Arc::new(PlanCache::new(8));
        let graph = erdos_renyi(32, 0.3, 21);
        let layout = ClusterLayout::new(4, 2, 4);
        let mut c = DistGraphComm::create_adjacent(graph, layout)
            .unwrap()
            .with_plan_cache(Arc::clone(&cache));
        c.plan_shared(Algorithm::DistanceHalving).unwrap();
        assert_eq!(cache.len(), 1, "the build is cached under the canonical key");

        let (added, _) = churn_sets(c.graph(), 2, 9);
        c.mutate(&added, &[]).unwrap();
        assert_eq!(cache.len(), 1, "a surgical repair stores nothing");
        // the original graph's build key still serves it, before and
        // after the round trip back to it
        let original = erdos_renyi(32, 0.3, 21);
        c.mutate(&[], &added).unwrap();
        let canonical = PlanFingerprint::of_build_v(
            &original,
            c.layout(),
            Algorithm::DistanceHalving,
            &BlockSizes::default(),
            LoadMetric::default(),
        );
        assert!(
            cache.lookup(canonical, &original).is_some(),
            "the original graph's plan stays under its build key"
        );
    }

    #[test]
    fn a_churn_leaves_each_cached_plan_to_the_topology_its_key_names() {
        // The cache is content-addressed: a surgical repair neither evicts
        // nor re-keys, and a full rebuild is stored once, under the new
        // topology's build key.
        let dir = std::env::temp_dir().join(format!("nhood_churn_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(PlanCache::new(16).with_disk_dir(&dir).unwrap());
        let original = erdos_renyi(32, 0.3, 21);
        let open = |g: &Topology| {
            DistGraphComm::create_adjacent(g.clone(), ClusterLayout::new(4, 2, 4))
                .unwrap()
                .with_plan_cache(Arc::clone(&cache))
        };
        let files = || -> std::collections::BTreeSet<_> {
            std::fs::read_dir(&dir).unwrap().map(|f| f.unwrap().file_name()).collect()
        };
        let mut c = open(&original);
        c.plan_shared(Algorithm::DistanceHalving).unwrap();
        open(&original).plan_shared(Algorithm::Auto).unwrap();
        let (len, warm, on_disk) = (cache.len(), cache.stats(), files());

        let (added, removed) = churn_sets(&original, 1, 3);
        assert!(!c.mutate(&added, &removed).unwrap().full_rebuild, "a surgical repair");
        let stored = (cache.len(), cache.stats().insertions, files());
        assert_eq!(stored, (len, warm.insertions, on_disk.clone()), "a repair stores nothing");
        open(&original).plan_shared(Algorithm::DistanceHalving).unwrap();
        let s = cache.stats();
        let seen = (s.hits - warm.hits, s.misses - warm.misses);
        assert_eq!(seen, (1, 0), "the original topology's plan is still served");

        // a third of the edges go: past MAX_DAMAGE_FRAC, a full rebuild
        let gone: Vec<_> = c.graph().edges().step_by(3).collect();
        assert!(c.mutate(&[], &gone).unwrap().full_rebuild);
        let (dh, sizes) = (Algorithm::DistanceHalving, BlockSizes::default());
        let key = PlanFingerprint::of_build_v(c.graph(), c.layout(), dh, &sizes, c.metric);
        let mut want = on_disk;
        want.insert(format!("{key}.nhplan").into());
        assert_eq!(files(), want, "one file, under the new topology's build key");
        let fresh = PlanCache::new(4).with_disk_dir(&dir).unwrap();
        assert!(fresh.lookup(key, c.graph()).is_some());
        assert_eq!(fresh.stats().disk_fast_hits, 1, "the file records its topology's digest");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mutate_over_damage_threshold_rebuilds() {
        let mut c = comm(32, 0.5);
        c.plan_shared(Algorithm::DistanceHalving).unwrap();
        // churn a third of all edges: far past the default 25% damage cap
        let edges: Vec<_> = c.graph().edges().collect();
        let removed: Vec<_> = edges.iter().copied().step_by(3).collect();
        let rep = c.mutate(&[], &removed).unwrap();
        assert!(rep.full_rebuild, "mass churn must fall back to a full rebuild");
        assert_eq!(rep.repairs, 0);
        let payloads = test_payloads(32, 8, 4);
        let got = allgather(&c, Algorithm::DistanceHalving, &payloads);
        assert_eq!(got, reference_allgather(c.graph(), &payloads));
    }

    #[test]
    fn mutate_off_block_placement_repairs_in_locality_order() {
        // the pattern lives in locality order: a single-edge churn relabels
        // in, repairs there and relabels the plan back out, byte for byte
        // the decision-preserving rebuild re-ranked through `remap`
        use crate::lower::lower;
        use crate::remap::{locality_order, reranked};
        use crate::repair::replay;
        use nhood_cluster::Placement;
        let cache = Arc::new(PlanCache::new(8));
        let layout = ClusterLayout::new(2, 2, 8).with_placement(Placement::RoundRobinNodes);
        let mut c = DistGraphComm::create_adjacent(erdos_renyi(32, 0.3, 21), layout)
            .unwrap()
            .with_plan_cache(Arc::clone(&cache));
        let (dh, sizes) = (Algorithm::DistanceHalving, BlockSizes::default());
        let key = |c: &DistGraphComm, g: &Topology| {
            PlanFingerprint::of_build_v(g, c.layout(), dh, &sizes, LoadMetric::default())
        };
        let payloads = test_payloads(32, 8, 3);
        c.plan_shared(dh).unwrap();
        for (round, seed) in [5, 6].into_iter().enumerate() {
            let old = c.graph().clone();
            let pattern = c.memo().get(dh, None).and_then(|e| e.pattern.clone()).unwrap();
            let (added, removed) = churn_sets(&old, 2, seed);
            let rep = c.mutate(&added, &removed).unwrap();
            assert!(!rep.full_rebuild && rep.repairs == round as u32 + 1, "{rep:?}");
            assert_eq!((rep.edges_added, rep.edges_removed), (2, 2));
            let order = locality_order(c.layout(), 32);
            let want = reranked(c.graph(), &order, &sizes, |vg, _| {
                Ok::<_, ()>(lower(&replay(&pattern, vg, |_, _| false), vg))
            })
            .unwrap();
            let plan = c.plan_shared(dh).unwrap();
            assert!(*plan == want, "seed {seed}: the relabelled decision-preserving rebuild");
            // one write: a repaired plan lives in the memo alone, and the
            // first topology's build stays under its key
            assert_eq!(cache.len(), 1);
            assert!(cache.lookup(key(&c, c.graph()), c.graph()).is_none());
            let got = allgather(&c, dh, &payloads);
            assert_eq!(got, reference_allgather(c.graph(), &payloads));
        }
    }

    /// Finds a (src, dst) pair the DH plan sends over but the graph has
    /// no edge between (either direction) — a pure relay link, invisible
    /// to the naive plan.
    fn dh_only_link(plan: &CollectivePlan, g: &Topology) -> Option<(usize, usize, usize)> {
        (0..plan.n()).find_map(|r| {
            plan.phases(r).enumerate().find_map(|(k, phase)| {
                let mut peers = phase.sends().map(|m| m.peer());
                peers.find(|&p| !g.has_edge(r, p) && !g.has_edge(p, r)).map(|p| (r, p, k))
            })
        })
    }

    /// A fault plan under which every relay link of `plan` — a pair of
    /// ranks no graph edge joins — is dead: more dead links than the
    /// repair budget routes around, so the run ends on the naive plan.
    fn relay_links_down(plan: &CollectivePlan, g: &Topology) -> FaultPlan {
        let mut fp = FaultPlan::seeded(7);
        for r in 0..plan.n() {
            for peer in plan.phases(r).flat_map(|phase| phase.sends()).map(|m| m.peer()) {
                if !g.has_edge(r, peer) && !g.has_edge(peer, r) {
                    fp = fp.with_link_down(r, peer, 0);
                }
            }
        }
        fp
    }

    #[test]
    fn failed_primary_faults_survive_into_the_fallback_report() {
        // Regression: a LinkDown that kills the DH run must still be
        // counted in the final report after the naive fallback succeeds —
        // the old code threw away the failed attempt's tally.
        let c = comm(32, 0.3);
        let (plan, _) =
            c.robust_plan_with_pattern(Algorithm::DistanceHalving, &ExecOptions::new()).unwrap();
        let fp = relay_links_down(&plan, c.graph());
        let c = c.with_fault_plan(fp);
        let payloads = test_payloads(32, 8, 6);
        let (bufs, report) = robust(&c, Algorithm::DistanceHalving, &payloads).unwrap();
        assert_eq!(bufs, reference_allgather(c.graph(), &payloads));
        assert_eq!(report.used, Algorithm::Naive, "{report}");
        assert!(matches!(report.fallback, Some(FallbackReason::ExecFailed(_))), "{report}");
        assert!(
            report.faults.link_downs >= 1,
            "failed primary's link_downs lost from the report: {report}"
        );
    }

    #[test]
    fn link_down_mid_run_repairs_without_fallback() {
        let c = comm(64, 0.4);
        let (plan, _) =
            c.robust_plan_with_pattern(Algorithm::DistanceHalving, &ExecOptions::new()).unwrap();
        let (src, dst, phase) =
            dh_only_link(&plan, c.graph()).expect("DH at δ=0.4 uses relay links");
        let c =
            c.with_fault_plan(crate::fault::FaultPlan::seeded(13).with_link_down(src, dst, phase));
        let payloads = test_payloads(64, 8, 9);
        let t0 = std::time::Instant::now();
        let (bufs, report) = robust(&c, Algorithm::DistanceHalving, &payloads).unwrap();
        // the dead link ends the failed attempt at once: no rank sits out
        // the default 10 s receive timeout before the repair
        assert!(t0.elapsed() < Duration::from_secs(1), "took {:?}", t0.elapsed());
        assert_eq!(report.used, Algorithm::DistanceHalving, "{report}");
        assert!(report.fallback.is_none(), "repair must obviate the naive fallback: {report}");
        assert!(report.repairs >= 1, "{report}");
        assert!(report.faults.link_downs >= 1, "{report}");
        assert!(!report.clean(), "a repaired run is not clean");
        // the dead link is NOT a graph edge, so no delivery is lost:
        // buffers must be complete and exact
        assert!(report.completeness.is_full(), "{report}");
        assert!(report.degraded_ranks.is_empty());
        assert_eq!(bufs, reference_allgather(c.graph(), &payloads));
    }

    /// `CollectivePlan::validate` calls on this thread so far.
    fn validates() -> u64 {
        crate::collective::program::tests::checks().0
    }

    /// The first request of every op shape — gather, route, both reduce
    /// shapes — under `algo`, then a simulated gather, each through `run`;
    /// the distinct plan allocations they ran.
    fn every_shape(
        c: &DistGraphComm,
        algo: Algorithm,
        mut run: impl FnMut(&CollectiveRequest) -> Arc<CollectivePlan>,
    ) -> usize {
        let n = c.n();
        let own = test_payloads(n, 8, 3);
        let per_edge: Vec<Vec<u8>> =
            (0..n).map(|p| vec![p as u8; c.graph().outdegree(p) * 8]).collect();
        let mut served: Vec<Arc<CollectivePlan>> = Vec::new();
        for (op, sbufs) in [
            (CollectiveOp::Allgather, &own),
            (CollectiveOp::Alltoallv, &per_edge),
            (CollectiveOp::ReduceScatter(Reduction::SUM_U8), &per_edge),
            (CollectiveOp::Allreduce(Reduction::SUM_U8), &own),
        ] {
            served.push(run(&CollectiveRequest::new(op, sbufs).algorithm(algo)));
        }
        let sim = CollectiveRequest::allgather(&own).algorithm(algo).backend(ExecBackend::Sim);
        served.push(run(&sim));
        served.sort_by_key(Arc::as_ptr);
        served.dedup_by(|a, b| Arc::ptr_eq(a, b));
        served.len()
    }

    /// [`every_shape`] through `collective`, each request's plan being the
    /// one lookup's.
    fn every_op(c: &DistGraphComm, algo: Algorithm) -> usize {
        every_shape(c, algo, |req| {
            c.collective(req).unwrap();
            let family =
                if req.op.is_gather() { algo } else { c.combining_algorithm(algo).unwrap() };
            c.plan_shared(family).unwrap()
        })
    }

    #[test]
    fn a_plan_allocation_is_checked_once_from_its_build_to_every_op() {
        let dh = Algorithm::DistanceHalving;
        // each communicator on a cache of its own, or none
        let with = |c: DistGraphComm, cached: bool| match cached {
            true => c.with_plan_cache(Arc::new(PlanCache::new(16))),
            false => c,
        };
        for cache in [false, true] {
            // an explicit algorithm: built, then every op and a simulation
            for algo in [dh, Algorithm::CommonNeighbor { k: 4 }] {
                let (c, before) = (with(comm(32, 0.3), cache), validates());
                c.plan_shared(algo).unwrap();
                assert_eq!(every_op(&c, algo), 1, "{algo}: one plan serves every op");
                assert_eq!(validates() - before, 1, "{algo}, cache {}", cache);
            }
            // `Auto`: one check per tuning pass, its winner's, and one per
            // plan it builds besides (the combining ops route as Distance
            // Halving)
            let (c, before) = (with(comm(32, 0.3), cache), validates());
            c.plan_shared(Algorithm::Auto).unwrap();
            assert!(c.tuner_sims() > 0);
            assert_eq!(validates() - before, 1, "the tuning pass checks its winner alone");
            let served = every_op(&c, Algorithm::Auto);
            assert_eq!(validates() - before, served as u64, "Auto, cache {}", cache);
            // a surgical churn, then a full rebuild: each new plan is checked
            // once, whatever the op that asks first
            let mut c = with(comm(32, 0.3), cache);
            c.plan_shared(dh).unwrap();
            let (added, removed) = churn_sets(c.graph(), 1, 5);
            let before = validates();
            assert!(!c.mutate(&[], &removed).unwrap().full_rebuild);
            assert_eq!((every_op(&c, dh), validates() - before), (1, 1), "a surgical churn");
            let mut fresh = with(comm(32, 0.3), cache); // no live plan: a rebuild
            let before = validates();
            assert!(fresh.mutate(&added, &[]).unwrap().full_rebuild);
            assert_eq!((every_op(&fresh, dh), validates() - before), (1, 1), "a full rebuild");
            // the service path: a plan handed in brings the memo's cell
            let (c, before) = (with(comm(32, 0.3), cache), validates());
            let plan = c.plan_shared(dh).unwrap();
            let mut arena = BlockArena::new();
            let served = every_shape(&c, dh, |req| {
                match req.backend {
                    ExecBackend::Sim => drop(
                        c.simulate_on(req, Some(&plan), &mut arena, &SimCost::niagara(), None)
                            .unwrap(),
                    ),
                    _ => drop(c.collective_on(req, Some(&plan), &mut arena).unwrap()),
                }
                Arc::clone(&plan)
            });
            assert_eq!((served, validates() - before), (1, 1), "collective_on(Some(plan))");
        }
        // a memory-tier cache hit on a second communicator: checked already
        let cache = Arc::new(PlanCache::new(16));
        let first = comm(32, 0.3).with_plan_cache(Arc::clone(&cache));
        let plan = first.plan_shared(dh).unwrap();
        every_op(&first, dh);
        let (second, before) = (comm(32, 0.3).with_plan_cache(cache), validates());
        assert!(Arc::ptr_eq(&second.plan_shared(dh).unwrap(), &plan), "a memory-tier hit");
        assert_eq!((every_op(&second, dh), validates() - before), (1, 0), "a cache hit");
        // a robust run that repairs a dead link: the served plan, then the
        // repaired one, each checked once
        let c = comm(64, 0.4);
        let before = validates();
        let (plan, _) = c.robust_plan_with_pattern(dh, &ExecOptions::new()).unwrap();
        let (src, dst, phase) = dh_only_link(&plan, c.graph()).expect("a relay link");
        let c = c.with_fault_plan(FaultPlan::seeded(13).with_link_down(src, dst, phase));
        let (_, report) = robust(&c, dh, &test_payloads(64, 8, 9)).unwrap();
        assert!(report.repairs >= 1 && report.fallback.is_none(), "{report}");
        assert_eq!(validates() - before, 1 + u64::from(report.repairs), "{report}");
    }

    #[test]
    fn robust_distance_halving_plans_through_remap_off_block_placement() {
        // as `plan` does: the robust path re-ranks instead of refusing
        // the placement and degrading to naive
        use nhood_cluster::Placement;
        let graph = erdos_renyi(32, 0.3, 21);
        let layout = ClusterLayout::new(4, 2, 4).with_placement(Placement::RoundRobinNodes);
        let c = DistGraphComm::create_adjacent(graph, layout).unwrap();
        let payloads = test_payloads(32, 8, 7);
        let (bufs, report) = robust(&c, Algorithm::DistanceHalving, &payloads).unwrap();
        assert!(report.clean(), "{report}");
        assert_eq!(report.used, Algorithm::DistanceHalving, "{report}");
        assert_eq!(bufs, reference_allgather(c.graph(), &payloads));
    }

    #[test]
    fn robust_requests_take_their_plan_from_the_epoch_memo() {
        // a cacheless communicator builds (or negotiates) once: the second
        // robust request is served the first one's plan
        for algo in [Algorithm::CommonNeighbor { k: 4 }, Algorithm::DistanceHalving] {
            let c = comm(32, 0.3);
            let rec = nhood_telemetry::CountingRecorder::new(32);
            let payloads = test_payloads(32, 8, 3);
            for _ in 0..2 {
                let req = CollectiveRequest::allgather(&payloads)
                    .algorithm(algo)
                    .robust(true)
                    .backend(ExecBackend::Threaded)
                    .recorder(&rec);
                let out = c.collective(&req).unwrap();
                assert_eq!(out.rbufs, reference_allgather(c.graph(), &payloads), "{algo}");
            }
            let t = rec.totals();
            assert_eq!((t.plan_cache_hits, t.plan_cache_misses), (1, 1), "{algo}");
        }
    }

    #[test]
    fn a_robust_link_down_off_block_placement_is_repaired_not_degraded() {
        // the negotiated pattern is kept in locality order, so a dead relay
        // link is repaired around there instead of degrading to naive; the
        // link is down from the first request on, negotiation included
        use nhood_cluster::Placement;
        let open = || {
            let layout = ClusterLayout::new(8, 2, 4).with_placement(Placement::RoundRobinNodes);
            DistGraphComm::create_adjacent(erdos_renyi(64, 0.4, 21), layout).unwrap()
        };
        let probe = open();
        let (plan, pattern) = probe
            .robust_plan_with_pattern(Algorithm::DistanceHalving, &ExecOptions::new())
            .unwrap();
        assert!(pattern.is_some(), "the negotiation keeps its pattern");
        let (src, dst, phase) =
            dh_only_link(&plan, probe.graph()).expect("DH at δ=0.4 uses relay links");
        let c = open().with_fault_plan(FaultPlan::seeded(13).with_link_down(src, dst, phase));
        let payloads = test_payloads(64, 8, 9);
        for _ in 0..2 {
            let (bufs, report) = robust(&c, Algorithm::DistanceHalving, &payloads).unwrap();
            assert_eq!(report.used, Algorithm::DistanceHalving, "{report}");
            assert!(report.fallback.is_none(), "{report}");
            assert!(report.repairs >= 1 && report.faults.link_downs >= 1, "{report}");
            assert!(report.completeness.is_full(), "{report}");
            assert_eq!(bufs, reference_allgather(c.graph(), &payloads));
        }
    }

    #[test]
    fn a_cache_served_distance_halving_plan_is_not_negotiated_again() {
        // a plan another communicator built keeps no pattern: the robust
        // path builds one beside it instead of negotiating under faults
        // that starve every negotiation (as in
        // `starved_negotiation_degrades_to_naive`)
        let cache = Arc::new(PlanCache::new(8));
        let open = || {
            let layout = ClusterLayout::new(4, 2, 4);
            DistGraphComm::create_adjacent(erdos_renyi(32, 0.3, 21), layout)
                .unwrap()
                .with_plan_cache(Arc::clone(&cache))
        };
        let dh = Algorithm::DistanceHalving;
        let built = open().plan_shared(dh).unwrap();
        let c = open()
            .with_policy(RobustPolicy {
                negotiation_timeout: Duration::from_millis(60),
                ..RobustPolicy::default()
            })
            .with_fault_plan(FaultPlan::seeded(3).with_slow_rank(0, Duration::from_millis(300)));
        assert!(Arc::ptr_eq(&c.plan_shared(dh).unwrap(), &built), "the cache serves it");
        let payloads = test_payloads(32, 8, 1);
        let (bufs, report) = robust(&c, dh, &payloads).unwrap();
        assert_eq!(bufs, reference_allgather(c.graph(), &payloads));
        assert_eq!((report.used, &report.fallback), (dh, &None), "{report}");
        let (plan, pattern) = c.robust_plan_with_pattern(dh, &ExecOptions::new()).unwrap();
        let served = Arc::ptr_eq(&plan.plan, &built);
        assert!(served && pattern.is_some(), "the served plan, with a pattern");
    }

    #[test]
    fn an_auto_allgatherv_at_a_ragged_table_is_memoized_beside_the_planning_entry() {
        // only Distance Halving's planning-table entry stays for the epoch:
        // an Auto request at another table takes Auto's slot, and a
        // cacheless communicator tunes it once
        let c = comm(32, 0.3);
        c.plan_shared(Algorithm::Auto).unwrap();
        let ragged: Vec<Vec<u8>> = (0..32).map(|r| vec![r as u8; r % 5]).collect();
        let want = reference_allgather(c.graph(), &ragged);
        let sims = c.tuner_sims();
        let mut seen = Vec::new();
        for _ in 0..2 {
            let rec = nhood_telemetry::CountingRecorder::new(32);
            let req = CollectiveRequest::allgatherv(&ragged).algorithm(Algorithm::Auto);
            assert_eq!(c.collective(&req.recorder(&rec)).unwrap().rbufs, want);
            let t = rec.totals();
            seen.push((t.plan_cache_hits, t.plan_cache_misses, c.tuner_sims() - sims));
        }
        let tuned = seen[0].2;
        assert!(tuned > 0, "the ragged table is tuned once");
        assert_eq!(seen, [(0, 1, tuned), (1, 0, tuned)], "the second request is a memo hit");
    }
}
