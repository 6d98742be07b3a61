//! Plan resolution: how an [`Algorithm`] choice becomes a plan on this
//! communicator — normalize the parameters, look in the epoch's plan
//! table ([`Memo`]), then the plan cache, and build on a miss. Every
//! plan request takes that one lookup: a gather's plan, the combining
//! family's routing plan, the tuner's winner and a robust request's
//! plan.

use super::{CommError, DistGraphComm};
use crate::autotune::{candidates, TuneOutcome};
use crate::bruck::plan_bruck;
use crate::builder::{build_pattern_recorded_v, BuildError, PairingStrategy};
use crate::common_neighbor::plan_common_neighbor;
use crate::exec::sim_exec::{simulate, simulate_v, SimCost};
use crate::leader::plan_hierarchical_leader;
use crate::lower::lower_pooled;
use crate::naive::plan_naive;
use crate::pattern::DhPattern;
use crate::plan::{Algorithm, CollectivePlan};
use crate::plan_cache::{PlanCache, PlanFingerprint};
use crate::remap::{locality_order, reranked};
use crate::sizes::{BlockSizes, LoadMetric};
use nhood_cluster::Placement;
use nhood_simnet::SimReport;
use nhood_telemetry::{labels, Recorder, NULL};
use nhood_topology::Topology;
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard};

/// One topology epoch's plan table: at most one entry per normalized
/// [`Algorithm`] (`Auto` included), each a function of the graph, the
/// layout and the load metric — what defines the epoch — and of its key.
/// A warm request finds its plan with one lookup under one lock and
/// never re-hashes its topology; only an epoch change replaces the table.
#[derive(Debug, Default)]
pub(super) struct Memo {
    pub(super) plans: Vec<Entry>,
}

/// A plan resolved this epoch, keyed by its algorithm and
/// [`DistGraphComm::keyed_sizes`].
#[derive(Clone, Debug)]
pub(super) struct Entry {
    pub(super) algo: Algorithm,
    pub(super) sizes: Option<BlockSizes>,
    pub(super) plan: Arc<CollectivePlan>,
    /// Distance Halving's churn state, installed by
    /// [`DistGraphComm::mutate`] alone: the pattern the repair engine
    /// patches, and the surgical repairs since its last full build.
    pub(super) pattern: Option<Arc<DhPattern>>,
    pub(super) repairs: u32,
}

impl Memo {
    /// The entry for `algo` at the keyed size table `sizes`.
    pub(super) fn get(&self, algo: Algorithm, sizes: Option<&BlockSizes>) -> Option<&Entry> {
        self.plans.iter().find(|e| e.algo == algo && e.sizes.as_ref() == sizes)
    }

    /// Installs `entry` in place of its algorithm's entry at another key,
    /// unless that one carries churn state: only `mutate` replaces the
    /// live plan, so a request at another size table leaves it to repair.
    /// An entry already at `entry`'s key stays: the plan it holds is the
    /// one its requests have been served.
    pub(super) fn insert(&mut self, entry: Entry) {
        match self.plans.iter_mut().find(|e| e.algo == entry.algo) {
            Some(slot) if slot.pattern.is_none() && slot.sizes != entry.sizes => *slot = entry,
            Some(_) => {}
            None => self.plans.push(entry),
        }
    }
}

impl DistGraphComm {
    /// Builds (and validates) the data-movement plan for an algorithm.
    /// Construction runs on the communicator's build pool
    /// ([`Self::with_build_threads`]); the plan cache is **not**
    /// consulted — use [`Self::plan_shared`] for the cached path.
    pub fn plan(&self, algo: Algorithm) -> Result<CollectivePlan, CommError> {
        self.build_plan_recorded(algo, &self.planning_sizes(), &NULL)
    }

    /// One Distance Halving pattern build on this communicator's layout
    /// and build pool — the sequential builder's full form with the
    /// paper's load-aware pairing.
    pub(super) fn dh_pattern(
        &self,
        graph: &Topology,
        sizes: &BlockSizes,
        metric: LoadMetric,
        rec: &dyn Recorder,
    ) -> Result<DhPattern, BuildError> {
        let strategy = PairingStrategy::LoadAware;
        build_pattern_recorded_v(
            graph,
            &self.layout,
            strategy,
            sizes,
            metric,
            &self.build_pool,
            rec,
        )
    }

    /// Lowers `pattern` on the build pool and validates the plan.
    pub(super) fn lower_checked(
        &self,
        pattern: &DhPattern,
        graph: &Topology,
    ) -> Result<CollectivePlan, CommError> {
        let plan = lower_pooled(pattern, graph, &self.build_pool);
        plan.validate(graph).map_err(CommError::InvalidPlan)?;
        Ok(plan)
    }

    /// The placement rule, in its one place. Distance Halving, the leader
    /// hierarchy and Bruck read locality off rank numbers, so each plans
    /// `graph` at `sizes` in rank order through `build`: directly on block
    /// placement, where rank order is locality order, and otherwise
    /// through [`reranked`] in [`locality_order`]. The flag says whether
    /// the plan was relabelled.
    fn in_locality_order<E>(
        &self,
        graph: &Topology,
        sizes: &BlockSizes,
        build: impl FnOnce(&Topology, &BlockSizes) -> Result<CollectivePlan, E>,
    ) -> Result<(CollectivePlan, bool), E> {
        if self.layout.placement() == Placement::Block {
            return Ok((build(graph, sizes)?, false));
        }
        let order = locality_order(&self.layout, graph.n());
        Ok((reranked(graph, &order, sizes, build)?, true))
    }

    /// Distance Halving on `graph`, validated, in locality order
    /// ([`Self::in_locality_order`]). The pattern comes back beside a plan
    /// built in place (churn repair patches it); a relabelled plan keeps
    /// none, because repair patches patterns in rank space.
    pub(super) fn dh_plan(
        &self,
        graph: &Topology,
        sizes: &BlockSizes,
        rec: &dyn Recorder,
    ) -> Result<(CollectivePlan, Option<DhPattern>), CommError> {
        let mut pattern = None;
        let (plan, relabelled) = self.in_locality_order(graph, sizes, |graph, sizes| {
            let dh = self.dh_pattern(graph, sizes, self.metric, rec)?;
            rec.span_begin(0, labels::PLAN_LOWER);
            let plan = lower_pooled(&dh, graph, &self.build_pool);
            rec.span_end(0, labels::PLAN_LOWER);
            pattern = Some(dh);
            Ok::<_, BuildError>(plan)
        })?;
        plan.validate(graph).map_err(CommError::InvalidPlan)?;
        Ok((plan, pattern.filter(|_| !relabelled)))
    }

    /// The uncached build path shared by [`Self::plan`] and cache
    /// misses.
    fn build_plan_recorded(
        &self,
        algo: Algorithm,
        sizes: &BlockSizes,
        rec: &dyn Recorder,
    ) -> Result<CollectivePlan, CommError> {
        let (graph, layout) = (&self.graph, &self.layout);
        let plan = match self.normalize_algorithm(algo)? {
            Algorithm::Naive => plan_naive(graph),
            Algorithm::CommonNeighbor { k } => plan_common_neighbor(graph, k),
            Algorithm::DistanceHalving => {
                return self.dh_plan(graph, sizes, rec).map(|(plan, _)| plan);
            }
            Algorithm::HierarchicalLeader { leaders_per_node: l } => {
                let build =
                    |g: &_, _: &_| Ok::<_, CommError>(plan_hierarchical_leader(g, layout, l));
                self.in_locality_order(graph, sizes, build)?.0
            }
            Algorithm::Bruck => {
                let build = |g: &_, _: &_| Ok::<_, CommError>(plan_bruck(g, layout));
                self.in_locality_order(graph, sizes, build)?.0
            }
            Algorithm::Pat { radix } => crate::pat::plan_pat(graph, radix),
            Algorithm::Auto => {
                // The tuner validates (and memoizes) the winner.
                return self.plan_shared_sized(algo, sizes, rec).map(|p| (*p).clone());
            }
        };
        plan.validate(graph).map_err(CommError::InvalidPlan)?;
        Ok(plan)
    }

    /// Validates and canonicalizes an algorithm choice for this
    /// communicator. Parameters with no sensible reading —
    /// `CommonNeighbor { k: 0 }`, `Pat { radix: 0 | 1 }`,
    /// `HierarchicalLeader { leaders_per_node: 0 }` — return
    /// [`CommError::BadAlgorithmParam`]. An oversized Common Neighbor
    /// group (`k > n`) is **clamped to `n`** (one group spanning every
    /// rank), documented behaviour that also canonicalizes the plan
    /// cache key: `k = n` and `k = 10·n` request the same plan and
    /// share a slot. `k = 1` (every rank its own group) and `k` not
    /// dividing `n` (a ragged trailing group) are valid as-is.
    pub fn normalize_algorithm(&self, algo: Algorithm) -> Result<Algorithm, CommError> {
        match algo {
            Algorithm::CommonNeighbor { k: 0 } => Err(CommError::BadAlgorithmParam {
                algorithm: algo,
                reason: "group size k must be at least 1",
            }),
            Algorithm::CommonNeighbor { k } if k > self.n() && self.n() > 0 => {
                Ok(Algorithm::CommonNeighbor { k: self.n() })
            }
            Algorithm::Pat { radix } if radix < 2 => Err(CommError::BadAlgorithmParam {
                algorithm: algo,
                reason: "aggregation radix must be at least 2",
            }),
            Algorithm::HierarchicalLeader { leaders_per_node: 0 } => {
                Err(CommError::BadAlgorithmParam {
                    algorithm: algo,
                    reason: "need at least one leader per node",
                })
            }
            other => Ok(other),
        }
    }

    /// The concrete algorithm a request for `algo` executes:
    /// [`Algorithm::Auto`] resolves to the tuner's winner for this
    /// communicator's current fingerprint (tuning now if the winner is
    /// not yet cached), anything else just normalizes.
    pub fn resolve_algorithm(&self, algo: Algorithm) -> Result<Algorithm, CommError> {
        match self.normalize_algorithm(algo)? {
            Algorithm::Auto => Ok(self.plan_shared(Algorithm::Auto)?.algorithm),
            concrete => Ok(concrete),
        }
    }

    /// The cache key this communicator's [`Algorithm::Auto`] winner
    /// lives under — [`PlanFingerprint::of_tuner`] over the current
    /// topology, layout, planning sizes, load metric and the tuner's cost
    /// model, [`SimCost::niagara`].
    pub fn tuner_fingerprint(&self) -> PlanFingerprint {
        self.cache_key(Algorithm::Auto, &self.planning_sizes())
    }

    /// The cache key of a request for `algo` (normalized) at `sizes`:
    /// [`PlanFingerprint::of_tuner`] for [`Algorithm::Auto`],
    /// [`PlanFingerprint::of_build_v`] for a concrete algorithm.
    pub(super) fn cache_key(&self, algo: Algorithm, sizes: &BlockSizes) -> PlanFingerprint {
        let (graph, layout) = (&self.graph, &self.layout);
        if algo == Algorithm::Auto {
            let cost = format!("{:?}", SimCost::niagara());
            return PlanFingerprint::of_tuner(graph, layout, sizes, self.metric, &cost);
        }
        PlanFingerprint::of_build_v(graph, layout, algo, sizes, self.metric)
    }

    /// The size table an entry for `algo` is keyed at, by the cache keys'
    /// rule: under [`LoadMetric::Bytes`], whose matching reads it, and
    /// for [`Algorithm::Auto`], whose tuner scores bytes under either
    /// metric. [`LoadMetric::Neighbors`] builds ignore it.
    pub(super) fn keyed_sizes<'s>(
        &self,
        algo: Algorithm,
        sizes: &'s BlockSizes,
    ) -> Option<&'s BlockSizes> {
        (algo == Algorithm::Auto || self.metric == LoadMetric::Bytes).then_some(sizes)
    }

    /// The communicator's memo cell: what it resolved for its current
    /// topology epoch.
    pub(super) fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().expect("memo poisoned")
    }

    /// Runs one full tuning pass for this communicator's planning sizes
    /// — every portfolio candidate ([`crate::autotune::candidates`]) is
    /// built and scored under [`SimCost::niagara`]; the strict-minimum
    /// makespan wins, ties breaking toward the earlier candidate. This
    /// always simulates; the cached entry points are
    /// [`Algorithm::Auto`] requests and [`Self::resolve_algorithm`].
    pub fn tune(&self) -> Result<TuneOutcome, CommError> {
        let sizes = self.planning_sizes();
        self.tune_candidates(&candidates(&self.graph, &self.layout, &sizes), &sizes, &NULL)
    }

    /// [`Self::tune`] over an explicit candidate list. Candidates whose
    /// build fails are skipped; at least one candidate must build.
    ///
    /// # Errors
    /// [`CommError::BadAlgorithmParam`] for an empty `cands`; the last
    /// build error when no candidate builds.
    pub fn tune_candidates(
        &self,
        cands: &[Algorithm],
        sizes: &BlockSizes,
        rec: &dyn Recorder,
    ) -> Result<TuneOutcome, CommError> {
        let cost = SimCost::niagara();
        let lens: Vec<usize> = (0..self.n()).map(|r| sizes.size(r)).collect();
        let mut scores: Vec<(Algorithm, f64)> = Vec::with_capacity(cands.len());
        let mut sims = 0u64;
        let mut best: Option<(f64, Algorithm, CollectivePlan)> = None;
        let mut last_err = None;
        for &cand in cands {
            debug_assert_ne!(cand, Algorithm::Auto, "the tuner only scores concrete candidates");
            let plan = match self.build_plan_recorded(cand, sizes, rec) {
                Ok(p) => p,
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            };
            let t = simulate_v(&plan, &self.layout, &lens, &cost)?.makespan;
            sims += 1;
            scores.push((plan.algorithm, t));
            if best.as_ref().is_none_or(|(bt, ..)| t < *bt) {
                best = Some((t, plan.algorithm, plan));
            }
        }
        self.tuner_sims.fetch_add(sims, Ordering::Relaxed);
        let Some((_, winner, plan)) = best else {
            return Err(last_err.unwrap_or(CommError::BadAlgorithmParam {
                algorithm: Algorithm::Auto,
                reason: "need at least one candidate to tune over",
            }));
        };
        Ok(TuneOutcome { winner, scores, simulations: sims, plan: Arc::new(plan) })
    }

    /// [`Self::plan`] through this epoch's memo and the attached
    /// [`PlanCache`]: a plan resolved
    /// before in this topology epoch is returned with no fingerprint,
    /// cache lookup, build or validation work, so a communicator builds
    /// each algorithm's plan once per epoch, with or without a cache. A
    /// first request takes it from the cache (plans are validated before
    /// insertion, and disk-tier loads are re-validated inside the cache)
    /// or builds it.
    pub fn plan_shared(&self, algo: Algorithm) -> Result<Arc<CollectivePlan>, CommError> {
        self.plan_shared_sized(algo, &self.planning_sizes(), &NULL)
    }

    /// The one plan lookup every request goes through — a gather's plan,
    /// the combining family's routing plan, the tuner's winner: this
    /// epoch's memo entry for `algo` at `sizes` ([`Memo::get`]), else the
    /// attached cache under [`Self::cache_key`], else a build (a tuning
    /// pass for [`Algorithm::Auto`], whose winner is cached under both
    /// the tuner key and its own build key); a miss installs its plan in
    /// the memo — an `Auto` plan under the winner's algorithm as well, so
    /// an explicit request for the winner is served the same plan. Only
    /// a tuning pass performs candidate simulations
    /// ([`Self::tuner_sims`]). `rec` sees the lookup's `plan_cache` hit
    /// or miss (against rank 0, the communicator-wide event's
    /// representative) and a cold build's build/lower spans.
    pub(super) fn plan_shared_sized(
        &self,
        algo: Algorithm,
        sizes: &BlockSizes,
        rec: &dyn Recorder,
    ) -> Result<Arc<CollectivePlan>, CommError> {
        // Normalize first: the clamp must land before the lookup so
        // equivalent requests (k = n vs k = 10·n) share an entry.
        let algo = self.normalize_algorithm(algo)?;
        let keyed = self.keyed_sizes(algo, sizes);
        if let Some(entry) = self.memo().get(algo, keyed) {
            rec.plan_cache(0, true);
            return Ok(Arc::clone(&entry.plan));
        }
        let cached = self.cache.as_ref().map(|cache| (cache, self.cache_key(algo, sizes)));
        let plan = match cached {
            _ if algo == Algorithm::Auto => self.tuned(cached, sizes, rec)?,
            Some((cache, key)) => {
                let build = || self.build_plan_recorded(algo, sizes, rec);
                let (plan, hit) = cache.get_or_build(key, &self.graph, build)?;
                rec.plan_cache(0, hit);
                plan
            }
            None => {
                rec.plan_cache(0, false);
                Arc::new(self.build_plan_recorded(algo, sizes, rec)?)
            }
        };
        let entry = Entry { algo, sizes: None, plan: Arc::clone(&plan), pattern: None, repairs: 0 };
        let mut memo = self.memo();
        if algo == Algorithm::Auto {
            // the tuner built the winner: its algorithm's requests are served that plan
            let winner = plan.algorithm;
            let sizes = self.keyed_sizes(winner, sizes).cloned();
            memo.insert(Entry { algo: winner, sizes, ..entry.clone() });
        }
        memo.insert(Entry { sizes: keyed.cloned(), ..entry });
        Ok(plan)
    }

    /// The tuner's winner at `sizes`: from the attached cache under the
    /// tuner key, or a full tuning pass.
    fn tuned(
        &self,
        cached: Option<(&Arc<PlanCache>, PlanFingerprint)>,
        sizes: &BlockSizes,
        rec: &dyn Recorder,
    ) -> Result<Arc<CollectivePlan>, CommError> {
        if let Some(plan) = cached.and_then(|(cache, key)| cache.lookup(key, &self.graph)) {
            rec.plan_cache(0, true);
            return Ok(plan);
        }
        rec.plan_cache(0, false);
        let outcome =
            self.tune_candidates(&candidates(&self.graph, &self.layout, sizes), sizes, rec)?;
        if let Some((cache, key)) = cached {
            cache.insert_validated(key, Arc::clone(&outcome.plan), &self.graph);
            // Also park the winner under its own build key: a later
            // explicit request for the winning algorithm (same sizes
            // and metric) hits instead of rebuilding.
            let canonical = self.cache_key(outcome.winner, sizes);
            cache.insert_validated(canonical, Arc::clone(&outcome.plan), &self.graph);
        }
        Ok(outcome.plan)
    }

    /// The concrete algorithm a combining-family request routes under:
    /// [`Algorithm::Auto`] maps to Distance Halving — the tuner scores
    /// gather schedules, not item routings — and the result shares the
    /// memo entry with explicit Distance Halving requests.
    pub(super) fn combining_algorithm(&self, algo: Algorithm) -> Result<Algorithm, CommError> {
        match self.normalize_algorithm(algo)? {
            Algorithm::Auto => Ok(Algorithm::DistanceHalving),
            concrete => Ok(concrete),
        }
    }

    /// The **uncached**, validated build of the plan whose item routing
    /// the combining family executes under `algo` — what a cold
    /// combining request pays before [`Self::collective`] memoizes it
    /// ([`Algorithm::Auto`] routes as Distance Halving; default sizes).
    pub fn alltoall_plan(&self, algo: Algorithm) -> Result<CollectivePlan, CommError> {
        self.build_plan_recorded(self.combining_algorithm(algo)?, &BlockSizes::default(), &NULL)
    }

    /// Simulated latency of `algo` at per-rank message size `m`.
    pub fn latency(
        &self,
        algo: Algorithm,
        m: usize,
        cost: &SimCost,
    ) -> Result<SimReport, CommError> {
        let plan = self.plan(algo)?;
        Ok(simulate(&plan, &self.layout, m, cost)?)
    }
}
