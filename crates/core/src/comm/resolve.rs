//! Plan resolution: how an [`Algorithm`] choice becomes a plan on this
//! communicator — normalize the parameters, fingerprint the request,
//! consult the churn slot / plan cache / the epoch's memo, and build on
//! a miss. The combining family resolves its routing plan down the same
//! path and keeps it in the same memo.

use super::{ChurnSlot, CommError, DistGraphComm, Memo, TunerEntry};
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
use crate::plan_cache::PlanFingerprint;
use crate::remap::{locality_order, reranked};
use crate::sizes::{BlockSizes, LoadMetric};
use nhood_cluster::Placement;
use nhood_simnet::SimReport;
use nhood_telemetry::{labels, Recorder, NULL};
use nhood_topology::Topology;
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard};

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
                // The tuner validates (and usually caches) the winner.
                return self.resolve_auto(sizes, rec).map(|p| (*p).clone());
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
    /// not yet cached), anything else just normalizes. The service's
    /// batching keys on the result, so Auto tenants coalesce with
    /// tenants that picked the winner explicitly.
    pub fn resolve_algorithm(&self, algo: Algorithm) -> Result<Algorithm, CommError> {
        match self.normalize_algorithm(algo)? {
            Algorithm::Auto => Ok(self.resolve_auto(&self.planning_sizes(), &NULL)?.algorithm),
            concrete => Ok(concrete),
        }
    }

    /// The cache key this communicator's [`Algorithm::Auto`] winner
    /// lives under — [`PlanFingerprint::of_tuner`] over the current
    /// topology, layout, planning sizes, load metric and the tuner's cost
    /// model, [`SimCost::niagara`].
    pub fn tuner_fingerprint(&self) -> PlanFingerprint {
        self.tuner_fingerprint_sized(&self.planning_sizes())
    }

    pub(super) fn tuner_fingerprint_sized(&self, sizes: &BlockSizes) -> PlanFingerprint {
        self.tuner_entry(&mut self.memo(), sizes).key
    }

    /// This epoch's tuner entry at `sizes`: the memo's, or a fresh one
    /// keyed now (hashing the topology) in its place.
    fn tuner_entry<'m>(&self, memo: &'m mut Memo, sizes: &BlockSizes) -> &'m mut TunerEntry {
        let kept = memo.tuner.take().filter(|entry| entry.sizes == *sizes);
        memo.tuner.insert(kept.unwrap_or_else(|| {
            let cost = format!("{:?}", SimCost::niagara());
            let (graph, layout) = (&self.graph, &self.layout);
            let key = PlanFingerprint::of_tuner(graph, layout, sizes, self.metric, &cost);
            TunerEntry { sizes: sizes.clone(), key, winner: None }
        }))
    }

    /// The communicator's memo cell: what it resolved for its current
    /// topology epoch.
    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().expect("memo poisoned")
    }

    /// Serves the auto-tuner's winning plan: memo, then the attached
    /// plan cache under the tuner key, then a full tuning pass whose
    /// winner is cached under both the tuner key and the winner's own
    /// canonical build key. Only the tuning pass performs candidate
    /// simulations ([`Self::tuner_sims`]).
    fn resolve_auto(
        &self,
        sizes: &BlockSizes,
        rec: &dyn Recorder,
    ) -> Result<Arc<CollectivePlan>, CommError> {
        let key = {
            let mut memo = self.memo();
            let entry = self.tuner_entry(&mut memo, sizes);
            if let Some(plan) = &entry.winner {
                rec.plan_cache(0, true);
                return Ok(Arc::clone(plan));
            }
            entry.key
        };
        if let Some(plan) = self.cache.as_ref().and_then(|cache| cache.lookup(key, &self.graph)) {
            rec.plan_cache(0, true);
            self.tuner_entry(&mut self.memo(), sizes).winner = Some(Arc::clone(&plan));
            return Ok(plan);
        }
        rec.plan_cache(0, false);
        let outcome =
            self.tune_candidates(&candidates(&self.graph, &self.layout, sizes), sizes, rec)?;
        let plan = outcome.plan;
        if let Some(cache) = &self.cache {
            cache.insert_validated(key, Arc::clone(&plan), &self.graph);
            // Also park the winner under its own build key: a later
            // explicit request for the winning algorithm (same sizes
            // and metric) hits instead of rebuilding.
            let canonical = PlanFingerprint::of_build_v(
                &self.graph,
                &self.layout,
                outcome.winner,
                sizes,
                self.metric,
            );
            cache.insert_validated(canonical, Arc::clone(&plan), &self.graph);
        }
        self.tuner_entry(&mut self.memo(), sizes).winner = Some(Arc::clone(&plan));
        Ok(plan)
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

    /// [`Self::plan`] through the attached
    /// [`PlanCache`](crate::plan_cache::PlanCache): on a hit the cached
    /// `Arc` is returned with no build or validation work (plans are
    /// validated before insertion, and disk-tier loads are re-validated
    /// inside the cache). Without an attached cache this is a plain
    /// build wrapped in an `Arc`.
    pub fn plan_shared(&self, algo: Algorithm) -> Result<Arc<CollectivePlan>, CommError> {
        self.plan_shared_sized(algo, &self.planning_sizes(), &NULL)
    }

    /// A live churn slot holds THE current Distance Halving pattern and
    /// plan for this communicator's (possibly mutated) topology: when it
    /// was negotiated against `sizes` it is served — recorded as a plan
    /// cache hit — without touching the cache, rebuilding or
    /// renegotiating.
    pub(super) fn live_slot(&self, sizes: &BlockSizes, rec: &dyn Recorder) -> Option<&ChurnSlot> {
        let slot = self.churn.as_ref().filter(|slot| slot.sizes == *sizes)?;
        rec.plan_cache(0, true);
        Some(slot)
    }

    /// The sized planning path behind every cached build: the cache key
    /// is [`PlanFingerprint::of_build_v`] over this communicator's
    /// metric and `sizes`, so a Bytes-metric ragged build can never be
    /// served a plan negotiated for different block sizes. `rec` sees
    /// the lookup's `plan_cache` hit or miss (against rank 0, the
    /// communicator-wide event's representative) and a cold build's
    /// build/lower spans.
    pub(super) fn plan_shared_sized(
        &self,
        algo: Algorithm,
        sizes: &BlockSizes,
        rec: &dyn Recorder,
    ) -> Result<Arc<CollectivePlan>, CommError> {
        // Normalize first: the clamp must land before fingerprinting so
        // equivalent requests (k = n vs k = 10·n) share a cache slot.
        let algo = self.normalize_algorithm(algo)?;
        if algo == Algorithm::Auto {
            return self.resolve_auto(sizes, rec);
        }
        if algo == Algorithm::DistanceHalving {
            if let Some(slot) = self.live_slot(sizes, rec) {
                return Ok(Arc::clone(&slot.plan));
            }
        }
        let Some(cache) = &self.cache else {
            rec.plan_cache(0, false);
            return Ok(Arc::new(self.build_plan_recorded(algo, sizes, rec)?));
        };
        let fp = PlanFingerprint::of_build_v(&self.graph, &self.layout, algo, sizes, self.metric);
        let (plan, hit) =
            cache.get_or_build(fp, &self.graph, || self.build_plan_recorded(algo, sizes, rec))?;
        rec.plan_cache(0, hit);
        Ok(plan)
    }

    /// The concrete algorithm a combining-family request routes under:
    /// [`Algorithm::Auto`] maps to Distance Halving — the tuner scores
    /// gather schedules, not item routings — and the result shares the
    /// memo slot with explicit Distance Halving requests.
    pub(super) fn combining_algorithm(&self, algo: Algorithm) -> Result<Algorithm, CommError> {
        match self.normalize_algorithm(algo)? {
            Algorithm::Auto => Ok(Algorithm::DistanceHalving),
            concrete => Ok(concrete),
        }
    }

    /// The combining family's plan path: alltoallv, reduce_scatter and
    /// allreduce execute the item routing of one gather plan — resolved
    /// like any gather's ([`Self::plan_shared`]: live churn slot, plan
    /// cache, build). The plan sits in the epoch's memo, checked *before*
    /// plan resolution: a warm request takes it from there (and its
    /// program from the arena it runs on), and a cache-less communicator
    /// builds its routing plan once per topology epoch, not per request.
    ///
    /// The plan is negotiated at default sizes whatever table is pinned:
    /// a pinned table sizes gather blocks, the combining ops size theirs
    /// per request. On uniform sizes both load metrics order candidates
    /// alike, so the routes are [`LoadMetric::Neighbors`]'s.
    pub(super) fn routing_plan(
        &self,
        algo: Algorithm,
        rec: &dyn Recorder,
    ) -> Result<Arc<CollectivePlan>, CommError> {
        let algo = self.combining_algorithm(algo)?;
        if let Some((_, plan)) = self.memo().routing.as_ref().filter(|(of, _)| *of == algo) {
            rec.plan_cache(0, true);
            return Ok(Arc::clone(plan));
        }
        // the shared path reports its own hit or miss
        let plan = self.plan_shared_sized(algo, &BlockSizes::default(), rec)?;
        self.memo().routing = Some((algo, Arc::clone(&plan)));
        Ok(plan)
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

    /// Sweeps Common Neighbor over `ks` and returns `(k, plan)` with the
    /// lowest simulated latency at message size `m` — the paper launches
    /// CN "with various values of K" and reports the best.
    ///
    /// # Errors
    /// [`CommError::BadAlgorithmParam`] for an empty `ks`.
    pub fn best_common_neighbor(
        &self,
        ks: &[usize],
        m: usize,
        cost: &SimCost,
    ) -> Result<(usize, CollectivePlan), CommError> {
        let mut best: Option<(f64, usize, CollectivePlan)> = None;
        for &k in ks {
            let plan = self.plan(Algorithm::CommonNeighbor { k })?;
            let t = simulate(&plan, &self.layout, m, cost)?.makespan;
            if best.as_ref().is_none_or(|(bt, ..)| t < *bt) {
                best = Some((t, k, plan));
            }
        }
        let (_, k, plan) = best.ok_or(CommError::BadAlgorithmParam {
            algorithm: Algorithm::CommonNeighbor { k: 0 },
            reason: "need at least one K to sweep",
        })?;
        Ok((k, plan))
    }
}
