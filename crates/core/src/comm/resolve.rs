//! Plan resolution: how an [`Algorithm`] choice becomes a plan on this
//! communicator — normalize the parameters, look in the epoch's plan
//! table ([`Memo`]), then the plan cache, and build on a miss. Every
//! plan request, robust ones included, takes that one lookup.

use super::{CommError, DistGraphComm};
use crate::autotune::{candidates, TuneOutcome};
use crate::bruck::plan_bruck;
use crate::builder::{build_pattern_recorded_v, BuildError, PairingStrategy};
use crate::collective::program::Checked;
use crate::common_neighbor::plan_common_neighbor;
use crate::exec::sim_exec::{simulate, simulate_v, SimCost};
use crate::exec::ExecOptions;
use crate::leader::plan_hierarchical_leader;
use crate::lower::lower_pooled;
use crate::naive::plan_naive;
use crate::negotiate::build_pattern_distributed_pooled_v;
use crate::pattern::DhPattern;
use crate::plan::{Algorithm, CollectivePlan};
use crate::plan_cache::PlanFingerprint;
use crate::remap::Relabel;
use crate::sizes::{BlockSizes, LoadMetric};
use nhood_simnet::SimReport;
use nhood_telemetry::{labels, Recorder, NULL};
use nhood_topology::Topology;
use std::borrow::Cow;
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
    /// The plan allocation in its cell, made where the allocation was:
    /// its one verdict on this epoch's topology, whoever asks first.
    pub(super) plan: Arc<Checked>,
    /// Distance Halving's churn state: the pattern the plan is lowered
    /// from, in virtual ranks (`None` for a plan the cache or the tuner
    /// served), and the surgical repairs since its last build.
    pub(super) pattern: Option<Arc<DhPattern>>,
    pub(super) repairs: u32,
}

impl Memo {
    /// The entry for `algo` at the keyed size table `sizes`.
    pub(super) fn get(&self, algo: Algorithm, sizes: Option<&BlockSizes>) -> Option<&Entry> {
        self.plans.iter().find(|e| e.algo == algo && e.sizes.as_ref() == sizes)
    }

    /// Installs a request's `entry` in place of its algorithm's entry at
    /// another key, but for the live one — Distance Halving's at the
    /// `planning` size table — which only [`Self::install_live`] replaces.
    /// An entry at `entry`'s key stays: its requests have been served it.
    pub(super) fn insert(&mut self, entry: Entry, planning: &BlockSizes) {
        let live =
            |e: &Entry| e.algo == Algorithm::DistanceHalving && e.sizes.as_ref() == Some(planning);
        match self.plans.iter_mut().find(|e| e.algo == entry.algo) {
            Some(e) if e.sizes == entry.sizes || live(e) => {}
            Some(e) => *e = entry,
            None => self.plans.push(entry),
        }
    }

    /// Installs `entry`, a plan with its pattern, as its algorithm's live
    /// entry in place of any other; an equal plan at the same key keeps
    /// the `Arc` its requests have been served.
    pub(super) fn install_live(
        &mut self,
        mut entry: Entry,
    ) -> (Arc<Checked>, Option<Arc<DhPattern>>) {
        let same = |e: &&Entry| **e.plan == **entry.plan;
        if let Some(e) = self.get(entry.algo, entry.sizes.as_ref()).filter(same) {
            entry.plan = Arc::clone(&e.plan);
        }
        self.plans.retain(|e| e.algo != entry.algo);
        let live = (Arc::clone(&entry.plan), entry.pattern.clone());
        self.plans.push(entry);
        live
    }
}

impl DistGraphComm {
    /// Builds and checks the data-movement plan for an algorithm
    /// ([`CommError::InvalidPlan`]). Construction runs on the
    /// communicator's build pool ([`Self::with_build_threads`]); the plan
    /// cache is **not** consulted — use [`Self::plan_shared`] for the
    /// cached path.
    pub fn plan(&self, algo: Algorithm) -> Result<CollectivePlan, CommError> {
        self.checked(algo, &self.planning_sizes())
    }

    /// An uncached build of `algo` at `sizes`, checked through its cell.
    fn checked(&self, algo: Algorithm, sizes: &BlockSizes) -> Result<CollectivePlan, CommError> {
        let (plan, _) = self.build_plan_recorded(algo, sizes, &NULL)?;
        Checked::new(&plan).check(&self.graph).map_err(CommError::InvalidPlan)?;
        Ok(plan)
    }

    /// One Distance Halving pattern build on this communicator's layout and
    /// build pool, with the paper's load-aware pairing.
    pub(super) fn dh_pattern(
        &self,
        graph: &Topology,
        sizes: &BlockSizes,
        metric: LoadMetric,
        rec: &dyn Recorder,
    ) -> Result<DhPattern, BuildError> {
        let (layout, pool, pairing) = (&self.layout, &self.build_pool, PairingStrategy::LoadAware);
        build_pattern_recorded_v(graph, layout, pairing, sizes, metric, pool, rec)
    }

    /// `x` in the virtual ranks the rank-order builders plan and patterns
    /// live in: [`crate::remap::locality_order`] off block placement.
    pub(super) fn to_virtual<'a, T: Relabel>(&self, x: &'a T) -> Cow<'a, T> {
        self.order.as_ref().map_or(Cow::Borrowed(x), |o| Cow::Owned(x.relabelled(&o.virtual_of)))
    }

    /// `x`, named in virtual ranks, back in physical ones.
    pub(super) fn to_physical<T: Relabel>(&self, x: T) -> T {
        match &self.order {
            Some(order) => x.relabelled(&order.physical),
            None => x,
        }
    }

    /// Distance Halving on `graph` beside its pattern in virtual ranks:
    /// built, or negotiated over `negotiate` (its faults relabelled).
    pub(super) fn dh_plan(
        &self,
        graph: &Topology,
        sizes: &BlockSizes,
        rec: &dyn Recorder,
        negotiate: Option<&ExecOptions<'_>>,
    ) -> Result<(CollectivePlan, DhPattern), CommError> {
        let (vgraph, vsizes) = (self.to_virtual(graph), self.to_virtual(sizes));
        let pattern = match negotiate {
            None => self.dh_pattern(&vgraph, &vsizes, self.metric, rec)?,
            Some(opts) => {
                let fault = opts.fault.map(|fp| self.to_virtual(fp));
                let opts = ExecOptions { fault: fault.as_deref(), ..*opts };
                let (layout, metric, pool) = (&self.layout, self.metric, &self.build_pool);
                build_pattern_distributed_pooled_v(&vgraph, layout, &vsizes, metric, pool, &opts)?
            }
        };
        rec.span_begin(0, labels::PLAN_LOWER);
        let plan = self.to_physical(lower_pooled(&pattern, &vgraph, &self.build_pool));
        rec.span_end(0, labels::PLAN_LOWER);
        Ok((plan, pattern))
    }

    /// The uncached build path shared by [`Self::plan`], the tuner's arms
    /// and cache misses: the plan, unchecked, and Distance Halving's
    /// pattern beside it.
    fn build_plan_recorded(
        &self,
        algo: Algorithm,
        sizes: &BlockSizes,
        rec: &dyn Recorder,
    ) -> Result<(CollectivePlan, Option<DhPattern>), CommError> {
        let (graph, layout) = (&self.graph, &self.layout);
        let plan = match self.normalize_algorithm(algo)? {
            Algorithm::Naive => plan_naive(graph),
            Algorithm::CommonNeighbor { k } => plan_common_neighbor(graph, k),
            Algorithm::DistanceHalving => {
                return self.dh_plan(graph, sizes, rec, None).map(|(plan, p)| (plan, Some(p)));
            }
            Algorithm::HierarchicalLeader { leaders_per_node: l } => {
                self.to_physical(plan_hierarchical_leader(&self.to_virtual(graph), layout, l))
            }
            Algorithm::Bruck => self.to_physical(plan_bruck(&self.to_virtual(graph), layout)),
            Algorithm::Pat { radix } => crate::pat::plan_pat(graph, radix),
            Algorithm::Auto => {
                // the tuner's winner (memoized)
                let winner = self.plan_shared_sized(algo, sizes, rec)?;
                return Ok((CollectivePlan::clone(&winner), None));
            }
        };
        Ok((plan, None))
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
    /// build fails are skipped; at least one candidate must build. No arm
    /// is checked; an [`Algorithm::Auto`] resolution checks the winner.
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
                Ok((p, _)) => p,
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
    /// [`PlanCache`](crate::plan_cache::PlanCache): a plan resolved before
    /// in this topology epoch costs no fingerprint, lookup, build or check,
    /// so a communicator builds each plan once per epoch, with or without a
    /// cache. A first request takes it from the cache or builds it. Its
    /// cell is asked once: by the tuning pass or a cache insert
    /// ([`CommError::InvalidPlan`]), else by its first request.
    pub fn plan_shared(&self, algo: Algorithm) -> Result<Arc<CollectivePlan>, CommError> {
        let cell = self.plan_shared_sized(algo, &self.planning_sizes(), &NULL)?;
        Ok(Arc::clone(&cell.plan))
    }

    /// The one plan lookup every request takes — a gather's plan, the
    /// combining family's routing plan, the tuner's winner: this epoch's
    /// memo entry for `algo` at `sizes` ([`Memo::get`]), else the attached
    /// cache under [`Self::cache_key`], else a build (for
    /// [`Algorithm::Auto`] a tuning pass, the one path that simulates,
    /// whose winner is cached under the tuner key and its own build key).
    /// A miss installs its plan in the memo, an `Auto` plan under the
    /// winner's algorithm too. `rec` sees the lookup's `plan_cache` hit or
    /// miss (against rank 0, the communicator-wide event's representative)
    /// and a build's spans. The plan comes in the cell made with it.
    pub(super) fn plan_shared_sized(
        &self,
        algo: Algorithm,
        sizes: &BlockSizes,
        rec: &dyn Recorder,
    ) -> Result<Arc<Checked>, CommError> {
        // Normalize first: the clamp must land before the lookup so
        // equivalent requests (k = n vs k = 10·n) share an entry.
        let algo = self.normalize_algorithm(algo)?;
        let keyed = self.keyed_sizes(algo, sizes);
        if let Some(entry) = self.memo().get(algo, keyed) {
            rec.plan_cache(0, true);
            return Ok(Arc::clone(&entry.plan));
        }
        let cached = self.cache.as_ref().map(|cache| (cache, self.cache_key(algo, sizes)));
        let mut pattern = None; // a build's; a cached plan keeps none
        let hit = cached.and_then(|(cache, key)| cache.cell(key, &self.graph));
        let stored = hit.is_none();
        rec.plan_cache(0, !stored);
        let plan = match hit {
            Some(cell) => cell,
            None if algo == Algorithm::Auto => {
                // the one arm that runs is the one checked
                let cands = candidates(&self.graph, &self.layout, sizes);
                let cell = Arc::new(Checked::new(self.tune_candidates(&cands, sizes, rec)?.plan));
                cell.check(&self.graph).map_err(CommError::InvalidPlan)?;
                cell
            }
            None => {
                let (plan, built) = self.build_plan_recorded(algo, sizes, rec)?;
                pattern = built.map(Arc::new);
                Arc::new(Checked::new(Arc::new(plan)))
            }
        };
        if let Some((cache, key)) = cached.filter(|_| stored) {
            // the tuner's winner under its own build key too: a later
            // explicit request for it (same sizes and metric) hits
            let own = (algo == Algorithm::Auto).then(|| self.cache_key(plan.algorithm, sizes));
            for key in std::iter::once(key).chain(own) {
                cache.insert_cell(key, &plan, Some(&self.graph)).map_err(CommError::InvalidPlan)?;
            }
        }
        let entry = Entry { algo, sizes: None, plan: Arc::clone(&plan), pattern, repairs: 0 };
        let planning = self.planning_sizes();
        let mut memo = self.memo();
        if algo == Algorithm::Auto {
            // the tuner built the winner: its algorithm's requests are served that plan
            let winner = plan.algorithm;
            let sizes = self.keyed_sizes(winner, sizes).cloned();
            memo.insert(Entry { algo: winner, sizes, ..entry.clone() }, &planning);
        }
        memo.insert(Entry { sizes: keyed.cloned(), ..entry }, &planning);
        Ok(plan)
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

    /// The **uncached**, checked build of the plan whose item routing
    /// the combining family executes under `algo` — what a cold
    /// combining request pays before [`Self::collective`] memoizes it
    /// ([`Algorithm::Auto`] routes as Distance Halving; default sizes).
    pub fn alltoall_plan(&self, algo: Algorithm) -> Result<CollectivePlan, CommError> {
        self.checked(self.combining_algorithm(algo)?, &BlockSizes::default())
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
