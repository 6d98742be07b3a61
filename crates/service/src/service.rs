//! The reactor: many tenants, one shared plan cache, one submission
//! queue, batched execution.
//!
//! # Life of a request
//!
//! 1. [`Service::submit`] runs admission control — bounded global
//!    queue, per-tenant quota — and either enqueues the request or
//!    returns a typed [`Rejected`] with a backoff hint. Submission
//!    never blocks and never silently drops.
//! 2. [`Service::tick`] drains up to
//!    [`AdmissionConfig::max_batch`](crate::AdmissionConfig) requests
//!    and groups them by tenant and op family: a batch is one tenant's
//!    run. Its gather requests share **one** plan fetch from the
//!    tenant communicator's epoch memo, and every batch runs on the
//!    tenant's **warm** block arena instead of laying one out per
//!    request. That amortization is the service's throughput lever
//!    (disable it with [`ServiceConfig::batching`]` = false`: every
//!    request alone, on a cold arena).
//! 3. Fault-armed tenants execute every op through the robust
//!    threaded path (the only transport that injects faults). Combining
//!    ops (alltoallv, reduce_scatter, allreduce) run the same engine as
//!    gathers but never share a batch with them — under `Auto` or a
//!    pinned size table the two families resolve different plans.
//! 4. [`Service::churn`] applies a topology mutation
//!    (`DistGraphComm::mutate`) to a live tenant **without draining the
//!    queue**: the communicator repairs (or rebuilds) its plan in place, so queued requests simply execute
//!    against the repaired plan when their tick comes.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nhood_cluster::ClusterLayout;
use nhood_core::collective::matches_reference;
use nhood_core::{
    Algorithm, BlockArena, BlockSizes, CollectiveOp, CollectivePlan, CollectiveRequest, CommError,
    DType, DistGraphComm, ExecBackend, MutationReport, PlanCache, Reduction, SimCost,
};
use nhood_telemetry::{labels, CountingRecorder, Recorder};
use nhood_topology::{Rank, Topology};

use crate::admission::{AdmissionConfig, RejectReason, Rejected, ServiceTimeEma};
use crate::report::{ServiceReport, ServiceStats, TenantStats};

/// Identifies a registered tenant (dense, assigned by
/// [`Service::add_tenant`] in registration order).
pub type TenantId = usize;

/// Identifies an admitted request (unique per service instance).
pub type RequestId = u64;

/// Which transport executes clean (fault-free) tenants' requests — the
/// core's [`ExecBackend`] under the name the service has always
/// exported. Fault-armed tenants always run the robust threaded path on
/// byte-moving backends, and a perturbed simulation on [`Backend::Sim`],
/// where completions carry a makespan and no bytes.
pub use nhood_core::ExecBackend as Backend;

/// How aggressively completions are byte-checked against the naive
/// reference (only meaningful on byte-moving backends, and skipped for
/// degraded completions whose buffers intentionally miss blocks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verify {
    /// Never verify.
    None,
    /// Verify every `k`-th admitted request (`id % k == 0`).
    Sample(u64),
    /// Verify every completion.
    All,
}

impl Verify {
    fn hits(&self, id: RequestId) -> bool {
        match *self {
            Verify::None => false,
            Verify::Sample(k) => k != 0 && id.is_multiple_of(k),
            Verify::All => true,
        }
    }
}

/// Service construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Admission limits (queue depth, per-tenant quota, batch bound).
    pub admission: AdmissionConfig,
    /// Transport for clean tenants.
    pub backend: Backend,
    /// Coalesce a tick's requests of one tenant and op family into one
    /// batched execution on the tenant's warm arena (`false` =
    /// per-request baseline: every request alone, on a cold arena).
    pub batching: bool,
    /// Byte-verification policy.
    pub verify: Verify,
    /// Attach each completion's receive buffers to its [`Completion`]
    /// (tests; costs memory under load).
    pub keep_outputs: bool,
    /// Worker threads for pattern construction / plan lowering on every
    /// tenant communicator (the shared build pool; `1` = serial).
    pub build_threads: usize,
    /// Capacity of the shared [`PlanCache`] the service creates.
    pub cache_capacity: usize,
    /// Cost model for [`Backend::Sim`].
    pub sim_cost: SimCost,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            admission: AdmissionConfig::default(),
            backend: Backend::Virtual,
            batching: true,
            verify: Verify::Sample(16),
            keep_outputs: false,
            build_threads: 1,
            cache_capacity: 64,
            sim_cost: SimCost::niagara(),
        }
    }
}

/// Why a finished request finished.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Buffers (or a simulated makespan) were produced.
    Completed {
        /// Buffers honor only a quorum-degraded subset of the topology.
        degraded: bool,
        /// The run fell back to the naive plan.
        fallback: bool,
        /// Mid-run link-down repairs performed.
        repairs: u32,
    },
    /// The request failed with a typed executor/communicator error.
    Failed {
        /// Rendered error.
        error: String,
    },
}

/// A completion with nothing to report: full, first plan, no repairs.
const CLEAN: Outcome = Outcome::Completed { degraded: false, fallback: false, repairs: 0 };

impl Outcome {
    /// `true` for [`Outcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed { .. })
    }
}

/// One finished request, as handed back by
/// [`Service::take_completions`].
#[derive(Clone, Debug)]
pub struct Completion {
    /// The ticket [`Service::submit`] returned.
    pub id: RequestId,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Arrival → completion, microseconds (queueing included).
    pub latency_us: u64,
    /// How it finished.
    pub outcome: Outcome,
    /// `Some(result)` when the completion was byte-checked against the
    /// naive reference; `None` when verification was skipped.
    pub verified: Option<bool>,
    /// Receive buffers, when [`ServiceConfig::keep_outputs`] is set and
    /// the backend moves bytes.
    pub output: Option<Vec<Vec<u8>>>,
    /// Simulated collective latency in seconds ([`Backend::Sim`] only).
    pub sim_makespan: Option<f64>,
}

/// An owned, op-tagged submission. [`Service::submit`] wraps plain
/// gather payloads into one of these; mixed-op traffic builds them
/// directly and hands them to [`Service::submit_request`].
#[derive(Clone, Debug)]
pub struct SubmitRequest {
    /// Which collective to run.
    pub op: CollectiveOp,
    /// Per-rank send buffers, shaped per the op's contract (per-source
    /// concatenation for alltoallv, per-destination for reduce_scatter,
    /// one uniform block for allreduce).
    pub payloads: Vec<Vec<u8>>,
    /// Explicit size table; `None` derives it from the payloads (only
    /// ragged reduce_scatter destinations genuinely need one).
    pub sizes: Option<BlockSizes>,
}

impl SubmitRequest {
    /// Uniform neighborhood allgather.
    pub fn allgather(payloads: Vec<Vec<u8>>) -> Self {
        Self { op: CollectiveOp::Allgather, payloads, sizes: None }
    }

    /// Ragged neighborhood allgather.
    pub fn allgatherv(payloads: Vec<Vec<u8>>) -> Self {
        Self { op: CollectiveOp::Allgatherv, payloads, sizes: None }
    }

    /// Neighborhood alltoallv (`payloads[p]` = one block per
    /// out-neighbor, concatenated in `O(p)` order).
    pub fn alltoallv(payloads: Vec<Vec<u8>>) -> Self {
        Self { op: CollectiveOp::Alltoallv, payloads, sizes: None }
    }

    /// Sparse reduce_scatter under `red`.
    pub fn reduce_scatter(payloads: Vec<Vec<u8>>, red: Reduction) -> Self {
        Self { op: CollectiveOp::ReduceScatter(red), payloads, sizes: None }
    }

    /// Sparse allreduce under `red`.
    pub fn allreduce(payloads: Vec<Vec<u8>>, red: Reduction) -> Self {
        Self { op: CollectiveOp::Allreduce(red), payloads, sizes: None }
    }

    /// Pins an explicit size table.
    pub fn sizes(mut self, sizes: BlockSizes) -> Self {
        self.sizes = Some(sizes);
        self
    }
}

struct Pending {
    id: RequestId,
    /// The tick's batch: the first-arrival index of its (tenant, family).
    group: usize,
    tenant: TenantId,
    op: CollectiveOp,
    payloads: Vec<Vec<u8>>,
    sizes: Option<BlockSizes>,
    arrived: Instant,
}

struct Tenant {
    comm: DistGraphComm,
    algo: Algorithm,
    /// Persistent arena — keeps the programs of the tenant's live plan,
    /// so batched requests skip per-request compile work.
    arena: BlockArena,
    faulty: bool,
    queued: usize,
    stats: TenantStats,
}

/// The multi-tenant collective service. See the [crate docs](crate)
/// for the life of a request.
pub struct Service {
    cfg: ServiceConfig,
    cache: Arc<PlanCache>,
    tenants: Vec<Tenant>,
    queue: VecDeque<Pending>,
    next_id: RequestId,
    ema: ServiceTimeEma,
    rec: CountingRecorder,
    /// The service's own counters (ticks, batches, coalesced, fallbacks,
    /// requests for no tenant); [`Service::report`] adds every tenant's.
    stats: ServiceStats,
    latencies_us: Vec<u64>,
    completions: Vec<Completion>,
    /// A tick's drained requests and its batches' (tenant, family) keys
    /// in first-arrival order: empty between ticks, their capacity kept.
    ticked: Vec<Pending>,
    keys: Vec<(TenantId, bool)>,
    /// One set of receive buffers handed from clean request to clean
    /// request inside a [`Service::tick`]; empty between ticks, so the
    /// service holds no receive-buffer capacity while idle.
    spare: Vec<Vec<u8>>,
    epoch: Instant,
    busy: Duration,
}

impl Service {
    /// A service with its own shared plan cache of
    /// [`ServiceConfig::cache_capacity`] entries.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self {
            cfg,
            cache: Arc::new(PlanCache::new(cfg.cache_capacity.max(1))),
            tenants: Vec::new(),
            queue: VecDeque::new(),
            next_id: 0,
            ema: ServiceTimeEma::new(),
            rec: CountingRecorder::new(0),
            stats: ServiceStats::default(),
            latencies_us: Vec::new(),
            completions: Vec::new(),
            ticked: Vec::new(),
            keys: Vec::new(),
            spare: Vec::new(),
            epoch: Instant::now(),
            busy: Duration::ZERO,
        }
    }

    /// Registers a tenant from a raw topology + layout, planning with
    /// `algo`. Warm-up happens here, through `plan_shared` for every
    /// algorithm (plan built and cached, or served by the shared cache,
    /// and memoized — a Distance Halving build with its pattern), so no
    /// request pays a build.
    pub fn add_tenant(
        &mut self,
        graph: Topology,
        layout: ClusterLayout,
        algo: Algorithm,
    ) -> Result<TenantId, CommError> {
        let comm = DistGraphComm::create_adjacent(graph, layout)?;
        self.add_tenant_comm(comm, algo)
    }

    /// Registers a pre-configured communicator (fault plan, robust
    /// policy, load metric, pinned sizes). The service re-points it at
    /// the shared plan cache and build pool.
    pub fn add_tenant_comm(
        &mut self,
        comm: DistGraphComm,
        algo: Algorithm,
    ) -> Result<TenantId, CommError> {
        let comm = comm
            .with_plan_cache(self.cache.clone())
            .with_build_threads(self.cfg.build_threads.max(1));
        comm.plan_shared(algo)?;
        let faulty = comm.fault_plan().is_some();
        // per-rank counters, for the widest tenant, keeping earlier traffic
        self.rec.grow(comm.n());
        self.tenants.push(Tenant {
            comm,
            algo,
            arena: BlockArena::new(),
            faulty,
            queued: 0,
            stats: TenantStats::default(),
        });
        Ok(self.tenants.len() - 1)
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Tenant `t`'s current virtual topology (changes under churn).
    ///
    /// # Panics
    /// Panics on an unknown tenant id.
    pub fn tenant_graph(&self, t: TenantId) -> &Topology {
        self.tenants[t].comm.graph()
    }

    /// Queued (admitted, not yet executed) requests.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Submits an allgather(v) arriving now (`payloads[r]` is rank `r`'s;
    /// ragged lengths make it an allgatherv). See [`Service::submit_request_at`].
    pub fn submit(
        &mut self,
        tenant: TenantId,
        payloads: Vec<Vec<u8>>,
    ) -> Result<RequestId, Rejected> {
        self.submit_request(tenant, SubmitRequest::allgather(payloads))
    }

    /// Submits an op-tagged request arriving now. See
    /// [`Service::submit_request_at`].
    pub fn submit_request(
        &mut self,
        tenant: TenantId,
        request: SubmitRequest,
    ) -> Result<RequestId, Rejected> {
        self.submit_request_at(tenant, request, Instant::now())
    }

    /// Submits any collective with an explicit arrival stamp (the
    /// open-loop generator passes the *intended* arrival so reported
    /// latency honestly includes scheduling slip and queueing).
    ///
    /// # Errors
    /// Returns [`Rejected`] when admission control turns the request
    /// away; the queue and tenant state are untouched.
    pub fn submit_request_at(
        &mut self,
        tenant: TenantId,
        request: SubmitRequest,
        arrived: Instant,
    ) -> Result<RequestId, Rejected> {
        let SubmitRequest { op, payloads, sizes } = request;
        let Some(t) = self.tenants.get_mut(tenant) else {
            self.stats.submitted += 1;
            self.stats.rejected += 1;
            return Err(Rejected {
                reason: RejectReason::BadRequest { detail: format!("unknown tenant {tenant}") },
                retry_after: Duration::ZERO,
            });
        };
        t.stats.submitted += 1;
        let (depth, queued, limits) = (self.queue.len(), t.queued, self.cfg.admission);
        let refused = if payloads.len() != t.comm.n() {
            let detail = format!("{} payloads for an {}-rank tenant", payloads.len(), t.comm.n());
            Some((RejectReason::BadRequest { detail }, Duration::ZERO))
        } else if depth >= limits.queue_capacity {
            Some((RejectReason::QueueFull { depth }, self.ema.retry_after(depth)))
        } else if queued >= limits.per_tenant_quota {
            Some((RejectReason::TenantQuota { queued }, self.ema.retry_after(queued)))
        } else {
            None
        };
        if let Some((reason, retry_after)) = refused {
            t.stats.rejected += 1;
            return Err(Rejected { reason, retry_after });
        }
        // the uniform contract is the submitter's to claim, not to break
        let ragged = payloads.windows(2).any(|w| w[0].len() != w[1].len());
        let op =
            if op == CollectiveOp::Allgather && ragged { CollectiveOp::Allgatherv } else { op };
        let id = self.next_id;
        self.next_id += 1;
        t.queued += 1;
        t.stats.admitted += 1;
        self.queue.push_back(Pending { id, group: 0, tenant, op, payloads, sizes, arrived });
        Ok(id)
    }

    /// Applies a topology mutation to a live tenant **without draining
    /// the queue**: the communicator repairs (or rebuilds) its plan in
    /// place; queued requests execute against the repaired plan.
    ///
    /// # Errors
    /// Propagates [`CommError`] when the mutated topology cannot be
    /// planned; the tenant keeps serving its previous plan.
    ///
    /// # Panics
    /// Panics on an unknown tenant id.
    pub fn churn(
        &mut self,
        tenant: TenantId,
        added: &[(Rank, Rank)],
        removed: &[(Rank, Rank)],
    ) -> Result<MutationReport, CommError> {
        let t = &mut self.tenants[tenant];
        let rep = t.comm.mutate(added, removed)?;
        t.stats.churn_events += 1;
        t.stats.full_rebuilds += u64::from(rep.full_rebuild);
        t.stats.repairs += u64::from(!rep.full_rebuild);
        Ok(rep)
    }

    /// One reactor iteration: drain up to
    /// [`AdmissionConfig::max_batch`](crate::AdmissionConfig) queued
    /// requests, group them (see the [crate docs](crate)), execute the
    /// groups. Returns the number of requests finished (completed or
    /// failed) this tick; `0` means the queue was empty.
    pub fn tick(&mut self) -> usize {
        let take = self.cfg.admission.max_batch.min(self.queue.len());
        if take == 0 {
            return 0;
        }
        self.stats.ticks += 1;
        self.rec.span_begin(0, labels::SERVICE_TICK);
        let mut ticked = std::mem::take(&mut self.ticked);
        ticked.extend(self.queue.drain(..take));

        // Group in place: a request's batch is its (tenant, family)'s
        // first-arrival rank, and sorting on (batch, id) keeps arrival order
        // within one (ids are issued in queue order). With batching off
        // every request is a batch of its own — the per-request baseline.
        self.keys.clear();
        for req in ticked.iter_mut() {
            let key = (req.tenant, req.op.is_gather());
            let seen = self.cfg.batching.then(|| self.keys.iter().position(|k| *k == key));
            req.group = seen.flatten().unwrap_or_else(|| {
                self.keys.push(key);
                self.keys.len() - 1
            });
        }
        ticked.sort_unstable_by_key(|req| (req.group, req.id));

        let mut finished = 0;
        let mut reqs = ticked.drain(..).peekable();
        while let Some(&Pending { group, tenant, .. }) = reqs.peek() {
            let t0 = Instant::now();
            self.rec.span_begin(0, labels::SERVICE_BATCH);
            self.stats.batches += 1;
            let mut len = 0;
            let batch = std::iter::from_fn(|| reqs.next_if(|req| req.group == group));
            let batch = batch.inspect(|_| len += 1);
            if self.tenants[tenant].faulty {
                self.run_robust_batch(batch);
            } else {
                self.run_clean_batch(batch);
            }
            if len >= 2 {
                self.stats.coalesced += len as u64;
            }
            finished += len;
            self.rec.span_end(0, labels::SERVICE_BATCH);
            let dt = t0.elapsed();
            self.busy += dt;
            self.ema.observe(dt, len);
        }
        drop(reqs);
        self.ticked = ticked;
        self.spare = Vec::new();
        self.rec.span_end(0, labels::SERVICE_TICK);
        finished
    }

    /// Ticks until the queue is empty. Returns requests finished.
    pub fn drain(&mut self) -> usize {
        let mut finished = 0;
        while self.pending() > 0 {
            finished += self.tick();
        }
        finished
    }

    /// A clean tenant's batch, any op: its warm arena and the tick's
    /// spare receive buffers, through [`DistGraphComm::collective_on`]. A
    /// gather batch fetches its plan once, from the tenant's epoch memo;
    /// a combining batch resolves the memoized routing plan per request.
    fn run_clean_batch(&mut self, batch: impl Iterator<Item = Pending>) {
        let mut batch = batch.peekable();
        let Some(first) = batch.peek() else { return };
        let t = &self.tenants[first.tenant];
        let plan = match first.op.is_gather().then(|| t.comm.plan_shared(t.algo)).transpose() {
            Ok(p) => p,
            Err(e) => {
                for req in batch {
                    self.fail(req, &e);
                }
                return;
            }
        };
        for req in batch {
            if self.cfg.backend == Backend::Sim {
                self.run_sim(req, plan.as_ref());
                continue;
            }
            let t = &mut self.tenants[req.tenant];
            let mut creq = CollectiveRequest::new(req.op, &req.payloads)
                .algorithm(t.algo)
                .backend(self.cfg.backend)
                .recorder(&self.rec);
            creq.sizes = req.sizes.clone();
            // The warm per-tenant arena is part of the batching design;
            // with batching off each request lays out a cold one.
            let mut cold = BlockArena::new();
            let arena = if self.cfg.batching { &mut t.arena } else { &mut cold };
            arena.adopt_rbufs(std::mem::take(&mut self.spare));
            let res = t.comm.collective_on(&creq, plan.as_ref(), arena);
            // a failed run may leave the set adopted; it must not outlive the tick
            arena.adopt_rbufs(Vec::new());
            self.complete(req, res.map(|out| (CLEAN, out.rbufs)), true);
        }
    }

    /// A fault-armed tenant's batch: every op runs the robust path
    /// (threaded transport — the only one that injects faults) on a plan
    /// from the tenant's epoch memo, where a Distance Halving tenant's
    /// live plan spares the negotiation. On [`Backend::Sim`] a gather's fault plan
    /// lowers to a latency perturbation instead, and combining traffic
    /// simulates clean.
    fn run_robust_batch(&mut self, batch: impl Iterator<Item = Pending>) {
        for req in batch {
            let t = &self.tenants[req.tenant];
            if self.cfg.backend == Backend::Sim {
                match req.op.is_gather().then(|| t.comm.plan_shared(t.algo)).transpose() {
                    Ok(plan) => self.run_sim(req, plan.as_ref()),
                    Err(e) => self.fail(req, e),
                }
                continue;
            }
            let mut creq = CollectiveRequest::new(req.op, &req.payloads)
                .algorithm(t.algo)
                .robust(true)
                .backend(ExecBackend::Threaded)
                .recorder(&self.rec);
            creq.sizes = req.sizes.clone();
            let res = t.comm.collective(&creq).map_err(|e| e.to_string()).and_then(|out| {
                let rep = out.report.ok_or("robust run returned no execution report")?;
                let outcome = Outcome::Completed {
                    degraded: !rep.completeness.is_full(),
                    fallback: rep.fallback.is_some(),
                    repairs: rep.repairs,
                };
                Ok((outcome, out.rbufs))
            });
            self.complete(req, res, false);
        }
    }

    /// Every request on [`Backend::Sim`]: no bytes move, and the tenant's
    /// arena keeps the simulated structure of its plan, so a warm
    /// request pays only its prices and the replay. A gather simulates
    /// `plan` (the batch's; `None` resolves the tenant's), perturbed by
    /// a fault-armed tenant's fault plan; a combining op its compiled
    /// program, clean.
    fn run_sim(&mut self, req: Pending, plan: Option<&Arc<CollectivePlan>>) {
        let t = &mut self.tenants[req.tenant];
        let faults = t.comm.fault_plan().filter(|_| t.faulty && req.op.is_gather());
        let pert = faults.map(|f| f.to_perturbation(t.comm.n()));
        let mut creq = CollectiveRequest::new(req.op, &req.payloads).algorithm(t.algo);
        creq.sizes = req.sizes.clone();
        let mut cold = BlockArena::new();
        let arena = if self.cfg.batching { &mut t.arena } else { &mut cold };
        match t.comm.simulate_on(&creq, plan, arena, &self.cfg.sim_cost, pert.as_ref()) {
            Ok(rep) => self.finish(req, CLEAN, None, None, Some(rep.makespan)),
            Err(e) => self.fail(req, e),
        }
    }

    /// The one completion of a byte-moving run: verify, then the buffers
    /// go to the caller ([`ServiceConfig::keep_outputs`]), back to the
    /// tick's spare set (`recycle`: the request drew from it), or away.
    fn complete<E: std::fmt::Display>(
        &mut self,
        req: Pending,
        res: Result<(Outcome, Vec<Vec<u8>>), E>,
        recycle: bool,
    ) {
        let (outcome, rbufs) = match res {
            Ok(done) => done,
            Err(e) => return self.fail(req, e),
        };
        let degraded = matches!(outcome, Outcome::Completed { degraded: true, .. });
        let verified = self.verify_bytes(&req, &rbufs, degraded);
        let mut output = None;
        if self.cfg.keep_outputs {
            output = Some(rbufs);
        } else if recycle {
            self.spare = rbufs;
        }
        self.finish(req, outcome, verified, output, None);
    }

    fn fail(&mut self, req: Pending, error: impl std::fmt::Display) {
        self.finish(req, Outcome::Failed { error: error.to_string() }, None, None, None);
    }

    /// Byte-checks `rbufs` against the op's naive reference when the
    /// verify policy samples this request. Degraded buffers
    /// intentionally miss blocks, so they are never compared (`None`);
    /// f32 reductions are skipped too — the reference folds in
    /// neighbor order, the engine in arrival-schedule order, and f32
    /// addition is not associative, so byte equality is not the
    /// contract there (bit-determinism is covered by core tests).
    fn verify_bytes(&self, req: &Pending, rbufs: &[Vec<u8>], degraded: bool) -> Option<bool> {
        if degraded || !self.cfg.verify.hits(req.id) {
            return None;
        }
        if req.op.reduction().is_some_and(|red| red.dtype == DType::F32) {
            return None;
        }
        let g = self.tenants[req.tenant].comm.graph();
        matches_reference(g, req.op, &req.payloads, req.sizes.as_ref(), rbufs).ok()
    }

    fn finish(
        &mut self,
        req: Pending,
        outcome: Outcome,
        verified: Option<bool>,
        output: Option<Vec<Vec<u8>>>,
        sim_makespan: Option<f64>,
    ) {
        let now = Instant::now();
        let latency_us = now.saturating_duration_since(req.arrived).as_micros() as u64;
        let t = &mut self.tenants[req.tenant];
        t.queued = t.queued.saturating_sub(1);
        match &outcome {
            Outcome::Completed { degraded, fallback, .. } => {
                t.stats.completed += 1;
                t.stats.degraded += u64::from(*degraded);
                self.stats.fallbacks += u64::from(*fallback);
                self.latencies_us.push(latency_us);
            }
            Outcome::Failed { .. } => {
                t.stats.failed += 1;
            }
        }
        if let Some(ok) = verified {
            t.stats.verified += 1;
            t.stats.corrupt += u64::from(!ok);
        }
        self.completions.push(Completion {
            id: req.id,
            tenant: req.tenant,
            latency_us,
            outcome,
            verified,
            output,
            sim_makespan,
        });
    }

    /// Hands back (and clears) the accumulated completion records, in a
    /// vector of their length: the service keeps its own capacity for the
    /// next tick's.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        self.completions.drain(..).collect()
    }

    /// The current aggregate report (counters, latency percentiles,
    /// throughput over wall time since construction).
    pub fn report(&self) -> ServiceReport {
        let wall = self.epoch.elapsed();
        let stats = self.tenants.iter().fold(self.stats, |sum, t| sum + t.stats);
        let throughput_rps =
            if wall.is_zero() { 0.0 } else { stats.completed as f64 / wall.as_secs_f64() };
        ServiceReport {
            wall,
            busy: self.busy,
            stats,
            per_tenant: self.tenants.iter().map(|t| t.stats).collect(),
            latency: nhood_telemetry::LatencySummary::of(&self.latencies_us),
            throughput_rps,
            counters: self.rec.counts(),
        }
    }

    /// Resets counters, latency samples, completions and the wall-clock
    /// epoch — tenants, queue and the plan cache stay. Lets a bench
    /// measure phases over one warm service.
    pub fn reset_metrics(&mut self) {
        self.stats = ServiceStats::default();
        for t in &mut self.tenants {
            t.stats = TenantStats::default();
        }
        self.latencies_us.clear();
        self.completions.clear();
        self.busy = Duration::ZERO;
        self.epoch = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhood_cluster::Placement;
    use nhood_topology::random::erdos_renyi;

    fn layout_for(n: usize) -> ClusterLayout {
        ClusterLayout::new(n.div_ceil(8), 2, 4)
    }

    fn uniform_payloads(n: usize, m: usize, salt: u8) -> Vec<Vec<u8>> {
        (0..n).map(|r| vec![(r as u8) ^ salt; m]).collect()
    }

    fn service_with_one_tenant(cfg: ServiceConfig) -> (Service, TenantId) {
        let mut svc = Service::new(cfg);
        let g = erdos_renyi(16, 0.3, 7);
        let t = svc.add_tenant(g, layout_for(16), Algorithm::DistanceHalving).unwrap();
        (svc, t)
    }

    #[test]
    fn submit_tick_complete_verified() {
        let cfg = ServiceConfig { verify: Verify::All, keep_outputs: true, ..Default::default() };
        let (mut svc, t) = service_with_one_tenant(cfg);
        let n = svc.tenant_graph(t).n();
        for i in 0..5 {
            svc.submit(t, uniform_payloads(n, 64, i)).unwrap();
        }
        assert_eq!(svc.pending(), 5);
        let done = svc.drain();
        assert_eq!(done, 5);
        let report = svc.report();
        assert_eq!(report.stats.completed, 5);
        assert_eq!(report.stats.verified, 5);
        assert_eq!(report.stats.corrupt, 0);
        // All five are one tenant's gathers → one batch.
        assert_eq!(report.stats.batches, 1);
        assert_eq!(report.stats.coalesced, 5);
        let completions = svc.take_completions();
        assert_eq!(completions.len(), 5);
        assert!(completions.iter().all(|c| c.verified == Some(true)));
        assert!(completions.iter().all(|c| c.output.is_some()));
    }

    #[test]
    fn a_wider_tenant_registered_after_traffic_keeps_the_counters() {
        let mut svc = Service::new(ServiceConfig::default());
        let a = svc.add_tenant(erdos_renyi(16, 0.3, 7), layout_for(16), Algorithm::Naive).unwrap();
        svc.submit(a, uniform_payloads(16, 8, 0)).unwrap();
        svc.drain();
        let served = svc.report().counters.expect("counting recorder");
        assert!(served.msgs_sent > 0);
        svc.add_tenant(erdos_renyi(32, 0.3, 8), layout_for(32), Algorithm::Naive).unwrap();
        assert_eq!(svc.report().counters, Some(served));
    }

    #[test]
    fn ragged_payloads_complete_and_verify() {
        let cfg = ServiceConfig { verify: Verify::All, ..Default::default() };
        let (mut svc, t) = service_with_one_tenant(cfg);
        let n = svc.tenant_graph(t).n();
        let payloads: Vec<Vec<u8>> = (0..n).map(|r| vec![r as u8; (r * 13) % 97]).collect();
        svc.submit(t, payloads).unwrap();
        svc.drain();
        let report = svc.report();
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.stats.corrupt, 0);
        assert_eq!(report.stats.verified, 1);
    }

    #[test]
    fn queue_full_rejects_with_backoff_hint() {
        let cfg = ServiceConfig {
            admission: AdmissionConfig { queue_capacity: 4, per_tenant_quota: 64, max_batch: 64 },
            ..Default::default()
        };
        let (mut svc, t) = service_with_one_tenant(cfg);
        let n = svc.tenant_graph(t).n();
        for _ in 0..4 {
            svc.submit(t, uniform_payloads(n, 8, 0)).unwrap();
        }
        let err = svc.submit(t, uniform_payloads(n, 8, 0)).unwrap_err();
        assert!(matches!(err.reason, RejectReason::QueueFull { depth: 4 }));
        assert!(err.retry_after > Duration::ZERO);
        let report = svc.report();
        assert_eq!(report.stats.rejected, 1);
        assert_eq!(report.stats.admitted, 4);
        // Draining frees the queue for new admissions.
        svc.drain();
        svc.submit(t, uniform_payloads(n, 8, 0)).unwrap();
    }

    #[test]
    fn tenant_quota_rejects_before_queue_fills() {
        let cfg = ServiceConfig {
            admission: AdmissionConfig { queue_capacity: 64, per_tenant_quota: 2, max_batch: 64 },
            ..Default::default()
        };
        let mut svc = Service::new(cfg);
        let g1 = erdos_renyi(12, 0.3, 1);
        let g2 = erdos_renyi(12, 0.3, 2);
        let a = svc.add_tenant(g1, layout_for(12), Algorithm::Naive).unwrap();
        let b = svc.add_tenant(g2, layout_for(12), Algorithm::Naive).unwrap();
        svc.submit(a, uniform_payloads(12, 8, 0)).unwrap();
        svc.submit(a, uniform_payloads(12, 8, 1)).unwrap();
        let err = svc.submit(a, uniform_payloads(12, 8, 2)).unwrap_err();
        assert!(matches!(err.reason, RejectReason::TenantQuota { queued: 2 }));
        // The quota protects tenant b's headroom.
        svc.submit(b, uniform_payloads(12, 8, 0)).unwrap();
        svc.drain();
        assert_eq!(svc.report().stats.completed, 3);
    }

    #[test]
    fn bad_request_is_typed_and_free_of_side_effects() {
        let (mut svc, t) = service_with_one_tenant(ServiceConfig::default());
        let err = svc.submit(t, vec![vec![0u8; 8]; 3]).unwrap_err();
        assert!(matches!(err.reason, RejectReason::BadRequest { .. }));
        assert_eq!(err.retry_after, Duration::ZERO);
        let err = svc.submit(99, vec![]).unwrap_err();
        assert!(matches!(err.reason, RejectReason::BadRequest { .. }));
        assert_eq!(svc.pending(), 0);
    }

    #[test]
    fn batching_off_runs_singleton_batches() {
        let cfg = ServiceConfig { batching: false, ..Default::default() };
        let (mut svc, t) = service_with_one_tenant(cfg);
        let n = svc.tenant_graph(t).n();
        for i in 0..4 {
            svc.submit(t, uniform_payloads(n, 16, i)).unwrap();
        }
        svc.drain();
        let report = svc.report();
        assert_eq!(report.stats.batches, 4);
        assert_eq!(report.stats.coalesced, 0);
        assert_eq!(report.stats.completed, 4);
    }

    #[test]
    fn same_topology_tenants_batch_apart() {
        // a batch is one tenant's run: equal topologies do not merge tenants
        let mut svc = Service::new(ServiceConfig::default());
        let g = erdos_renyi(16, 0.3, 5);
        let a = svc.add_tenant(g.clone(), layout_for(16), Algorithm::DistanceHalving).unwrap();
        let b = svc.add_tenant(g, layout_for(16), Algorithm::DistanceHalving).unwrap();
        svc.submit(a, uniform_payloads(16, 32, 1)).unwrap();
        svc.submit(b, uniform_payloads(16, 32, 2)).unwrap();
        svc.drain();
        let report = svc.report();
        assert_eq!(report.stats.batches, 2, "each tenant runs its own batch");
        assert_eq!(report.stats.completed, 2);
    }

    #[test]
    fn churn_repairs_in_place_and_requests_keep_completing() {
        let cfg = ServiceConfig { verify: Verify::All, ..Default::default() };
        let (mut svc, t) = service_with_one_tenant(cfg);
        let n = svc.tenant_graph(t).n();
        svc.submit(t, uniform_payloads(n, 32, 0)).unwrap();
        // Mutate while a request sits in the queue: no drain required.
        let (u, v) = svc.tenant_graph(t).edges().next().expect("seeded graph has edges");
        let rep = svc.churn(t, &[], &[(u, v)]).unwrap();
        assert_eq!(rep.edges_removed, 1);
        svc.submit(t, uniform_payloads(n, 32, 1)).unwrap();
        svc.drain();
        let report = svc.report();
        assert_eq!(report.stats.completed, 2);
        assert_eq!(report.stats.corrupt, 0);
        assert_eq!(report.stats.churn_events, 1);
        assert_eq!(report.stats.repairs + report.stats.full_rebuilds, 1);
    }

    #[test]
    fn a_distance_halving_tenant_registers_and_churns_off_block_placement() {
        // the tenant's plan re-ranks through `remap` and keeps its pattern
        // in locality order; each churn repairs it there
        let cfg = ServiceConfig { verify: Verify::All, ..Default::default() };
        let mut svc = Service::new(cfg);
        let layout = ClusterLayout::new(2, 2, 8).with_placement(Placement::RoundRobinNodes);
        let t =
            svc.add_tenant(erdos_renyi(32, 0.3, 7), layout, Algorithm::DistanceHalving).unwrap();
        svc.submit(t, uniform_payloads(32, 32, 1)).unwrap();
        svc.drain();
        let edge = svc.tenant_graph(t).edges().next().expect("seeded graph has edges");
        for (added, removed) in [(vec![], vec![edge]), (vec![edge], vec![])] {
            let rep = svc.churn(t, &added, &removed).unwrap();
            assert!(!rep.full_rebuild, "{rep:?}");
            svc.submit(t, uniform_payloads(32, 32, 2)).unwrap();
            svc.drain();
        }
        let stats = svc.report().stats;
        assert_eq!((stats.completed, stats.verified, stats.corrupt), (3, 3, 0));
        assert_eq!((stats.repairs, stats.full_rebuilds), (2, 0));
    }

    #[test]
    fn auto_and_relay_tenants_serve_off_block_placement() {
        // the leader hierarchy and Bruck re-rank through `remap` as
        // Distance Halving does, so every arm registers there and an Auto
        // tenant tunes over the whole portfolio
        let cfg = ServiceConfig { verify: Verify::All, ..Default::default() };
        let mut svc = Service::new(cfg);
        let layout = ClusterLayout::new(2, 2, 8).with_placement(Placement::RoundRobinNodes);
        let leaders = Algorithm::HierarchicalLeader { leaders_per_node: 2 };
        for (seed, algo) in [(7, Algorithm::Auto), (8, leaders), (9, Algorithm::Bruck)] {
            let t = svc.add_tenant(erdos_renyi(32, 0.3, seed), layout.clone(), algo).unwrap();
            svc.submit(t, uniform_payloads(32, 32, 1)).unwrap();
        }
        svc.drain();
        let stats = svc.report().stats;
        assert_eq!((stats.completed, stats.verified, stats.corrupt), (3, 3, 0));
    }

    #[test]
    fn warm_requests_verify_across_churn_and_equal_topologies() {
        // The arena's warm check must follow the plan through every way
        // a tenant's plan changes under it: two tenants on equal
        // topologies (one cached plan `Arc` between them), a churn that
        // repairs tenant a only, and a churn back.
        for batching in [true, false] {
            let cfg = ServiceConfig { verify: Verify::All, batching, ..Default::default() };
            let mut svc = Service::new(cfg);
            let g = erdos_renyi(16, 0.3, 5);
            let a = svc.add_tenant(g.clone(), layout_for(16), Algorithm::DistanceHalving).unwrap();
            let b = svc.add_tenant(g, layout_for(16), Algorithm::DistanceHalving).unwrap();
            let mut sent = 0u8;
            let mut round = |svc: &mut Service| {
                for t in [a, b, a, b] {
                    sent += 1;
                    svc.submit(t, uniform_payloads(16, 32, sent)).unwrap();
                }
                svc.drain();
            };
            round(&mut svc);
            let edge = svc.tenant_graph(a).edges().next().expect("seeded graph has edges");
            svc.churn(a, &[], &[edge]).unwrap();
            round(&mut svc);
            svc.churn(a, &[edge], &[]).unwrap();
            round(&mut svc);
            let stats = svc.report().stats;
            assert_eq!(stats.completed, 12, "batching {batching}");
            assert_eq!(stats.verified, 12, "batching {batching}");
            assert_eq!(stats.corrupt, 0, "batching {batching}");
        }
    }

    #[test]
    fn kept_outputs_are_not_recycled_under_the_caller() {
        // Buffers handed out through `Completion::output` leave the
        // tick's spare set for good: later requests of the same tick
        // (same and other tenant) must not write into them.
        let cfg = ServiceConfig { keep_outputs: true, verify: Verify::None, ..Default::default() };
        let mut svc = Service::new(cfg);
        let ga = erdos_renyi(16, 0.3, 5);
        let gb = erdos_renyi(16, 0.4, 6);
        let a = svc.add_tenant(ga.clone(), layout_for(16), Algorithm::DistanceHalving).unwrap();
        let b = svc.add_tenant(gb.clone(), layout_for(16), Algorithm::Naive).unwrap();
        let mut want = Vec::new();
        for i in 0..6u8 {
            let (t, g) = if i % 2 == 0 { (a, &ga) } else { (b, &gb) };
            let payloads = uniform_payloads(16, 32, 0x40 + i);
            let op = CollectiveOp::Allgather;
            want.push(nhood_core::collective::reference(g, op, &payloads, None).unwrap());
            svc.submit(t, payloads).unwrap();
        }
        assert_eq!(svc.tick(), 6, "one tick, so every later request ran after the earlier ones");
        let mut done = svc.take_completions();
        done.sort_by_key(|c| c.id);
        let got: Vec<Vec<Vec<u8>>> = done.into_iter().map(|c| c.output.expect("kept")).collect();
        assert_eq!(got, want);
        let mut addrs: Vec<*const u8> =
            got.iter().flatten().filter(|b| !b.is_empty()).map(|b| b.as_ptr()).collect();
        let buffers = addrs.len();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), buffers, "two completions share a buffer");
    }

    #[test]
    fn the_spare_set_does_not_outlive_its_tick() {
        use nhood_core::FaultPlan;
        let mut svc = Service::new(ServiceConfig::default());
        let clean =
            svc.add_tenant(erdos_renyi(16, 0.3, 5), layout_for(16), Algorithm::Naive).unwrap();
        let comm = DistGraphComm::create_adjacent(erdos_renyi(12, 0.35, 9), layout_for(12))
            .unwrap()
            .with_fault_plan(FaultPlan::seeded(3).with_message_drop(0.05));
        let faulty = svc.add_tenant_comm(comm, Algorithm::DistanceHalving).unwrap();
        for i in 0..3 {
            svc.submit(clean, uniform_payloads(16, 64, i)).unwrap();
            svc.submit(faulty, uniform_payloads(12, 24, i)).unwrap();
            assert_eq!(svc.tick(), 2);
            assert_eq!(svc.spare.capacity(), 0, "tick {i} kept receive buffers");
        }
    }

    #[test]
    fn faulty_tenant_runs_the_robust_path() {
        use nhood_core::FaultPlan;
        let cfg = ServiceConfig { verify: Verify::All, ..Default::default() };
        let mut svc = Service::new(cfg);
        let g = erdos_renyi(12, 0.35, 9);
        let comm = DistGraphComm::create_adjacent(g, layout_for(12))
            .unwrap()
            .with_fault_plan(FaultPlan::seeded(3).with_message_drop(0.05));
        let t = svc.add_tenant_comm(comm, Algorithm::DistanceHalving).unwrap();
        for i in 0..3 {
            svc.submit(t, uniform_payloads(12, 24, i)).unwrap();
        }
        svc.drain();
        let report = svc.report();
        assert_eq!(report.stats.completed + report.stats.failed, 3);
        assert_eq!(report.stats.corrupt, 0, "robust path must never return wrong bytes");
    }

    /// Alltoallv / reduce_scatter send buffers for tenant `t`:
    /// `sbuf[p]` carries one `m`-byte block per out-neighbor.
    fn combining_payloads(svc: &Service, t: TenantId, m: usize, salt: u8) -> Vec<Vec<u8>> {
        let g = svc.tenant_graph(t);
        (0..g.n())
            .map(|p| vec![(p as u8).wrapping_mul(31) ^ salt; g.out_neighbors(p).len() * m])
            .collect()
    }

    #[test]
    fn mixed_op_traffic_verifies_and_splits_batches_by_family() {
        let cfg = ServiceConfig { verify: Verify::All, ..Default::default() };
        let (mut svc, t) = service_with_one_tenant(cfg);
        let n = svc.tenant_graph(t).n();
        svc.submit(t, uniform_payloads(n, 16, 1)).unwrap();
        svc.submit_request(t, SubmitRequest::alltoallv(combining_payloads(&svc, t, 8, 2))).unwrap();
        svc.submit_request(
            t,
            SubmitRequest::reduce_scatter(combining_payloads(&svc, t, 8, 3), Reduction::SUM_U8),
        )
        .unwrap();
        svc.submit_request(
            t,
            SubmitRequest::allreduce(uniform_payloads(n, 16, 4), Reduction::SUM_U8),
        )
        .unwrap();
        svc.drain();
        let report = svc.report();
        assert_eq!(report.stats.completed, 4);
        assert_eq!(report.stats.verified, 4, "every op family must be byte-checked");
        assert_eq!(report.stats.corrupt, 0);
        // One gather batch + one combining batch: one tenant, two
        // op families.
        assert_eq!(report.stats.batches, 2);
    }

    #[test]
    fn combining_ops_complete_on_every_backend() {
        for backend in [Backend::Virtual, Backend::Threaded, Backend::Sim] {
            let cfg = ServiceConfig { backend, verify: Verify::All, ..Default::default() };
            let (mut svc, t) = service_with_one_tenant(cfg);
            let n = svc.tenant_graph(t).n();
            svc.submit_request(
                t,
                SubmitRequest::allreduce(uniform_payloads(n, 32, 7), Reduction::SUM_U8),
            )
            .unwrap();
            svc.drain();
            let completions = svc.take_completions();
            assert_eq!(completions.len(), 1);
            assert!(completions[0].outcome.is_completed(), "backend {backend:?}");
            if backend == Backend::Sim {
                assert!(completions[0].sim_makespan.expect("sim makespan") > 0.0);
            } else {
                assert_eq!(completions[0].verified, Some(true), "backend {backend:?}");
            }
        }
    }

    #[test]
    fn combining_sim_requests_are_priced_at_the_configured_cost() {
        use nhood_cluster::HockneyParams;
        use nhood_simnet::{NicMode, SimConfig};
        let g = erdos_renyi(16, 0.3, 7);
        // `DistGraphComm::collective` prices its Sim output at niagara
        let comm = DistGraphComm::create_adjacent(g.clone(), layout_for(16)).unwrap();
        let slow = SimCost {
            net: SimConfig::classic(HockneyParams::flat(5e-6, 1e8), NicMode::TxRx),
            ..SimCost::niagara()
        };
        for (sim_cost, slower) in [(SimCost::niagara(), false), (slow, true)] {
            let cfg = ServiceConfig { backend: Backend::Sim, sim_cost, ..Default::default() };
            let mut svc = Service::new(cfg);
            let t = svc.add_tenant(g.clone(), layout_for(16), Algorithm::DistanceHalving).unwrap();
            let requests = [
                SubmitRequest::alltoallv(combining_payloads(&svc, t, 8, 2)),
                SubmitRequest::reduce_scatter(combining_payloads(&svc, t, 8, 3), Reduction::SUM_U8),
                SubmitRequest::allreduce(uniform_payloads(16, 16, 4), Reduction::SUM_U8),
            ];
            for request in requests {
                let op = request.op;
                let req = CollectiveRequest::new(op, &request.payloads).backend(Backend::Sim);
                let niagara = comm.collective(&req).unwrap().sim.unwrap().makespan;
                // twice: the second request runs the tenant's warm structure
                for _ in 0..2 {
                    svc.submit_request(t, request.clone()).unwrap();
                    svc.drain();
                    let done = svc.take_completions();
                    let c = &done[0];
                    assert!(c.outcome.is_completed() && c.output.is_none(), "{op:?}");
                    let got = c.sim_makespan.expect("a simulated makespan");
                    if slower {
                        assert!(got > niagara, "{op:?}: {got} at the slow cost vs {niagara}");
                    } else {
                        assert_eq!(got.to_bits(), niagara.to_bits(), "{op:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn faulty_tenant_combining_traffic_runs_the_robust_path() {
        use nhood_core::FaultPlan;
        let cfg = ServiceConfig { verify: Verify::All, ..Default::default() };
        let mut svc = Service::new(cfg);
        let g = erdos_renyi(12, 0.35, 9);
        let comm = DistGraphComm::create_adjacent(g, layout_for(12)).unwrap().with_fault_plan(
            FaultPlan::seeded(3).with_message_drop(0.2).with_message_duplication(0.5),
        );
        let t = svc.add_tenant_comm(comm, Algorithm::DistanceHalving).unwrap();
        svc.submit_request(t, SubmitRequest::alltoallv(combining_payloads(&svc, t, 8, 2))).unwrap();
        svc.submit_request(
            t,
            SubmitRequest::reduce_scatter(combining_payloads(&svc, t, 8, 3), Reduction::SUM_U8),
        )
        .unwrap();
        svc.submit_request(
            t,
            SubmitRequest::allreduce(uniform_payloads(12, 24, 1), Reduction::SUM_U8),
        )
        .unwrap();
        svc.drain();
        let report = svc.report();
        assert_eq!(report.stats.completed + report.stats.failed, 3);
        assert!(report.stats.completed > 0, "a 20 % drop rate is survivable");
        assert_eq!(report.stats.verified, report.stats.completed);
        assert_eq!(report.stats.corrupt, 0, "no operator was applied twice");
        // only a transport that consults the fault plan retries a send
        assert!(report.counters.expect("counting recorder").retries > 0);
    }

    #[test]
    fn sim_backend_reports_makespans() {
        let cfg = ServiceConfig { backend: Backend::Sim, ..Default::default() };
        let (mut svc, t) = service_with_one_tenant(cfg);
        let n = svc.tenant_graph(t).n();
        svc.submit(t, uniform_payloads(n, 1024, 0)).unwrap();
        svc.drain();
        let completions = svc.take_completions();
        assert_eq!(completions.len(), 1);
        let mk = completions[0].sim_makespan.expect("sim completion carries a makespan");
        assert!(mk > 0.0);
        assert!(completions[0].output.is_none());
    }
}
