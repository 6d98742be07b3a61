//! Open-loop traffic generation: Zipf-distributed request sizes,
//! Poisson (exponential-gap) arrivals and a topology-churn mix, all
//! seeded through [`DetRng`] so a run is reproducible end to end.
//!
//! **Open loop** means arrivals are scheduled independently of
//! completions — exactly the regime where admission control earns its
//! keep: when the service falls behind, the queue fills and submissions
//! bounce with typed backpressure instead of silently stretching the
//! arrival process. Latency is measured from the *intended* arrival
//! time, so queueing delay and scheduling slip are counted, not hidden.

use std::time::{Duration, Instant};

use nhood_core::{CollectiveOp, Reduction};
use nhood_topology::rng::DetRng;
use nhood_topology::{Rank, Topology};

use crate::report::ServiceReport;
use crate::service::{Service, SubmitRequest, TenantId};

/// A seeded open-loop workload description.
#[derive(Clone, Debug)]
pub struct TrafficSpec {
    /// Seed for every random draw the generator makes.
    pub seed: u64,
    /// How long arrivals keep coming (the run then drains the queue).
    pub horizon: Duration,
    /// Mean gap between consecutive arrivals (Poisson process).
    pub mean_interarrival: Duration,
    /// Zipf exponent over the power-of-two size ladder (small sizes
    /// most frequent; larger `s` = more skew).
    pub zipf_s: f64,
    /// Smallest per-rank payload, bytes.
    pub size_min: usize,
    /// Largest per-rank payload, bytes (ladder doubles from `size_min`
    /// up to here).
    pub size_max: usize,
    /// Probability a request is ragged (per-rank sizes drawn
    /// independently — an allgatherv; for alltoallv, per-source block
    /// sizes).
    pub ragged_frac: f64,
    /// Relative weights of the collective families in the stream
    /// (default: gather-only — the pre-PR-8 workload).
    pub op_mix: OpMix,
    /// Inject a churn event (edge add + remove on a random tenant)
    /// every such period; `None` = topology stays fixed.
    pub churn_period: Option<Duration>,
    /// Edges added and edges removed per churn event.
    pub churn_edges: usize,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        Self {
            seed: 42,
            horizon: Duration::from_millis(200),
            mean_interarrival: Duration::from_micros(200),
            zipf_s: 1.1,
            size_min: 16,
            size_max: 2048,
            ragged_frac: 0.3,
            op_mix: OpMix::default(),
            churn_period: None,
            churn_edges: 1,
        }
    }
}

/// Relative weights of the four collective families in generated
/// traffic. Reductions always run Sum over u8 lanes — wrapping byte
/// sums are order-independent, so verification stays byte-exact.
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    /// Neighborhood allgather(v); raggedness follows
    /// [`TrafficSpec::ragged_frac`].
    pub gather: f64,
    /// Neighborhood alltoallv.
    pub alltoallv: f64,
    /// Sparse reduce_scatter (Sum/u8).
    pub reduce_scatter: f64,
    /// Sparse allreduce (Sum/u8).
    pub allreduce: f64,
}

impl Default for OpMix {
    /// Gather-only: the pre-message-combining workload.
    fn default() -> Self {
        Self { gather: 1.0, alltoallv: 0.0, reduce_scatter: 0.0, allreduce: 0.0 }
    }
}

impl OpMix {
    /// Every family equally likely.
    pub fn uniform() -> Self {
        Self { gather: 1.0, alltoallv: 1.0, reduce_scatter: 1.0, allreduce: 1.0 }
    }

    /// Draws one family. The gather family comes back as
    /// [`CollectiveOp::Allgather`]; the caller upgrades to allgatherv
    /// per `ragged_frac`. Zero (or negative) total weight degenerates
    /// to gather.
    pub fn sample(&self, rng: &mut DetRng) -> CollectiveOp {
        let g = self.gather.max(0.0);
        let a = self.alltoallv.max(0.0);
        let r = self.reduce_scatter.max(0.0);
        let s = self.allreduce.max(0.0);
        let total = g + a + r + s;
        if total <= 0.0 {
            return CollectiveOp::Allgather;
        }
        let u = rng.gen_f64() * total;
        if u < g {
            CollectiveOp::Allgather
        } else if u < g + a {
            CollectiveOp::Alltoallv
        } else if u < g + a + r {
            CollectiveOp::ReduceScatter(Reduction::SUM_U8)
        } else {
            CollectiveOp::Allreduce(Reduction::SUM_U8)
        }
    }
}

/// Zipf sampler over a power-of-two size ladder: rung `k` (1-based,
/// smallest size first) is drawn with probability proportional to
/// `1 / k^s`.
#[derive(Clone, Debug)]
pub struct ZipfSizes {
    ladder: Vec<usize>,
    cdf: Vec<f64>,
}

impl ZipfSizes {
    /// Builds the ladder `min, 2·min, 4·min, … ≤ max` (at least one
    /// rung; `min` is clamped to ≥ 1).
    pub fn new(size_min: usize, size_max: usize, s: f64) -> Self {
        let min = size_min.max(1);
        let max = size_max.max(min);
        let rungs =
            std::iter::successors(Some(min), |&rung| rung.checked_mul(2).filter(|&r| r <= max));
        let ladder: Vec<usize> = rungs.collect();
        let weights: Vec<f64> = (1..=ladder.len()).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { ladder, cdf }
    }

    /// The ladder rungs, ascending.
    pub fn ladder(&self) -> &[usize] {
        &self.ladder
    }

    /// Draws one size.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.gen_f64();
        let idx = self.cdf.iter().position(|&c| u <= c).unwrap_or(self.cdf.len() - 1);
        self.ladder[idx]
    }
}

/// One exponential interarrival gap, seconds (`-mean · ln(1-U)`).
fn exp_gap(rng: &mut DetRng, mean_secs: f64) -> f64 {
    let u = rng.gen_f64().min(1.0 - 1e-12);
    -mean_secs * (1.0 - u).ln()
}

/// `len` bytes from one rng draw, so every block's bytes are distinct.
fn fill_block(len: usize, rng: &mut DetRng) -> Vec<u8> {
    let fill = rng.next_u64().to_le_bytes();
    (0..len).map(|i| fill[i % 8] ^ (i as u8)).collect()
}

/// One block per rank, `per_rank(r) * m` bytes: `m` one Zipf draw for
/// every rank, or (ragged) an independent draw per rank.
fn gen_blocks(
    n: usize,
    per_rank: impl Fn(Rank) -> usize,
    sizes: &ZipfSizes,
    ragged: bool,
    rng: &mut DetRng,
) -> Vec<Vec<u8>> {
    let uniform = if ragged { 0 } else { sizes.sample(rng) };
    (0..n)
        .map(|r| {
            let m = if ragged { sizes.sample(rng) } else { uniform };
            fill_block(per_rank(r) * m, rng)
        })
        .collect()
}

/// Per-rank payloads for one request: uniform (one Zipf draw for all
/// ranks) or ragged (an independent draw per rank), content filled from
/// the rng so every request's bytes are distinct.
pub fn gen_payloads(n: usize, sizes: &ZipfSizes, ragged: bool, rng: &mut DetRng) -> Vec<Vec<u8>> {
    gen_blocks(n, |_| 1, sizes, ragged, rng)
}

/// Shapes one request's send buffers for `op` on tenant topology `g`:
/// flat per-rank blocks for the gather family and allreduce,
/// out-degree-scaled concatenations for alltoallv and reduce_scatter.
/// Raggedness applies to the gather family (per-rank sizes) and
/// alltoallv (per-source block sizes); reduce_scatter stays uniform —
/// ragged destination tables need an explicit size table, which the
/// generator deliberately never pins.
pub fn gen_op_payloads(
    g: &Topology,
    op: CollectiveOp,
    sizes: &ZipfSizes,
    ragged: bool,
    rng: &mut DetRng,
) -> Vec<Vec<u8>> {
    let degree = |p: Rank| g.outdegree(p);
    match op {
        CollectiveOp::Allgather | CollectiveOp::Allgatherv => {
            gen_payloads(g.n(), sizes, ragged, rng)
        }
        CollectiveOp::Alltoallv => gen_blocks(g.n(), degree, sizes, ragged, rng),
        CollectiveOp::ReduceScatter(_) => gen_blocks(g.n(), degree, sizes, false, rng),
        CollectiveOp::Allreduce(_) => gen_payloads(g.n(), sizes, false, rng),
    }
}

/// A pre-generated request for closed ("drain") drives, where two
/// service configurations must see byte-identical streams.
#[derive(Clone, Debug)]
pub struct GenRequest {
    /// Target tenant.
    pub tenant: TenantId,
    /// Which collective to run.
    pub op: CollectiveOp,
    /// Per-rank payloads, shaped per the op's contract.
    pub payloads: Vec<Vec<u8>>,
}

/// Pre-generates `count` op-mixed requests over live tenant topologies
/// (`graphs[t]` = tenant `t`'s current graph — combining-family send
/// buffers are shaped by its out-degrees). Deterministic in
/// `spec.seed`.
pub fn generate_mixed_requests(
    spec: &TrafficSpec,
    graphs: &[&Topology],
    count: usize,
) -> Vec<GenRequest> {
    assert!(!graphs.is_empty(), "need at least one tenant");
    let mut rng = DetRng::seed_from_u64(spec.seed);
    let sizes = ZipfSizes::new(spec.size_min, spec.size_max, spec.zipf_s);
    (0..count)
        .map(|_| {
            let tenant = rng.gen_below(graphs.len());
            let (op, ragged) = draw_op(spec, &mut rng);
            let payloads = gen_op_payloads(graphs[tenant], op, &sizes, ragged, &mut rng);
            GenRequest { tenant, op, payloads }
        })
        .collect()
}

/// One request's op per [`TrafficSpec::op_mix`] and whether it is
/// ragged; a ragged gather is an allgatherv.
fn draw_op(spec: &TrafficSpec, rng: &mut DetRng) -> (CollectiveOp, bool) {
    let op = spec.op_mix.sample(rng);
    let ragged = rng.gen_bool(spec.ragged_frac);
    let gatherv = op == CollectiveOp::Allgather && ragged;
    (if gatherv { CollectiveOp::Allgatherv } else { op }, ragged)
}

/// Closed-loop drive: pushes a pre-generated stream through the
/// service as fast as admission allows (ticking to free queue space on
/// rejection), then drains. The stable way to compare configurations
/// on throughput — every run sees the identical stream. Returns the
/// number of requests finished.
pub fn drive_stream(service: &mut Service, requests: &[GenRequest]) -> usize {
    let mut finished = 0;
    for req in requests {
        loop {
            let sub = SubmitRequest { op: req.op, payloads: req.payloads.clone(), sizes: None };
            match service.submit_request(req.tenant, sub) {
                Ok(_) => break,
                Err(_) => {
                    let done = service.tick();
                    finished += done;
                    if done == 0 {
                        // Queue space cannot free up (quota of an idle
                        // queue, or a bad request): drop the request.
                        break;
                    }
                }
            }
        }
    }
    finished += service.drain();
    finished
}

/// Runs the open-loop workload against a live service: Poisson
/// arrivals over Zipf-sized (optionally ragged) payloads to uniformly
/// random tenants — op-mixed per [`TrafficSpec::op_mix`] — with
/// periodic churn events, until `spec.horizon` passes; then drains the
/// queue and reports. Metrics are reset at the
/// start so the report covers exactly this run.
pub fn run_open_loop(service: &mut Service, spec: &TrafficSpec) -> ServiceReport {
    service.reset_metrics();
    let ntenants = service.tenant_count();
    if ntenants == 0 {
        return service.report();
    }
    let mut rng = DetRng::seed_from_u64(spec.seed);
    let sizes = ZipfSizes::new(spec.size_min, spec.size_max, spec.zipf_s);
    let epoch = Instant::now();
    let horizon = spec.horizon.as_secs_f64();
    let mean = spec.mean_interarrival.as_secs_f64().max(1e-9);
    let churn_period = spec.churn_period.map(|p| p.as_secs_f64().max(1e-6));
    // Alltoallv / reduce_scatter send buffers are shaped by each
    // tenant's out-degrees at submission time, so they are bound to the
    // topology epoch they were generated under — churn would turn
    // queued ones into typed shape mismatches. Streams carrying those
    // families quiesce the queue before mutating; gather/allreduce-only
    // streams keep the repair-under-live-queue behavior.
    let topology_shaped =
        spec.op_mix.alltoallv.max(0.0) + spec.op_mix.reduce_scatter.max(0.0) > 0.0;
    let mut next_arrival = exp_gap(&mut rng, mean);
    let mut next_churn = churn_period;
    loop {
        let now = epoch.elapsed().as_secs_f64();
        if let (Some(tc), Some(period)) = (next_churn, churn_period) {
            if tc <= now && tc <= horizon {
                if topology_shaped {
                    service.drain();
                }
                apply_random_churn(service, &mut rng, spec.churn_edges);
                next_churn = Some(tc + period);
            }
        }
        // Open loop: admit every arrival that is due, regardless of how
        // far behind execution is. `submit_request_at` stamps the intended
        // arrival so queueing delay lands in the latency samples, and
        // rejections are the admission controller's problem, counted in
        // the report.
        while next_arrival <= now && next_arrival <= horizon {
            let tenant = rng.gen_below(ntenants);
            let (op, ragged) = draw_op(spec, &mut rng);
            let payloads =
                gen_op_payloads(service.tenant_graph(tenant), op, &sizes, ragged, &mut rng);
            let arrived = epoch + Duration::from_secs_f64(next_arrival);
            let _ = service.submit_request_at(
                tenant,
                SubmitRequest { op, payloads, sizes: None },
                arrived,
            );
            next_arrival += exp_gap(&mut rng, mean);
        }
        let finished = service.tick();
        let now = epoch.elapsed().as_secs_f64();
        if next_arrival > horizon {
            if service.pending() == 0 {
                break;
            }
            continue;
        }
        if finished == 0 && service.pending() == 0 {
            // Idle: nap until the next scheduled event (bounded so a
            // long gap still polls churn timers promptly).
            let mut wait = next_arrival - now;
            if let Some(tc) = next_churn {
                wait = wait.min(tc - now);
            }
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait.min(1e-3)));
            }
        }
    }
    service.report()
}

/// One churn event: a random tenant loses `edges` random edges and
/// gains `edges` random non-edges. Errors (unplannable topologies) are
/// swallowed — the tenant keeps its previous plan, which is the
/// degraded-mode contract.
fn apply_random_churn(service: &mut Service, rng: &mut DetRng, edges: usize) {
    let tenant = rng.gen_below(service.tenant_count());
    let g = service.tenant_graph(tenant);
    let n = g.n();
    let all: Vec<(Rank, Rank)> = g.edges().collect();
    let mut removed = Vec::new();
    for _ in 0..edges.min(all.len().saturating_sub(1)) {
        removed.push(all[rng.gen_below(all.len())]);
    }
    let mut added = Vec::new();
    if n >= 2 {
        for _ in 0..edges {
            for _try in 0..16 {
                let u = rng.gen_below(n);
                let v = rng.gen_below(n);
                if u != v && !g.has_edge(u, v) {
                    added.push((u, v));
                    break;
                }
            }
        }
    }
    let _ = service.churn(tenant, &added, &removed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, Verify};
    use nhood_cluster::ClusterLayout;
    use nhood_core::Algorithm;
    use nhood_topology::random::erdos_renyi;

    #[test]
    fn zipf_prefers_small_sizes() {
        let z = ZipfSizes::new(16, 4096, 1.2);
        assert_eq!(z.ladder().first(), Some(&16));
        assert_eq!(z.ladder().last(), Some(&4096));
        let mut rng = DetRng::seed_from_u64(1);
        let mut small = 0usize;
        let draws = 4000;
        for _ in 0..draws {
            if z.sample(&mut rng) <= 64 {
                small += 1;
            }
        }
        assert!(
            small * 2 > draws,
            "Zipf(1.2) should put most mass on the low rungs, got {small}/{draws}"
        );
    }

    #[test]
    fn zipf_degenerate_ladder_is_total() {
        let z = ZipfSizes::new(100, 100, 1.0);
        assert_eq!(z.ladder(), &[100]);
        let mut rng = DetRng::seed_from_u64(2);
        assert_eq!(z.sample(&mut rng), 100);
    }

    #[test]
    fn the_ladder_to_usize_max_stops_at_the_last_power_of_two() {
        let z = ZipfSizes::new(1, usize::MAX, 1.0);
        assert_eq!(z.ladder().len(), 64);
        assert_eq!(z.ladder().last(), Some(&(1 << 63)));
    }

    #[test]
    fn generated_streams_are_deterministic() {
        let spec = TrafficSpec { op_mix: OpMix::uniform(), ..TrafficSpec::default() };
        let (g8, g12) = (erdos_renyi(8, 0.3, 1), erdos_renyi(12, 0.3, 2));
        let a = generate_mixed_requests(&spec, &[&g8, &g12], 50);
        let b = generate_mixed_requests(&spec, &[&g8, &g12], 50);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.tenant, x.op), (y.tenant, y.op));
            assert_eq!(x.payloads, y.payloads);
        }
        let c = generate_mixed_requests(&TrafficSpec { seed: 43, ..spec }, &[&g8, &g12], 50);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.payloads != y.payloads),
            "different seeds should differ"
        );
    }

    #[test]
    fn open_loop_run_completes_and_reports() {
        let cfg = ServiceConfig { verify: Verify::All, ..Default::default() };
        let mut svc = Service::new(cfg);
        let g = erdos_renyi(12, 0.3, 3);
        svc.add_tenant(g, ClusterLayout::new(2, 2, 3), Algorithm::DistanceHalving).unwrap();
        let spec = TrafficSpec {
            horizon: Duration::from_millis(30),
            mean_interarrival: Duration::from_micros(500),
            churn_period: Some(Duration::from_millis(10)),
            ..Default::default()
        };
        let report = run_open_loop(&mut svc, &spec);
        assert!(report.stats.admitted > 0, "30ms at 2k req/s must admit something");
        assert_eq!(report.stats.completed + report.stats.failed, report.stats.admitted);
        assert_eq!(report.stats.corrupt, 0);
        assert!(report.latency.is_some());
        assert!(report.stats.churn_events >= 1);
    }

    #[test]
    fn drive_stream_pushes_everything_through() {
        let mut svc = Service::new(ServiceConfig::default());
        let g = erdos_renyi(10, 0.35, 4);
        svc.add_tenant(g, ClusterLayout::new(2, 2, 3), Algorithm::Naive).unwrap();
        let spec = TrafficSpec { size_max: 256, ..Default::default() };
        let reqs = generate_mixed_requests(&spec, &[svc.tenant_graph(0)], 40);
        let finished = drive_stream(&mut svc, &reqs);
        assert_eq!(finished, 40);
        assert_eq!(svc.report().stats.completed, 40);
    }

    #[test]
    fn mixed_streams_cover_all_families_and_verify() {
        let cfg = ServiceConfig { verify: Verify::All, ..Default::default() };
        let mut svc = Service::new(cfg);
        let g = erdos_renyi(12, 0.35, 6);
        svc.add_tenant(g, ClusterLayout::new(2, 2, 3), Algorithm::DistanceHalving).unwrap();
        let spec = TrafficSpec { size_max: 256, op_mix: OpMix::uniform(), ..Default::default() };
        let reqs = generate_mixed_requests(&spec, &[svc.tenant_graph(0)], 60);
        let mut families = [0usize; 4];
        for r in &reqs {
            families[match r.op {
                CollectiveOp::Allgather | CollectiveOp::Allgatherv => 0,
                CollectiveOp::Alltoallv => 1,
                CollectiveOp::ReduceScatter(_) => 2,
                CollectiveOp::Allreduce(_) => 3,
            }] += 1;
        }
        assert!(families.iter().all(|&c| c > 0), "60 uniform draws must hit every family");
        let finished = drive_stream(&mut svc, &reqs);
        assert_eq!(finished, 60);
        let report = svc.report();
        assert_eq!(report.stats.completed, 60);
        assert_eq!(report.stats.verified, 60);
        assert_eq!(report.stats.corrupt, 0);
    }

    #[test]
    fn mixed_open_loop_run_stays_correct_under_churn() {
        let cfg = ServiceConfig { verify: Verify::All, ..Default::default() };
        let mut svc = Service::new(cfg);
        let g = erdos_renyi(12, 0.3, 3);
        svc.add_tenant(g, ClusterLayout::new(2, 2, 3), Algorithm::DistanceHalving).unwrap();
        let spec = TrafficSpec {
            horizon: Duration::from_millis(30),
            mean_interarrival: Duration::from_micros(500),
            op_mix: OpMix::uniform(),
            churn_period: Some(Duration::from_millis(10)),
            ..Default::default()
        };
        let report = run_open_loop(&mut svc, &spec);
        assert!(report.stats.admitted > 0);
        assert_eq!(report.stats.completed + report.stats.failed, report.stats.admitted);
        assert_eq!(report.stats.corrupt, 0, "mixed-op traffic must verify under churn");
    }
}
