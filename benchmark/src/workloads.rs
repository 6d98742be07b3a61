//! The five workloads: tenants, layouts and one 16-request block
//! script each.
//!
//! Everything that decides how much work a request is — the G(n, δ)
//! graphs, the ragged size tables, the churned edges — is drawn from a
//! constant of the workload ([`SHAPE_SEED`]), so the count metrics are
//! the same number on every run of one commit. `--seed` draws every
//! payload byte: the inputs differ from seed to seed, the work does not.

use nhood_cluster::ClusterLayout;
use nhood_core::{Algorithm, DType, ReduceOp, Reduction};
use nhood_service::{Backend, SubmitRequest};
use nhood_topology::random::erdos_renyi;
use nhood_topology::rng::{hash_mix, DetRng};
use nhood_topology::{Rank, Topology};

/// Requests in one block of every workload.
pub const OPS_PER_BLOCK: usize = 16;

/// `(name, why, pairs)` of each workload, in `BENCHMARK.json` order.
/// `pairs` is the number of throughput/latency block pairs a run of
/// `RUN_SECONDS` measures: fixed, so two commits are compared over the
/// same number of samples. Each keeps at least 300 steady blocks of
/// each kind (15 below the 5th percentile); on the host this was written
/// on the five windows average about `RUN_SECONDS`, from about 15 s
/// (`gather-small`) to 27 s (`gather-large`, whose blocks take 36 ms).
pub const WORKLOADS: [(&str, &str, usize); 5] = [
    (
        "gather-small",
        "8 warm tenants, n=64, 64 B blocks: per-request service overhead dominates (latency-bound regime)",
        1800,
    ),
    (
        "gather-large",
        "2 warm DH tenants, n=64, 8 KiB uniform and 0-16 KiB ragged blocks: executor byte movement dominates (bandwidth-bound regime)",
        334,
    ),
    (
        "plan-churn",
        "every block is a service lifetime: register 4 unseen n=96 tenants, then 3 single-edge churn events; plan build, tuner, cache insert and repair dominate",
        340,
    ),
    (
        "combine-mixed",
        "alltoallv, reduce_scatter and allreduce on DH and Naive routing: the combining engine, which bypasses the gather executor and arena batching",
        400,
    ),
    (
        "sim-sweep",
        "Sim backend, 4 algorithms x 4 sizes at n=128: schedule lowering and the simnet replay loop dominate, no bytes move",
        340,
    ),
];

/// One tenant as handed to `Service::add_tenant`.
#[derive(Clone)]
pub struct TenantSpec {
    pub graph: Topology,
    pub layout: ClusterLayout,
    pub algo: Algorithm,
}

/// One step of a block script.
#[derive(Clone)]
pub enum Step {
    Request {
        tenant: usize,
        req: SubmitRequest,
    },
    /// `Service::churn` on `tenant`; pending requests are drained first.
    Churn {
        tenant: usize,
        added: Vec<(Rank, Rank)>,
        removed: Vec<(Rank, Rank)>,
    },
}

/// A generated workload.
pub struct Workload {
    pub name: &'static str,
    pub backend: Backend,
    pub tenants: Vec<TenantSpec>,
    /// Exactly [`OPS_PER_BLOCK`] requests, plus churn steps.
    pub script: Vec<Step>,
    /// `true`: a throughput block builds a fresh service, registers
    /// every tenant and runs the script on it, and a latency block is a
    /// cold start (fresh service, tenant 0, first request). `false`: all
    /// blocks run on one warm service.
    pub lifetime: bool,
}

impl Workload {
    /// The script's requests, in order, each with its tenant.
    pub fn requests(&self) -> impl Iterator<Item = (usize, &SubmitRequest)> {
        self.script.iter().filter_map(|s| match s {
            Step::Request { tenant, req } => Some((*tenant, req)),
            Step::Churn { .. } => None,
        })
    }

    /// Payload bytes one block sends into the service.
    pub fn payload_bytes(&self) -> u64 {
        self.requests().flat_map(|(_, req)| &req.payloads).map(|p| p.len() as u64).sum()
    }
}

fn random_bytes(rng: &mut DetRng, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

/// One `m`-byte block per rank.
fn uniform_payloads(rng: &mut DetRng, n: usize, m: usize) -> Vec<Vec<u8>> {
    (0..n).map(|_| random_bytes(rng, m)).collect()
}

/// One `m`-byte block per out-neighbor (alltoallv / reduce_scatter shape).
fn per_neighbor_payloads(rng: &mut DetRng, g: &Topology, m: usize) -> Vec<Vec<u8>> {
    (0..g.n()).map(|p| random_bytes(rng, g.outdegree(p) * m)).collect()
}

/// One directed G(n, δ) graph per algorithm, drawn from `shape`.
fn tenants(
    shape: &mut DetRng,
    n: usize,
    delta: f64,
    layout: &ClusterLayout,
    algos: &[Algorithm],
) -> Vec<TenantSpec> {
    algos
        .iter()
        .map(|&algo| TenantSpec {
            graph: erdos_renyi(n, delta, shape.next_u64()),
            layout: layout.clone(),
            algo,
        })
        .collect()
}

const DH: Algorithm = Algorithm::DistanceHalving;

fn gather_small(shape: &mut DetRng, data: &mut DetRng) -> Workload {
    let cn = Algorithm::CommonNeighbor { k: 4 };
    let algos = [DH, DH, DH, DH, cn, cn, Algorithm::Auto, Algorithm::Auto];
    let tenants = tenants(shape, 64, 0.2, &ClusterLayout::new(4, 2, 8), &algos);
    let script = (0..OPS_PER_BLOCK)
        .map(|i| {
            let tenant = i % tenants.len();
            Step::Request { tenant, req: SubmitRequest::allgather(uniform_payloads(data, 64, 64)) }
        })
        .collect();
    Workload { name: "gather-small", backend: Backend::Virtual, tenants, script, lifetime: false }
}

fn gather_large(shape: &mut DetRng, data: &mut DetRng) -> Workload {
    let n = 64;
    let tenants = tenants(shape, n, 0.3, &ClusterLayout::new(4, 2, 8), &[DH; 2]);
    // Tenant 1's ragged tables: a fixed multiset (0-16 KiB, mean 7 KiB,
    // zero-length blocks included), permuted per request.
    let ladder = [0usize, 2, 4, 6, 8, 8, 12, 16];
    let mut ragged: Vec<usize> = (0..n).map(|r| ladder[r % ladder.len()] << 10).collect();
    let script = (0..OPS_PER_BLOCK)
        .map(|i| {
            let tenant = i % tenants.len();
            if tenant == 0 {
                let req = SubmitRequest::allgather(uniform_payloads(data, n, 8 << 10));
                Step::Request { tenant, req }
            } else {
                shape.shuffle(&mut ragged);
                let payloads = ragged.iter().map(|&m| random_bytes(data, m)).collect();
                Step::Request { tenant, req: SubmitRequest::allgatherv(payloads) }
            }
        })
        .collect();
    Workload { name: "gather-large", backend: Backend::Virtual, tenants, script, lifetime: false }
}

fn plan_churn(shape: &mut DetRng, data: &mut DetRng) -> Workload {
    let n = 96;
    let algos =
        [DH, Algorithm::CommonNeighbor { k: 4 }, Algorithm::Pat { radix: 2 }, Algorithm::Auto];
    let tenants = tenants(shape, n, 0.15, &ClusterLayout::new(6, 2, 8), &algos);

    // Three single-edge events on the DH tenant: remove, add, remove.
    let g = &tenants[0].graph;
    let mut existing = || loop {
        let u = shape.gen_below(n);
        if let Some(&v) = g.out_neighbors(u).get(shape.gen_below(g.outdegree(u).max(1))) {
            return (u, v);
        }
    };
    let first = existing();
    let third = loop {
        let e = existing();
        if e != first {
            break e;
        }
    };
    let second = loop {
        let (u, v) = (shape.gen_below(n), shape.gen_below(n));
        if u != v && !g.has_edge(u, v) {
            break (u, v);
        }
    };
    let events = [(vec![], vec![first]), (vec![second], vec![]), (vec![], vec![third])];

    let mut round = |script: &mut Vec<Step>| {
        for tenant in 0..algos.len() {
            let req = SubmitRequest::allgather(uniform_payloads(data, n, 256));
            script.push(Step::Request { tenant, req });
        }
    };
    let mut script = Vec::new();
    round(&mut script);
    for (added, removed) in events {
        script.push(Step::Churn { tenant: 0, added, removed });
        round(&mut script);
    }
    Workload { name: "plan-churn", backend: Backend::Virtual, tenants, script, lifetime: true }
}

fn combine_mixed(shape: &mut DetRng, data: &mut DetRng) -> Workload {
    let n = 64;
    let tenants = tenants(shape, n, 0.2, &ClusterLayout::new(4, 2, 8), &[DH, Algorithm::Naive]);
    let reductions = [Reduction::SUM_U8, Reduction::new(ReduceOp::Max, DType::U32)];
    // 6 alltoallv, 5 reduce_scatter, 5 allreduce; tenants alternate,
    // sizes alternate every two requests, reductions every three.
    let script = (0..OPS_PER_BLOCK)
        .map(|i| {
            let tenant = i % 2;
            let g = &tenants[tenant].graph;
            let m = if (i / 2) % 2 == 0 { 256 } else { 4 << 10 };
            let red = reductions[(i / 3) % 2];
            let req = match i % 3 {
                0 => SubmitRequest::alltoallv(per_neighbor_payloads(data, g, m)),
                1 => SubmitRequest::reduce_scatter(per_neighbor_payloads(data, g, m), red),
                _ => SubmitRequest::allreduce(uniform_payloads(data, n, m), red),
            };
            Step::Request { tenant, req }
        })
        .collect();
    Workload { name: "combine-mixed", backend: Backend::Virtual, tenants, script, lifetime: false }
}

fn sim_sweep(shape: &mut DetRng, data: &mut DetRng) -> Workload {
    let n = 128;
    let algos =
        [DH, Algorithm::CommonNeighbor { k: 8 }, Algorithm::Naive, Algorithm::Pat { radix: 2 }];
    let tenants = tenants(shape, n, 0.2, &ClusterLayout::new(8, 2, 8), &algos);
    let script = (0..OPS_PER_BLOCK)
        .map(|i| {
            let m = [64, 1 << 10, 4 << 10, 16 << 10][i / algos.len()];
            let req = SubmitRequest::allgather(uniform_payloads(data, n, m));
            Step::Request { tenant: i % algos.len(), req }
        })
        .collect();
    Workload { name: "sim-sweep", backend: Backend::Sim, tenants, script, lifetime: false }
}

/// What the graphs, ragged size tables and churned edges of every
/// workload are drawn from (mixed with the workload's index). A constant:
/// the same shapes on every run, every seed and every commit.
const SHAPE_SEED: u64 = 0x6e68_6f6f_645f_3132;

/// Generates workload `name` with payload bytes drawn from `seed`;
/// `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let index = WORKLOADS.iter().position(|w| w.0 == name)?;
    let shape = &mut DetRng::seed_from_u64(hash_mix(&[SHAPE_SEED, index as u64]));
    let data = &mut DetRng::seed_from_u64(seed);
    Some(match name {
        "gather-small" => gather_small(shape, data),
        "gather-large" => gather_large(shape, data),
        "plan-churn" => plan_churn(shape, data),
        "combine-mixed" => combine_mixed(shape, data),
        "sim-sweep" => sim_sweep(shape, data),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_draws_the_payload_bytes_and_nothing_else() {
        for (name, why, pairs) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
            // At least 300 steady blocks: 15 below the 5th percentile.
            assert!(pairs - pairs / 10 >= 300, "{name}");
            let a = build(name, 7).expect("listed workload builds");
            let b = build(name, 7).expect("listed workload builds");
            let c = build(name, 8).expect("listed workload builds");
            assert_eq!(a.requests().count(), OPS_PER_BLOCK, "{name}");
            for ((x, y), z) in a.tenants.iter().zip(&b.tenants).zip(&c.tenants) {
                assert!(x.graph == y.graph && x.graph == z.graph, "{name}: graphs are constants");
            }
            let lens = |r: &SubmitRequest| r.payloads.iter().map(Vec::len).collect::<Vec<_>>();
            for (((_, x), (_, y)), (_, z)) in a.requests().zip(b.requests()).zip(c.requests()) {
                assert_eq!(x.payloads, y.payloads, "{name}: same seed, same payload bytes");
                assert_ne!(x.payloads, z.payloads, "{name}: the seed must matter");
                assert_eq!(lens(x), lens(z), "{name}: sizes are constants");
            }
        }
        assert!(build("no-such-workload", 1).is_none());
    }

    #[test]
    fn plan_churn_events_are_effective_single_edges() {
        let w = build("plan-churn", 11).expect("builds");
        let g = &w.tenants[0].graph;
        let events: Vec<_> = w
            .script
            .iter()
            .filter_map(|s| match s {
                Step::Churn { added, removed, .. } => Some((added.clone(), removed.clone())),
                Step::Request { .. } => None,
            })
            .collect();
        assert_eq!(events.len(), 3);
        for (added, removed) in &events {
            assert_eq!(added.len() + removed.len(), 1);
            assert!(added.iter().all(|&(u, v)| !g.has_edge(u, v)));
            assert!(removed.iter().all(|&(u, v)| g.has_edge(u, v)));
        }
        assert_ne!(events[0].1, events[2].1);
    }
}
