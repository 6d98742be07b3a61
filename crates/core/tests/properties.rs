//! End-to-end properties of the plan-construction fast path.
//!
//! Two guarantees the fast path must never trade away:
//!
//! 1. **Determinism** — a plan built on the worker pool is *byte
//!    identical* (through the `plan_io` wire format) to one built
//!    serially. The pool's index-ordered merge makes parallelism an
//!    implementation detail, not an observable one.
//! 2. **Transparency** — a plan served from the fingerprint cache
//!    executes exactly like a freshly built one on every backend.

use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::{simulate, simulate_v};
use nhood_core::exec::virtual_exec::{reference_allgather, test_payloads};
use nhood_core::{
    plan_io, Algorithm, BlockArena, BlockSizes, CollectiveRequest, DistGraphComm, ExecOptions,
    Executor, LoadMetric, PlanCache, SimCost, Threaded, Virtual,
};
use nhood_topology::random::erdos_renyi;
use nhood_topology::rng::DetRng;
use std::sync::Arc;

fn comm_for(n: usize, delta: f64, seed: u64) -> DistGraphComm {
    let g = erdos_renyi(n, delta, seed);
    let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
    DistGraphComm::create_adjacent(g, layout).unwrap()
}

fn plan_bytes(comm: &DistGraphComm) -> Vec<u8> {
    let plan = comm.plan(Algorithm::DistanceHalving).unwrap();
    let mut bytes = Vec::new();
    plan_io::write_plan(&plan, &mut bytes).unwrap();
    bytes
}

/// Pool-built DH plans round-trip to the same `plan_io` bytes as
/// serial ones, across random graphs up to n = 128 at low, medium, and
/// high density.
#[test]
fn parallel_built_plans_are_byte_identical_to_serial() {
    for n in [16usize, 48, 128] {
        for delta in [0.1f64, 0.3, 0.6] {
            let serial = comm_for(n, delta, 0xD5 + n as u64);
            let pooled = serial.clone().with_build_threads(4);
            assert_eq!(
                plan_bytes(&serial),
                plan_bytes(&pooled),
                "n={n} delta={delta}: pooled plan diverged from serial"
            );
        }
    }
}

/// A plan served from the cache (a genuine hit — the same `Arc`, no
/// rebuild) produces `reference_allgather`-identical output on the
/// Virtual and Threaded backends, and simulates to the plan's own
/// message statics on Sim (the simulator moves no real payload bytes,
/// so traffic counts are its observable output).
#[test]
fn all_backends_match_reference_from_cached_plans() {
    let n = 32;
    let g = erdos_renyi(n, 0.35, 11);
    let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
    let comm = DistGraphComm::create_adjacent(g.clone(), layout.clone())
        .unwrap()
        .with_plan_cache(Arc::new(PlanCache::new(4)));

    let first = comm.plan_shared(Algorithm::DistanceHalving).unwrap();
    // a second communicator sharing the cache (the first's own epoch
    // memo would serve it without a lookup)
    let twin = DistGraphComm::create_adjacent(g.clone(), layout.clone())
        .unwrap()
        .with_plan_cache(Arc::clone(comm.plan_cache().unwrap()));
    let plan = twin.plan_shared(Algorithm::DistanceHalving).unwrap();
    assert!(Arc::ptr_eq(&first, &plan), "second lookup must be a cache hit");
    let stats = comm.plan_cache().unwrap().stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    let m = 64;
    let payloads = test_payloads(n, m, 0xCA);
    let want = reference_allgather(&g, &payloads);
    let opts = ExecOptions::new();

    let out = Virtual.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap();
    assert_eq!(out.rbufs, want, "virtual backend diverged on a cached plan");

    let out = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap();
    assert_eq!(out.rbufs, want, "threaded backend diverged on a cached plan");

    let report = simulate(&plan, &layout, m, &SimCost::niagara()).unwrap();
    assert!(report.makespan > 0.0);
    assert_eq!(report.stats.total_msgs(), plan.message_count());
    assert_eq!(report.stats.bytes.iter().sum::<usize>(), plan.total_blocks_sent() * m);
}

/// Per-rank payload lengths from `DetRng`, with zero-length blocks
/// guaranteed to occur (every 7th rank contributes nothing).
fn ragged_payloads(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|r| {
            let len = if r % 7 == 0 { 0 } else { 1 + rng.gen_below(24) };
            (0..len).map(|_| rng.next_u64() as u8).collect()
        })
        .collect()
}

/// Ragged `neighbor_allgatherv` is byte-identical to the naive
/// reference across every algorithm, both load metrics and both
/// executors, and simulates to completion — n ≤ 64 at low, medium, and
/// high density, with per-rank sizes drawn from `DetRng` (zero-length
/// blocks included).
#[test]
fn ragged_allgatherv_matches_reference_on_every_backend() {
    for n in [16usize, 33, 64] {
        for delta in [0.1f64, 0.3, 0.6] {
            let comm = comm_for(n, delta, 0xA11 + n as u64);
            let g = comm.graph().clone();
            let payloads = ragged_payloads(n, 0x5EED ^ (n as u64) << 8 ^ (delta * 10.0) as u64);
            assert!(payloads.iter().any(Vec::is_empty), "want zero-length blocks in the mix");
            let want = reference_allgather(&g, &payloads);

            // the communicator surface, both selection metrics, every algorithm
            for metric in [LoadMetric::Neighbors, LoadMetric::Bytes] {
                let comm = comm.clone().with_load_metric(metric);
                for algo in [
                    Algorithm::Naive,
                    Algorithm::CommonNeighbor { k: 4 },
                    Algorithm::DistanceHalving,
                ] {
                    let req = CollectiveRequest::allgatherv(&payloads).algorithm(algo);
                    let got = comm.collective(&req).unwrap().rbufs;
                    assert_eq!(got, want, "n={n} delta={delta} {metric:?} {algo:?}");
                }
            }

            // the raw executors on a byte-weighted DH plan
            let sized = comm
                .clone()
                .with_load_metric(LoadMetric::Bytes)
                .with_block_sizes(BlockSizes::from_payloads(&payloads));
            let plan = Arc::new(sized.plan(Algorithm::DistanceHalving).unwrap());
            let opts = ExecOptions::new().ragged(true);
            let out = Virtual.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap();
            assert_eq!(out.rbufs, want, "virtual: n={n} delta={delta}");
            let out = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap();
            assert_eq!(out.rbufs, want, "threaded: n={n} delta={delta}");
            // the simulator moves no real bytes; it prices the payloads' sizes
            let sizes: Vec<usize> = payloads.iter().map(Vec::len).collect();
            let report = simulate_v(&plan, comm.layout(), &sizes, &SimCost::niagara()).unwrap();
            assert!(report.makespan > 0.0, "sim: n={n} delta={delta}");
        }
    }
}

/// The plan cache keys uniform and ragged byte-weighted builds
/// distinctly end to end: same topology, same algorithm, but a
/// different size table must never be served the other's plan.
#[test]
fn plan_cache_keys_uniform_and_ragged_builds_distinctly() {
    let comm = comm_for(32, 0.3, 0xCAFE)
        .with_plan_cache(Arc::new(PlanCache::new(8)))
        .with_load_metric(LoadMetric::Bytes);
    let uniform = test_payloads(32, 8, 1);
    let ragged = ragged_payloads(32, 2);

    let gatherv = |payloads: &[Vec<u8>]| {
        comm.collective(&CollectiveRequest::allgatherv(payloads)).unwrap();
    };
    gatherv(&uniform);
    gatherv(&ragged);
    let stats = comm.plan_cache().unwrap().stats();
    assert_eq!((stats.hits, stats.misses), (0, 2), "distinct size tables must build separately");

    // same shapes again: both served from the cache
    gatherv(&uniform);
    gatherv(&ragged);
    let stats = comm.plan_cache().unwrap().stats();
    assert_eq!((stats.hits, stats.misses), (2, 2), "repeat shapes must hit");
}
