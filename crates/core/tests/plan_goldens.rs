//! Plan goldens captured at the commit *before* the PR 15 entry-point
//! sweep: the plan content digest ([`PlanFingerprint::of_plan`]) and the
//! `Sim` makespan bits of all six algorithms on three seeded graphs. The
//! sweep deleted builder rungs, a schedule lowering and an alltoall
//! engine; this file is the evidence that it moved no plan byte and no
//! makespan bit. A mismatch prints the full actual table.

use nhood_cluster::ClusterLayout;
use nhood_core::distributed_builder::build_pattern_distributed;
use nhood_core::exec::sim_exec::{simulate_v, SimCost};
use nhood_core::exec::virtual_exec::reference_allgather;
use nhood_core::lower::lower;
use nhood_core::{
    Algorithm, BlockSizes, CollectiveRequest, DistGraphComm, ExecBackend, Executor, LoadMetric,
    PlanFingerprint, Virtual,
};
use nhood_topology::random::erdos_renyi;
use std::sync::Arc;

const ALGOS: [Algorithm; 6] = [
    Algorithm::Naive,
    Algorithm::CommonNeighbor { k: 4 },
    Algorithm::DistanceHalving,
    Algorithm::HierarchicalLeader { leaders_per_node: 2 },
    Algorithm::Bruck,
    Algorithm::Pat { radix: 4 },
];

/// `(case, algorithm, of_plan digest, Sim makespan bits)`.
const GOLDENS: [(&str, &str, u128, u64); 18] = [
    ("n32-uniform", "naive", 0xf7b2e05cbdd27d666ebfed1f2ce1f24a, 0x3eda125801f5aba3),
    ("n32-uniform", "common-neighbor(k=4)", 0x7109e3b83ab95e8da1f1d3f5237d7cf7, 0x3ed437ed2b814eb7),
    ("n32-uniform", "distance-halving", 0x93b28b5ff16c7ff16b6e76db0cf6843b, 0x3edc324f08e9f2cd),
    (
        "n32-uniform",
        "hierarchical-leader(l=2)",
        0x3b19bee79e1d8a5a696cafb2b7078f83,
        0x3ed55f97bd046a7a,
    ),
    ("n32-uniform", "bruck", 0x773b5701df87c7c22802b84b2fe7ef00, 0x3edf30108f7e09f5),
    ("n32-uniform", "pat(r=4)", 0xae2fc33373c7318a18f3463a5ff83e7f, 0x3ee251a7f268e58d),
    ("n27-odd", "naive", 0x3013d2654012af446081cb625c4c704f, 0x3ef054e1993397f9),
    ("n27-odd", "common-neighbor(k=4)", 0xdfab198c32ff3ec2098a659736c7745e, 0x3ef2c38a4198dfc8),
    ("n27-odd", "distance-halving", 0x3cbc952f9012ebe87b87eda1515bd377, 0x3ef66716e4e91a88),
    ("n27-odd", "hierarchical-leader(l=2)", 0x81b45ac103029f68c7a47c21b04459fe, 0x3ef790a130a2c0ef),
    ("n27-odd", "bruck", 0xf351945516247c4afa291ae1705cc00e, 0x3f03430b33c26dd1),
    ("n27-odd", "pat(r=4)", 0x56d53fae04b3866b1422af8cdf2aea3d, 0x3f008bfb037c61cd),
    ("n48-ragged", "naive", 0xe504e876f3908d325ea467c8716163eb, 0x3ededb91d9cec264),
    ("n48-ragged", "common-neighbor(k=4)", 0xb38abdfca2e4cb1f421d1a9ae5a6d468, 0x3ed9de169dbe357a),
    ("n48-ragged", "distance-halving", 0x9bd598ce544e3c5575437fee5ce3d334, 0x3ee33c33c971ba69),
    (
        "n48-ragged",
        "hierarchical-leader(l=2)",
        0x455663d356f311667ef5e3a4bb39d583,
        0x3ed993ece8efb53b,
    ),
    ("n48-ragged", "bruck", 0x22faee4083e32fd84fbb5ad0fb66792b, 0x3ee3c60c5ef58aa7),
    ("n48-ragged", "pat(r=4)", 0xea99ca839afb6f504afc6e5db3e61aef, 0x3ee2d771bbef2d9a),
];

/// The three seeded communicators with the per-rank payload lengths
/// each is simulated at: a power-of-two uniform case, an odd rank count
/// that leaves the last socket partly filled, and a ragged size table
/// (zeros included) planned under the byte-aware load metric so the
/// table reaches the matching.
fn cases() -> Vec<(&'static str, DistGraphComm, Vec<usize>)> {
    let comm = |n, delta, seed, layout| {
        DistGraphComm::create_adjacent(erdos_renyi(n, delta, seed), layout).unwrap()
    };
    let ragged: Vec<usize> =
        (0..48).map(|r| if r % 5 == 0 { 0 } else { 8 * (1 + r % 7) }).collect();
    vec![
        ("n32-uniform", comm(32, 0.3, 0xA11CE, ClusterLayout::new(4, 2, 4)), vec![64; 32]),
        ("n27-odd", comm(27, 0.4, 27, ClusterLayout::new(4, 2, 4)), vec![1024; 27]),
        (
            "n48-ragged",
            comm(48, 0.2, 0xC0DE, ClusterLayout::new(3, 2, 8))
                .with_load_metric(LoadMetric::Bytes)
                .with_block_sizes(BlockSizes::per_rank(ragged.clone())),
            ragged,
        ),
    ]
}

#[test]
fn entry_point_sweep_moved_no_plan_byte_and_no_makespan_bit() {
    let mut actual = Vec::new();
    for (case, comm, lens) in cases() {
        let payloads: Vec<Vec<u8>> =
            lens.iter().enumerate().map(|(r, &len)| vec![r as u8; len]).collect();
        for algo in ALGOS {
            let plan = comm.plan(algo).unwrap();
            let digest = PlanFingerprint::of_plan(&plan, comm.graph()).as_u128();
            let bits = simulate_v(&plan, comm.layout(), &lens, &SimCost::niagara())
                .unwrap()
                .makespan
                .to_bits();
            // the request path lands on the same schedule
            let req = CollectiveRequest::allgatherv(&payloads).algorithm(algo);
            let out = comm.collective(&req.backend(ExecBackend::Sim)).unwrap();
            assert_eq!(out.sim.unwrap().makespan.to_bits(), bits, "{case} {algo}: request path");
            assert_eq!(out.rbufs, reference_allgather(comm.graph(), &payloads), "{case} {algo}");
            actual.push((case, algo.to_string(), digest, bits));
        }
    }
    let matches = actual.len() == GOLDENS.len()
        && actual.iter().zip(GOLDENS).all(|(a, g)| (a.0, a.1.as_str(), a.2, a.3) == g);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(c, a, d, b)| format!("    ({c:?}, {a:?}, {d:#034x}, {b:#018x}),\n"))
            .collect();
        panic!("plan goldens moved; actual table:\n{table}");
    }
}

/// The distributed negotiation's matching depends on thread scheduling,
/// so its default rung is pinned structurally: the pattern lowers to a
/// plan that validates and delivers reference-equal bytes.
#[test]
fn distributed_default_rung_builds_valid_reference_equal_plans() {
    for (case, comm, lens) in cases() {
        let pattern = build_pattern_distributed(comm.graph(), comm.layout()).unwrap();
        let plan = Arc::new(lower(&pattern, comm.graph()));
        plan.validate(comm.graph()).unwrap_or_else(|e| panic!("{case}: {e}"));
        let payloads: Vec<Vec<u8>> = (0..comm.n()).map(|r| vec![r as u8; lens[0].max(8)]).collect();
        assert_eq!(
            Virtual.run_simple(&plan, comm.graph(), &payloads).unwrap(),
            reference_allgather(comm.graph(), &payloads),
            "{case}"
        );
    }
}
