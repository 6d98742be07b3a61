//! Plan goldens captured at the commit *before* the PR 15 entry-point
//! sweep: the plan content digest ([`PlanFingerprint::of_plan`]) and the
//! `Sim` makespan bits of all six algorithms on three seeded graphs. The
//! sweep deleted builder rungs, a schedule lowering and an alltoall
//! engine; this file is the evidence that it moved no plan byte and no
//! makespan bit. A mismatch prints the full actual table.

use nhood_cluster::ClusterLayout;
use nhood_core::builder::build_pattern;
use nhood_core::exec::sim_exec::{simulate_v, SimCost};
use nhood_core::exec::virtual_exec::reference_allgather;
use nhood_core::lower::lower;
use nhood_core::negotiate::build_pattern_distributed;
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

/// `(case, of_plan digest)` of the two relay builders — the leader
/// hierarchy at l ∈ {1, 2, 8} and Bruck — captured while they grouped
/// through `BTreeMap<_, BTreeSet<Rank>>` and scattered by `has_edge`:
/// their flat-table rewrite must reproduce every plan byte for byte.
const RELAY_GOLDENS: [(&str, u128); 80] = [
    ("n0 hierarchical-leader(l=1)", 0xb6d48f7c12ef2b88446d3dce77e23764),
    ("n0 hierarchical-leader(l=2)", 0xb6d48f7c12ef2b88446d3dce77e23764),
    ("n0 hierarchical-leader(l=8)", 0xb6d48f7c12ef2b88446d3dce77e23764),
    ("n0 bruck", 0xb6d48f7c12ef2b88446d3dce77e23764),
    ("n1-d0 hierarchical-leader(l=1)", 0x448bbd7a1e07a8c04b4598597c9f7d55),
    ("n1-d0 hierarchical-leader(l=2)", 0x448bbd7a1e07a8c04b4598597c9f7d55),
    ("n1-d0 hierarchical-leader(l=8)", 0x448bbd7a1e07a8c04b4598597c9f7d55),
    ("n1-d0 bruck", 0xa96ce5e58c73f8665b914981054f45a1),
    ("n1-d0.15 hierarchical-leader(l=1)", 0x448bbd7a1e07a8c04b4598597c9f7d55),
    ("n1-d0.15 hierarchical-leader(l=2)", 0x448bbd7a1e07a8c04b4598597c9f7d55),
    ("n1-d0.15 hierarchical-leader(l=8)", 0x448bbd7a1e07a8c04b4598597c9f7d55),
    ("n1-d0.15 bruck", 0xa96ce5e58c73f8665b914981054f45a1),
    ("n1-d1 hierarchical-leader(l=1)", 0x448bbd7a1e07a8c04b4598597c9f7d55),
    ("n1-d1 hierarchical-leader(l=2)", 0x448bbd7a1e07a8c04b4598597c9f7d55),
    ("n1-d1 hierarchical-leader(l=8)", 0x448bbd7a1e07a8c04b4598597c9f7d55),
    ("n1-d1 bruck", 0xa96ce5e58c73f8665b914981054f45a1),
    ("n2-d0 hierarchical-leader(l=1)", 0xe61f11f103bcd68d21274812931c2eed),
    ("n2-d0 hierarchical-leader(l=2)", 0xe61f11f103bcd68d21274812931c2eed),
    ("n2-d0 hierarchical-leader(l=8)", 0xe61f11f103bcd68d21274812931c2eed),
    ("n2-d0 bruck", 0x34732dd7b33cd5abdb5812673e60b6ae),
    ("n2-d0.15 hierarchical-leader(l=1)", 0xe61f11f103bcd68d21274812931c2eed),
    ("n2-d0.15 hierarchical-leader(l=2)", 0xe61f11f103bcd68d21274812931c2eed),
    ("n2-d0.15 hierarchical-leader(l=8)", 0xe61f11f103bcd68d21274812931c2eed),
    ("n2-d0.15 bruck", 0x34732dd7b33cd5abdb5812673e60b6ae),
    ("n2-d1 hierarchical-leader(l=1)", 0xf1aca81c5d20a585f8d78508d723171b),
    ("n2-d1 hierarchical-leader(l=2)", 0xf1aca81c5d20a585f8d78508d723171b),
    ("n2-d1 hierarchical-leader(l=8)", 0xf1aca81c5d20a585f8d78508d723171b),
    ("n2-d1 bruck", 0x759a9647724ec8028891ea2c9e31f7fd),
    ("n5-d0 hierarchical-leader(l=1)", 0xb0336c718c810795dd71b49909b08b80),
    ("n5-d0 hierarchical-leader(l=2)", 0xb0336c718c810795dd71b49909b08b80),
    ("n5-d0 hierarchical-leader(l=8)", 0xb0336c718c810795dd71b49909b08b80),
    ("n5-d0 bruck", 0x5a7ca70a58d2b259b651ce43e4fad3dc),
    ("n5-d0.15 hierarchical-leader(l=1)", 0x54129121a8677436910ad7825c4eb8be),
    ("n5-d0.15 hierarchical-leader(l=2)", 0x54129121a8677436910ad7825c4eb8be),
    ("n5-d0.15 hierarchical-leader(l=8)", 0x54129121a8677436910ad7825c4eb8be),
    ("n5-d0.15 bruck", 0x6040f8191127485f206f77215a294cb7),
    ("n5-d1 hierarchical-leader(l=1)", 0x01eea4e86a6ddd3e51df2807544620b3),
    ("n5-d1 hierarchical-leader(l=2)", 0x01eea4e86a6ddd3e51df2807544620b3),
    ("n5-d1 hierarchical-leader(l=8)", 0x01eea4e86a6ddd3e51df2807544620b3),
    ("n5-d1 bruck", 0xaf997d4359a152cdf843ece906c18cc7),
    ("n17-d0 hierarchical-leader(l=1)", 0x50be81c408733d11fbbb123c00d6834b),
    ("n17-d0 hierarchical-leader(l=2)", 0x50be81c408733d11fbbb123c00d6834b),
    ("n17-d0 hierarchical-leader(l=8)", 0x50be81c408733d11fbbb123c00d6834b),
    ("n17-d0 bruck", 0x4c4cc19a933206dc51277d2f8d319576),
    ("n17-d0.15 hierarchical-leader(l=1)", 0x37af90b348cc6264723cacc3ea0cd708),
    ("n17-d0.15 hierarchical-leader(l=2)", 0x8d52ae0476c8dd7e42017f8c1180186c),
    ("n17-d0.15 hierarchical-leader(l=8)", 0x743f1bf243bc7f254c0a276c86cbd6e8),
    ("n17-d0.15 bruck", 0xd7e2d33f194d921f487372b68f0e3c06),
    ("n17-d1 hierarchical-leader(l=1)", 0x2c2bbfaffa2690e965d40be8fe536dc7),
    ("n17-d1 hierarchical-leader(l=2)", 0x08a1ff361df05193a7f7c68ae8376320),
    ("n17-d1 hierarchical-leader(l=8)", 0x4a5b461f7990eeab46dc34262149892b),
    ("n17-d1 bruck", 0x46a43dc708b53a9a21caafd502f1dbd5),
    ("n96-d0 hierarchical-leader(l=1)", 0xa6c7b022509f474928f07aace551b843),
    ("n96-d0 hierarchical-leader(l=2)", 0xa6c7b022509f474928f07aace551b843),
    ("n96-d0 hierarchical-leader(l=8)", 0xa6c7b022509f474928f07aace551b843),
    ("n96-d0 bruck", 0x8d6ccf0860bf69d4c940a3ba0bd2c4bc),
    ("n96-d0.15 hierarchical-leader(l=1)", 0xdec63cb5fa724a6a3102f9f6e1242b3d),
    ("n96-d0.15 hierarchical-leader(l=2)", 0xad231d17775c33b7213b44e5b374cc05),
    ("n96-d0.15 hierarchical-leader(l=8)", 0x52d90a01bc1e8caac3edab37f1472045),
    ("n96-d0.15 bruck", 0x136820cda191225c84df2ae55e82113c),
    ("n96-d1 hierarchical-leader(l=1)", 0x71935f8b71fe1fe13b7fe2594ed43fb4),
    ("n96-d1 hierarchical-leader(l=2)", 0xb4e08c24f84050a3a2a43a8d71fc353e),
    ("n96-d1 hierarchical-leader(l=8)", 0x4dbce763abd0c3571287c43a95caeb4d),
    ("n96-d1 bruck", 0xb9eb919e36dd77ed8e622dade026df5f),
    ("n101-d0 hierarchical-leader(l=1)", 0x31c910c41a8ef05b564ab27f7a1496ff),
    ("n101-d0 hierarchical-leader(l=2)", 0x31c910c41a8ef05b564ab27f7a1496ff),
    ("n101-d0 hierarchical-leader(l=8)", 0x31c910c41a8ef05b564ab27f7a1496ff),
    ("n101-d0 bruck", 0xaf4a9e1983e8a94f9095043816b8f546),
    ("n101-d0.15 hierarchical-leader(l=1)", 0xe8e06207193693e1d0c2533cd812f6ad),
    ("n101-d0.15 hierarchical-leader(l=2)", 0xdf720645b90dec1611d306b9b4c10ea5),
    ("n101-d0.15 hierarchical-leader(l=8)", 0xaeb8441ffa63fca998bc068354daffd6),
    ("n101-d0.15 bruck", 0xffa1b79d6e75a7a5cb1183a26c19baf1),
    ("n101-d1 hierarchical-leader(l=1)", 0x5ca8dd694200554ed394dbaa14944404),
    ("n101-d1 hierarchical-leader(l=2)", 0x4ee4fea86933faf51fb7907cbfd11607),
    ("n101-d1 hierarchical-leader(l=8)", 0x17a486543420d43ea9b9cb3bcad0679e),
    ("n101-d1 bruck", 0xe1008409abd5f15110833e82507f23d2),
    ("tuner-n96 hierarchical-leader(l=1)", 0xb3033335c2b7c4c557ad1a5e8f9c8a61),
    ("tuner-n96 hierarchical-leader(l=2)", 0x2c5b48a114682a0607aef0a61c5bf17d),
    ("tuner-n96 hierarchical-leader(l=8)", 0x0cfc1467c254bd83e278aec0a110aceb),
    ("tuner-n96 bruck", 0xb4c0b2e4b3903ef9cccaf43144819e39),
];

/// The relay builders' plans on an empty communicator, then over n ∈ {1,
/// 2, 5, 17, 96, 101} × δ ∈ {0, 0.15, 1} on nodes of 8 (17 and 101 leave
/// one and five ranks on the last node, fewer than l = 8 leaders, so its
/// slots share leader ranks), plus the tuner's own `plan-churn` shape:
/// n = 96, δ = 0.15 on 6 × 2 × 8.
fn relay_cases() -> Vec<(String, nhood_topology::Topology, ClusterLayout)> {
    let empty = nhood_topology::Topology::from_edges(0, []);
    let mut cases = vec![("n0".to_string(), empty, ClusterLayout::new(1, 2, 4))];
    for n in [1usize, 2, 5, 17, 96, 101] {
        for delta in [0.0, 0.15, 1.0] {
            let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
            cases.push((format!("n{n}-d{delta}"), erdos_renyi(n, delta, 0xB7 + n as u64), layout));
        }
    }
    cases.push(("tuner-n96".into(), erdos_renyi(96, 0.15, 7), ClusterLayout::new(6, 2, 8)));
    cases
}

#[test]
fn relay_builders_keep_every_plan_byte() {
    use nhood_core::{bruck::plan_bruck, leader::plan_hierarchical_leader};
    let mut actual = Vec::new();
    for (case, graph, layout) in relay_cases() {
        let plans = [1, 2, 8].map(|l| plan_hierarchical_leader(&graph, &layout, l));
        for plan in plans.into_iter().chain([plan_bruck(&graph, &layout)]) {
            plan.validate(&graph).unwrap_or_else(|e| panic!("{case} {}: {e}", plan.algorithm));
            let digest = PlanFingerprint::of_plan(&plan, &graph).as_u128();
            actual.push((format!("{case} {}", plan.algorithm), digest));
        }
    }
    let matches = actual.len() == RELAY_GOLDENS.len()
        && actual.iter().zip(RELAY_GOLDENS).all(|(a, g)| (a.0.as_str(), a.1) == g);
    if !matches {
        let table: String =
            actual.iter().map(|(c, d)| format!("    ({c:?}, {d:#034x}),\n")).collect();
        panic!("relay plan goldens moved; actual table:\n{table}");
    }
}

/// The rank runtime's negotiation, at its default rung, builds the
/// sequential build's pattern field for field (neither the matching nor
/// the tallies depend on the order signals cross in), and the pattern
/// lowers to a plan that validates and delivers reference-equal bytes.
#[test]
fn distributed_default_rung_builds_valid_reference_equal_plans() {
    for (case, comm, lens) in cases() {
        let pattern = build_pattern_distributed(comm.graph(), comm.layout()).unwrap();
        let sequential = build_pattern(comm.graph(), comm.layout()).unwrap();
        assert_eq!(pattern, sequential, "{case}: not the sequential build");
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
