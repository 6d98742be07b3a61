//! Plan goldens captured at the commit *before* the PR 15 entry-point
//! sweep: the plan content digest ([`PlanFingerprint::of_plan`]) and the
//! `Sim` makespan bits of all six algorithms on three seeded graphs. The
//! sweep deleted builder rungs, a schedule lowering and an alltoall
//! engine; this file is the evidence that it moved no plan byte and no
//! makespan bit. A mismatch prints the full actual table.
//!
//! The digest columns were re-pinned once, when a plan began stating each
//! message once and `of_plan` stopped hashing a recv row beside every
//! send; the makespan bits held unedited, and a cross-tree dump showed
//! every case's derived receives equal to the recv rows they replace
//! (CHANGES.md).

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
    ("n32-uniform", "naive", 0x98b5434eb72e27e4bb39bb6f0ac4924a, 0x3eda125801f5aba3),
    ("n32-uniform", "common-neighbor(k=4)", 0x7d119345cd15fff9b21ee424d6709cc9, 0x3ed437ed2b814eb7),
    ("n32-uniform", "distance-halving", 0xa7add05f74aaa4f1dacb1bc0ebd58e1b, 0x3edc324f08e9f2cd),
    (
        "n32-uniform",
        "hierarchical-leader(l=2)",
        0x78741f602f406fb1f7ed2742948247dc,
        0x3ed55f97bd046a7a,
    ),
    ("n32-uniform", "bruck", 0x794303bfd43abcdbd490eea92055f597, 0x3edf30108f7e09f5),
    ("n32-uniform", "pat(r=4)", 0xa6ca6562a0f9f8c188eb4cc5209a2eb6, 0x3ee251a7f268e58d),
    ("n27-odd", "naive", 0x41923da14b9e9586009753b5462bfbc0, 0x3ef054e1993397f9),
    ("n27-odd", "common-neighbor(k=4)", 0x2faf71e8c1adfe8a8a7eefbf5207c73f, 0x3ef2c38a4198dfc8),
    ("n27-odd", "distance-halving", 0x74000c1f78a656e6f17a15b86b3e247a, 0x3ef66716e4e91a88),
    ("n27-odd", "hierarchical-leader(l=2)", 0x8f499d8895731c2696b2e8c3f00ef46a, 0x3ef790a130a2c0ef),
    ("n27-odd", "bruck", 0xb93ef7e74725ddb68b290e01b711cf31, 0x3f03430b33c26dd1),
    ("n27-odd", "pat(r=4)", 0x3e6a0e00b4e1b419a134152affeb1df7, 0x3f008bfb037c61cd),
    ("n48-ragged", "naive", 0x08f99685338b954b2431ca94221f7f20, 0x3ededb91d9cec264),
    ("n48-ragged", "common-neighbor(k=4)", 0xaf163194513c06146a8f1a83f5ea6037, 0x3ed9de169dbe357a),
    ("n48-ragged", "distance-halving", 0x9b94f896782818ed509ed7e3810e1653, 0x3ee33c33c971ba69),
    (
        "n48-ragged",
        "hierarchical-leader(l=2)",
        0xcffe40f45df5e513e8ad476e880d6505,
        0x3ed993ece8efb53b,
    ),
    ("n48-ragged", "bruck", 0x2151c2538a538882d45ac50c438ad945, 0x3ee3c60c5ef58aa7),
    ("n48-ragged", "pat(r=4)", 0x57fcbc46f0f6bae5972d2ffea1cad1f2, 0x3ee2d771bbef2d9a),
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
    ("n2-d1 hierarchical-leader(l=1)", 0x2237c0d247cc579351addccafed5abb0),
    ("n2-d1 hierarchical-leader(l=2)", 0x2237c0d247cc579351addccafed5abb0),
    ("n2-d1 hierarchical-leader(l=8)", 0x2237c0d247cc579351addccafed5abb0),
    ("n2-d1 bruck", 0x22af2b448ee8202e59c8dd23332e49ca),
    ("n5-d0 hierarchical-leader(l=1)", 0xb0336c718c810795dd71b49909b08b80),
    ("n5-d0 hierarchical-leader(l=2)", 0xb0336c718c810795dd71b49909b08b80),
    ("n5-d0 hierarchical-leader(l=8)", 0xb0336c718c810795dd71b49909b08b80),
    ("n5-d0 bruck", 0x5a7ca70a58d2b259b651ce43e4fad3dc),
    ("n5-d0.15 hierarchical-leader(l=1)", 0x3cd698ab5307c8331d9e0603c7c27d3e),
    ("n5-d0.15 hierarchical-leader(l=2)", 0x3cd698ab5307c8331d9e0603c7c27d3e),
    ("n5-d0.15 hierarchical-leader(l=8)", 0x3cd698ab5307c8331d9e0603c7c27d3e),
    ("n5-d0.15 bruck", 0x10af34fd80f5473d1bc2f89fc7f660b2),
    ("n5-d1 hierarchical-leader(l=1)", 0x370352855f958692f84f28c13cf8cdfc),
    ("n5-d1 hierarchical-leader(l=2)", 0x370352855f958692f84f28c13cf8cdfc),
    ("n5-d1 hierarchical-leader(l=8)", 0x370352855f958692f84f28c13cf8cdfc),
    ("n5-d1 bruck", 0x17f44f817cae03ad8846b72f7a8f0291),
    ("n17-d0 hierarchical-leader(l=1)", 0x50be81c408733d11fbbb123c00d6834b),
    ("n17-d0 hierarchical-leader(l=2)", 0x50be81c408733d11fbbb123c00d6834b),
    ("n17-d0 hierarchical-leader(l=8)", 0x50be81c408733d11fbbb123c00d6834b),
    ("n17-d0 bruck", 0x4c4cc19a933206dc51277d2f8d319576),
    ("n17-d0.15 hierarchical-leader(l=1)", 0xeeaa3498ea65671cef925b77c6be2884),
    ("n17-d0.15 hierarchical-leader(l=2)", 0x79e26e27190a9d9797337799113b042e),
    ("n17-d0.15 hierarchical-leader(l=8)", 0xa2ecaceabccc21626e078ab3b49858a6),
    ("n17-d0.15 bruck", 0x209d703fa0b68b40a21e147c10589a6e),
    ("n17-d1 hierarchical-leader(l=1)", 0x71087846fef0b548fb0eaa10dd881c32),
    ("n17-d1 hierarchical-leader(l=2)", 0xbaa7897ad10276661d20cf6b4de9685c),
    ("n17-d1 hierarchical-leader(l=8)", 0xbfa26eff1b4dae98d0ac44b5fc8144fa),
    ("n17-d1 bruck", 0x5935b23261e0c26b898a6b2a32bbf137),
    ("n96-d0 hierarchical-leader(l=1)", 0xa6c7b022509f474928f07aace551b843),
    ("n96-d0 hierarchical-leader(l=2)", 0xa6c7b022509f474928f07aace551b843),
    ("n96-d0 hierarchical-leader(l=8)", 0xa6c7b022509f474928f07aace551b843),
    ("n96-d0 bruck", 0x8d6ccf0860bf69d4c940a3ba0bd2c4bc),
    ("n96-d0.15 hierarchical-leader(l=1)", 0x10032da67920ab390738e86ae2931753),
    ("n96-d0.15 hierarchical-leader(l=2)", 0x76a0c939dbe6566ba557a72995ac999e),
    ("n96-d0.15 hierarchical-leader(l=8)", 0x657a5234d817aa75d990e074ebee4831),
    ("n96-d0.15 bruck", 0x665b945c44295a78a20c2f4897561d17),
    ("n96-d1 hierarchical-leader(l=1)", 0x0fcea02e82aa4ef10942de2ae8ebde5c),
    ("n96-d1 hierarchical-leader(l=2)", 0x865ce564297bc380fc48098ac607ff21),
    ("n96-d1 hierarchical-leader(l=8)", 0xcfea7b0d6ca8f28aac36cb3e734f3b07),
    ("n96-d1 bruck", 0x2538d99ff2f212e0b39f24a4f8663527),
    ("n101-d0 hierarchical-leader(l=1)", 0x31c910c41a8ef05b564ab27f7a1496ff),
    ("n101-d0 hierarchical-leader(l=2)", 0x31c910c41a8ef05b564ab27f7a1496ff),
    ("n101-d0 hierarchical-leader(l=8)", 0x31c910c41a8ef05b564ab27f7a1496ff),
    ("n101-d0 bruck", 0xaf4a9e1983e8a94f9095043816b8f546),
    ("n101-d0.15 hierarchical-leader(l=1)", 0x8915c110f6d8df34f3edb42785fe3373),
    ("n101-d0.15 hierarchical-leader(l=2)", 0xbca08194bb9fb63611c59f9d68c01ded),
    ("n101-d0.15 hierarchical-leader(l=8)", 0xf2f280ed908b8f569992c9347a643f56),
    ("n101-d0.15 bruck", 0x8519ebbc9cf7ee447b53eb0fc897dcbd),
    ("n101-d1 hierarchical-leader(l=1)", 0x510de4d9cce1acc7e3ef05f1dfd20164),
    ("n101-d1 hierarchical-leader(l=2)", 0x8dafdd4d4852e51af2e238bae62d111e),
    ("n101-d1 hierarchical-leader(l=8)", 0x4020672d70fb9b73cf46d23bbba6cddc),
    ("n101-d1 bruck", 0xa8d8090a3120729ec6d30a69952634fe),
    ("tuner-n96 hierarchical-leader(l=1)", 0x60e099a0c30308977ef129770cfebf79),
    ("tuner-n96 hierarchical-leader(l=2)", 0xd8d02ec79d18b9cbeb0f897f292b5f2f),
    ("tuner-n96 hierarchical-leader(l=8)", 0xdc32fa4cd59c4b926676e4ab7f7fd8d8),
    ("tuner-n96 bruck", 0x7a08e705443d6d7e93b2d4fd3c4b6eb9),
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
