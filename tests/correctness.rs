//! Cross-crate correctness: every algorithm × topology family × layout
//! must produce exactly the receive buffers the MPI specification
//! defines, through both real executors.

use nhood_cluster::{ClusterLayout, Placement};
use nhood_core::exec::virtual_exec::{reference_allgather, test_payloads};
use nhood_core::{Algorithm, CollectiveRequest, DistGraphComm, Executor, Threaded, Virtual};
use nhood_topology::moore::moore_on_grid;
use nhood_topology::random::{erdos_renyi, erdos_renyi_symmetric};
use nhood_topology::spmm_graph::spmm_topology;
use nhood_topology::Topology;

const ALGOS: [Algorithm; 6] = [
    Algorithm::Naive,
    Algorithm::CommonNeighbor { k: 4 },
    Algorithm::CommonNeighbor { k: 16 },
    Algorithm::DistanceHalving,
    Algorithm::HierarchicalLeader { leaders_per_node: 1 },
    Algorithm::HierarchicalLeader { leaders_per_node: 3 },
];

fn check_all(graph: &Topology, layout: &ClusterLayout, m: usize, label: &str) {
    let comm = DistGraphComm::create_adjacent(graph.clone(), layout.clone())
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let payloads = test_payloads(graph.n(), m, 1234);
    let want = reference_allgather(graph, &payloads);
    for algo in ALGOS {
        let plan = comm.plan_shared(algo).unwrap_or_else(|e| panic!("{label} {algo}: {e}"));
        plan.validate(graph).unwrap_or_else(|e| panic!("{label} {algo}: {e}"));
        let got = Virtual
            .run_simple(&plan, graph, &payloads)
            .unwrap_or_else(|e| panic!("{label} {algo} virtual: {e}"));
        assert_eq!(got, want, "{label} {algo} virtual output");
        if graph.n() <= 128 {
            let got = Threaded
                .run_simple(&plan, graph, &payloads)
                .unwrap_or_else(|e| panic!("{label} {algo} threaded: {e}"));
            assert_eq!(got, want, "{label} {algo} threaded output");
        }
    }
}

#[test]
fn random_sparse_graphs_all_densities() {
    let layout = ClusterLayout::new(4, 2, 8); // 64 ranks
    for delta in [0.02, 0.1, 0.35, 0.8] {
        let g = erdos_renyi(64, delta, 7);
        check_all(&g, &layout, 16, &format!("rsg delta={delta}"));
    }
}

#[test]
fn symmetric_random_graphs() {
    let layout = ClusterLayout::new(3, 2, 8); // 48 ranks
    let g = erdos_renyi_symmetric(48, 0.2, 3);
    check_all(&g, &layout, 8, "symmetric rsg");
}

#[test]
fn moore_neighborhoods() {
    let layout = ClusterLayout::new(4, 2, 8);
    for (dims, r) in [(vec![8usize, 8], 1), (vec![8, 8], 2), (vec![4, 4, 4], 1)] {
        let g = moore_on_grid(&dims, r);
        check_all(&g, &layout, 24, &format!("moore {dims:?} r={r}"));
    }
}

#[test]
fn spmm_derived_topologies() {
    use nhood_topology::matrix::generators::{synth_symmetric, StructureClass};
    let layout = ClusterLayout::new(4, 2, 8);
    for class in [
        StructureClass::Banded { half_bandwidth: 20 },
        StructureClass::Uniform,
        StructureClass::BlockDense { block: 32 },
    ] {
        let x = synth_symmetric(256, 4000, class, 5);
        let g = spmm_topology(&x, 64);
        check_all(&g, &layout, 32, &format!("spmm {class:?}"));
    }
}

#[test]
fn degenerate_topologies() {
    let layout = ClusterLayout::new(2, 2, 4);
    // empty graph: nobody sends anything
    check_all(&Topology::from_edges(16, []), &layout, 8, "empty");
    // one directed edge crossing the whole machine
    check_all(&Topology::from_edges(16, [(0, 15)]), &layout, 8, "single edge");
    // a star: rank 0 broadcasts to everyone, receives from everyone
    let star: Vec<(usize, usize)> = (1..16).flat_map(|i| [(0usize, i), (i, 0usize)]).collect();
    check_all(&Topology::from_edges(16, star), &layout, 8, "star");
    // a directed ring
    let ring: Vec<(usize, usize)> = (0..16).map(|i| (i, (i + 1) % 16)).collect();
    check_all(&Topology::from_edges(16, ring), &layout, 8, "ring");
}

#[test]
fn complete_graph() {
    let layout = ClusterLayout::new(2, 2, 6); // 24 ranks
    let edges =
        (0..24usize).flat_map(|i| (0..24usize).filter(move |&j| j != i).map(move |j| (i, j)));
    check_all(&Topology::from_edges(24, edges.collect::<Vec<_>>()), &layout, 8, "complete");
}

#[test]
fn odd_sized_communicators() {
    // non-power-of-two rank counts with spare capacity on the last node
    for n in [13usize, 21, 37, 51] {
        let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
        let g = erdos_renyi(n, 0.3, n as u64);
        check_all(&g, &layout, 8, &format!("odd n={n}"));
    }
}

#[test]
fn various_socket_sizes() {
    // L = 1 (every rank its own socket) up to everything on one socket
    let g = erdos_renyi(32, 0.3, 9);
    for (nodes, sockets, cores) in [(16, 2, 1), (8, 2, 2), (2, 2, 8), (1, 2, 16), (1, 1, 32)] {
        let layout = ClusterLayout::new(nodes, sockets, cores);
        check_all(&g, &layout, 8, &format!("layout {nodes}x{sockets}x{cores}"));
    }
}

#[test]
fn zero_and_large_payloads() {
    let layout = ClusterLayout::new(2, 2, 4);
    let g = erdos_renyi(16, 0.4, 2);
    check_all(&g, &layout, 0, "zero payload");
    check_all(&g, &layout, 65536, "64KB payload");
}

#[test]
fn dh_off_block_placement_plans_through_the_reranking() {
    let g = erdos_renyi(16, 0.3, 1);
    let rr = ClusterLayout::new(4, 2, 2).with_placement(Placement::RoundRobinNodes);
    // the halving builder plans in rank order, reading only the layout's
    // shape...
    let in_rank_order = nhood_core::builder::build_pattern(&g, &rr).unwrap();
    // ...so the communicator re-ranks into locality order first, and its
    // plan is not the rank-order one; naive and CN are placement-agnostic
    let comm = DistGraphComm::create_adjacent(g.clone(), rr).unwrap();
    let plan = comm.plan(Algorithm::DistanceHalving).unwrap();
    plan.validate(&g).unwrap();
    assert!(plan != nhood_core::lower::lower(&in_rank_order, &g));
    let payloads = test_payloads(16, 8, 1);
    let want = reference_allgather(&g, &payloads);
    let relays = [Algorithm::HierarchicalLeader { leaders_per_node: 2 }, Algorithm::Bruck];
    for algo in [Algorithm::Naive, Algorithm::CommonNeighbor { k: 4 }, Algorithm::DistanceHalving]
        .into_iter()
        .chain(relays)
    {
        let req = CollectiveRequest::allgather(&payloads).algorithm(algo);
        assert_eq!(comm.collective(&req).unwrap().rbufs, want, "{algo}");
    }
}
