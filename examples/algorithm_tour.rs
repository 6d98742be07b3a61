//! A tour of every collective variant in the library on one topology:
//! the four allgather algorithms (naïve, Common Neighbor, hierarchical
//! leader, Distance Halving), the `allgatherv` ragged variant, and the
//! message-combining alltoallv — each verified against the MPI-semantics
//! reference, then ranked by simulated latency. Everything goes through
//! the collective-agnostic request API: build a [`CollectiveRequest`],
//! hand it to [`DistGraphComm::collective`].
//!
//! ```text
//! cargo run --release -p nhood-integration --example algorithm_tour
//! ```

use nhood_cluster::ClusterLayout;
use nhood_core::alltoall::simulate_alltoall;
use nhood_core::exec::sim_exec::simulate;
use nhood_core::{
    Algorithm, BlockSizes, CollectivePlan, CollectiveRequest, DistGraphComm, SimCost,
};
use nhood_topology::random::erdos_renyi;

fn main() {
    let n = 192;
    let graph = erdos_renyi(n, 0.25, 7);
    let layout = ClusterLayout::new(6, 2, 16);
    let comm = DistGraphComm::create_adjacent(graph.clone(), layout).expect("fits");
    let cost = SimCost::niagara();

    println!(
        "topology: {n} ranks on 6 nodes, {} edges (density {:.3})\n",
        graph.edge_count(),
        graph.density()
    );

    // --- allgather, four algorithms -------------------------------------
    let algos = [
        Algorithm::Naive,
        Algorithm::CommonNeighbor { k: 8 },
        Algorithm::HierarchicalLeader { leaders_per_node: 4 },
        Algorithm::DistanceHalving,
    ];
    let payloads: Vec<Vec<u8>> = (0..n).map(|r| vec![r as u8; 64]).collect();
    let reference = comm
        .collective(&CollectiveRequest::allgather(&payloads).algorithm(Algorithm::Naive))
        .expect("reference")
        .rbufs;

    println!("allgather (64 B payloads):");
    println!("{:>28} {:>10} {:>12} {:>12}", "algorithm", "messages", "latency", "speedup");
    let latency =
        |plan: &CollectivePlan| simulate(plan, comm.layout(), 64, &cost).expect("sim").makespan;
    let tn = latency(&comm.plan_shared(Algorithm::Naive).expect("plan"));
    for algo in algos {
        let req = CollectiveRequest::allgather(&payloads).algorithm(algo);
        let out = comm.collective(&req).expect("allgather").rbufs;
        assert_eq!(out, reference, "{algo} must match the reference");
        let plan = comm.plan_shared(algo).expect("plan");
        let t = latency(&plan);
        println!(
            "{:>28} {:>10} {:>10.1}us {:>11.2}x",
            algo.to_string(),
            plan.message_count(),
            t * 1e6,
            tn / t
        );
    }

    // --- allgatherv: ragged payloads ------------------------------------
    let ragged: Vec<Vec<u8>> = (0..n).map(|r| vec![r as u8; 16 + (r % 5) * 24]).collect();
    let v_naive = comm
        .collective(&CollectiveRequest::allgatherv(&ragged).algorithm(Algorithm::Naive))
        .expect("allgatherv")
        .rbufs;
    let v_dh = comm
        .collective(&CollectiveRequest::allgatherv(&ragged).algorithm(Algorithm::DistanceHalving))
        .expect("allgatherv")
        .rbufs;
    assert_eq!(v_naive, v_dh);
    println!("\nallgatherv: ragged payloads (16..112 B) agree across algorithms");

    // --- alltoallv: distinct payload per neighbor ------------------------
    let m = 32;
    let sbufs: Vec<Vec<u8>> = (0..n)
        .map(|p| {
            let mut b = Vec::new();
            for &d in graph.out_neighbors(p) {
                b.extend((0..m).map(|i| (p * 17 + d * 3 + i) as u8));
            }
            b
        })
        .collect();
    let a_naive = comm
        .collective(
            &CollectiveRequest::alltoallv(&sbufs)
                .algorithm(Algorithm::Naive)
                .sizes(BlockSizes::uniform(m)),
        )
        .expect("alltoallv")
        .rbufs;
    let a_dh = comm
        .collective(
            &CollectiveRequest::alltoallv(&sbufs)
                .algorithm(Algorithm::DistanceHalving)
                .sizes(BlockSizes::uniform(m)),
        )
        .expect("alltoallv")
        .rbufs;
    assert_eq!(a_naive, a_dh);
    // What the routing moves, read off the simulated schedule: the plan
    // is the gather's own, the alltoall runs the items it implies.
    let routed = |algo| {
        let plan = comm.alltoall_plan(algo).expect("plan");
        let sim = simulate_alltoall(&plan, comm.graph(), comm.layout(), m, &SimCost::niagara());
        sim.expect("sim").stats
    };
    let (naive, dh) = (routed(Algorithm::Naive), routed(Algorithm::DistanceHalving));
    println!(
        "alltoallv: {} direct messages vs {} with distance-halving routing ({} item-hops)",
        naive.total_msgs(),
        dh.total_msgs(),
        dh.bytes.iter().sum::<usize>() / m
    );
}
