//! Quickstart: create a virtual topology, run a neighborhood allgather
//! with each algorithm, and compare latencies on a modelled cluster.
//!
//! ```text
//! cargo run --release -p nhood-integration --example quickstart
//! ```

use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::simulate;
use nhood_core::{Algorithm, CollectiveRequest, DistGraphComm, SimCost};
use nhood_topology::random::erdos_renyi;

fn main() {
    // 1. A communicator: 256 ranks on 8 nodes × 2 sockets × 16 cores,
    //    with a random sparse communication graph (δ = 0.2).
    let n = 256;
    let graph = erdos_renyi(n, 0.2, 42);
    let layout = ClusterLayout::new(8, 2, 16);
    println!("topology: {n} ranks, {} edges (density {:.3})", graph.edge_count(), graph.density());
    let comm = DistGraphComm::create_adjacent(graph, layout).expect("layout fits");

    // 2. Every rank contributes an 8-byte payload; run the collective
    //    for real (virtual executor) with each algorithm and check that
    //    all three deliver identical receive buffers.
    let payloads: Vec<Vec<u8>> = (0..n).map(|r| (r as u64).to_le_bytes().to_vec()).collect();
    let reference = comm
        .collective(&CollectiveRequest::allgather(&payloads).algorithm(Algorithm::Naive))
        .expect("naive allgather")
        .rbufs;
    for algo in [Algorithm::CommonNeighbor { k: 8 }, Algorithm::DistanceHalving] {
        let req = CollectiveRequest::allgather(&payloads).algorithm(algo);
        let got = comm.collective(&req).expect("allgather").rbufs;
        assert_eq!(got, reference, "{algo} must deliver the same data");
        println!("{algo}: receive buffers identical to naive");
    }

    // 3. Compare simulated latencies across message sizes: each plan is
    //    built once, in the communicator's memo, and priced per size.
    let cost = SimCost::niagara();
    let latency = |algo, m| {
        let plan = comm.plan_shared(algo).expect("plan");
        simulate(&plan, comm.layout(), m, &cost).expect("sim").makespan
    };
    println!(
        "\n{:>10} {:>12} {:>12} {:>12} {:>8}",
        "msg size", "naive", "common-nbr", "dist-halv", "speedup"
    );
    for m in [32usize, 1024, 32768, 1 << 20] {
        let tn = latency(Algorithm::Naive, m);
        let tc = latency(Algorithm::CommonNeighbor { k: 8 }, m);
        let td = latency(Algorithm::DistanceHalving, m);
        println!(
            "{:>10} {:>10.1}us {:>10.1}us {:>10.1}us {:>7.2}x",
            m,
            tn * 1e6,
            tc * 1e6,
            td * 1e6,
            tn / td
        );
    }

    // 4. Distance Halving also exposes its one-time setup statistics.
    let plan = comm.plan_shared(Algorithm::DistanceHalving).expect("plan");
    let stats = plan.selection.expect("DH plans carry selection stats");
    println!(
        "\nsetup: {} negotiation signals, agent-success rate {:.0}%",
        stats.total_signals(),
        stats.success_rate() * 100.0
    );
}
