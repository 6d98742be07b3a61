//! Capacity-planning sweep: how does each algorithm's latency scale with
//! cluster size, density and message size? A small self-serve version of
//! the paper's Fig. 5 for users sizing their own deployments.
//!
//! ```text
//! cargo run --release -p nhood-integration --example cluster_sweep [delta]
//! ```

use nhood_cluster::ClusterLayout;
use nhood_core::{Algorithm, BlockSizes, DistGraphComm, SimCost};
use nhood_topology::random::erdos_renyi;

fn main() {
    let delta: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.3);
    assert!((0.0..=1.0).contains(&delta), "delta must be in [0, 1]");
    let cost = SimCost::niagara();

    println!("Random sparse graph, delta = {delta}; latencies in microseconds\n");
    println!(
        "{:>6} {:>6} {:>9} {:>12} {:>12} {:>12} {:>9}",
        "ranks", "nodes", "msg", "naive", "common-nbr", "dist-halv", "DH gain"
    );
    for (nodes, rpn) in [(4usize, 32usize), (8, 32), (16, 32)] {
        let ranks = nodes * rpn;
        let graph = erdos_renyi(ranks, delta, 42);
        let layout = ClusterLayout::niagara(nodes, rpn);
        let comm = DistGraphComm::create_adjacent(graph, layout).expect("fits");
        let naive = comm.plan(Algorithm::Naive).expect("plan");
        let dh = comm.plan(Algorithm::DistanceHalving).expect("plan");
        // the paper sweeps K and keeps the best; do the same at 1 KB
        let ks = [2, 4, 8, 16].map(|k| Algorithm::CommonNeighbor { k });
        let sizes = BlockSizes::uniform(1024);
        let cn = comm.tune_candidates(&ks, &sizes, &nhood_telemetry::NULL).expect("sweep").plan;
        for m in [64usize, 4096, 262_144] {
            let tn = nhood_core::exec::sim_exec::simulate(&naive, comm.layout(), m, &cost)
                .expect("sim")
                .makespan;
            let tc = nhood_core::exec::sim_exec::simulate(&cn, comm.layout(), m, &cost)
                .expect("sim")
                .makespan;
            let td = nhood_core::exec::sim_exec::simulate(&dh, comm.layout(), m, &cost)
                .expect("sim")
                .makespan;
            println!(
                "{:>6} {:>6} {:>9} {:>12.1} {:>12.1} {:>12.1} {:>8.2}x",
                ranks,
                nodes,
                m,
                tn * 1e6,
                tc * 1e6,
                td * 1e6,
                tn / td
            );
        }
    }
    println!("\n(CN column uses the best K per scale, as in the paper)");
}
