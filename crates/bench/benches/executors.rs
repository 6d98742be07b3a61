//! Micro-benchmarks of the plan executors: sequential virtual execution
//! vs the threaded backend (rank machines on a worker pool), across
//! algorithms.

use nhood_bench::harness::Bench;
use nhood_cluster::ClusterLayout;
use nhood_core::exec::virtual_exec::test_payloads;
use nhood_core::{Algorithm, BlockArena, DistGraphComm, ExecOptions, Executor, Threaded, Virtual};
use nhood_telemetry::CountingRecorder;
use nhood_topology::random::erdos_renyi;

fn main() {
    let n = 64;
    let m = 1024;
    let graph = erdos_renyi(n, 0.3, 42);
    let layout = ClusterLayout::new(4, 2, 8);
    let comm = DistGraphComm::create_adjacent(graph.clone(), layout).unwrap();
    let payloads = test_payloads(n, m, 7);

    let group = Bench::group("executors");
    for algo in [Algorithm::Naive, Algorithm::CommonNeighbor { k: 8 }, Algorithm::DistanceHalving] {
        let plan = comm.plan_shared(algo).unwrap();
        let bytes = (plan.total_blocks_sent() * m) as u64;
        group.case(&format!("virtual/{algo}"), 10, bytes, || {
            Virtual.run_simple(&plan, &graph, &payloads).unwrap()
        });
        group.case(&format!("threaded/{algo}"), 10, bytes, || {
            Threaded.run_simple(&plan, &graph, &payloads).unwrap()
        });
        // one instrumented pass: report what the plan actually moved
        let rec = CountingRecorder::new(n);
        Virtual
            .run(
                &plan,
                &graph,
                &payloads,
                &mut BlockArena::new(),
                &ExecOptions::new().recorder(&rec),
            )
            .unwrap();
        group.counters(&format!("{algo}"), &rec.totals());
    }
}
