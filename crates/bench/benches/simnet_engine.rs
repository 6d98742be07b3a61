//! Micro-benchmarks of the discrete-event engine itself: events per
//! second on naive vs Distance Halving schedules.

use nhood_bench::harness::Bench;
use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::to_schedule_v;
use nhood_core::{Algorithm, DistGraphComm, SimCost};
use nhood_simnet::Engine;
use nhood_topology::random::erdos_renyi;

fn main() {
    let n = 512;
    let graph = erdos_renyi(n, 0.3, 42);
    let layout = ClusterLayout::niagara(16, 32);
    let comm = DistGraphComm::create_adjacent(graph, layout.clone()).unwrap();
    let cost = SimCost::niagara();

    let group = Bench::group("simnet_engine");
    for algo in [Algorithm::Naive, Algorithm::DistanceHalving] {
        let plan = comm.plan(algo).unwrap();
        let schedule = to_schedule_v(&plan, &vec![1024; plan.n()], &cost);
        let engine = Engine::new(&layout, cost.net);
        group.case(&format!("run/{algo} ({} msgs)", schedule.message_count()), 10, 0, || {
            engine.run(&schedule).unwrap()
        });
    }
}
