//! Micro-benchmarks of the discrete-event engine itself: lowering a plan
//! to a schedule and replaying it, on naive vs Distance Halving plans.

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
        let sizes = vec![1024; plan.n()];
        let schedule = to_schedule_v(&plan, &sizes, &cost);
        let engine = Engine::new(&layout, cost.net);
        let msgs = schedule.message_count();
        // what a simulated request pays: the lowering, then the replay
        group.case(&format!("lower/{algo} ({msgs} msgs)"), 10, 0, || {
            to_schedule_v(&plan, &sizes, &cost)
        });
        group.case(&format!("run/{algo} ({msgs} msgs)"), 10, 0, || engine.run(&schedule).unwrap());
    }
}
