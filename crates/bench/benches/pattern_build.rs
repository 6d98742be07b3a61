//! Micro-benchmarks of communication-pattern construction — the
//! one-time cost that Fig. 8 discusses (here as wall-clock of our
//! builders rather than simulated network time).

use nhood_bench::harness::Bench;
use nhood_bench::mirror::mirror_pattern;
use nhood_cluster::ClusterLayout;
use nhood_core::alltoall::simulate_alltoall;
use nhood_core::builder::build_pattern;
use nhood_core::common_neighbor::plan_common_neighbor;
use nhood_core::distributed_builder::build_pattern_distributed;
use nhood_core::exec::sim_exec::SimCost;
use nhood_core::leader::plan_hierarchical_leader;
use nhood_core::lower::lower;
use nhood_core::naive::plan_naive;
use nhood_topology::random::erdos_renyi;

fn main() {
    let group = Bench::group("pattern_build");
    for &(n, delta) in &[(128usize, 0.1f64), (128, 0.5), (512, 0.1), (512, 0.5)] {
        let graph = erdos_renyi(n, delta, 42);
        let layout = ClusterLayout::new(n / 16, 2, 8);
        let id = format!("n{n}_d{delta}");
        group.case(&format!("distance_halving/{id}"), 10, 0, || {
            build_pattern(&graph, &layout).unwrap()
        });
        group.case(&format!("mirror_halving/{id}"), 10, 0, || {
            mirror_pattern(&graph, &layout).unwrap()
        });
        group.case(&format!("common_neighbor_k8/{id}"), 10, 0, || plan_common_neighbor(&graph, 8));
        group.case(&format!("naive/{id}"), 10, 0, || plan_naive(&graph));
        group.case(&format!("hierarchical_leader_l4/{id}"), 10, 0, || {
            plan_hierarchical_leader(&graph, &layout, 4)
        });
        // the alltoall's one-time cost on top of the gather plan: derive
        // its item routing, compile it and lower the schedule
        let plan = lower(&build_pattern(&graph, &layout).unwrap(), &graph);
        let cost = SimCost::niagara();
        group.case(&format!("dh_alltoall_routing/{id}"), 10, 0, || {
            simulate_alltoall(&plan, &graph, &layout, 64, &cost).unwrap()
        });
        if n <= 128 {
            group.case(&format!("distributed_threads/{id}"), 10, 0, || {
                build_pattern_distributed(&graph, &layout).unwrap()
            });
        }
    }
}
