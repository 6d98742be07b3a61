//! The mirror-pairing (load-oblivious) Distance Halving variant, used by
//! the selection ablation: identical halving structure, but agents are
//! fixed reflections instead of negotiated shared-neighbor maxima.

use nhood_cluster::{ClusterLayout, WorkerPool};
use nhood_core::builder::{build_pattern_recorded_v, BuildError, PairingStrategy};
use nhood_core::lower::lower;
use nhood_core::{BlockSizes, CollectivePlan, DhPattern, LoadMetric};
use nhood_topology::Topology;

/// The mirror-paired pattern: the builder's full form with
/// [`PairingStrategy::Mirror`] and every other input at its default.
pub fn mirror_pattern(graph: &Topology, layout: &ClusterLayout) -> Result<DhPattern, BuildError> {
    build_pattern_recorded_v(
        graph,
        layout,
        PairingStrategy::Mirror,
        &BlockSizes::default(),
        LoadMetric::Neighbors,
        &WorkerPool::serial(),
        &nhood_telemetry::NULL,
    )
}

/// Builds an executable plan for mirror-paired distance halving.
pub fn plan_mirror_halving(
    graph: &Topology,
    layout: &ClusterLayout,
) -> Result<CollectivePlan, BuildError> {
    Ok(lower(&mirror_pattern(graph, layout)?, graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhood_topology::random::erdos_renyi;

    #[test]
    fn mirror_plan_validates_and_executes() {
        let g = erdos_renyi(32, 0.4, 5);
        let layout = ClusterLayout::new(4, 2, 4);
        let plan = std::sync::Arc::new(plan_mirror_halving(&g, &layout).unwrap());
        plan.validate(&g).unwrap();
        let payloads = nhood_core::exec::virtual_exec::test_payloads(32, 8, 1);
        use nhood_core::{Executor, Virtual};
        let got = Virtual.run_simple(&plan, &g, &payloads).unwrap();
        let want = nhood_core::exec::virtual_exec::reference_allgather(&g, &payloads);
        assert_eq!(got, want);
    }
}
