//! Virtual re-ranking: Distance Halving under arbitrary rank placements.
//!
//! The halving algorithm needs rank order to mirror physical locality
//! (contiguous socket ranges), which block placement gives for free. For
//! any other placement — `--map-by node`, explicit rankfiles — a real
//! library would *relabel*: sort ranks by physical location into
//! **virtual ranks**, run the whole pattern machinery in virtual space,
//! and translate the resulting plan back. This module does exactly that.
//!
//! Alignment is exact when every socket holds the same number of ranks;
//! with partially filled sockets the virtual "socket" boundaries are
//! best-effort (correctness never depends on them — only locality does).

use crate::builder::{build_pattern_recorded_v, BuildError, PairingStrategy};
use crate::lower::lower_pooled;
use crate::plan::{CollectivePlan, MsgDir, PlanWriter};
use crate::sizes::{BlockSizes, LoadMetric};
use nhood_cluster::{ClusterLayout, WorkerPool};
use nhood_telemetry::{labels, Recorder};
use nhood_topology::{Rank, Topology};

/// The permutation used by a reordered plan.
#[derive(Clone, Debug)]
pub struct RankOrder {
    /// `physical[v]` = physical rank occupying virtual slot `v`.
    pub physical: Vec<Rank>,
    /// `virtual_of[p]` = virtual slot of physical rank `p`.
    pub virtual_of: Vec<Rank>,
}

/// Computes the locality-sorted rank order for a layout: virtual slots
/// walk ranks in (group, node, socket, core) order, so halving splits
/// align with *group* boundaries first (Dragonfly+ global links), then
/// nodes, then sockets — even when the job's node allocation is permuted.
pub fn locality_order(layout: &ClusterLayout, n: usize) -> RankOrder {
    let mut physical: Vec<Rank> = (0..n).collect();
    physical.sort_by_key(|&p| {
        let loc = layout.location(p);
        (layout.group_of_node(loc.node), loc.node, loc.socket, loc.core)
    });
    let mut virtual_of = vec![0; n];
    for (v, &p) in physical.iter().enumerate() {
        virtual_of[p] = v;
    }
    RankOrder { physical, virtual_of }
}

/// Builds a Distance Halving plan for `graph` on a layout with *any*
/// placement, by re-ranking into locality order, planning in virtual
/// space, and relabelling the plan back to physical ranks. `sizes`
/// (indexed by physical rank, relabelled here), `metric`, `pool` and
/// `rec` reach the pattern build and the lowering exactly as they do on
/// a block-placed layout ([`build_pattern_recorded_v`],
/// [`lower_pooled`]). This is what
/// [`DistGraphComm::plan`](crate::comm::DistGraphComm::plan) runs for
/// Distance Halving on a non-block placement.
pub fn plan_distance_halving_reordered(
    graph: &Topology,
    layout: &ClusterLayout,
    sizes: &BlockSizes,
    metric: LoadMetric,
    pool: &WorkerPool,
    rec: &dyn Recorder,
) -> Result<CollectivePlan, BuildError> {
    let n = graph.n();
    if n > layout.capacity() {
        return Err(BuildError::LayoutTooSmall { ranks: n, capacity: layout.capacity() });
    }
    let order = locality_order(layout, n);

    // Virtual graph and size table: relabel every edge and every entry.
    let vedges: Vec<(Rank, Rank)> =
        graph.edges().map(|(s, d)| (order.virtual_of[s], order.virtual_of[d])).collect();
    let vgraph = Topology::from_edges(n, vedges);
    let vsizes = match sizes {
        BlockSizes::Uniform(_) => sizes.clone(),
        BlockSizes::PerRank(_) => {
            BlockSizes::per_rank(order.physical.iter().map(|&p| sizes.size(p)).collect())
        }
    };

    // A block-placed layout of the same shape hosts the virtual ranks.
    let block = ClusterLayout::with_groups(
        layout.nodes(),
        layout.sockets_per_node(),
        layout.ranks_per_socket(),
        layout.nodes_per_group(),
    );
    let strategy = PairingStrategy::LoadAware;
    let pattern = build_pattern_recorded_v(&vgraph, &block, strategy, &vsizes, metric, pool, rec)?;
    rec.span_begin(0, labels::PLAN_LOWER);
    let vplan = lower_pooled(&pattern, &vgraph, pool);
    rec.span_end(0, labels::PLAN_LOWER);

    // Translate back: program of virtual rank v belongs to physical rank
    // physical[v]; peers and block ids are physical ranks again.
    let to_physical = |v: &Rank| order.physical[*v];
    let mut w = PlanWriter::new(vplan.algorithm, n, vplan.phase_count());
    w.selection = vplan.selection;
    w.reserve(vplan.message_count(), 2 * vplan.total_blocks_sent());
    let mut blocks: Vec<Rank> = Vec::new();
    for (v, &p) in order.physical.iter().enumerate() {
        for (k, phase) in vplan.phases(v).enumerate() {
            w.copy(p, k, phase.copy_blocks());
            for dir in [MsgDir::Send, MsgDir::Recv] {
                for msg in phase.msgs(dir) {
                    blocks.clear();
                    blocks.extend(msg.blocks().iter().map(to_physical));
                    let peer = order.physical[msg.peer()];
                    match dir {
                        MsgDir::Send => w.send(p, k, peer, msg.tag(), &blocks),
                        MsgDir::Recv => w.recv(p, k, peer, msg.tag(), &blocks),
                    }
                }
            }
        }
    }
    Ok(w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::exec::virtual_exec::{reference_allgather, test_payloads};
    use crate::exec::{Executor, Virtual};
    use crate::lower::lower;
    use nhood_cluster::Placement;
    use nhood_telemetry::NULL;
    use nhood_topology::random::erdos_renyi;
    use std::sync::Arc;

    /// The re-ranked plan at the builder's default sizes and metric.
    fn reordered(g: &Topology, layout: &ClusterLayout) -> CollectivePlan {
        let (sizes, pool) = (BlockSizes::default(), WorkerPool::serial());
        plan_distance_halving_reordered(g, layout, &sizes, LoadMetric::Neighbors, &pool, &NULL)
            .unwrap()
    }

    #[test]
    fn locality_order_is_a_permutation() {
        let layout = ClusterLayout::new(3, 2, 4).with_placement(Placement::RoundRobinNodes);
        let order = locality_order(&layout, 24);
        let mut seen = [false; 24];
        for &p in &order.physical {
            assert!(!seen[p], "rank {p} twice");
            seen[p] = true;
        }
        for p in 0..24 {
            assert_eq!(order.physical[order.virtual_of[p]], p);
        }
        // virtual order walks nodes monotonically
        for w in order.physical.windows(2) {
            let a = layout.location(w[0]);
            let b = layout.location(w[1]);
            assert!((a.node, a.socket, a.core) < (b.node, b.socket, b.core));
        }
    }

    #[test]
    fn block_placement_order_is_identity() {
        let layout = ClusterLayout::new(2, 2, 4);
        let order = locality_order(&layout, 16);
        assert_eq!(order.physical, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn reordered_plan_is_correct_under_round_robin() {
        let g = erdos_renyi(24, 0.4, 9);
        let layout = ClusterLayout::new(3, 2, 4).with_placement(Placement::RoundRobinNodes);
        // the plain builder refuses this placement...
        assert!(build_pattern(&g, &layout).is_err());
        // ...but the reordered planner handles it
        let plan = Arc::new(reordered(&g, &layout));
        plan.validate(&g).unwrap();
        let payloads = test_payloads(24, 8, 2);
        let got = Virtual.run_simple(&plan, &g, &payloads).unwrap();
        assert_eq!(got, reference_allgather(&g, &payloads));
    }

    #[test]
    fn reordered_equals_plain_under_block_placement() {
        let g = erdos_renyi(32, 0.3, 4);
        let layout = ClusterLayout::new(4, 2, 4);
        let plain = lower(&build_pattern(&g, &layout).unwrap(), &g);
        // identity permutation → byte-identical plans
        assert!(plain == reordered(&g, &layout));
    }

    #[test]
    fn reordered_plan_restores_locality() {
        // under round-robin, naive DH would treat rank-distance as
        // locality; the reordered plan's final phase must stay mostly
        // node-local *physically*
        let g = erdos_renyi(32, 0.5, 11);
        let layout = ClusterLayout::new(4, 2, 4).with_placement(Placement::RoundRobinNodes);
        let plan = reordered(&g, &layout);
        let final_idx = plan.phase_count() - 2;
        let mut local = 0usize;
        let mut remote = 0usize;
        for p in 0..plan.n() {
            for msg in plan.phase(p, final_idx).sends() {
                if layout.same_node(p, msg.peer()) {
                    local += 1;
                } else {
                    remote += 1;
                }
            }
        }
        assert!(
            local * 2 > local + remote,
            "final phase should be mostly node-local: {local} local vs {remote} remote"
        );
    }
}
