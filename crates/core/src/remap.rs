//! Virtual re-ranking: planning under arbitrary rank placements.
//!
//! Distance Halving reads sockets off rank ranges, and the leader
//! hierarchy and Bruck read nodes off rank numbers: all three need rank
//! order to mirror physical locality, which block placement gives for
//! free. For any other placement — `--map-by node`, explicit rankfiles —
//! a real library would *relabel*: sort ranks by physical location into
//! **virtual ranks**, plan in virtual space, and translate the resulting
//! plan back (`Relabel`, [`reranked`]); the builders plan in rank order
//! and read only the layout's shape.
//!
//! Alignment is exact when every socket holds the same number of ranks;
//! with partially filled sockets the virtual "socket" boundaries are
//! best-effort (correctness never depends on them — only locality does).

use crate::plan::CollectivePlan;
use crate::sizes::BlockSizes;
use nhood_cluster::ClusterLayout;
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

/// Plans `graph` in the virtual rank space of `order`: relabels the
/// graph and the size table (`Relabel`) into virtual ranks, runs
/// `build` on them, and relabels the plan back. Under the identity order
/// the plan equals `build(graph, sizes)`. [`DistGraphComm`](crate::comm::DistGraphComm)
/// relabels the same way in the [`locality_order`] of its layout.
pub fn reranked<E>(
    graph: &Topology,
    order: &RankOrder,
    sizes: &BlockSizes,
    build: impl FnOnce(&Topology, &BlockSizes) -> Result<CollectivePlan, E>,
) -> Result<CollectivePlan, E> {
    let to_virtual = &order.virtual_of;
    let vplan = build(&graph.relabelled(to_virtual), &sizes.relabelled(to_virtual))?;
    Ok(vplan.relabelled(&order.physical))
}

/// A value that names ranks: [`RankOrder::virtual_of`] renames it into
/// virtual ranks, [`RankOrder::physical`] back out.
pub(crate) trait Relabel: Clone {
    /// `self` with every rank `r` renamed `to[r]`.
    fn relabelled(&self, to: &[Rank]) -> Self;
}

impl Relabel for Vec<(Rank, Rank)> {
    fn relabelled(&self, to: &[Rank]) -> Self {
        self.iter().map(|&(u, v)| (to[u], to[v])).collect()
    }
}

impl Relabel for Topology {
    fn relabelled(&self, to: &[Rank]) -> Self {
        Topology::from_edges(self.n(), self.edges().map(|(u, v)| (to[u], to[v])))
    }
}

impl Relabel for BlockSizes {
    fn relabelled(&self, to: &[Rank]) -> Self {
        let BlockSizes::PerRank(_) = self else { return self.clone() };
        let mut table = vec![0; to.len()];
        to.iter().enumerate().for_each(|(r, &new)| table[new] = self.size(r));
        BlockSizes::per_rank(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::exec::virtual_exec::{reference_allgather, test_payloads};
    use crate::exec::{Executor, Virtual};
    use crate::lower::lower;
    use nhood_cluster::Placement;
    use nhood_topology::random::erdos_renyi;
    use std::sync::Arc;

    /// Distance Halving re-ranked into `layout`'s locality order, at the
    /// builder's default sizes and metric.
    fn reordered(g: &Topology, layout: &ClusterLayout) -> CollectivePlan {
        let build = |g: &Topology, _: &BlockSizes| build_pattern(g, layout).map(|p| lower(&p, g));
        reranked(g, &locality_order(layout, g.n()), &BlockSizes::default(), build).unwrap()
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
        let plan = Arc::new(reordered(&g, &layout));
        plan.validate(&g).unwrap();
        let payloads = test_payloads(24, 8, 2);
        let got = Virtual.run_simple(&plan, &g, &payloads).unwrap();
        assert_eq!(got, reference_allgather(&g, &payloads));
    }

    #[test]
    fn reranked_hands_build_the_relabelled_graph_and_size_table() {
        let g = erdos_renyi(24, 0.3, 3);
        let layout = ClusterLayout::new(3, 2, 4).with_placement(Placement::RoundRobinNodes);
        let order = locality_order(&layout, 24);
        let sizes = BlockSizes::per_rank((0..24).map(|p| 3 * p).collect());
        let plan = reranked(&g, &order, &sizes, |vg: &Topology, vsizes: &BlockSizes| {
            for (v, &p) in order.physical.iter().enumerate() {
                assert_eq!(vsizes.size(v), sizes.size(p), "virtual rank {v}");
                let mut want: Vec<Rank> =
                    g.out_neighbors(p).iter().map(|&d| order.virtual_of[d]).collect();
                want.sort_unstable();
                assert_eq!(vg.out_neighbors(v), want, "virtual rank {v}");
            }
            Ok::<_, ()>(crate::naive::plan_naive(vg))
        });
        // ... and the plan comes back in physical ranks
        plan.unwrap().validate(&g).unwrap();
    }

    #[test]
    fn reordered_equals_plain_under_block_placement() {
        let g = erdos_renyi(32, 0.3, 4);
        let layout = ClusterLayout::new(4, 2, 4);
        let plain = lower(&build_pattern(&g, &layout).unwrap(), &g);
        // identity permutation → byte-identical plans, for every builder
        // the communicator re-ranks
        assert!(plain == reordered(&g, &layout));
        let order = locality_order(&layout, 32);
        let relays: [fn(&Topology, &ClusterLayout) -> CollectivePlan; 2] = [
            |g, layout| crate::leader::plan_hierarchical_leader(g, layout, 2),
            crate::bruck::plan_bruck,
        ];
        for relay in relays {
            let same =
                reranked(&g, &order, &BlockSizes::default(), |g, _| Ok::<_, ()>(relay(g, &layout)));
            assert!(relay(&g, &layout) == same.unwrap());
        }
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
