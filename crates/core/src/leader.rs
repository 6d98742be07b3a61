//! A hierarchical leader-based neighborhood allgather — the large-message
//! baseline of the literature (Ghazimirsaeed et al., SC'20, the paper's
//! reference \[9\]), implemented for comparison in the regime where
//! Distance Halving's buffer doubling hurts.
//!
//! Three phases under block placement:
//!
//! 1. **gather** — every rank with at least one off-node outgoing
//!    neighbor sends its block to one of its node's leaders (blocks are
//!    assigned to leaders round-robin, so `leaders_per_node > 1` spreads
//!    the relay load — the SC'20 design's key load-awareness knob);
//! 2. **exchange** — leader `i` of node `A` sends **one combined
//!    message per destination node** carrying every `A`-block (assigned
//!    to leader slot `i`) that some rank of that node needs; intra-node
//!    edges bypass the hierarchy as direct sends in the same phase;
//! 3. **scatter** — receiving leaders deliver each remote block to the
//!    local ranks that need it, one combined message per local rank.
//!
//! Compared to the naïve algorithm this trades `O(edges)` inter-node
//! messages for `O(node²·leaders)`; compared to Distance Halving it has
//! constant depth (3 phases) and never inflates payloads beyond what some
//! receiver actually needs — at the price of leader hot-spots.

use crate::plan::{Algorithm, CollectivePlan, PlanWriter};
use nhood_cluster::ClusterLayout;
use nhood_topology::{Rank, Topology};
use std::collections::{BTreeMap, BTreeSet};

/// Builds the hierarchical leader plan.
///
/// # Panics
/// Panics if `leaders_per_node == 0`, the layout is not block-placed, or
/// the topology exceeds the layout.
pub fn plan_hierarchical_leader(
    graph: &Topology,
    layout: &ClusterLayout,
    leaders_per_node: usize,
) -> CollectivePlan {
    assert!(leaders_per_node > 0, "need at least one leader per node");
    assert_eq!(
        layout.placement(),
        nhood_cluster::Placement::Block,
        "leader hierarchy needs block placement (only Distance Halving re-ranks through remap)"
    );
    let n = graph.n();
    assert!(n <= layout.capacity(), "{n} ranks exceed layout capacity");
    let per_node = layout.ranks_per_node();
    let node_of = |r: Rank| r / per_node;
    let node_base = |node: usize| node * per_node;
    let ranks_on = |node: usize| {
        let lo = node_base(node);
        lo..(lo + per_node).min(n)
    };
    // leader slot for a block, and the hosting rank on a given node
    let slot_of = |b: Rank| b % leaders_per_node;
    let leader_rank = |node: usize, slot: usize| {
        let lo = node_base(node);
        let count = ranks_on(node).len().min(leaders_per_node);
        lo + slot % count.max(1)
    };

    // phases: gather, exchange, scatter, a copy-only epilogue
    let mut w = PlanWriter::new(Algorithm::HierarchicalLeader { leaders_per_node }, n, 4);
    w.reserve(graph.edge_count(), graph.edge_count());

    // Which blocks of node A does node B need, per leader slot?
    // needs[(A, B, slot)] -> set of blocks
    let mut needs: BTreeMap<(usize, usize, usize), BTreeSet<Rank>> = BTreeMap::new();
    // gathered: blocks that travel to their local leader in phase 0
    let mut gathered: BTreeSet<Rank> = BTreeSet::new();
    for b in 0..n {
        let a = node_of(b);
        let mut remote = false;
        for &t in graph.out_neighbors(b) {
            let bn = node_of(t);
            if bn != a {
                remote = true;
                needs.entry((a, bn, slot_of(b))).or_default().insert(b);
            }
        }
        if remote {
            gathered.insert(b);
        }
    }

    // Phase 0: gather to the local leader of the block's slot.
    let relay = |b: Rank| leader_rank(node_of(b), slot_of(b));
    gather_to_relays(&mut w, 0, &gathered, relay);

    // Phase 1a: inter-node combined exchange, one message per
    // (source node, dest node, leader slot). The tag encodes the full
    // triple: two slots can share a leader rank on small nodes, so the
    // (src, dst) pair alone is not unique.
    let n_nodes = layout.nodes();
    for ((a, bnode, slot), blocks) in &needs {
        let src = leader_rank(*a, *slot);
        let dst = leader_rank(*bnode, *slot);
        let tag = 1 + ((*a * n_nodes + *bnode) * leaders_per_node + *slot) as u64;
        let blocks: Vec<Rank> = blocks.iter().copied().collect();
        w.copy(src, 1, blocks.len()); // pack
        w.message(1, src, dst, tag, &blocks);
    }
    // Phase 1b: intra-node edges as direct sends.
    send_intra_node(&mut w, 1, graph, (node_of, relay), &gathered);

    // Phase 2: scatter remote blocks to the local ranks that need them —
    // aggregated per (receiving node, slot) across all source nodes, so
    // each (leader, target) pair sends at most one message per slot.
    let mut arrived: BTreeMap<(usize, usize), BTreeSet<Rank>> = BTreeMap::new();
    for ((_, bnode, slot), blocks) in &needs {
        arrived.entry((*bnode, *slot)).or_default().extend(blocks.iter().copied());
    }
    for ((bnode, slot), blocks) in arrived {
        let (l, tag) = (leader_rank(bnode, slot), 2_000_000 + slot as u64);
        scatter_from_relay(&mut w, (2, tag), graph, (l, ranks_on(bnode)), &blocks);
    }
    w.finish()
}

/// The gather half of a relayed plan (here and in [`crate::bruck`]):
/// every `gathered` block to its `relay` in `phase` (a relay holds its
/// own).
pub(crate) fn gather_to_relays(
    w: &mut PlanWriter,
    phase: usize,
    gathered: &BTreeSet<Rank>,
    relay: impl Fn(Rank) -> Rank,
) {
    for &b in gathered.iter().filter(|&&b| relay(b) != b) {
        w.message(phase, b, relay(b), 0, &[b]);
    }
}

/// Every intra-node edge as a direct send in `phase` — bar the ones a
/// block's gather to its relay already served.
pub(crate) fn send_intra_node(
    w: &mut PlanWriter,
    phase: usize,
    graph: &Topology,
    (node_of, relay): (impl Fn(Rank) -> usize, impl Fn(Rank) -> Rank),
    gathered: &BTreeSet<Rank>,
) {
    for b in 0..graph.n() {
        let (a, l) = (node_of(b), relay(b));
        let served = |t: Rank| t == l && gathered.contains(&b) && l != b;
        for &t in graph.out_neighbors(b).iter().filter(|&&t| node_of(t) == a && !served(t)) {
            w.message(phase, b, t, 1_000_000 + t as u64, &[b]);
        }
    }
}

/// The scatter half: relay `l` hands its `arrived` blocks to the ranks of
/// `local` whose in-edges want them, one combined message per rank in
/// `phase`, unpacked in the epilogue after it.
pub(crate) fn scatter_from_relay(
    w: &mut PlanWriter,
    (phase, tag): (usize, u64),
    graph: &Topology,
    (l, local): (Rank, std::ops::Range<Rank>),
    arrived: &BTreeSet<Rank>,
) {
    let mut per_target: BTreeMap<Rank, Vec<Rank>> = BTreeMap::new();
    for &b in arrived {
        for t in local.clone().filter(|&t| t != l && graph.has_edge(b, t)) {
            per_target.entry(t).or_default().push(b);
        }
    }
    for (t, blocks) in per_target {
        w.copy(l, phase, blocks.len());
        w.copy(t, phase + 1, blocks.len());
        w.message(phase, l, t, tag, &blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::virtual_exec::{reference_allgather, test_payloads};
    use crate::exec::{Executor, Virtual};
    use nhood_topology::random::erdos_renyi;
    use std::sync::Arc;

    #[test]
    fn validates_and_matches_reference() {
        for (n, delta, leaders) in
            [(32usize, 0.3, 1usize), (32, 0.3, 4), (24, 0.7, 2), (36, 0.1, 3), (17, 0.4, 2)]
        {
            let g = erdos_renyi(n, delta, 42);
            let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
            let plan = Arc::new(plan_hierarchical_leader(&g, &layout, leaders));
            plan.validate(&g)
                .unwrap_or_else(|e| panic!("n={n} delta={delta} leaders={leaders}: {e}"));
            let payloads = test_payloads(n, 8, 1);
            let got = Virtual.run_simple(&plan, &g, &payloads).unwrap();
            assert_eq!(got, reference_allgather(&g, &payloads), "n={n} leaders={leaders}");
        }
    }

    #[test]
    fn internode_messages_bounded_by_node_pairs() {
        let g = erdos_renyi(64, 0.8, 3);
        let layout = ClusterLayout::new(4, 2, 8); // 4 nodes
        let leaders = 2;
        let plan = plan_hierarchical_leader(&g, &layout, leaders);
        let mut internode = 0usize;
        for (r, prog) in plan.to_rows().iter().enumerate() {
            let sends = prog.iter().flat_map(|phase| &phase.sends);
            internode += sends.filter(|m| !layout.same_node(r, m.peer)).count();
        }
        // at most node-pairs × leaders combined messages cross nodes
        assert!(internode <= 4 * 3 * leaders, "{internode} inter-node messages");
        assert!(internode > 0);
    }

    #[test]
    fn multiple_leaders_spread_the_relay_load() {
        let g = erdos_renyi(64, 0.6, 9);
        let layout = ClusterLayout::new(4, 2, 8);
        let one = plan_hierarchical_leader(&g, &layout, 1);
        let four = plan_hierarchical_leader(&g, &layout, 4);
        let max_load = |p: &CollectivePlan| {
            let sent = |prog: &Vec<crate::plan::PlanPhase>| {
                prog.iter().flat_map(|ph| &ph.sends).map(|m| m.blocks.len()).sum::<usize>()
            };
            p.to_rows().iter().map(sent).max().unwrap()
        };
        assert!(
            max_load(&four) < max_load(&one),
            "4 leaders {} should beat 1 leader {}",
            max_load(&four),
            max_load(&one)
        );
    }

    #[test]
    fn single_node_degenerates_to_direct_sends() {
        let g = erdos_renyi(16, 0.5, 2);
        let layout = ClusterLayout::new(1, 2, 8);
        let plan = plan_hierarchical_leader(&g, &layout, 2);
        plan.validate(&g).unwrap();
        assert_eq!(plan.message_count(), g.edge_count());
        // no gather traffic at all
        let phase0: usize = (0..16).map(|r| plan.phase(r, 0).sends().len()).sum();
        assert_eq!(phase0, 0);
    }

    #[test]
    fn leader_edge_cases_covered() {
        // edges into leaders, from leaders, leader-to-leader
        let layout = ClusterLayout::new(2, 2, 2); // nodes of 4: leaders 0 and 4
        let g = Topology::from_edges(
            8,
            [(1, 0), (0, 5), (4, 1), (1, 4), (0, 4), (4, 0), (2, 6), (6, 2)],
        );
        for leaders in [1usize, 2, 4] {
            let plan = Arc::new(plan_hierarchical_leader(&g, &layout, leaders));
            plan.validate(&g).unwrap_or_else(|e| panic!("leaders={leaders}: {e}"));
            let payloads = test_payloads(8, 4, 7);
            let got = Virtual.run_simple(&plan, &g, &payloads).unwrap();
            assert_eq!(got, reference_allgather(&g, &payloads));
        }
    }

    #[test]
    #[should_panic(expected = "at least one leader")]
    fn zero_leaders_rejected() {
        let g = erdos_renyi(8, 0.5, 1);
        plan_hierarchical_leader(&g, &ClusterLayout::new(2, 1, 4), 0);
    }
}
