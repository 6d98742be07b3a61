//! A hierarchical leader-based neighborhood allgather — the large-message
//! baseline of the literature (Ghazimirsaeed et al., SC'20, the paper's
//! reference \[9\]), implemented for comparison in the regime where
//! Distance Halving's buffer doubling hurts.
//!
//! The builder plans in rank order: rank `r` sits on node
//! `r / ranks_per_node`, and only the layout's shape is read. Off block
//! placement the communicator relabels into locality order first
//! ([`crate::remap::reranked`]). Three phases:
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

/// Builds the hierarchical leader plan.
///
/// # Panics
/// Panics if `leaders_per_node == 0` or the topology exceeds the layout.
pub fn plan_hierarchical_leader(
    graph: &Topology,
    layout: &ClusterLayout,
    leaders_per_node: usize,
) -> CollectivePlan {
    assert!(leaders_per_node > 0, "need at least one leader per node");
    let n = graph.n();
    assert!(n <= layout.capacity(), "{n} ranks exceed layout capacity");
    let per_node = layout.ranks_per_node();
    let node_of = |r: Rank| r / per_node;
    // leader slot for a block, and the hosting rank on a given node: the
    // slot among the leaders the node's ranks can host
    let slot_of = |b: Rank| b % leaders_per_node;
    let leader_rank = |node: usize, slot: usize| {
        let lo = node * per_node;
        lo + slot % (n - lo).min(per_node).min(leaders_per_node).max(1)
    };

    // phases: gather, exchange, scatter, a copy-only epilogue
    let mut w = PlanWriter::new(Algorithm::HierarchicalLeader { leaders_per_node }, n, 4);
    w.reserve(graph.edge_count(), graph.edge_count());

    // Per (block, destination node B): `(A · nodes + B, slot, block)` —
    // which A-blocks node B needs from leader slot `slot` — and
    // `(nodes² + B, slot, block)`, what that slot's leader on B scatters.
    // Every exchange row sorts before every scatter row.
    let nodes = layout.nodes();
    let (rows, gathered) = route(graph, per_node, |rows, b, bnode| {
        rows.push((node_of(b) * nodes + bnode, slot_of(b), b));
        rows.push((nodes * nodes + bnode, slot_of(b), b));
    });
    let split = rows.partition_point(|row| row.0 < nodes * nodes);

    // Phase 0: gather to the local leader of the block's slot (a leader
    // holds its own).
    let to_leader = |b: Rank| leader_rank(node_of(b), slot_of(b));
    for b in (0..n).filter(|&b| gathered[b] && to_leader(b) != b) {
        w.message(0, b, to_leader(b), 0, &[b]);
    }

    // Phase 1a: inter-node combined exchange, one message per
    // (source node, dest node, leader slot). The tag encodes the full
    // triple: two slots can share a leader rank on small nodes, so the
    // (src, dst) pair alone is not unique.
    let mut blocks = Vec::new();
    for run in runs(&rows[..split]) {
        let (pair, slot, _) = run[0];
        let (src, dst) = (leader_rank(pair / nodes, slot), leader_rank(pair % nodes, slot));
        blocks.clear();
        blocks.extend(run.iter().map(|row| row.2));
        w.copy(src, 1, blocks.len()); // pack
        w.message(1, src, dst, 1 + (pair * leaders_per_node + slot) as u64, &blocks);
    }
    // Phase 1b: intra-node edges as direct sends.
    send_intra_node(&mut w, 1, graph, (node_of, to_leader), &gathered);

    // Phase 2: scatter remote blocks to the local ranks that need them —
    // aggregated per (receiving node, slot) across all source nodes, so
    // each (leader, target) pair sends at most one message per slot.
    scatter_from_relays(&mut w, 2, (graph, per_node), &rows[split..], |bnode, slot| {
        (2_000_000 + slot as u64, leader_rank(bnode - nodes * nodes, slot))
    });
    w.finish()
}

/// Whether some node of `layout`'s shape, filled in rank order (the order
/// the leader hierarchy plans in), hosts at least two of the `n` ranks but
/// fewer than `l` leaders: two leader slots then share a rank, which
/// relays a destination's blocks in one message per slot — fine for the
/// gather family, a broken co-routing invariant for the reduce ops. A
/// node of one rank relays only its own block.
pub(crate) fn shares_leader_slots(n: usize, layout: &ClusterLayout, l: usize) -> bool {
    let per_node = layout.ranks_per_node().max(1);
    (0..n).step_by(per_node).any(|lo| (2..l).contains(&(n - lo).min(per_node)))
}

/// A relay builder's routing row, `(group, key, block)`.
pub(crate) type Row = (usize, usize, Rank);

/// The rows of a relayed plan (here and in [`crate::bruck`]), sorted and
/// deduplicated, and which blocks leave their node: `push` adds the rows
/// of every pair of a block and a node of `per_node` ranks other than its
/// own that its out-edges reach.
pub(crate) fn route(
    graph: &Topology,
    per_node: usize,
    mut push: impl FnMut(&mut Vec<Row>, Rank, usize),
) -> (Vec<Row>, Vec<bool>) {
    let (mut rows, mut gathered) = (Vec::new(), vec![false; graph.n()]);
    for (b, leaves) in gathered.iter_mut().enumerate() {
        // the sorted out-list visits each node in one run
        for run in graph.out_neighbors(b).chunk_by(|x, y| x / per_node == y / per_node) {
            if run[0] / per_node != b / per_node {
                *leaves = true;
                push(&mut rows, b, run[0] / per_node);
            }
        }
    }
    rows.sort_unstable();
    rows.dedup();
    (rows, gathered)
}

/// The `(group, key)` runs of sorted, deduplicated rows: one group's
/// blocks each, in ascending order.
pub(crate) fn runs(rows: &[Row]) -> impl Iterator<Item = &[Row]> {
    rows.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1))
}

/// Every intra-node edge as a direct send in `phase` — bar the ones a
/// block's gather to its relay already served.
pub(crate) fn send_intra_node(
    w: &mut PlanWriter,
    phase: usize,
    graph: &Topology,
    (node_of, relay): (impl Fn(Rank) -> usize, impl Fn(Rank) -> Rank),
    gathered: &[bool],
) {
    for (b, &leaves) in gathered.iter().enumerate() {
        let (a, l) = (node_of(b), relay(b));
        let served = |t: Rank| t == l && leaves && l != b;
        for &t in graph.out_neighbors(b).iter().filter(|&&t| node_of(t) == a && !served(t)) {
            w.message(phase, b, t, 1_000_000 + t as u64, &[b]);
        }
    }
}

/// The scatter half: for each run of `arrivals`, whose `(group, key)`
/// names its `(tag, l)`, relay `l` hands the run's blocks to the other
/// ranks of its node of `per_node` whose in-edges want them — each walks
/// its in-neighbours against a stamp of the run — one combined message
/// per rank in `phase`, unpacked in the epilogue after it.
pub(crate) fn scatter_from_relays(
    w: &mut PlanWriter,
    phase: usize,
    (graph, per_node): (&Topology, usize),
    arrivals: &[Row],
    at: impl Fn(usize, usize) -> (u64, Rank),
) {
    let (mut stamp, mut blocks) = (vec![(usize::MAX, 0); graph.n()], Vec::new());
    for run in runs(arrivals) {
        let (id, (tag, l)) = ((run[0].0, run[0].1), at(run[0].0, run[0].1));
        run.iter().for_each(|&(.., b)| stamp[b] = id);
        let lo = l / per_node * per_node;
        for t in (lo..(lo + per_node).min(graph.n())).filter(|&t| t != l) {
            blocks.clear();
            blocks.extend(graph.in_neighbors(t).iter().filter(|&&b| stamp[b] == id));
            if !blocks.is_empty() {
                w.copy(l, phase, blocks.len());
                w.copy(t, phase + 1, blocks.len());
                w.message(phase, l, t, tag, &blocks);
            }
        }
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
