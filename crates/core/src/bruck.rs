//! A locality-aware Bruck neighborhood allgather (after Bienz et al.,
//! "A Locality-Aware Bruck Allgather"): instead of every rank walking
//! log-stride offsets itself, each **node** elects a router rank, blocks
//! funnel to the router, routers exchange combined messages over
//! log-stride *node* offsets, and arrivals scatter locally.
//!
//! The builder plans in rank order: rank `r` sits on node
//! `r / ranks_per_node`, and only the layout's shape is read. Off block
//! placement the communicator relabels into locality order first
//! ([`crate::remap::reranked`]). Phases:
//!
//! 1. **local** — every block with at least one off-node outgoing
//!    neighbor is gathered to its node's router; intra-node edges are
//!    satisfied by direct sends in the same phase;
//! 2. **rounds** `r = 0..R-1` with `R = ceil(log2(nodes))` — a block
//!    destined for node offset `q` (mod the node count) hops from the
//!    router at offset `q mod 2^r` to the router at offset
//!    `q mod 2^(r+1)` whenever bit `r` of `q` is set. All blocks moving
//!    between the same router pair in a round travel as **one combined
//!    message**, which is what caps the inter-node message count at
//!    `O(nodes · log nodes)` regardless of δ;
//! 3. **scatter** — each router delivers the remote blocks it received
//!    to the local ranks whose in-edges demand them, one combined
//!    message per local rank.
//!
//! Compared to [`crate::leader`] this replaces the `O(nodes²)` leader
//! exchange with `O(nodes · log nodes)` hops at the price of forwarding
//! blocks through intermediate routers; the auto-tuner decides which
//! trade wins for a given (topology, δ, sizes) point.

use crate::leader::{route, runs, scatter_from_relays, send_intra_node};
use crate::plan::{Algorithm, CollectivePlan, PlanWriter};
use nhood_cluster::ClusterLayout;
use nhood_topology::{Rank, Topology};

/// Builds the locality-aware Bruck plan.
///
/// # Panics
/// Panics if the topology exceeds the layout capacity.
pub fn plan_bruck(graph: &Topology, layout: &ClusterLayout) -> CollectivePlan {
    let n = graph.n();
    assert!(n <= layout.capacity(), "{n} ranks exceed layout capacity");
    let per_node = layout.ranks_per_node();
    let node_of = |r: Rank| r / per_node;
    // Only occupied nodes take part in the ring of offsets.
    let nn = n.div_ceil(per_node);
    let router = |node: usize| node * per_node;
    // R = smallest number of rounds covering every offset 1..nn-1.
    let rounds = if nn <= 1 { 0 } else { usize::BITS as usize - (nn - 1).leading_zeros() as usize };

    // phases: local, the log-stride rounds, scatter, a copy-only epilogue
    let (local, scatter) = (0, rounds + 1);
    let mut w = PlanWriter::new(Algorithm::Bruck, n, rounds + 3);
    w.reserve(graph.edge_count(), graph.edge_count());

    // Per (block, destination node) at offset `q`: a row `(round, src
    // node · nn + dst node, block)` for each set bit of `q` — the
    // combined router-to-router hops — and `(rounds, dst node, block)`,
    // the arrival the destination's router scatters. Every hop row sorts
    // before every arrival row.
    let (rows, gathered) = route(graph, per_node, |rows, b, bn| {
        let (a, q) = (node_of(b), (bn + nn - node_of(b)) % nn);
        debug_assert!(q > 0);
        for r in (0..rounds).filter(|&r| q >> r & 1 == 1) {
            let src = (a + (q & ((1 << r) - 1))) % nn;
            let dst = (a + (q & ((1 << (r + 1)) - 1))) % nn;
            rows.push((r, src * nn + dst, b));
        }
        rows.push((rounds, bn, b));
    });
    let split = rows.partition_point(|row| row.0 < rounds);

    // Local phase: gather to the router (a router holds its own), plus
    // intra-node direct sends.
    let to_router = |b: Rank| router(node_of(b));
    for b in (0..n).filter(|&b| gathered[b] && to_router(b) != b) {
        w.message(local, b, to_router(b), 0, &[b]);
    }
    send_intra_node(&mut w, local, graph, (node_of, to_router), &gathered);

    // Log-stride rounds: one combined message per router pair per round.
    // An arrival at offset `p` happens exactly once — in the round where
    // the top bit of `p` was set — so no router ever receives a block
    // twice, and a router forwarding in round `r` received the block at
    // an offset below `2^r`, i.e. in an earlier round (or holds it from
    // the local phase at offset 0).
    let mut blocks = Vec::new();
    for run in runs(&rows[..split]) {
        let (r, pair, _) = run[0];
        blocks.clear();
        blocks.extend(run.iter().map(|row| row.2));
        w.copy(router(pair / nn), 1 + r, blocks.len()); // pack
        w.message(1 + r, router(pair / nn), router(pair % nn), 1 + r as u64, &blocks);
    }

    // Scatter: deliver each remote arrival to the local ranks that need
    // it. The router's own in-edges were satisfied by the arrival itself.
    let tag = 1 + rounds as u64;
    scatter_from_relays(&mut w, scatter, (graph, per_node), &rows[split..], |_, bn| {
        (tag, router(bn))
    });
    w.finish()
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
        for (n, delta) in [(32usize, 0.3), (24, 0.7), (36, 0.1), (17, 0.4), (64, 0.6), (5, 0.9)] {
            let g = erdos_renyi(n, delta, 42);
            let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
            let plan = Arc::new(plan_bruck(&g, &layout));
            plan.validate(&g).unwrap_or_else(|e| panic!("n={n} delta={delta}: {e}"));
            let payloads = test_payloads(n, 8, 1);
            let got = Virtual.run_simple(&plan, &g, &payloads).unwrap();
            assert_eq!(got, reference_allgather(&g, &payloads), "n={n} delta={delta}");
        }
    }

    #[test]
    fn single_node_degenerates_to_direct_sends() {
        let g = erdos_renyi(8, 0.5, 9);
        let layout = ClusterLayout::new(1, 2, 4);
        let plan = plan_bruck(&g, &layout);
        plan.validate(&g).unwrap();
        assert_eq!(plan.message_count(), g.edge_count(), "one direct send per edge, no relaying");
    }

    #[test]
    fn internode_messages_bounded_by_log_rounds() {
        let g = erdos_renyi(64, 0.9, 3);
        let layout = ClusterLayout::new(8, 2, 4); // 8 nodes
        let plan = plan_bruck(&g, &layout);
        plan.validate(&g).unwrap();
        let mut internode = 0usize;
        for (r, prog) in plan.to_rows().iter().enumerate() {
            let sends = prog.iter().flat_map(|phase| &phase.sends);
            internode += sends.filter(|m| !layout.same_node(r, m.peer)).count();
        }
        // 8 nodes, 3 rounds: at most nodes * rounds router hops.
        assert!(internode <= 8 * 3, "{internode} inter-node messages exceed the Bruck bound");
    }

    #[test]
    fn non_block_placement_planned_in_rank_order() {
        // Only the layout's shape is read: a round-robin layout gives the
        // rank-order plan of the block layout of the same shape.
        let g = erdos_renyi(8, 0.5, 1);
        let rr =
            ClusterLayout::new(2, 2, 2).with_placement(nhood_cluster::Placement::RoundRobinNodes);
        let plan = plan_bruck(&g, &rr);
        plan.validate(&g).unwrap();
        let block = plan_bruck(&g, &ClusterLayout::new(2, 2, 2));
        let encode = |p: &CollectivePlan| crate::plan_io::encode_plan(p, None);
        assert_eq!(encode(&plan), encode(&block));
    }
}
