//! The Common Neighbor message-combining baseline
//! (Ghazimirsaeed, Mirsadeghi & Afsahi, IPDPS 2019).
//!
//! Ranks are partitioned into groups of `K` consecutive ranks (which,
//! under block placement, co-locates a group on one socket for `K ≤ L`).
//! For every *common outgoing neighbor* of a group — a target that two or
//! more group members send to — one member is designated the **leader**
//! for that target and delivers a single combined message on everyone's
//! behalf. Targets with a single source in the group keep their direct
//! send.
//!
//! The plan has two communication phases plus a copy epilogue:
//!
//! 1. **intra-group distribution** — each member sends its block to every
//!    group mate that leads at least one combined message containing it;
//! 2. **delivery** — leaders send combined messages, everyone sends their
//!    remaining direct messages;
//! 3. epilogue — scatter of combined payloads into the receive buffer.
//!
//! Leaders are assigned round-robin over a target's sharers (by target
//! index) so the relay load spreads across the group — the paper sweeps
//! `K` and reports the best, which `crate::comm` mirrors.

use crate::plan::{Algorithm, CollectivePlan, PlanWriter};
use nhood_topology::{Rank, Topology};

/// Builds a Common Neighbor plan with groups of `k`.
///
/// # Panics
/// Panics if `k == 0`.
pub fn plan_common_neighbor(graph: &Topology, k: usize) -> CollectivePlan {
    assert!(k > 0, "group size must be positive");
    let n = graph.n();
    // Phase 0: intra-group distribution (tag 0); phase 1: delivery (tag
    // 1) + pack copies for combined messages; phase 2: the epilogue that
    // scatters combined payloads into rbuf. Senders are walked in rank
    // order and their peers ascend, so every rank's sends come out
    // ordered by peer and so do its recvs.
    let mut w = PlanWriter::new(Algorithm::CommonNeighbor { k }, n, 3);
    w.reserve(graph.edge_count(), graph.edge_count());
    let mut leaders: Vec<Rank> = Vec::new();
    for s in 0..n {
        let group = s / k * k..s / k * k + k;
        // The members of `s`'s group that share target `t` are a run of
        // `t`'s sorted in-neighbors. Two or more sharers of a target
        // outside the group combine under a round-robin leader.
        let combined = |t: Rank| {
            let ins = graph.in_neighbors(t);
            let members = &ins[ins.partition_point(|&m| m < group.start)..];
            let members = &members[..members.partition_point(|&m| m < group.end)];
            (members.len() >= 2 && !group.contains(&t))
                .then(|| (members[t % members.len()], members))
        };
        // The leaders that relay `s`'s block get it in phase 0.
        leaders.clear();
        leaders.extend(graph.out_neighbors(s).iter().filter_map(|&t| combined(t)).map(|(l, _)| l));
        leaders.sort_unstable();
        leaders.dedup();
        for &l in leaders.iter().filter(|&&l| l != s) {
            w.message(0, s, l, 0, &[s]);
        }
        for &t in graph.out_neighbors(s) {
            let blocks = match combined(t) {
                Some((leader, members)) if leader == s => members,
                Some(_) => continue, // its leader delivers
                // a direct send — unless the target is a leader that
                // already receives the block in phase 0 (the intra-group
                // copy doubles as the delivery)
                None if leaders.binary_search(&t).is_ok() => continue,
                None => std::slice::from_ref(&s),
            };
            if blocks.len() > 1 {
                w.copy(s, 1, blocks.len()); // pack into temp buffer
                w.copy(t, 2, blocks.len()); // unpack at the receiver
            }
            w.message(1, s, t, 1, blocks);
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhood_topology::random::erdos_renyi;

    #[test]
    fn validates_on_random_graphs() {
        for delta in [0.0, 0.05, 0.3, 0.7, 1.0] {
            for k in [1usize, 2, 4, 8] {
                let g = erdos_renyi(24, delta, 11);
                let plan = plan_common_neighbor(&g, k);
                plan.validate(&g).unwrap_or_else(|e| panic!("delta={delta} k={k}: {e}"));
            }
        }
    }

    #[test]
    fn k1_degenerates_to_naive_message_count() {
        // groups of one: no common neighbors, all sends direct
        let g = erdos_renyi(20, 0.4, 2);
        let plan = plan_common_neighbor(&g, 1);
        plan.validate(&g).unwrap();
        assert_eq!(plan.message_count(), g.edge_count());
        assert_eq!(plan.max_message_blocks(), 1.min(g.edge_count()));
    }

    #[test]
    fn combining_reduces_messages_on_dense_graphs() {
        let g = erdos_renyi(32, 0.8, 5);
        let naive_msgs = g.edge_count();
        let plan = plan_common_neighbor(&g, 8);
        plan.validate(&g).unwrap();
        assert!(
            plan.message_count() < naive_msgs / 2,
            "{} vs naive {naive_msgs}",
            plan.message_count()
        );
        // but the same total payload still flows to targets, plus
        // intra-group redistribution
        assert!(plan.total_blocks_sent() >= naive_msgs);
    }

    #[test]
    fn shared_target_handled_by_one_leader() {
        // ranks 0..3 (one group, k=4) all send to rank 5
        let g = Topology::from_edges(8, [(0, 5), (1, 5), (2, 5), (3, 5)]);
        let plan = plan_common_neighbor(&g, 4);
        plan.validate(&g).unwrap();
        // rank 5 receives exactly one (combined) message
        let mut recvs = (0..3).flat_map(|p| plan.phase(5, p).recvs());
        let msg = recvs.next().unwrap();
        assert!(recvs.next().is_none());
        assert_eq!(msg.blocks(), [0, 1, 2, 3]);
        // leader is round-robin: target 5 % 4 sharers = index 1 → rank 1
        assert_eq!(msg.peer(), 1);
    }

    #[test]
    fn targets_inside_group_stay_direct() {
        // 0 and 1 both send to 2; all in one group of 4
        let g = Topology::from_edges(4, [(0, 2), (1, 2)]);
        let plan = plan_common_neighbor(&g, 4);
        plan.validate(&g).unwrap();
        // no phase-0 traffic: nothing to combine across groups
        let phase0_msgs: usize = (0..4).map(|r| plan.phase(r, 0).sends().len()).sum();
        assert_eq!(phase0_msgs, 0);
        assert_eq!(plan.message_count(), 2);
    }

    #[test]
    fn leader_load_spreads_round_robin() {
        // group {0,1}: both send to 10, 11, 12, 13 (distinct groups)
        let edges: Vec<(Rank, Rank)> = (10..14).flat_map(|t| [(0, t), (1, t)]).collect();
        let g = Topology::from_edges(14, edges);
        let plan = plan_common_neighbor(&g, 2);
        plan.validate(&g).unwrap();
        let loads = plan.sends_per_rank();
        // 4 combined deliveries split 2/2 between members (plus the
        // intra-group block exchanges)
        let deliveries0 = plan.phase(0, 1).sends().len();
        let deliveries1 = plan.phase(1, 1).sends().len();
        assert_eq!(deliveries0, 2);
        assert_eq!(deliveries1, 2);
        assert!(loads[0] > 0 && loads[1] > 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn k_zero_rejected() {
        plan_common_neighbor(&Topology::from_edges(2, []), 0);
    }
}
