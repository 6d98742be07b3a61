//! PAT-style aggregated trees (after Jeaugey, "PAT: a new algorithm for
//! all-gather and reduce-scatter operations at scale"): each destination
//! rank's **in-neighborhood** aggregates along a radix-`R` binomial tree
//! rooted at one of the sources, and the root makes a single combined
//! delivery. Depth is `O(log_R k)` for an in-degree of `k`, and every
//! link carries each block at most once — the aggregation pattern the
//! PAT paper uses to keep allgather traffic flat at scale.
//!
//! The per-destination trees are built independently and then merged
//! into one lock-step plan: within each phase, a block already held by
//! (or concurrently arriving at) the receiver is dropped from the
//! message, so overlapping trees never double-deliver. Tree roots are
//! rotated by the destination rank to spread aggregation load.
//!
//! The merge is **receiver-major**. Whether a block is dropped depends
//! only on what its receiver holds, and a receiver's holdings depend
//! only on its own earlier arrivals — never on what another rank was
//! sent — so the trees' `(dst, round, src, block)` moves are sorted once
//! and each receiver's run is walked with one stamp array. Receivers
//! ascend, and within one its rounds and senders ascend, so every rank's
//! sends come out ordered by destination and its recvs by source:
//! exactly the order a phase-major merge over keyed maps produces.

use crate::plan::{Algorithm, CollectivePlan, PlanWriter};
use nhood_topology::{Rank, Topology};

/// Builds the PAT aggregated-tree plan.
///
/// # Panics
/// Panics if `radix < 2`.
pub fn plan_pat(graph: &Topology, radix: usize) -> CollectivePlan {
    assert!(radix >= 2, "PAT aggregation needs radix >= 2");
    let n = graph.n();

    // Per destination, the aggregation tree over its sorted in-neighbors
    // (rotated by the destination rank so roots spread across sources),
    // as `(dst, round, src, block)` moves; the final delivery to the
    // destination is one more round of the same list. A move is packed
    // into one integer, 32 bits a field, so the sort compares without
    // branching.
    assert!(u32::try_from(n).is_ok(), "PAT packs ranks into 32 bits");
    let pack = |dst: Rank, round: usize, src: Rank, block: Rank| {
        (dst as u128) << 96 | (round as u128) << 64 | (src as u128) << 32 | block as u128
    };
    let field = |m: u128, at: u32| (m >> (96 - 32 * at)) as u32 as usize;
    let mut moves: Vec<u128> = Vec::new();
    let mut srcs: Vec<Rank> = Vec::new();
    for t in 0..n {
        srcs.clear();
        srcs.extend(graph.in_neighbors(t).iter().copied().filter(|&s| s != t));
        if srcs.is_empty() {
            continue;
        }
        let k = srcs.len();
        srcs.rotate_left(t % k);
        // Aggregation: in round j, the source at index i (i a multiple of
        // step = radix^j but not of step * radix) sends its subtree
        // [i, i + step) to its parent at the next-lower multiple.
        let mut depth = 0usize;
        let mut step = 1usize;
        while step < k {
            let next = step * radix;
            for i in (step..k).step_by(step).filter(|i| !i.is_multiple_of(next)) {
                let subtree = &srcs[i..(i + step).min(k)];
                moves
                    .extend(subtree.iter().map(|&b| pack(srcs[i - (i % next)], depth, srcs[i], b)));
            }
            depth += 1;
            step = next;
        }
        // Delivery: the root sends the whole in-neighborhood in one
        // combined message, one round after aggregation finishes.
        moves.extend(srcs.iter().map(|&b| pack(t, depth, srcs[0], b)));
    }
    moves.sort_unstable();
    moves.dedup();
    let depth = moves.iter().map(|&m| field(m, 1) + 1).max().unwrap_or(0);

    // Merge the per-destination trees into lock-step phases. `held[b] ==
    // dst + 1` mirrors the possession rule of plan validation exactly: a
    // message only carries blocks its receiver does not already hold and
    // is not concurrently receiving this phase, so overlapping trees
    // cannot double-deliver and every send reads pre-phase possession.
    // The last phase is the unpack epilogue.
    let mut w = PlanWriter::new(Algorithm::Pat { radix }, n, depth + 1);
    w.reserve(graph.edge_count(), moves.len());
    let mut held = vec![0usize; n];
    let mut blocks: Vec<Rank> = Vec::new();
    for msg in moves.chunk_by(|a, b| a >> 32 == b >> 32) {
        let (dst, round, src) = (field(msg[0], 0), field(msg[0], 1), field(msg[0], 2));
        held[dst] = dst + 1;
        blocks.clear();
        blocks.extend(
            (msg.iter().map(|&m| field(m, 3)))
                .filter(|&b| std::mem::replace(&mut held[b], dst + 1) != dst + 1),
        );
        if blocks.is_empty() {
            continue;
        }
        if blocks.len() > 1 {
            w.copy(src, round, blocks.len()); // pack
            w.copy(dst, depth, blocks.len()); // unpack
        }
        w.message(round, src, dst, round as u64, &blocks);
    }
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
        for (n, delta, radix) in [
            (32usize, 0.3, 2usize),
            (32, 0.3, 4),
            (24, 0.7, 2),
            (36, 0.1, 3),
            (17, 0.4, 2),
            (64, 0.6, 8),
            (5, 0.9, 2),
        ] {
            let g = erdos_renyi(n, delta, 42);
            let plan = Arc::new(plan_pat(&g, radix));
            plan.validate(&g).unwrap_or_else(|e| panic!("n={n} delta={delta} radix={radix}: {e}"));
            let payloads = test_payloads(n, 8, 1);
            let got = Virtual.run_simple(&plan, &g, &payloads).unwrap();
            assert_eq!(got, reference_allgather(&g, &payloads), "n={n} radix={radix}");
        }
    }

    #[test]
    fn depth_is_logarithmic_in_indegree() {
        let g = erdos_renyi(64, 0.9, 5);
        let plan = plan_pat(&g, 4);
        plan.validate(&g).unwrap();
        let depth = (0..plan.n()).map(|r| plan.phases(r).len()).max().unwrap_or(0);
        // radix 4, in-degree <= 63: ceil(log4 63) = 3 aggregation rounds
        // + 1 delivery + 1 epilogue.
        assert!(depth <= 5, "depth {depth} exceeds the radix-4 binomial bound");
    }

    #[test]
    fn empty_neighborhoods_yield_empty_programs() {
        let g = Topology::from_edges(4, []);
        let plan = plan_pat(&g, 2);
        plan.validate(&g).unwrap();
        assert_eq!(plan.message_count(), 0);
        assert!(plan.to_rows().iter().flatten().all(|ph| ph.sends.is_empty()));
    }

    #[test]
    #[should_panic(expected = "radix")]
    fn radix_below_two_rejected() {
        let g = erdos_renyi(8, 0.5, 1);
        let _ = plan_pat(&g, 1);
    }
}
