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

use crate::plan::{Algorithm, CollectivePlan, PlanPhase, PlannedMsg};
use nhood_topology::{Rank, Topology};
use std::collections::{BTreeMap, BTreeSet};

/// Builds the PAT aggregated-tree plan.
///
/// # Panics
/// Panics if `radix < 2`.
pub fn plan_pat(graph: &Topology, radix: usize) -> CollectivePlan {
    assert!(radix >= 2, "PAT aggregation needs radix >= 2");
    let n = graph.n();

    // Per destination, the aggregation tree over its sorted in-neighbors
    // (rotated by the destination rank so roots spread across sources).
    // rounds[j][(src, dst)] -> blocks moving in aggregation round j;
    // the final delivery to the destination shares the round maps.
    let mut rounds: Vec<BTreeMap<(Rank, Rank), BTreeSet<Rank>>> = Vec::new();
    for t in 0..n {
        let mut srcs: Vec<Rank> =
            graph.in_neighbors(t).iter().copied().filter(|&s| s != t).collect();
        if srcs.is_empty() {
            continue;
        }
        srcs.sort_unstable();
        let k = srcs.len();
        srcs.rotate_left(t % k);
        // Aggregation: in round j, the source at index i (i a multiple of
        // step = radix^j but not of step * radix) sends its subtree
        // [i, i + step) to its parent at the next-lower multiple.
        let mut depth = 0usize;
        let mut step = 1usize;
        while step < k {
            if rounds.len() <= depth {
                rounds.push(BTreeMap::new());
            }
            let next = step * radix;
            let mut i = step;
            while i < k {
                if !i.is_multiple_of(next) {
                    let parent = i - (i % next);
                    let blocks: BTreeSet<Rank> =
                        srcs[i..(i + step).min(k)].iter().copied().collect();
                    rounds[depth].entry((srcs[i], srcs[parent])).or_default().extend(blocks);
                }
                i += step;
            }
            depth += 1;
            step = next;
        }
        // Delivery: the root sends the whole in-neighborhood in one
        // combined message, one round after aggregation finishes.
        if rounds.len() <= depth {
            rounds.push(BTreeMap::new());
        }
        rounds[depth].entry((srcs[0], t)).or_default().extend(srcs.iter().copied());
    }

    // Merge the per-destination trees into lock-step phases. `held`
    // mirrors the possession rule of plan validation exactly: a message
    // only carries blocks its receiver does not already hold and is not
    // concurrently receiving this phase, so overlapping trees cannot
    // double-deliver and every send reads pre-phase possession.
    let depth = rounds.len();
    let mut held: Vec<BTreeSet<Rank>> = (0..n).map(|r| BTreeSet::from([r])).collect();
    let mut phases: Vec<Vec<PlanPhase>> = Vec::with_capacity(depth);
    let mut epilogue: Vec<PlanPhase> = vec![PlanPhase::default(); n];
    for (j, round) in rounds.iter().enumerate() {
        let mut phase: Vec<PlanPhase> = vec![PlanPhase::default(); n];
        let mut arriving: Vec<BTreeSet<Rank>> = vec![BTreeSet::new(); n];
        for (&(src, dst), blocks) in round {
            let filtered: Vec<Rank> = blocks
                .iter()
                .copied()
                .filter(|b| !held[dst].contains(b) && !arriving[dst].contains(b))
                .collect();
            if filtered.is_empty() {
                continue;
            }
            debug_assert!(filtered.iter().all(|b| held[src].contains(b)));
            arriving[dst].extend(filtered.iter().copied());
            if filtered.len() > 1 {
                phase[src].copy_blocks += filtered.len(); // pack
                epilogue[dst].copy_blocks += filtered.len(); // unpack
            }
            phase[src].sends.push(PlannedMsg {
                peer: dst,
                blocks: filtered.clone(),
                tag: j as u64,
            });
            phase[dst].recvs.push(PlannedMsg { peer: src, blocks: filtered, tag: j as u64 });
        }
        for (r, new) in arriving.into_iter().enumerate() {
            held[r].extend(new);
        }
        phases.push(phase);
    }

    let per_rank = (0..n)
        .map(|r| {
            let mut prog = Vec::with_capacity(depth + 1);
            for phase in &mut phases {
                prog.push(std::mem::take(&mut phase[r]));
            }
            prog.push(std::mem::take(&mut epilogue[r]));
            prog
        })
        .collect();
    CollectivePlan { algorithm: Algorithm::Pat { radix }, per_rank, selection: None }
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
        let depth = plan.per_rank.iter().map(Vec::len).max().unwrap_or(0);
        // radix 4, in-degree <= 63: ceil(log4 63) = 3 aggregation rounds
        // + 1 delivery + 1 epilogue.
        assert!(depth <= 5, "depth {depth} exceeds the radix-4 binomial bound");
    }

    #[test]
    fn empty_neighborhoods_yield_empty_programs() {
        let g = Topology::from_edges(4, []);
        let plan = plan_pat(&g, 2);
        plan.validate(&g).unwrap();
        assert!(plan
            .per_rank
            .iter()
            .flat_map(|p| p.iter())
            .all(|ph| ph.sends.is_empty() && ph.recvs.is_empty()));
    }

    #[test]
    #[should_panic(expected = "radix")]
    fn radix_below_two_rejected() {
        let g = erdos_renyi(8, 0.5, 1);
        let _ = plan_pat(&g, 1);
    }
}
