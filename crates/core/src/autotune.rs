//! The simulation-driven algorithm auto-tuner behind
//! [`Algorithm::Auto`].
//!
//! Instead of static crossover thresholds, the tuner builds every
//! portfolio candidate for the request's exact (topology, layout,
//! [`BlockSizes`](crate::sizes::BlockSizes)) triple, scores each plan
//! through the §V cost model ([`crate::exec::sim_exec::simulate_v`]),
//! and picks the strict-minimum makespan. Candidate order is fixed and
//! ties break toward the earlier candidate, so the winner is a pure
//! function of the tuner fingerprint — the determinism the plan cache
//! relies on ([`crate::plan_cache::PlanFingerprint::of_tuner`]).
//!
//! Tuning is paid once per fingerprint: the winning plan is inserted
//! into the attached [`crate::plan_cache::PlanCache`] under the tuner
//! key (and under the winner's own canonical build key, so explicit
//! requests for the winning algorithm coalesce with `Auto` requests),
//! and [`crate::comm::DistGraphComm::mutate`] retires the entry when
//! the topology churns. See `docs/AUTOTUNE.md`.

use crate::plan::{Algorithm, CollectivePlan};
use nhood_cluster::{ClusterLayout, Placement};
use std::sync::Arc;

/// The `CommonNeighbor` group sizes the tuner sweeps — the paper
/// launches CN "with various values of K" and reports the best; this is
/// that sweep, clamped to the communicator size.
pub const CN_SWEEP: [usize; 4] = [2, 4, 8, 16];

/// What one tuning pass decided, and at what cost.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// The winning (concrete) algorithm.
    pub winner: Algorithm,
    /// Simulated makespan per candidate that built successfully, in
    /// candidate order.
    pub scores: Vec<(Algorithm, f64)>,
    /// Candidate simulations this pass performed (0 would mean the
    /// caller should have hit the cache instead).
    pub simulations: u64,
    /// The winner's validated plan.
    pub plan: Arc<CollectivePlan>,
}

/// The candidate portfolio for a communicator of `n` ranks on `layout`.
///
/// Always includes `Naive`; for non-degenerate sizes also Distance
/// Halving, the [`CN_SWEEP`] of Common Neighbor group sizes (those
/// below `n`), and PAT at radix 2 and 4. The node-hierarchical designs
/// — `HierarchicalLeader { leaders_per_node }` and `Bruck` — join only
/// under block placement (their builders require it) and only when the
/// layout actually spans multiple nodes.
pub fn candidates(n: usize, layout: &ClusterLayout, leaders_per_node: usize) -> Vec<Algorithm> {
    let mut cands = vec![Algorithm::Naive];
    if n < 2 {
        return cands;
    }
    cands.push(Algorithm::DistanceHalving);
    for k in CN_SWEEP {
        if k < n {
            cands.push(Algorithm::CommonNeighbor { k });
        }
    }
    cands.push(Algorithm::Pat { radix: 2 });
    cands.push(Algorithm::Pat { radix: 4 });
    if layout.placement() == Placement::Block && layout.nodes() > 1 {
        cands.push(Algorithm::HierarchicalLeader { leaders_per_node: leaders_per_node.max(1) });
        cands.push(Algorithm::Bruck);
    }
    cands
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portfolio_scales_with_n_and_placement() {
        let block = ClusterLayout::new(4, 2, 4);
        let full = candidates(32, &block, 8);
        assert!(full.contains(&Algorithm::Bruck));
        assert!(full.contains(&Algorithm::HierarchicalLeader { leaders_per_node: 8 }));
        assert!(full.contains(&Algorithm::CommonNeighbor { k: 16 }));

        // tiny communicator: direct sends only
        assert_eq!(candidates(1, &block, 8), vec![Algorithm::Naive]);

        // CN sweep clamps below n
        let small = candidates(8, &block, 8);
        assert!(!small.contains(&Algorithm::CommonNeighbor { k: 8 }));
        assert!(small.contains(&Algorithm::CommonNeighbor { k: 4 }));

        // non-block placement drops the node-hierarchical designs
        let rr = ClusterLayout::new(4, 2, 4).with_placement(Placement::RoundRobinNodes);
        let no_hier = candidates(32, &rr, 8);
        assert!(!no_hier.contains(&Algorithm::Bruck));
        assert!(!no_hier.iter().any(|a| matches!(a, Algorithm::HierarchicalLeader { .. })));
    }

    #[test]
    fn auto_is_never_its_own_candidate() {
        let layout = ClusterLayout::new(4, 2, 4);
        assert!(!candidates(64, &layout, 8).contains(&Algorithm::Auto));
    }
}
