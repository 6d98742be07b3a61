//! The simulation-driven algorithm auto-tuner behind
//! [`Algorithm::Auto`].
//!
//! Instead of static crossover thresholds, the tuner builds every
//! portfolio candidate for the request's exact (topology, layout,
//! [`BlockSizes`]) triple, scores each plan
//! through the §V cost model ([`crate::exec::sim_exec::simulate_v`]),
//! and picks the strict-minimum makespan. Candidate order is fixed and
//! ties break toward the earlier candidate, so the winner is a pure
//! function of the tuner fingerprint — the determinism the plan cache
//! relies on ([`crate::plan_cache::PlanFingerprint::of_tuner`]).
//!
//! Tuning is paid once per fingerprint: the winning plan is inserted
//! into the attached [`crate::plan_cache::PlanCache`] under the tuner
//! key (and under the winner's own canonical build key, so explicit
//! requests for the winning algorithm coalesce with `Auto` requests).
//! A churned topology hashes to another tuner key, so
//! [`crate::comm::DistGraphComm::mutate`] leaves the entry cached for
//! the topology it was tuned on and the churned communicator re-tunes.
//! See `docs/AUTOTUNE.md`.

use crate::plan::{Algorithm, CollectivePlan};
use crate::sizes::BlockSizes;
use nhood_cluster::ClusterLayout;
use nhood_topology::Topology;
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
    /// The winner's plan as built, unchecked: the tuner checks no arm.
    pub plan: Arc<CollectivePlan>,
}

/// PAT's regime, by the frontier in `BENCH_10.json`: blocks of at most
/// this many bytes on a graph of density (edges over `n · (n − 1)`) at
/// least [`PAT_MIN_DENSITY`], where a request is all latency and PAT's
/// aggregation trees send the fewest messages. PAT won no cell outside
/// it and came within 2 % of no cell's best there.
pub const PAT_MAX_BLOCK: usize = 8;
/// See [`PAT_MAX_BLOCK`].
pub const PAT_MIN_DENSITY: f64 = 0.85;

/// The candidate portfolio for `graph` on `layout` at block `sizes`: the
/// arms that can win there.
///
/// Always includes `Naive`; for non-degenerate sizes also Distance
/// Halving, the [`CN_SWEEP`] of Common Neighbor group sizes (those below
/// `n`), and in PAT's regime ([`PAT_MAX_BLOCK`]) PAT at radix 2 and 4.
/// The node-hierarchical designs — `HierarchicalLeader` with 8 leaders
/// per node, and `Bruck` — join when the layout spans multiple nodes, on
/// any placement (the communicator re-ranks them into locality order).
pub fn candidates(graph: &Topology, layout: &ClusterLayout, sizes: &BlockSizes) -> Vec<Algorithm> {
    let n = graph.n();
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
    let density = graph.edge_count() as f64 / (n * (n - 1)) as f64;
    if sizes.max_size() <= PAT_MAX_BLOCK && density >= PAT_MIN_DENSITY {
        cands.extend([Algorithm::Pat { radix: 2 }, Algorithm::Pat { radix: 4 }]);
    }
    if layout.nodes() > 1 {
        cands.push(Algorithm::HierarchicalLeader { leaders_per_node: 8 });
        cands.push(Algorithm::Bruck);
    }
    cands
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhood_topology::random::erdos_renyi;

    /// The portfolio for a G(n, δ) graph at uniform `m`-byte blocks.
    fn offered(n: usize, delta: f64, layout: &ClusterLayout, m: usize) -> Vec<Algorithm> {
        candidates(&erdos_renyi(n, delta, 5), layout, &BlockSizes::uniform(m))
    }

    #[test]
    fn portfolio_scales_with_n_and_placement() {
        let block = ClusterLayout::new(4, 2, 4);
        let full = offered(32, 0.3, &block, 64);
        assert!(full.contains(&Algorithm::Bruck));
        assert!(full.contains(&Algorithm::HierarchicalLeader { leaders_per_node: 8 }));
        assert!(full.contains(&Algorithm::CommonNeighbor { k: 16 }));

        // tiny communicator: direct sends only
        assert_eq!(offered(1, 0.3, &block, 64), vec![Algorithm::Naive]);

        // CN sweep clamps below n
        let small = offered(8, 0.3, &block, 64);
        assert!(!small.contains(&Algorithm::CommonNeighbor { k: 8 }));
        assert!(small.contains(&Algorithm::CommonNeighbor { k: 4 }));

        // any placement offers the node-hierarchical designs; one node
        // does not
        let rr =
            ClusterLayout::new(4, 2, 4).with_placement(nhood_cluster::Placement::RoundRobinNodes);
        assert_eq!(offered(32, 0.3, &rr, 64), full);
        let no_hier = offered(32, 0.3, &ClusterLayout::new(1, 2, 16), 64);
        assert!(!no_hier.contains(&Algorithm::Bruck));
        assert!(!no_hier.iter().any(|a| matches!(a, Algorithm::HierarchicalLeader { .. })));
    }

    #[test]
    fn the_portfolio_drops_pat_and_keeps_every_frontier_winner() {
        // the frontier rows of the checked-in BENCH_10.json:
        // {"arm": "naive", "cells": …, "offered": …, "wins": …, …}
        let bench = include_str!("../../../BENCH_10.json");
        let field = |row: &str, key: &str| {
            let value = row.split(&format!("\"{key}\": ")).nth(1)?;
            Some(value.split([',', '}']).next()?.trim_matches('"').to_string())
        };
        let arms: Vec<(String, u64)> = (bench.lines())
            .filter_map(|row| Some((field(row, "arm")?, field(row, "wins")?.parse().ok()?)))
            .collect();
        assert!(arms.len() >= 10, "BENCH_10.json has a frontier row per historical arm");

        // every arm that won a frontier cell is offered: PAT in its regime
        // (a near-complete graph, 1-byte blocks), the rest at plan-churn's
        // shape, where PAT is not
        let layout = ClusterLayout::new(6, 2, 8);
        let names = |arms: Vec<Algorithm>| arms.iter().map(ToString::to_string).collect::<Vec<_>>();
        let (dense, sparse) =
            (names(offered(96, 0.9, &layout, 1)), names(offered(96, 0.15, &layout, 64)));
        for (arm, wins) in arms.iter().filter(|(_, wins)| *wins > 0) {
            let pat = arm.starts_with("pat(");
            assert!(dense.contains(arm), "{arm} won {wins} frontier cells; offered {dense:?}");
            assert_eq!(sparse.contains(arm), !pat, "{arm} at plan-churn's shape: {sparse:?}");
        }
        // ... and outside its regime PAT never is
        let is_pat = |a: &Algorithm| matches!(a, Algorithm::Pat { .. });
        for n in [0, 1, 96, 160] {
            for (delta, m) in [(0.15, 1), (0.8, 1), (0.9, 16), (1.0, PAT_MAX_BLOCK + 1)] {
                for layout in [layout.clone(), ClusterLayout::new(1, 2, 64)] {
                    let cands = offered(n, delta, &layout, m);
                    assert!(!cands.iter().any(is_pat), "n={n} δ={delta} m={m}: {cands:?}");
                }
            }
        }
    }

    #[test]
    fn auto_is_never_its_own_candidate() {
        let layout = ClusterLayout::new(4, 2, 4);
        assert!(!offered(64, 0.3, &layout, 64).contains(&Algorithm::Auto));
        assert!(!offered(64, 1.0, &layout, 1).contains(&Algorithm::Auto));
    }
}
