//! Lowering a [`DhPattern`] to an executable [`CollectivePlan`]
//! (the planning half of the paper's Algorithm 4).
//!
//! Phase layout (lock-step across ranks):
//!
//! * phases `0 .. max_steps` — the halving steps: in phase `t` a rank
//!   ships its whole pre-step buffer to its step-`t` agent and receives
//!   its origin's buffer;
//! * phase `max_steps` — the final phase: one combined message per
//!   remaining responsibility target (mostly intra-socket, plus the
//!   direct-send fallbacks of failed agent searches);
//! * phase `max_steps + 1` — a copy-only epilogue charging the scatter of
//!   received final-phase messages into the receive buffer.
//!
//! Copy accounting (`copy_blocks`, in block units):
//!
//! * phase 0: 1 (`sbuf → main_buf`, Algorithm 4 line 3);
//! * phase `t > 0`: the receive-buffer copies of step `t-1`'s arrivals
//!   that were this rank's in-neighbors (Algorithm 4 lines 15–17);
//! * final phase: step-`last` arrival copies plus the temp-buffer packing
//!   of all outgoing final messages (lines 21–28);
//! * epilogue: one copy per received final-phase block (line 33).
//!
//! Every transfer is one [`PlanWriter::message`]: its sender's row, which
//! its destination receives in the same phase (a halving step's arrival
//! is its origin's send; the pattern's `arriving` list only prices the
//! receive-buffer copies).
//!
//! Ordering contract: no program layout depends on the order this
//! writer emits a bucket's messages or a message's blocks — a gather
//! program reads every block at its origin (`collective::program` has no
//! per-block slot), so reordering the emission here is safe for
//! correctness. The order still reaches three readers: a bucket's message
//! order is the order its rank posts the sends (which the simulator's
//! single port serializes); a message's block order is what
//! `ArenaLayout::contiguous_send_fraction` scores (a halving-step message
//! lists the peer's pre-step buffer as it arrived, so it reads 100%
//! contiguous); and both are the plan file's bytes. A rank's receives
//! need no order from here: the plan lists them by send id, so the
//! final phase's arrive ascending by sender.

use crate::pattern::DhPattern;
use crate::plan::{Algorithm, CollectivePlan, PlanWriter};
use nhood_cluster::WorkerPool;
use nhood_topology::{Rank, Topology};

/// Tag for final-phase messages (halving steps use their step index).
pub const FINAL_TAG: u64 = 1 << 32;

/// How many of the blocks arriving at rank `r` in its halving step `t`
/// are `r`'s in-neighbors — the receive-buffer copies they cost (charged
/// to the *next* phase; the last step's to the final phase too). Zero
/// past `r`'s last step.
pub(crate) fn arrival_copies(pattern: &DhPattern, graph: &Topology, r: Rank, t: usize) -> usize {
    if t >= pattern.steps(r).len() {
        return 0;
    }
    pattern.arriving(r, t).iter().filter(|&&b| graph.has_edge(b, r)).count()
}

/// The copy count of rank `r`'s halving phase `t`: phase 0 pays the sbuf
/// copy, phase `t` the copies of step `t - 1`'s arrivals.
pub(crate) fn halving_copies(pattern: &DhPattern, graph: &Topology, r: Rank, t: usize) -> usize {
    t.checked_sub(1).map_or(1, |prev| arrival_copies(pattern, graph, r, prev))
}

/// The receive-buffer copies of rank `r`'s last halving step (none
/// without one), which its final phase pays.
pub(crate) fn last_arrival_copies(pattern: &DhPattern, graph: &Topology, r: Rank) -> usize {
    let last = pattern.steps(r).len().checked_sub(1);
    last.map_or(0, |t| arrival_copies(pattern, graph, r, t))
}

/// Lowers a built pattern into an executable plan.
///
/// # Panics
/// Panics if `pattern` and `graph` disagree on the number of ranks (the
/// public API in [`crate::comm`] makes this unreachable).
pub fn lower(pattern: &DhPattern, graph: &Topology) -> CollectivePlan {
    lower_pooled(pattern, graph, &WorkerPool::serial())
}

/// [`lower`] sorting the final-phase deliveries on `pool`: ranks are cut
/// into one contiguous run per worker, and each run's rows are copied into
/// one scratch table as `(target, block)` and sorted rank by rank —
/// targets ascending, each target's blocks ascending. The rows are then
/// emitted serially, in rank order, which keeps the plan byte-identical
/// to a serial lowering (one scratch table in all).
pub fn lower_pooled(pattern: &DhPattern, graph: &Topology, pool: &WorkerPool) -> CollectivePlan {
    let n = graph.n();
    assert_eq!(pattern.n(), n, "pattern/topology rank mismatch");
    let steps = pattern.max_steps();
    let off = &pattern.resp_off;

    let run = n.div_ceil(pool.threads()).max(1);
    let tables = pool.map(n.div_ceil(run), |c| {
        let ranks = c * run..((c + 1) * run).min(n);
        let rows = &pattern.resp_table[off[ranks.start]..off[ranks.end]];
        let mut table: Vec<(Rank, Rank)> = rows.iter().map(|&(b, t)| (t, b)).collect();
        for r in ranks.clone() {
            table[off[r] - off[ranks.start]..off[r + 1] - off[ranks.start]].sort_unstable();
        }
        table
    });
    let deliveries = |p: Rank| {
        let base = off[p / run * run];
        &tables[p / run][off[p] - base..off[p + 1] - base]
    };

    // Phases: `steps` halving + 1 final + 1 epilogue.
    let mut w = PlanWriter::new(Algorithm::DistanceHalving, n, steps + 2);
    w.selection = Some(pattern.stats);
    let halving = || pattern.step_table.iter().filter(|s| s.agent().is_some());
    let finals = (0..n).map(|p| deliveries(p).chunk_by(|a, b| a.0 == b.0).count());
    w.reserve(
        halving().count() + finals.sum::<usize>(),
        halving().map(|s| s.held_len()).sum::<usize>() + pattern.resp_table.len(),
    );
    let mut blocks: Vec<Rank> = Vec::new();
    for p in 0..n {
        for t in 0..steps {
            w.copy(p, t, halving_copies(pattern, graph, p, t));
            if let Some(agent) = pattern.steps(p).get(t).and_then(|step| step.agent()) {
                w.message(t, p, agent, t as u64, pattern.held_before(p, t));
            }
        }
        // Final phase: the last step's arrival copies (with no halving at
        // all, sbuf is sent directly and there is no main_buf copy), then
        // one combined message per target.
        if steps > 0 {
            w.copy(p, steps, last_arrival_copies(pattern, graph, p));
        }
        for delivery in deliveries(p).chunk_by(|a, b| a.0 == b.0) {
            let target = delivery[0].0;
            blocks.clear();
            blocks.extend(delivery.iter().map(|&(_, block)| block));
            w.copy(p, steps, blocks.len()); // temp-buffer packing
            w.copy(target, steps + 1, blocks.len()); // the receiver's scatter
            w.message(steps, p, target, FINAL_TAG, &blocks);
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use nhood_cluster::ClusterLayout;
    use nhood_topology::random::erdos_renyi;

    fn build_and_lower(
        n: usize,
        delta: f64,
        seed: u64,
        layout: &ClusterLayout,
    ) -> (Topology, CollectivePlan) {
        let g = erdos_renyi(n, delta, seed);
        let pat = build_pattern(&g, layout).unwrap();
        let plan = lower(&pat, &g);
        (g, plan)
    }

    #[test]
    fn lowered_plans_validate() {
        for (n, delta, nodes, sockets, cores) in [
            (16, 0.3, 2, 2, 4),
            (16, 0.05, 4, 2, 2),
            (24, 0.5, 3, 2, 4),
            (36, 0.2, 3, 2, 6),
            (30, 0.7, 5, 2, 3),
            (17, 0.4, 3, 2, 3),
            (8, 0.0, 2, 2, 2),
            (12, 1.0, 3, 2, 2),
        ] {
            let layout = ClusterLayout::new(nodes, sockets, cores);
            let (g, plan) = build_and_lower(n, delta, 42, &layout);
            plan.validate(&g).unwrap_or_else(|e| panic!("n={n} delta={delta}: {e}"));
        }
    }

    #[test]
    fn phase_structure() {
        let layout = ClusterLayout::new(4, 2, 4); // 32 cores, L=4
        let (_, plan) = build_and_lower(32, 0.4, 1, &layout);
        // 32 -> 16 -> 8 -> 4: 3 halving steps + final + epilogue
        assert_eq!(plan.phase_count(), 5);
        assert_eq!(plan.algorithm, Algorithm::DistanceHalving);
        assert!(plan.selection.is_some());
    }

    #[test]
    fn halving_sends_whole_buffer() {
        let layout = ClusterLayout::new(2, 2, 4);
        let g = erdos_renyi(16, 0.6, 9);
        let pat = build_pattern(&g, &layout).unwrap();
        let plan = lower(&pat, &g);
        for p in 0..plan.n() {
            for (t, step) in pat.steps(p).iter().enumerate() {
                let mut sends = plan.phase(p, t).sends();
                if step.agent().is_some() {
                    assert_eq!(sends.len(), 1);
                    assert_eq!(sends.next().unwrap().blocks(), pat.held_before(p, t));
                } else {
                    assert_eq!(sends.len(), 0);
                }
            }
        }
    }

    #[test]
    fn final_phase_messages_cover_responsibilities() {
        let layout = ClusterLayout::new(2, 2, 4);
        let g = erdos_renyi(16, 0.3, 5);
        let pat = build_pattern(&g, &layout).unwrap();
        let plan = lower(&pat, &g);
        let final_idx = plan.phase_count() - 2;
        for q in 0..plan.n() {
            let sent: usize = plan.phase(q, final_idx).sends().map(|m| m.blocks().len()).sum();
            let owed = pat.resp(q).len();
            assert_eq!(sent, owed, "rank {q} final messages mismatch responsibilities");
        }
    }

    #[test]
    fn copy_accounting() {
        let layout = ClusterLayout::new(2, 2, 2); // 8 cores, L=2
        let g = erdos_renyi(8, 0.5, 3);
        let pat = build_pattern(&g, &layout).unwrap();
        let plan = lower(&pat, &g);
        // phase 0 always pays the sbuf copy
        for r in 0..plan.n() {
            assert_eq!(plan.phase(r, 0).copy_blocks(), 1);
            // epilogue copies equal received final blocks
            let final_idx = plan.phase_count() - 2;
            let got: usize = plan.phase(r, final_idx).recvs().map(|m| m.blocks().len()).sum();
            assert_eq!(plan.phase(r, final_idx + 1).copy_blocks(), got);
        }
    }

    #[test]
    fn pooled_lowering_is_identical_to_serial() {
        for (n, delta) in [(17usize, 0.4), (32, 0.2), (24, 0.7)] {
            let g = erdos_renyi(n, delta, 31);
            let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
            let pat = build_pattern(&g, &layout).unwrap();
            let serial = lower(&pat, &g);
            for threads in [2usize, 4] {
                let pooled = lower_pooled(&pat, &g, &WorkerPool::new(threads));
                assert!(serial == pooled, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn single_socket_plan_is_direct_sends() {
        let layout = ClusterLayout::new(1, 1, 8);
        let (g, plan) = build_and_lower(8, 0.5, 7, &layout);
        plan.validate(&g).unwrap();
        // no halving: 0 steps, phases = final + epilogue
        assert_eq!(plan.phase_count(), 2);
        // every edge is one direct single-block message
        assert_eq!(plan.message_count(), g.edge_count());
        assert_eq!(plan.total_blocks_sent(), g.edge_count());
    }
}
