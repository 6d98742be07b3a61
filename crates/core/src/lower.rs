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
//! Ordering contract with the zero-copy engine: [`crate::arena`] derives
//! each rank's flat slot layout by walking phases — and the `recvs` list
//! within a phase — in exactly the order emitted here, assigning fresh
//! blocks consecutive tail slots on first arrival. Because a halving-step
//! receive delivers the peer's whole pre-step buffer (itself laid out by
//! the same walk) and final-phase `recvs` are sorted by peer, every
//! delivered message lands as one contiguous slot run. Reordering the
//! emission here is safe for correctness (the layout just follows), but
//! can fragment those runs and cost the arena engine its single-slice
//! sends.

use crate::pattern::DhPattern;
use crate::plan::{Algorithm, CollectivePlan, PlanPhase, PlannedMsg};
use nhood_cluster::WorkerPool;
use nhood_topology::{Rank, Topology};

/// Tag for final-phase messages (halving steps use their step index).
pub const FINAL_TAG: u64 = 1 << 32;

/// Lowers a built pattern into an executable plan.
///
/// # Panics
/// Panics if `pattern` and `graph` disagree on the number of ranks (the
/// public API in [`crate::comm`] makes this unreachable).
pub fn lower(pattern: &DhPattern, graph: &Topology) -> CollectivePlan {
    lower_pooled(pattern, graph, &WorkerPool::serial())
}

/// [`lower`] running the per-rank descriptor lowering on `pool`. Each
/// rank's program (halving phases, final-phase sends, copy accounting)
/// is independent of every other rank's, so ranks lower concurrently;
/// only the receive mirror of the final phase is merged serially — in
/// rank order, with `recvs` sorted by peer — keeping the plan
/// byte-identical to a serial lowering.
pub fn lower_pooled(pattern: &DhPattern, graph: &Topology, pool: &WorkerPool) -> CollectivePlan {
    let n = graph.n();
    assert_eq!(pattern.n(), n, "pattern/topology rank mismatch");
    let steps = pattern.max_steps();

    // Stage 1 (parallel): per-rank programs up to the final-phase sends,
    // plus the outgoing (target, blocks) list the merge needs.
    type Lowered = (Vec<PlanPhase>, Vec<(Rank, Vec<Rank>)>);
    let built: Vec<Lowered> = pool.map(n, |p| {
        let rp = &pattern.ranks[p];
        // phases: steps halving + 1 final + 1 epilogue
        let mut prog: Vec<PlanPhase> = Vec::with_capacity(steps + 2);

        // Halving phases.
        for t in 0..steps {
            let mut phase = PlanPhase::default();
            if t == 0 {
                phase.copy_blocks = 1;
            } else if rp.steps.get(t - 1).is_some() {
                phase.copy_blocks =
                    pattern.arriving(p, t - 1).iter().filter(|&&b| graph.has_edge(b, p)).count();
            }
            if let Some(step) = rp.steps.get(t) {
                if let Some(agent) = step.agent {
                    phase.sends.push(PlannedMsg {
                        peer: agent,
                        blocks: pattern.held_before(p, t).to_vec(),
                        tag: t as u64,
                    });
                }
                if let Some(origin) = step.origin {
                    phase.recvs.push(PlannedMsg {
                        peer: origin,
                        blocks: pattern.arriving(p, t).to_vec(),
                        tag: t as u64,
                    });
                }
            }
            prog.push(phase);
        }

        // Final phase: group responsibilities by target. The CSR map
        // flattens to (target, block) pairs whose lexicographic sort
        // yields targets ascending with each target's blocks ascending —
        // the same grouping the old BTreeMap inversion produced.
        let mut phase = PlanPhase::default();
        if steps == 0 {
            // no halving at all: sbuf is sent directly, no main_buf copy
        } else if !rp.steps.is_empty() {
            let last = rp.steps.len() - 1;
            phase.copy_blocks +=
                pattern.arriving(p, last).iter().filter(|&&b| graph.has_edge(b, p)).count();
        }
        let mut pairs: Vec<(Rank, Rank)> = Vec::with_capacity(rp.responsibilities.total_targets());
        for (block, targets) in rp.responsibilities.iter() {
            for &t in targets {
                pairs.push((t, block));
            }
        }
        pairs.sort_unstable();
        let mut outgoing: Vec<(Rank, Vec<Rank>)> = Vec::new();
        let mut i = 0usize;
        while i < pairs.len() {
            let target = pairs[i].0;
            let mut blocks = Vec::new();
            while i < pairs.len() && pairs[i].0 == target {
                blocks.push(pairs[i].1);
                i += 1;
            }
            phase.copy_blocks += blocks.len(); // temp-buffer packing
            phase.sends.push(PlannedMsg { peer: target, blocks: blocks.clone(), tag: FINAL_TAG });
            outgoing.push((target, blocks));
        }
        prog.push(phase);
        (prog, outgoing)
    });

    // Stage 2 (serial): mirror the receives + epilogue copies, in rank
    // order.
    let mut incoming: Vec<Vec<(Rank, Vec<Rank>)>> = vec![Vec::new(); n];
    for (q, (_, outgoing)) in built.iter().enumerate() {
        for (target, blocks) in outgoing {
            incoming[*target].push((q, blocks.clone()));
        }
    }
    let mut per_rank: Vec<Vec<PlanPhase>> = Vec::with_capacity(n);
    for (r, (mut prog, _)) in built.into_iter().enumerate() {
        let mut scatter = 0usize;
        {
            let final_phase = prog.last_mut().expect("final phase exists");
            for (src, blocks) in incoming[r].drain(..) {
                scatter += blocks.len();
                final_phase.recvs.push(PlannedMsg { peer: src, blocks, tag: FINAL_TAG });
            }
            final_phase.recvs.sort_by_key(|m| m.peer);
        }
        prog.push(PlanPhase { copy_blocks: scatter, sends: vec![], recvs: vec![] });
        per_rank.push(prog);
    }

    CollectivePlan {
        algorithm: Algorithm::DistanceHalving,
        per_rank,
        selection: Some(pattern.stats),
    }
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
        for (p, prog) in plan.per_rank.iter().enumerate() {
            for (t, step) in pat.ranks[p].steps.iter().enumerate() {
                let phase = &prog[t];
                if step.agent.is_some() {
                    assert_eq!(phase.sends.len(), 1);
                    assert_eq!(phase.sends[0].blocks, pat.held_before(p, t));
                } else {
                    assert!(phase.sends.is_empty());
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
        for (q, prog) in plan.per_rank.iter().enumerate() {
            let sent: usize = prog[final_idx].sends.iter().map(|m| m.blocks.len()).sum();
            let owed: usize = pat.ranks[q].responsibilities.total_targets();
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
        for prog in &plan.per_rank {
            assert_eq!(prog[0].copy_blocks, 1);
            // epilogue copies equal received final blocks
            let final_idx = plan.phase_count() - 2;
            let got: usize = prog[final_idx].recvs.iter().map(|m| m.blocks.len()).sum();
            assert_eq!(prog[final_idx + 1].copy_blocks, got);
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
                assert_eq!(serial.per_rank, pooled.per_rank, "n={n} threads={threads}");
                assert_eq!(serial.algorithm, pooled.algorithm);
                assert_eq!(serial.selection, pooled.selection);
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
