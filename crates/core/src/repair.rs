//! Incremental plan repair under topology churn and link failure.
//!
//! A Distance Halving plan is expensive to build (agent negotiation
//! dominates — see Fig. 8) but most of it survives small topology
//! changes: the halving schedule and the agent/origin matchings are
//! *valid for any* communication graph (any exactly-once pairing is a
//! correct pattern; the graph only steers which pairing scores best).
//! This module exploits that invariance two ways:
//!
//! * **Edge churn** ([`repair_for_churn`]): adding or removing graph
//!   edges keeps every matching decision and patches only the
//!   responsibility rows, final-phase messages and copy accounting the
//!   changed edges touch. The result is **byte-identical** to replaying
//!   the old decisions through `PatternAssembler` + `lower` on the new
//!   graph ([`replay`]) — at the cost of a pattern/plan clone plus
//!   O(changed) work instead of a full rebuild.
//! * **Link failure** ([`repair_dead_links`]): when a physical link dies
//!   mid-execution, every matching that crossed it is revoked (those
//!   ranks fall back to the failed-agent-search direct-send path) and
//!   every final-phase delivery routed over it moves to an alternate
//!   holder of the block with a live link. A delivery with no live
//!   alternate is *dropped* and reported as
//!   [`Completeness::Degraded`] — degraded output, never a hang or
//!   silent corruption.
//!
//! Both paths bound their blast radius: past [`MAX_DAMAGE_FRAC`] of the
//! ranks damaged (or [`MAX_REPAIR_ROUNDS`] successive incremental
//! repairs) the caller cuts its losses and rebuilds from scratch.

use crate::builder::PatternAssembler;
use crate::lower::{halving_copies, last_arrival_copies, lower, FINAL_TAG};
use crate::pattern::{in_range, DhPattern};
use crate::plan::{CollectivePlan, Edits, PhaseView};
use nhood_topology::{Rank, Topology};
use std::collections::HashSet;

/// The largest fraction of ranks a repair may touch before a full
/// rebuild is cheaper and safer than patching.
pub const MAX_DAMAGE_FRAC: f64 = 0.25;

/// The most successive incremental repairs before a forced rebuild: it
/// bounds the drift of a long churn sequence, and the repairs of one
/// robust run.
pub const MAX_REPAIR_ROUNDS: u32 = 8;

/// Whether a repaired plan still delivers every edge of the virtual
/// topology.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Completeness {
    /// Every `(block, target)` delivery the topology requires is served.
    #[default]
    Full,
    /// Some deliveries were dropped — no live route existed for them.
    Degraded {
        /// The `(block, target)` pairs that will not be delivered.
        missing: Vec<(Rank, Rank)>,
    },
}

impl Completeness {
    /// `true` when nothing was dropped.
    pub fn is_full(&self) -> bool {
        matches!(self, Completeness::Full)
    }
}

/// Why an incremental repair could not be applied (the caller should
/// fall back to a full rebuild).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairError {
    /// The pattern and the requested edit disagree — e.g. a removed
    /// edge whose responsibility row is not where the carrier-chain
    /// walk says it must be. Indicates stale repair state.
    InconsistentState {
        /// The edge being repaired.
        edge: (Rank, Rank),
        /// What was inconsistent.
        detail: &'static str,
    },
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::InconsistentState { edge: (u, v), detail } => {
                write!(f, "repair state inconsistent at edge ({u} -> {v}): {detail}")
            }
        }
    }
}

impl std::error::Error for RepairError {}

/// Outcome of a successful churn repair.
#[derive(Clone, Debug)]
pub struct ChurnRepair {
    /// The patched pattern (old matchings, new graph's bookkeeping).
    pub pattern: DhPattern,
    /// The patched plan — byte-identical to re-lowering `pattern`.
    pub plan: CollectivePlan,
    /// Ranks whose program changed, ascending.
    pub changed_ranks: Vec<Rank>,
    /// `changed_ranks.len() / n`.
    pub damage_frac: f64,
}

/// Outcome of a link-down repair.
#[derive(Clone, Debug)]
pub struct LinkDownRepair {
    /// The repaired pattern (dead matchings revoked).
    pub pattern: DhPattern,
    /// The re-lowered plan; no message crosses a dead link.
    pub plan: CollectivePlan,
    /// The topology the plan validates (and should execute) against:
    /// the original graph, minus any dropped deliveries.
    pub exec_graph: Topology,
    /// Ranks whose program changed versus `old_plan`, ascending.
    pub changed_ranks: Vec<Rank>,
    /// `changed_ranks.len() / n`.
    pub damage_frac: f64,
    /// Whether every required delivery still has a route.
    pub completeness: Completeness,
}

/// Re-assembles `pattern`'s decisions on `graph` — the exact input
/// `PatternAssembler` consumed, step by step in ascending rank order —
/// minus every matching whose halving transfer `revoked(from, to)`
/// names (those ranks fall back to the failed-search path). Replays old
/// matchings without re-running negotiation: the negotiation tallies are
/// kept, notifications and descriptors recounted.
pub fn replay(
    pattern: &DhPattern,
    graph: &Topology,
    revoked: impl Fn(Rank, Rank) -> bool,
) -> DhPattern {
    let mut stats = pattern.stats;
    stats.notifications = 0;
    stats.descriptors = 0;
    let mut asm = PatternAssembler::new(graph, pattern.ranks_per_socket);
    let mut decisions = Vec::new();
    for t in 0..pattern.max_steps() {
        decisions.clear();
        decisions.extend((0..pattern.n()).filter_map(|p| {
            let s = pattern.steps(p).get(t)?;
            let agent = s.agent().filter(|&a| !revoked(p, a));
            Some((p, agent, s.origin().filter(|&o| !revoked(o, p)), s.h1(), s.h2()))
        }));
        asm.step(&decisions);
    }
    asm.finish(&stats)
}

/// Where the responsibility row `(u -> v)` sits after the halving phase,
/// under `pattern`'s decisions — without consulting any responsibility
/// map. `None` means the pair is covered by a halving-phase arrival
/// (block `u` lands in `v`'s buffer), so no row exists anywhere.
///
/// Follows the carrier chain of Algorithm 1: the row starts at `u` and
/// moves to the carrier's agent at the first step whose opposite half
/// contains `v`; a failed agent search at that step strands it on the
/// carrier for good (the direct-send fallback).
pub fn resp_owner(pattern: &DhPattern, u: Rank, v: Rank) -> Option<Rank> {
    // Any halving-phase arrival of u at v covers the pair (lemma 1 of
    // the exactly-once proof makes a second arrival impossible).
    if (0..pattern.steps(v).len()).any(|t| pattern.arriving(v, t).contains(&u)) {
        return None;
    }
    let mut c = u;
    let mut t = 0usize;
    while let Some(step) = pattern.steps(c).get(t) {
        if in_range(v, step.h2()) {
            match step.agent() {
                // an agent == v would have delivered u to v — excluded
                // by the arrival check above
                Some(a) => {
                    debug_assert_ne!(a, v, "arrival check must have caught agent == target");
                    c = a;
                }
                // no agent found: the row stays with c (direct send)
                None => break,
            }
        }
        t += 1;
    }
    Some(c)
}

/// How many of `u`'s halving steps have `v` in the opposite half — the
/// per-edge contribution to `SelectionStats::notifications` (0 or 1,
/// since the opposite halves of one rank's steps are disjoint).
fn notification_count(pattern: &DhPattern, u: Rank, v: Rank) -> usize {
    pattern.steps(u).iter().filter(|s| in_range(v, s.h2())).count()
}

/// Re-derives every `copy_blocks` of rank `r`'s program from the
/// pattern, the graph and the plan's own final-phase messages, exactly as
/// [`crate::lower`] charges them: the halving phases their arrival
/// copies, the final phase the last step's plus the temp-buffer packing
/// of its own sends, the epilogue one copy per received final block.
fn recompute_copies(
    pattern: &DhPattern,
    graph: &Topology,
    steps: usize,
    r: Rank,
    plan: &mut CollectivePlan,
) {
    for t in 0..steps {
        plan.set_copy_blocks(r, t, halving_copies(pattern, graph, r, t));
    }
    let final_phase = plan.phase(r, steps);
    let packed: usize = final_phase.sends().map(|m| m.blocks().len()).sum();
    let scattered: usize = final_phase.recvs().map(|m| m.blocks().len()).sum();
    let last = if steps > 0 { last_arrival_copies(pattern, graph, r) } else { 0 };
    plan.set_copy_blocks(r, steps, last + packed);
    plan.set_copy_blocks(r, steps + 1, scattered);
}

/// The final-phase sends a churn repair rewrites, as `(peer, blocks)`:
/// per sending (rank, phase), ascending by peer like the bucket itself
/// (the lowering's ordering contract), each taken out of `plan` on first
/// touch. [`CollectivePlan::patched`] puts them back, dropping a message
/// left with no block.
struct FinalEdits<'a> {
    plan: &'a CollectivePlan,
    rows: Edits,
}

impl FinalEdits<'_> {
    /// The block list — ascending — of the final-phase send from `r` to
    /// `peer`; empty if `plan` has no such send.
    fn blocks(&mut self, r: Rank, phase: usize, peer: Rank) -> &mut Vec<Rank> {
        let msgs = self.rows.entry((r, phase)).or_default();
        let at = msgs.binary_search_by_key(&peer, |m| m.0).unwrap_or_else(|at| {
            let old = self.plan.phase(r, phase).sends().find(|m| m.peer() == peer);
            msgs.insert(at, (peer, old.map_or_else(Vec::new, |m| m.blocks().to_vec())));
            at
        });
        &mut msgs[at].1
    }

    /// Adds `block` to that send.
    fn add(&mut self, r: Rank, phase: usize, peer: Rank, block: Rank) {
        let blocks = self.blocks(r, phase, peer);
        if let Err(at) = blocks.binary_search(&block) {
            blocks.insert(at, block);
        }
    }

    /// Removes `block` from that send; `false` when it was not there
    /// (inconsistent state).
    fn remove(&mut self, r: Rank, phase: usize, peer: Rank, block: Rank) -> bool {
        let blocks = self.blocks(r, phase, peer);
        blocks.binary_search(&block).map(|at| blocks.remove(at)).is_ok()
    }
}

/// Patches `pattern`/`plan` for a set of edge additions and removals,
/// preserving every matching decision. `new_graph` must already have
/// the churn applied; `added`/`removed` must be the actual deltas
/// (edges genuinely absent before / present before, no self-edges, no
/// duplicates).
///
/// The returned plan is byte-identical to lowering the pattern the
/// recovered decisions assemble on `new_graph` — the property
/// `mutated_plan_is_byte_identical` below pins this.
pub fn repair_for_churn(
    pattern: &DhPattern,
    plan: &CollectivePlan,
    new_graph: &Topology,
    added: &[(Rank, Rank)],
    removed: &[(Rank, Rank)],
) -> Result<ChurnRepair, RepairError> {
    let n = pattern.n();
    let steps = pattern.max_steps();
    let mut new_pattern = pattern.with_room(added.len());
    let final_idx = steps; // phases: 0..steps halving, steps final, steps+1 epilogue
    let mut changed: Vec<Rank> = Vec::new();
    // The final-phase sends the churn rewrites, in the owned row form;
    // every other row of the plan is carried over.
    let mut edits = FinalEdits { plan, rows: Edits::new() };

    for (&edge, add) in added.iter().map(|e| (e, true)).chain(removed.iter().map(|e| (e, false))) {
        let (u, v) = edge;
        match resp_owner(pattern, u, v) {
            None => {
                // Covered by a halving arrival: only v's receive-copy
                // accounting changes with the edge.
                changed.push(v);
            }
            Some(w) if add => {
                if !new_pattern.owe(w, u, v) {
                    let detail = "added edge already has a responsibility row";
                    return Err(RepairError::InconsistentState { edge, detail });
                }
                edits.add(w, final_idx, v, u);
                changed.extend([w, v]);
            }
            Some(w) => {
                if !new_pattern.disown(w, u, v) {
                    let detail = if new_pattern.owed(w, u).len() == 0 {
                        "removed edge has no responsibility row at its owner"
                    } else {
                        "owner's row does not list the removed target"
                    };
                    return Err(RepairError::InconsistentState { edge, detail });
                }
                if !edits.remove(w, final_idx, v, u) {
                    let detail = "plan's final phase lacks the removed delivery";
                    return Err(RepairError::InconsistentState { edge, detail });
                }
                changed.extend([w, v]);
            }
        }
        // Agent announcements go to out-neighbors in the opposite half,
        // so the edge shifts the notification tally by its h2 hits.
        let delta = notification_count(pattern, u, v);
        if add {
            new_pattern.stats.notifications += delta;
        } else {
            new_pattern.stats.notifications -= delta;
        }
    }
    let mut new_plan = plan.patched(&edits.rows, FINAL_TAG);
    new_plan.selection = Some(new_pattern.stats);

    changed.sort_unstable();
    changed.dedup();
    for &r in &changed {
        recompute_copies(&new_pattern, new_graph, steps, r, &mut new_plan);
    }

    let damage_frac = changed.len() as f64 / n.max(1) as f64;
    Ok(ChurnRepair { pattern: new_pattern, plan: new_plan, changed_ranks: changed, damage_frac })
}

/// Repairs a pattern after one or more physical links died: revokes
/// every matching whose halving transfer crosses a dead link, reroutes
/// final-phase deliveries routed over dead links to alternate holders,
/// and re-lowers. `dead` holds *directed* pairs (insert both directions
/// for a severed cable). Deliveries with no live route are dropped and
/// reported via [`LinkDownRepair::completeness`]; the returned
/// `exec_graph` excludes them, and is the topology the caller checks the
/// plan on before executing it there.
pub fn repair_dead_links(
    pattern: &DhPattern,
    old_plan: &CollectivePlan,
    graph: &Topology,
    dead: &HashSet<(Rank, Rank)>,
) -> Result<LinkDownRepair, RepairError> {
    let n = pattern.n();

    // 1. Replay the old matchings minus any that cross a dead link.
    let mut repaired = replay(pattern, graph, |from, to| dead.contains(&(from, to)));

    // 2. Reroute final-phase deliveries that would cross a dead link to
    // another holder of the block with a live link to the target.
    // holders[holder_off[b]..holder_off[b + 1]]: the ranks holding block
    // b at the end of halving, ascending.
    let mut holder_off = vec![0; n + 1];
    repaired.held_pool.iter().for_each(|&b| holder_off[b + 1] += 1);
    for b in 0..n {
        holder_off[b + 1] += holder_off[b];
    }
    let mut holders = vec![0; repaired.held_pool.len()];
    let mut fill = holder_off.clone();
    for r in 0..n {
        for &b in repaired.held(r) {
            holders[fill[b]] = r;
            fill[b] += 1;
        }
    }
    let mut moves: Vec<(Rank, Rank, Rank, Option<Rank>)> = Vec::new(); // (from, block, target, to)
    for w in 0..n {
        for &(b, t) in repaired.resp(w).iter().filter(|&&(_, t)| dead.contains(&(w, t))) {
            let mut alts = holders[holder_off[b]..holder_off[b + 1]].iter();
            let alt = alts.find(|&&z| z != w && z != t && !dead.contains(&(z, t))).copied();
            moves.push((w, b, t, alt));
        }
    }
    let mut missing: Vec<(Rank, Rank)> = Vec::new();
    for &(w, b, t, to) in &moves {
        repaired.disown(w, b, t);
        match to {
            Some(z) => {
                repaired.owe(z, b, t);
            }
            None => missing.push((b, t)),
        }
    }
    missing.sort_unstable();
    missing.dedup();

    // 3. Re-lower against the graph minus dropped deliveries.
    let exec_graph = graph.churned(&[], &missing);
    let plan = lower(&repaired, &exec_graph);
    let crosses_dead = |r: Rank, prog: &[crate::plan::PlanPhase]| {
        prog.iter().flat_map(|ph| &ph.sends).any(|m| dead.contains(&(r, m.peer)))
    };
    debug_assert!(
        !(0..n).any(|r| crosses_dead(r, &plan.rank_rows(r))),
        "repaired plan still schedules a send over a dead link"
    );

    // a rank's program changed when its copies, sends or receives did
    let same_recvs = |(a, b): (PhaseView, PhaseView)| {
        a.recvs()
            .map(|m| (m.peer(), m.tag(), m.blocks()))
            .eq(b.recvs().map(|m| (m.peer(), m.tag(), m.blocks())))
    };
    let same = |r: Rank| {
        r < old_plan.n()
            && old_plan.rank_rows(r) == plan.rank_rows(r)
            && old_plan.phases(r).zip(plan.phases(r)).all(same_recvs)
    };
    let changed_ranks: Vec<Rank> = (0..n).filter(|&r| !same(r)).collect();
    let damage_frac = changed_ranks.len() as f64 / n.max(1) as f64;
    let completeness =
        if missing.is_empty() { Completeness::Full } else { Completeness::Degraded { missing } };
    Ok(LinkDownRepair {
        pattern: repaired,
        plan,
        exec_graph,
        changed_ranks,
        damage_frac,
        completeness,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::exec::virtual_exec::{reference_allgather, test_payloads, Virtual};
    use crate::exec::Executor;
    use nhood_cluster::ClusterLayout;
    use nhood_topology::random::erdos_renyi;
    use std::sync::Arc;

    fn layout(n: usize) -> ClusterLayout {
        ClusterLayout::new(n.div_ceil(8), 2, 4)
    }

    type EdgeSet = Vec<(Rank, Rank)>;

    /// Picks a deterministic churn set: `k` edges to remove from the
    /// graph and `k` non-edges to add.
    fn churn_set(g: &Topology, k: usize, seed: u64) -> (EdgeSet, EdgeSet) {
        let edges: Vec<_> = g.edges().collect();
        let n = g.n();
        let removed: Vec<_> =
            (0..k).map(|i| edges[(seed as usize + i * 37) % edges.len()]).collect();
        let mut added = Vec::new();
        let mut x = seed;
        while added.len() < k {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (x >> 16) as usize % n;
            let v = (x >> 40) as usize % n;
            if u != v && !g.has_edge(u, v) && !added.contains(&(u, v)) {
                added.push((u, v));
            }
        }
        (added, removed)
    }

    #[test]
    fn recovered_decisions_rebuild_the_same_pattern() {
        let g = erdos_renyi(48, 0.3, 7);
        let lay = layout(48);
        let pat = build_pattern(&g, &lay).unwrap();
        assert_eq!(replay(&pat, &g, |_, _| false), pat);
    }

    #[test]
    fn replay_revokes_exactly_the_named_transfers() {
        let g = erdos_renyi(40, 0.4, 3);
        let pat = build_pattern(&g, &layout(40)).unwrap();
        // every transfer out of an even rank
        let revoked = |from: Rank, _: Rank| from.is_multiple_of(2);
        let rep = replay(&pat, &g, revoked);
        assert_eq!(rep.max_steps(), pat.max_steps());
        for p in 0..40 {
            for (was, now) in pat.steps(p).iter().zip(rep.steps(p)) {
                let agent = was.agent().filter(|&a| !revoked(p, a));
                let origin = was.origin().filter(|&o| !revoked(o, p));
                assert_eq!(
                    (now.agent(), now.origin(), now.h1(), now.h2()),
                    (agent, origin, was.h1(), was.h2())
                );
            }
        }
        // the negotiation's tallies stay; the revoked descriptors do not
        assert_eq!(
            (rep.stats.pairs, rep.stats.agents_found),
            (pat.stats.pairs, pat.stats.agents_found)
        );
        assert!(rep.stats.descriptors < pat.stats.descriptors);
        // and the direct-send fallback still delivers every edge once
        let plan = lower(&rep, &g);
        plan.validate(&g).unwrap();
        let payloads = test_payloads(40, 4, 9);
        let got = Virtual.run_simple(&Arc::new(plan), &g, &payloads).unwrap();
        assert_eq!(got, reference_allgather(&g, &payloads));
    }

    #[test]
    fn resp_owner_agrees_with_built_responsibilities() {
        for (n, delta, seed) in [(32usize, 0.3, 1u64), (48, 0.5, 2), (40, 0.1, 3)] {
            let g = erdos_renyi(n, delta, seed);
            let pat = build_pattern(&g, &layout(n)).unwrap();
            for (u, v) in g.edges() {
                match resp_owner(&pat, u, v) {
                    Some(w) => {
                        let mut row = pat.owed(w, u);
                        assert!(row.any(|t| t == v), "({u}->{v}) not in owner {w}'s rows");
                    }
                    None => {
                        let arrived =
                            (0..pat.steps(v).len()).any(|t| pat.arriving(v, t).contains(&u));
                        assert!(arrived, "({u}->{v}) neither owned nor arriving");
                    }
                }
            }
        }
    }

    /// The tentpole identity: the surgical patch equals the
    /// decision-preserving rebuild, byte for byte — pattern and plan.
    #[test]
    fn churn_repair_is_byte_identical_to_decision_preserving_rebuild() {
        for (n, delta, seed) in [(32usize, 0.1, 11u64), (48, 0.3, 12), (64, 0.6, 13), (41, 0.3, 14)]
        {
            let g = erdos_renyi(n, delta, seed);
            let lay = layout(n);
            let pat = build_pattern(&g, &lay).unwrap();
            let plan = lower(&pat, &g);
            let (added, removed) = churn_set(&g, 3, seed);
            let g2 = g.churned(&added, &removed);

            let rep = repair_for_churn(&pat, &plan, &g2, &added, &removed)
                .unwrap_or_else(|e| panic!("n={n} delta={delta}: {e}"));

            let want_pat = replay(&pat, &g2, |_, _| false);
            let want_plan = lower(&want_pat, &g2);

            assert_eq!(rep.pattern, want_pat, "n={n} delta={delta}");
            assert!(rep.plan == want_plan, "n={n} delta={delta}");
            let bytes = |plan: &CollectivePlan| {
                let mut out = Vec::new();
                crate::plan_io::write_plan(plan, &mut out).unwrap();
                out
            };
            assert_eq!(bytes(&rep.plan), bytes(&want_plan), "n={n} delta={delta}");
            rep.plan.validate(&g2).unwrap();

            // The changed-rank list is truthful: untouched programs are
            // bitwise-unchanged from the old plan.
            for r in 0..n {
                if !rep.changed_ranks.contains(&r) {
                    assert_eq!(
                        rep.plan.rank_rows(r),
                        plan.rank_rows(r),
                        "rank {r} silently changed"
                    );
                }
            }
        }
    }

    #[test]
    fn churn_repair_add_then_remove_roundtrips() {
        let g = erdos_renyi(32, 0.3, 9);
        let pat = build_pattern(&g, &layout(32)).unwrap();
        let plan = lower(&pat, &g);
        let (added, _) = churn_set(&g, 2, 77);
        let g2 = g.churned(&added, &[]);
        let rep = repair_for_churn(&pat, &plan, &g2, &added, &[]).unwrap();
        // removing the same edges from the churned state restores the
        // original pattern and plan exactly
        let back = repair_for_churn(&rep.pattern, &rep.plan, &g, &[], &added).unwrap();
        assert_eq!(back.pattern, pat);
        assert!(back.plan.same_rows(&plan));
    }

    #[test]
    fn churn_repair_rejects_inconsistent_edits() {
        let g = erdos_renyi(16, 0.4, 5);
        let pat = build_pattern(&g, &layout(16)).unwrap();
        let plan = lower(&pat, &g);
        // "removing" a non-edge must be reported, not silently patched
        let bogus = (0..16)
            .flat_map(|u| (0..16).map(move |v| (u, v)))
            .find(|&(u, v)| u != v && !g.has_edge(u, v))
            .unwrap();
        let g2 = g.churned(&[], &[bogus]);
        match repair_for_churn(&pat, &plan, &g2, &[], &[bogus]) {
            Err(e) => assert!(matches!(e, RepairError::InconsistentState { .. }), "{e}"),
            // a bogus removal of an arrival-covered pair is indistinguishable
            // from a no-op copy retally — also acceptable
            Ok(rep) => assert!(rep.changed_ranks.len() <= 1),
        }
    }

    #[test]
    fn link_down_repair_reroutes_and_validates() {
        let g = erdos_renyi(48, 0.4, 21);
        let pat = build_pattern(&g, &layout(48)).unwrap();
        let plan = lower(&pat, &g);
        // kill the first halving-phase matching's link
        let (p, a) = (0..48)
            .find_map(|p| pat.steps(p).first().and_then(|s| s.agent()).map(|a| (p, a)))
            .expect("some rank matched in step 0");
        let dead: HashSet<(Rank, Rank)> = [(p, a), (a, p)].into_iter().collect();
        let rep = repair_dead_links(&pat, &plan, &g, &dead).unwrap();
        assert_eq!(rep.pattern.steps(p)[0].agent(), None, "dead matching not revoked");
        assert_eq!(rep.pattern.steps(a)[0].origin(), None);
        // no message crosses the dead link, either direction
        for (r, prog) in rep.plan.to_rows().iter().enumerate() {
            for m in prog.iter().flat_map(|ph| &ph.sends) {
                assert!(!dead.contains(&(r, m.peer)), "send {r} -> {} over dead link", m.peer);
            }
        }
        // the repaired plan produces correct output on its exec graph
        let payloads = test_payloads(48, 8, 4);
        let got =
            Virtual.run_simple(&Arc::new(rep.plan.clone()), &rep.exec_graph, &payloads).unwrap();
        assert_eq!(got, reference_allgather(&rep.exec_graph, &payloads));
        if rep.completeness.is_full() {
            assert_eq!(rep.exec_graph.edge_count(), g.edge_count());
        }
        assert!(!rep.changed_ranks.is_empty());
        assert!(rep.damage_frac > 0.0);
    }

    #[test]
    fn link_down_with_no_alternate_degrades_not_corrupts() {
        // A sparse graph where rank u's block is held only by u: killing
        // u's direct link to a target it still owes leaves no alternate,
        // so the delivery is dropped and reported.
        let g = Topology::from_edges(8, [(0, 1), (1, 0), (2, 3), (3, 2)]);
        let lay = ClusterLayout::new(1, 2, 4); // L = 4, one halving step
        let pat = build_pattern(&g, &lay).unwrap();
        let plan = lower(&pat, &g);
        // find a responsibility delivered over a direct final send
        let Some(t) = pat.resp_table.first().map(|&(_, t)| t) else {
            return; // all deliveries are arrival-covered; nothing to test
        };
        // kill every link into t, so no reroute can exist
        let dead: HashSet<(Rank, Rank)> =
            (0..8).filter(|&z| z != t).flat_map(|z| [(z, t), (t, z)]).collect();
        let rep = repair_dead_links(&pat, &plan, &g, &dead).unwrap();
        match &rep.completeness {
            Completeness::Degraded { missing } => {
                assert!(missing.iter().any(|&(_, mt)| mt == t), "t={t} must lose a delivery");
                assert!(rep.exec_graph.edge_count() < g.edge_count());
            }
            Completeness::Full => panic!("expected a degraded repair"),
        }
        rep.plan.validate(&rep.exec_graph).unwrap();
    }
}
