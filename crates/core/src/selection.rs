//! Event-driven emulation of the joint agent/origin selection protocol
//! (Algorithms 2 and 3 of the paper).
//!
//! One **round** is half of one halving step: every rank of one half (the
//! *proposers*) runs `find_agent` while every rank of the opposite half
//! (the *acceptors*) runs `find_origin`. Ranks negotiate with
//! REQ / ACCEPT / DROP / EXIT signals:
//!
//! * a proposer REQs its best-scoring candidate and waits;
//! * an acceptor ACCEPTs the REQ of its best-scoring candidate (at most
//!   one origin per acceptor per round) and proactively DROPs everyone
//!   else;
//! * a DROPped proposer advances to its next-best candidate;
//! * an accepted proposer EXITs its remaining candidates so they stop
//!   waiting for it.
//!
//! The emulation drives per-rank state machines from a FIFO signal queue
//! — the same protocol the paper runs over MPI, with a deterministic
//! arrival order (see DESIGN.md §2 for the substitution argument). Every
//! signal is counted, which feeds the Fig. 8 overhead analysis.
//!
//! The *score* of a pair is the number of outgoing neighbors the two
//! ranks share **inside the acceptor-side half** (the paper's matrix-A
//! query); a pair is mutually a candidate iff its score is ≥ 1, which
//! makes the candidate relation symmetric. Ties are broken toward the
//! lower rank, mirroring a rank-ordered candidate scan. Under
//! [`crate::sizes::LoadMetric::Bytes`] the builders refine the ordering
//! lexicographically: shared-neighbor count stays primary, and ties are
//! broken toward the proposer carrying *fewer* block bytes — the
//! pairing that adds the least forwarding load to the accepting agent —
//! before falling back to the rank order. The byte term applies to the
//! proposer on both sides of a pair and never creates or removes
//! candidacy, so the relation stays symmetric and candidate sets match
//! the paper's exactly.
//!
//! Internally a round is split into two stages so the builder can
//! parallelize the expensive one: **scoring** fills a [`RoundCandidates`]
//! CSR (per-proposer and per-acceptor candidate lists, best-first, as
//! flat `offsets`/`targets` arrays over *local* indices), and the
//! **drive** ([`run_matching`]) replays the protocol over dense
//! `Vec<CandState>` matrices — no hash lookups on the hot path. The
//! drive is single-threaded and deterministic, so any partitioning of
//! the scoring work yields bit-identical rounds.

use crate::pattern::SelectionStats;
use nhood_topology::Rank;
use std::collections::{HashMap, VecDeque};

/// Outcome of one selection round.
#[derive(Clone, Debug, Default)]
pub struct RoundResult {
    /// proposer → acceptor matches.
    pub matched: HashMap<Rank, Rank>,
    /// Signal tallies for this round (`agent_searches` counts every
    /// proposer, `agents_found` every matched proposer).
    pub stats: SelectionStats,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sig {
    Req,
    Accept,
    Drop,
    Exit,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CandState {
    Active,
    Waiting,
    Inactive,
}

/// One observable protocol event, in global causal order: a signal is
/// `Sent` when its sender emits it and `Received` when its receiver
/// processes it. The per-rank subsequences of this log are exactly the
/// blocking send/recv programs the ranks executed, which lets the
/// `nhood-bench` Fig. 8 harness replay a negotiation through the network
/// simulator and *measure* the pattern-creation time instead of
/// estimating it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// `from` emitted a signal addressed to `to`.
    Sent {
        /// Sender.
        from: Rank,
        /// Addressee.
        to: Rank,
    },
    /// `by` processed the signal that `from` had sent it.
    Received {
        /// Processing rank.
        by: Rank,
        /// Original sender.
        from: Rank,
    },
}

/// One proposer's scored candidates: `(score, acceptor local index)`,
/// in acceptor-slice order (the order `build` calls `score`).
pub(crate) type ScoreRow = Vec<(usize, u32)>;

/// The frozen input of one protocol round: both sides' candidate lists,
/// best-first, in CSR form over local indices.
#[derive(Clone, Debug, Default)]
pub struct RoundCandidates {
    proposers: Vec<Rank>,
    acceptors: Vec<Rank>,
    /// `prop_off.len() == proposers.len() + 1`; proposer `pi`'s
    /// candidates (acceptor local indices, best-first) are
    /// `prop_cand[prop_off[pi]..prop_off[pi + 1]]`.
    prop_off: Vec<u32>,
    prop_cand: Vec<u32>,
    /// Mirror CSR for the acceptor side (proposer local indices).
    acc_off: Vec<u32>,
    acc_cand: Vec<u32>,
}

impl RoundCandidates {
    /// Scores every (proposer, acceptor) pair — `score` is called once
    /// per pair, proposers outermost, both in slice order — and freezes
    /// the candidate CSR. Pairs with score 0 are not candidates.
    pub fn build(
        proposers: &[Rank],
        acceptors: &[Rank],
        mut score: impl FnMut(Rank, Rank) -> usize,
    ) -> Self {
        let rows: Vec<ScoreRow> =
            proposers.iter().map(|&p| Self::score_row(p, acceptors, &mut score)).collect();
        Self::from_rows(proposers.to_vec(), acceptors.to_vec(), rows)
    }

    /// Scores one proposer against every acceptor. Split out so the
    /// builder can farm rows out to a worker pool and reassemble with
    /// [`from_rows`](Self::from_rows).
    pub(crate) fn score_row(
        p: Rank,
        acceptors: &[Rank],
        mut score: impl FnMut(Rank, Rank) -> usize,
    ) -> ScoreRow {
        let mut row = ScoreRow::new();
        for (ai, &a) in acceptors.iter().enumerate() {
            let s = score(p, a);
            if s > 0 {
                row.push((s, ai as u32));
            }
        }
        row
    }

    /// Assembles the CSR from per-proposer score rows (one per proposer,
    /// in proposer-slice order). Sorting is (score desc, rank asc) on
    /// both sides — the comparator every matchmaking path shares.
    pub(crate) fn from_rows(
        proposers: Vec<Rank>,
        acceptors: Vec<Rank>,
        rows: Vec<ScoreRow>,
    ) -> Self {
        debug_assert_eq!(rows.len(), proposers.len());
        let mut acc_rows: Vec<Vec<(usize, u32)>> = vec![Vec::new(); acceptors.len()];
        let mut prop_off: Vec<u32> = Vec::with_capacity(proposers.len() + 1);
        prop_off.push(0);
        let mut prop_cand: Vec<u32> = Vec::new();
        for (pi, mut row) in rows.into_iter().enumerate() {
            for &(s, ai) in &row {
                acc_rows[ai as usize].push((s, pi as u32));
            }
            row.sort_unstable_by(|x, y| {
                y.0.cmp(&x.0).then(acceptors[x.1 as usize].cmp(&acceptors[y.1 as usize]))
            });
            prop_cand.extend(row.iter().map(|&(_, ai)| ai));
            prop_off.push(prop_cand.len() as u32);
        }
        let mut acc_off: Vec<u32> = Vec::with_capacity(acceptors.len() + 1);
        acc_off.push(0);
        let mut acc_cand: Vec<u32> = Vec::new();
        for mut row in acc_rows {
            row.sort_unstable_by(|x, y| {
                y.0.cmp(&x.0).then(proposers[x.1 as usize].cmp(&proposers[y.1 as usize]))
            });
            acc_cand.extend(row.iter().map(|&(_, pi)| pi));
            acc_off.push(acc_cand.len() as u32);
        }
        Self { proposers, acceptors, prop_off, prop_cand, acc_off, acc_cand }
    }

    fn prop_cands(&self, pi: usize) -> &[u32] {
        &self.prop_cand[self.prop_off[pi] as usize..self.prop_off[pi + 1] as usize]
    }

    fn acc_cands(&self, ai: usize) -> &[u32] {
        &self.acc_cand[self.acc_off[ai] as usize..self.acc_off[ai + 1] as usize]
    }

    /// Cross-links between the two CSR views of the candidate graph:
    /// `p2a[j]` is the acceptor-side edge index of proposer-side edge
    /// `j`, and `a2p` the mirror. The drive keeps per-*edge* state, so
    /// memory is O(candidate edges) instead of the former dense
    /// `np × na` matrices — the difference between megabytes and
    /// gigabytes in the first halving step at 100k ranks.
    fn edge_links(&self) -> (Vec<u32>, Vec<u32>) {
        let mut by_pair: HashMap<(u32, u32), u32> = HashMap::with_capacity(self.acc_cand.len());
        for ai in 0..self.acceptors.len() {
            let base = self.acc_off[ai] as usize;
            for (off, &pi) in self.acc_cands(ai).iter().enumerate() {
                by_pair.insert((pi, ai as u32), (base + off) as u32);
            }
        }
        let mut p2a = vec![0u32; self.prop_cand.len()];
        let mut a2p = vec![0u32; self.acc_cand.len()];
        for pi in 0..self.proposers.len() {
            let base = self.prop_off[pi] as usize;
            for (off, &ai) in self.prop_cands(pi).iter().enumerate() {
                let j = (base + off) as u32;
                let k = by_pair[&(pi as u32, ai)];
                p2a[j as usize] = k;
                a2p[k as usize] = j;
            }
        }
        (p2a, a2p)
    }
}

/// Runs one selection round: scores every pair, then drives the
/// protocol unlogged ([`run_matching`]).
///
/// `score(p, a)` must return the shared-outgoing-neighbor count of
/// proposer `p` and acceptor `a` within the acceptor-side half; pairs
/// with score 0 are not candidates. The function is called once per
/// (proposer, acceptor) pair.
pub fn run_round(
    proposers: &[Rank],
    acceptors: &[Rank],
    score: impl FnMut(Rank, Rank) -> usize,
) -> RoundResult {
    run_matching(&RoundCandidates::build(proposers, acceptors, score), None)
}

/// A queued signal: sender/receiver local indices plus the candidate
/// edge it travels (both CSR views). Direction is implied by the signal
/// kind (REQ/EXIT travel proposer→acceptor, ACCEPT/DROP
/// acceptor→proposer); carrying both edge indices keeps every state
/// touch O(1) on the sparse per-edge state.
#[derive(Clone, Copy)]
struct Signal {
    from: u32,
    to: u32,
    p_edge: u32,
    a_edge: u32,
    sig: Sig,
}

#[allow(clippy::too_many_arguments)]
fn push_signal(
    queue: &mut VecDeque<Signal>,
    log: &mut Option<&mut Vec<Event>>,
    from_rank: Rank,
    to_rank: Rank,
    from: u32,
    to: u32,
    p_edge: u32,
    a_edge: u32,
    sig: Sig,
) {
    if let Some(l) = log.as_deref_mut() {
        l.push(Event::Sent { from: from_rank, to: to_rank });
    }
    queue.push_back(Signal { from, to, p_edge, a_edge, sig });
}

/// Acceptor `ai` selects proposer `pi` (reached via acceptor-side edge
/// `k`): ACCEPT pi, proactively DROP every other live candidate (in
/// candidate order).
#[allow(clippy::too_many_arguments)]
fn accept(
    rc: &RoundCandidates,
    ai: usize,
    pi: u32,
    k: u32,
    a2p: &[u32],
    astate: &mut [CandState],
    a_sel: &mut [Option<u32>],
    queue: &mut VecDeque<Signal>,
    log: &mut Option<&mut Vec<Event>>,
    stats: &mut SelectionStats,
) {
    let a_rank = rc.acceptors[ai];
    a_sel[ai] = Some(pi);
    push_signal(
        queue,
        log,
        a_rank,
        rc.proposers[pi as usize],
        ai as u32,
        pi,
        a2p[k as usize],
        k,
        Sig::Accept,
    );
    stats.accept += 1;
    let base = rc.acc_off[ai] as usize;
    for (off, &c) in rc.acc_cands(ai).iter().enumerate() {
        let ke = (base + off) as u32;
        if c != pi && astate[ke as usize] != CandState::Inactive {
            push_signal(
                queue,
                log,
                a_rank,
                rc.proposers[c as usize],
                ai as u32,
                c,
                a2p[ke as usize],
                ke,
                Sig::Drop,
            );
            stats.drop += 1;
            astate[ke as usize] = CandState::Inactive;
        }
    }
    astate[k as usize] = CandState::Inactive;
}

/// Drives the protocol over pre-scored candidates (see
/// [`RoundCandidates`]). Deterministic: same candidates in, same
/// matching, signals, and stats out. With `log`, every signal's send
/// and receive is appended to it, in causal order.
pub fn run_matching(rc: &RoundCandidates, mut log: Option<&mut Vec<Event>>) -> RoundResult {
    let np = rc.proposers.len();
    let na = rc.acceptors.len();
    let mut stats = SelectionStats { agent_searches: np, ..Default::default() };

    // Per-candidate-edge state, one cell per CSR entry on each side.
    // Signals only travel candidate edges and the two CSR views are
    // exact mirrors by construction (`from_rows` derives both from the
    // same score rows), so the views stay in agreement just as the
    // former dense matrices did — at O(candidate edges) memory.
    let (p2a, a2p) = rc.edge_links();
    let mut pstate: Vec<CandState> = vec![CandState::Active; rc.prop_cand.len()];
    let mut astate: Vec<CandState> = vec![CandState::Active; rc.acc_cand.len()];
    // Per-proposer: index into its candidate list of the outstanding REQ.
    let mut cursor: Vec<usize> = vec![0; np];
    let mut p_sel: Vec<Option<u32>> = vec![None; np];
    let mut p_failed: Vec<bool> = vec![false; np];
    let mut a_sel: Vec<Option<u32>> = vec![None; na];

    // Best-scoring non-INACTIVE candidate of acceptor `ai`, if any, as
    // (proposer local index, acceptor-side edge). Candidates are sorted
    // best-first, so the first live entry wins.
    let best_live = |ai: usize, astate: &[CandState]| -> Option<(u32, u32)> {
        let base = rc.acc_off[ai] as usize;
        rc.acc_cands(ai)
            .iter()
            .enumerate()
            .map(|(off, &c)| (c, (base + off) as u32))
            .find(|&(_, ke)| astate[ke as usize] != CandState::Inactive)
    };

    let mut queue: VecDeque<Signal> = VecDeque::new();

    // Bootstrap: every proposer with candidates REQs its best one.
    for (pi, failed) in p_failed.iter_mut().enumerate() {
        if let Some(&best) = rc.prop_cands(pi).first() {
            let j = rc.prop_off[pi];
            push_signal(
                &mut queue,
                &mut log,
                rc.proposers[pi],
                rc.acceptors[best as usize],
                pi as u32,
                best,
                j,
                p2a[j as usize],
                Sig::Req,
            );
            stats.req += 1;
        } else {
            *failed = true;
        }
    }

    while let Some(Signal { from, to, p_edge, a_edge, sig }) = queue.pop_front() {
        match sig {
            Sig::Req => {
                let (pi, ai) = (from as usize, to as usize);
                if let Some(l) = log.as_deref_mut() {
                    l.push(Event::Received { by: rc.acceptors[ai], from: rc.proposers[pi] });
                }
                if a_sel[ai].is_some() {
                    // straggler: already matched this round
                    push_signal(
                        &mut queue,
                        &mut log,
                        rc.acceptors[ai],
                        rc.proposers[pi],
                        to,
                        from,
                        p_edge,
                        a_edge,
                        Sig::Drop,
                    );
                    stats.drop += 1;
                    astate[a_edge as usize] = CandState::Inactive;
                    continue;
                }
                debug_assert_eq!(astate[a_edge as usize], CandState::Active, "duplicate REQ");
                astate[a_edge as usize] = CandState::Waiting;
                if best_live(ai, &astate).map(|(c, _)| c) == Some(from) {
                    accept(
                        rc,
                        ai,
                        from,
                        a_edge,
                        &a2p,
                        &mut astate,
                        &mut a_sel,
                        &mut queue,
                        &mut log,
                        &mut stats,
                    );
                }
            }
            Sig::Accept => {
                let (ai, pi) = (from as usize, to as usize);
                if let Some(l) = log.as_deref_mut() {
                    l.push(Event::Received { by: rc.proposers[pi], from: rc.acceptors[ai] });
                }
                debug_assert!(p_sel[pi].is_none(), "double accept");
                p_sel[pi] = Some(from);
                stats.agents_found += 1;
                // EXIT all other candidates still considered live by us.
                let base = rc.prop_off[pi] as usize;
                for (off, &c) in rc.prop_cands(pi).iter().enumerate() {
                    let je = (base + off) as u32;
                    if c != from && pstate[je as usize] != CandState::Inactive {
                        push_signal(
                            &mut queue,
                            &mut log,
                            rc.proposers[pi],
                            rc.acceptors[c as usize],
                            to,
                            c,
                            je,
                            p2a[je as usize],
                            Sig::Exit,
                        );
                        stats.exit += 1;
                        pstate[je as usize] = CandState::Inactive;
                    }
                }
                pstate[p_edge as usize] = CandState::Inactive;
            }
            Sig::Drop => {
                let (ai, pi) = (from as usize, to as usize);
                if let Some(l) = log.as_deref_mut() {
                    l.push(Event::Received { by: rc.proposers[pi], from: rc.acceptors[ai] });
                }
                if pstate[p_edge as usize] == CandState::Inactive && p_sel[pi].is_some() {
                    continue; // late chatter after we matched
                }
                let cands = rc.prop_cands(pi);
                let was_target = cands
                    .get(cursor[pi])
                    .is_some_and(|&c| c == from && p_sel[pi].is_none() && !p_failed[pi]);
                let already_inactive = pstate[p_edge as usize] == CandState::Inactive;
                pstate[p_edge as usize] = CandState::Inactive;
                if p_sel[pi].is_some() || p_failed[pi] || already_inactive {
                    continue;
                }
                if was_target {
                    // advance to the next live candidate
                    let base = rc.prop_off[pi] as usize;
                    cursor[pi] += 1;
                    while cursor[pi] < cands.len()
                        && pstate[base + cursor[pi]] == CandState::Inactive
                    {
                        cursor[pi] += 1;
                    }
                    if cursor[pi] < cands.len() {
                        let next = cands[cursor[pi]];
                        let j = (base + cursor[pi]) as u32;
                        push_signal(
                            &mut queue,
                            &mut log,
                            rc.proposers[pi],
                            rc.acceptors[next as usize],
                            to,
                            next,
                            j,
                            p2a[j as usize],
                            Sig::Req,
                        );
                        stats.req += 1;
                    } else {
                        p_failed[pi] = true;
                    }
                } else {
                    // unsolicited DROP from an acceptor we never REQ'd:
                    // tell it to stop considering us (Alg. 2 line 34)
                    push_signal(
                        &mut queue,
                        &mut log,
                        rc.proposers[pi],
                        rc.acceptors[ai],
                        to,
                        from,
                        p_edge,
                        a_edge,
                        Sig::Exit,
                    );
                    stats.exit += 1;
                }
            }
            Sig::Exit => {
                let (pi, ai) = (from as usize, to as usize);
                if let Some(l) = log.as_deref_mut() {
                    l.push(Event::Received { by: rc.acceptors[ai], from: rc.proposers[pi] });
                }
                let prev = astate[a_edge as usize];
                astate[a_edge as usize] = CandState::Inactive;
                if a_sel[ai].is_some() {
                    // Alg. 3 lines 41-48: a matched acceptor answers a
                    // still-ACTIVE candidate's EXIT with a final DROP.
                    if prev == CandState::Active {
                        push_signal(
                            &mut queue,
                            &mut log,
                            rc.acceptors[ai],
                            rc.proposers[pi],
                            to,
                            from,
                            p_edge,
                            a_edge,
                            Sig::Drop,
                        );
                        stats.drop += 1;
                    }
                    continue;
                }
                if let Some((best, ke)) = best_live(ai, &astate) {
                    if astate[ke as usize] == CandState::Waiting {
                        accept(
                            rc,
                            ai,
                            best,
                            ke,
                            &a2p,
                            &mut astate,
                            &mut a_sel,
                            &mut queue,
                            &mut log,
                            &mut stats,
                        );
                    }
                }
            }
        }
    }

    let matched: HashMap<Rank, Rank> = p_sel
        .iter()
        .enumerate()
        .filter_map(|(pi, sel)| sel.map(|ai| (rc.proposers[pi], rc.acceptors[ai as usize])))
        .collect();

    // Protocol-liveness sanity: an unmatched acceptor must not have any
    // proposer still waiting on it (it would have accepted its best
    // waiter when the queue drained).
    debug_assert!((0..na).all(|ai| {
        a_sel[ai].is_some()
            || (rc.acc_off[ai]..rc.acc_off[ai + 1])
                .all(|k| astate[k as usize] != CandState::Waiting)
    }));

    RoundResult { matched, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// score lookup from an explicit table
    fn table_score(t: &[(Rank, Rank, usize)]) -> impl FnMut(Rank, Rank) -> usize + '_ {
        move |p, a| t.iter().find(|&&(tp, ta, _)| tp == p && ta == a).map_or(0, |&(_, _, s)| s)
    }

    #[test]
    fn empty_round() {
        let r = run_round(&[], &[], |_, _| 0);
        assert!(r.matched.is_empty());
        assert_eq!(r.stats.total_signals(), 0);
        assert_eq!(r.stats.agent_searches, 0);
    }

    #[test]
    fn no_candidates_means_no_signals() {
        let r = run_round(&[0, 1], &[2, 3], |_, _| 0);
        assert!(r.matched.is_empty());
        assert_eq!(r.stats.total_signals(), 0);
        assert_eq!(r.stats.agent_searches, 2);
        assert_eq!(r.stats.agents_found, 0);
        assert_eq!(r.stats.success_rate(), 0.0);
    }

    #[test]
    fn single_pair_matches_with_minimal_chatter() {
        let t = [(0, 1, 3)];
        let r = run_round(&[0], &[1], table_score(&t));
        assert_eq!(r.matched[&0], 1);
        assert_eq!(r.stats.req, 1);
        assert_eq!(r.stats.accept, 1);
        assert_eq!(r.stats.drop, 0);
        assert_eq!(r.stats.exit, 0);
        assert_eq!(r.stats.agents_found, 1);
    }

    #[test]
    fn acceptor_takes_best_proposer() {
        // both proposers want acceptor 9; proposer 1 scores higher
        let t = [(0, 9, 1), (1, 9, 5)];
        let r = run_round(&[0, 1], &[9], table_score(&t));
        assert_eq!(r.matched.get(&1), Some(&9));
        assert_eq!(r.matched.get(&0), None);
        // 0's REQ either arrived first (waits, then dropped) or second
        // (dropped immediately); either way exactly one match
        assert_eq!(r.stats.agents_found, 1);
        assert!(r.stats.drop >= 1);
    }

    #[test]
    fn dropped_proposer_falls_back_to_second_choice() {
        // 0 prefers 9 (score 5) over 8 (score 1); 1 only knows 9 with
        // score 7 and wins it; 0 then settles for 8.
        let t = [(0, 9, 5), (0, 8, 1), (1, 9, 7)];
        let r = run_round(&[0, 1], &[8, 9], table_score(&t));
        assert_eq!(r.matched[&1], 9);
        assert_eq!(r.matched[&0], 8);
        assert!(r.stats.req >= 3, "0 must re-REQ after the drop");
    }

    #[test]
    fn acceptor_waits_for_its_best() {
        // acceptor 9's best is proposer 1, but 1 prefers acceptor 8.
        // 9 must not grab 0's early REQ; it waits until 1 EXITs (after
        // being accepted by 8), then takes 0.
        let t = [(0, 9, 2), (1, 9, 9), (1, 8, 9)];
        // tie on 1's side between 8 and 9 (both score 9) → lower rank 8 wins
        let r = run_round(&[0, 1], &[8, 9], table_score(&t));
        assert_eq!(r.matched[&1], 8);
        assert_eq!(r.matched[&0], 9);
    }

    #[test]
    fn ties_break_toward_lower_rank() {
        let t = [(0, 5, 3), (0, 7, 3)];
        let r = run_round(&[0], &[5, 7], table_score(&t));
        assert_eq!(r.matched[&0], 5);
    }

    #[test]
    fn ties_break_by_rank_even_when_slices_are_unsorted() {
        // acceptor slice deliberately out of rank order: the comparator
        // must use rank values, not local indices
        let t = [(0, 5, 3), (0, 7, 3)];
        let r = run_round(&[0], &[7, 5], table_score(&t));
        assert_eq!(r.matched[&0], 5);
    }

    #[test]
    fn one_acceptor_many_proposers() {
        // only one acceptor: exactly one proposer can win
        let t = [(0, 9, 1), (1, 9, 2), (2, 9, 3), (3, 9, 4)];
        let r = run_round(&[0, 1, 2, 3], &[9], table_score(&t));
        assert_eq!(r.matched.len(), 1);
        assert_eq!(r.stats.agents_found, 1);
        assert_eq!(r.stats.agent_searches, 4);
        // everyone else exhausted their lists
        assert!((r.stats.success_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn perfect_matching_when_preferences_align() {
        // proposer i strongly prefers acceptor 10+i
        let mut t = vec![];
        for i in 0..4usize {
            for j in 0..4usize {
                t.push((i, 10 + j, if i == j { 10 } else { 1 }));
            }
        }
        let r = run_round(&[0, 1, 2, 3], &[10, 11, 12, 13], table_score(&t));
        assert_eq!(r.matched.len(), 4);
        for i in 0..4usize {
            assert_eq!(r.matched[&i], 10 + i);
        }
    }

    #[test]
    fn all_pairs_same_score_still_gives_maximal_matching() {
        // uniform scores: greedy order decides, but matching must be
        // maximal — every proposer matched (4 proposers, 4 acceptors,
        // complete candidate graph)
        let r = run_round(&[0, 1, 2, 3], &[4, 5, 6, 7], |_, _| 1);
        assert_eq!(r.matched.len(), 4);
        let mut acc: Vec<Rank> = r.matched.values().copied().collect();
        acc.sort_unstable();
        acc.dedup();
        assert_eq!(acc.len(), 4, "no acceptor matched twice");
    }

    #[test]
    fn matching_is_one_to_one() {
        // random-ish asymmetric scores
        let score = |p: Rank, a: Rank| (p * 7 + a * 13) % 5;
        let proposers: Vec<Rank> = (0..20).collect();
        let acceptors: Vec<Rank> = (20..40).collect();
        let r = run_round(&proposers, &acceptors, score);
        let mut acc: Vec<Rank> = r.matched.values().copied().collect();
        acc.sort_unstable();
        let len = acc.len();
        acc.dedup();
        assert_eq!(acc.len(), len, "an acceptor accepted twice");
        // matches only between candidate pairs
        for (&p, &a) in &r.matched {
            assert!(score(p, a) > 0, "matched a zero-score pair {p}->{a}");
        }
    }

    #[test]
    fn matching_is_maximal_on_candidate_graph() {
        // After the round, no unmatched proposer shares a candidate edge
        // with an unmatched acceptor (greedy maximality).
        let score = |p: Rank, a: Rank| usize::from((p + a).is_multiple_of(3));
        let proposers: Vec<Rank> = (0..15).collect();
        let acceptors: Vec<Rank> = (15..30).collect();
        let r = run_round(&proposers, &acceptors, score);
        let matched_acceptors: std::collections::HashSet<Rank> =
            r.matched.values().copied().collect();
        for &p in &proposers {
            if r.matched.contains_key(&p) {
                continue;
            }
            for &a in &acceptors {
                if score(p, a) > 0 && !matched_acceptors.contains(&a) {
                    panic!("unmatched pair ({p},{a}) with positive score");
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let score = |p: Rank, a: Rank| (p * 31 + a * 17) % 7;
        let proposers: Vec<Rank> = (0..30).collect();
        let acceptors: Vec<Rank> = (30..60).collect();
        let r1 = run_round(&proposers, &acceptors, score);
        let r2 = run_round(&proposers, &acceptors, score);
        assert_eq!(r1.matched, r2.matched);
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn signal_counts_are_conservative() {
        // every REQ is eventually answered by exactly one ACCEPT or DROP
        // (modulo the DROP-broadcast and EXIT chatter, counts stay sane)
        let score = |p: Rank, a: Rank| usize::from(p % 3 != a % 3);
        let proposers: Vec<Rank> = (0..12).collect();
        let acceptors: Vec<Rank> = (12..24).collect();
        let r = run_round(&proposers, &acceptors, score);
        assert!(r.stats.accept <= r.stats.req);
        assert_eq!(r.stats.accept, r.stats.agents_found);
        assert_eq!(r.stats.accept, r.matched.len());
    }

    #[test]
    fn split_scoring_matches_monolithic_build() {
        // Scoring rows computed separately (as the parallel builder does)
        // and reassembled must produce the identical round.
        let score = |p: Rank, a: Rank| (p * 31 + a * 17) % 7;
        let proposers: Vec<Rank> = (0..24).collect();
        let acceptors: Vec<Rank> = (24..48).collect();
        let whole = RoundCandidates::build(&proposers, &acceptors, score);
        let rows: Vec<ScoreRow> =
            proposers.iter().map(|&p| RoundCandidates::score_row(p, &acceptors, score)).collect();
        let split = RoundCandidates::from_rows(proposers.clone(), acceptors.clone(), rows);
        let r1 = run_matching(&whole, None);
        let r2 = run_matching(&split, None);
        assert_eq!(r1.matched, r2.matched);
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn logged_matching_equals_unlogged() {
        let score = |p: Rank, a: Rank| (p * 5 + a * 3) % 4;
        let proposers: Vec<Rank> = (0..10).collect();
        let acceptors: Vec<Rank> = (10..20).collect();
        let rc = RoundCandidates::build(&proposers, &acceptors, score);
        let mut log = Vec::new();
        let r1 = run_matching(&rc, Some(&mut log));
        let r2 = run_matching(&rc, None);
        assert_eq!(r1.matched, r2.matched);
        assert_eq!(r1.stats, r2.stats);
        // every signal appears exactly twice: once sent, once received
        let sent = log.iter().filter(|e| matches!(e, Event::Sent { .. })).count();
        let recvd = log.iter().filter(|e| matches!(e, Event::Received { .. })).count();
        assert_eq!(sent, recvd);
        assert_eq!(sent, r1.stats.total_signals());
    }
}
