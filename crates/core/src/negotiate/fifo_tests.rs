#[cfg(test)]
mod tests {
    //! Algorithms 2–3 round by round through the FIFO driver, from score
    //! tables. Every round is checked against the two-message invariant —
    //! `req + exit == accept + drop`, one ACCEPT per match and a DROP for
    //! every other pair — and against the matching deferred acceptance
    //! computes without a signal.

    use crate::negotiate::{deferred_acceptance, fifo, Event, Matching, Pair, Round, Scored};
    use crate::pattern::SelectionStats;
    use nhood_topology::Rank;
    use std::cmp::Reverse;
    use std::collections::BTreeMap;
    use std::ops::Range;

    /// A score table's candidate pairs as the kernel emits them:
    /// proposer-ascending, each proposer's row best-first.
    fn pairs(
        props: &Range<Rank>,
        accs: &Range<Rank>,
        score: impl Fn(Rank, Rank) -> usize,
    ) -> Vec<Pair> {
        let mut out = Vec::new();
        for p in props.clone() {
            let start = out.len();
            for a in accs.clone() {
                let s = score(p, a);
                if s > 0 {
                    out.push(Pair {
                        score: s,
                        p: (p - props.start) as u32,
                        a: (a - accs.start) as u32,
                    });
                }
            }
            out[start..].sort_unstable_by_key(|c| (Reverse(c.score), c.a));
        }
        out
    }

    fn scored(
        props: Range<Rank>,
        accs: Range<Rank>,
        score: impl Fn(Rank, Rank) -> usize,
    ) -> Scored {
        let chunks = vec![pairs(&props, &accs, score)];
        Scored { props, accs, chunks }
    }

    /// The proposer → acceptor matches of a drive.
    fn matched(props: &Range<Rank>, accs: &Range<Rank>, m: &Matching) -> BTreeMap<Rank, Rank> {
        let base = props.start.min(accs.start);
        props.clone().filter_map(|p| m.sel[p - base].map(|a| (p, a))).collect()
    }

    /// One FIFO round from a score table: its matches, statistics and
    /// signals by kind.
    fn fifo_round(
        props: Range<Rank>,
        accs: Range<Rank>,
        score: impl Fn(Rank, Rank) -> usize,
    ) -> (BTreeMap<Rank, Rank>, SelectionStats, [usize; 4]) {
        let round = scored(props.clone(), accs.clone(), score);
        let (sel, sent) = fifo(&Round::new(&round), None);
        let direct = deferred_acceptance(&round);
        assert_eq!(direct.sel, sel, "the replay reached another matching");
        let ([req, accept, drop, exit], s) = (sent, direct.stats);
        assert_eq!(req + exit, accept + drop, "one message each way per pair");
        assert_eq!((accept, drop), (s.agents_found, s.pairs - s.agents_found));
        (matched(&props, &accs, &direct), s, sent)
    }

    /// score lookup from an explicit table
    fn table_score(t: &[(Rank, Rank, usize)]) -> impl Fn(Rank, Rank) -> usize + '_ {
        move |p, a| t.iter().find(|&&(tp, ta, _)| tp == p && ta == a).map_or(0, |&(_, _, s)| s)
    }

    #[test]
    fn empty_round() {
        let (m, s, _) = fifo_round(0..0, 0..0, |_, _| 0);
        assert!(m.is_empty());
        assert_eq!(s.total_signals(), 0);
        assert_eq!(s.agent_searches, 0);
    }

    #[test]
    fn no_candidates_means_no_signals() {
        let (m, s, _) = fifo_round(0..2, 2..4, |_, _| 0);
        assert!(m.is_empty());
        assert_eq!(s.total_signals(), 0);
        assert_eq!(s.agent_searches, 2);
        assert_eq!(s.agents_found, 0);
        assert_eq!(s.success_rate(), 0.0);
    }

    #[test]
    fn single_pair_matches_with_minimal_chatter() {
        let t = [(0, 1, 3)];
        let (m, s, sent) = fifo_round(0..1, 1..2, table_score(&t));
        assert_eq!(m[&0], 1);
        assert_eq!(sent, [1, 1, 0, 0], "REQ, ACCEPT, DROP, EXIT");
        assert_eq!(s.agents_found, 1);
    }

    #[test]
    fn acceptor_takes_best_proposer() {
        // both proposers want acceptor 9; proposer 1 scores higher
        let t = [(0, 9, 1), (1, 9, 5)];
        let (m, s, [_, _, drop, _]) = fifo_round(0..2, 9..10, table_score(&t));
        assert_eq!(m.get(&1), Some(&9));
        assert_eq!(m.get(&0), None);
        // 0's REQ waits, then is dropped: exactly one match
        assert_eq!(s.agents_found, 1);
        assert_eq!(drop, 1);
    }

    #[test]
    fn dropped_proposer_falls_back_to_second_choice() {
        // 0 prefers 9 (score 5) over 8 (score 1); 1 only knows 9 with
        // score 7 and wins it; 0 then settles for 8.
        let t = [(0, 9, 5), (0, 8, 1), (1, 9, 7)];
        let (m, _, [req, ..]) = fifo_round(0..2, 8..10, table_score(&t));
        assert_eq!(m[&1], 9);
        assert_eq!(m[&0], 8);
        assert!(req >= 3, "0 must re-REQ after the drop");
    }

    #[test]
    fn acceptor_waits_for_its_best() {
        // acceptor 9's best is proposer 1, but 1 prefers acceptor 8.
        // 9 must not grab 0's early REQ; it waits until 1 EXITs (after
        // being accepted by 8), then takes 0.
        let t = [(0, 9, 2), (1, 9, 9), (1, 8, 9)];
        // tie on 1's side between 8 and 9 (both score 9) → lower rank 8 wins
        let (m, ..) = fifo_round(0..2, 8..10, table_score(&t));
        assert_eq!(m[&1], 8);
        assert_eq!(m[&0], 9);
    }

    #[test]
    fn ties_break_toward_lower_rank() {
        let t = [(0, 5, 3), (0, 7, 3)];
        let (m, ..) = fifo_round(0..1, 5..8, table_score(&t));
        assert_eq!(m[&0], 5);
    }

    #[test]
    fn ties_break_by_rank_even_when_slices_are_unsorted() {
        // Rounds are rank ranges now, so the case left is round B's: the
        // proposers sit above the acceptors. Both comparators still use
        // rank values — the proposer's (5 over 7) and the acceptor's
        // (8 over 9, whichever REQ lands first).
        let t = [(8, 5, 3), (8, 7, 3)];
        let (m, ..) = fifo_round(8..9, 5..8, table_score(&t));
        assert_eq!(m[&8], 5);
        let t = [(9, 5, 2), (8, 5, 2)];
        let (m, ..) = fifo_round(8..10, 5..6, table_score(&t));
        assert_eq!(m, BTreeMap::from([(8, 5)]));
    }

    #[test]
    fn one_acceptor_many_proposers() {
        // only one acceptor: exactly one proposer can win
        let t = [(0, 9, 1), (1, 9, 2), (2, 9, 3), (3, 9, 4)];
        let (m, s, _) = fifo_round(0..4, 9..10, table_score(&t));
        assert_eq!(m.len(), 1);
        assert_eq!(s.agents_found, 1);
        assert_eq!(s.agent_searches, 4);
        // everyone else exhausted their lists
        assert!((s.success_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn perfect_matching_when_preferences_align() {
        // proposer i strongly prefers acceptor 10+i
        let (m, ..) = fifo_round(0..4, 10..14, |p, a| if a == 10 + p { 10 } else { 1 });
        assert_eq!(m.len(), 4);
        for i in 0..4usize {
            assert_eq!(m[&i], 10 + i);
        }
    }

    #[test]
    fn all_pairs_same_score_still_gives_maximal_matching() {
        // uniform scores: greedy order decides, but matching must be
        // maximal — every proposer matched (4 proposers, 4 acceptors,
        // complete candidate graph)
        let (m, ..) = fifo_round(0..4, 4..8, |_, _| 1);
        assert_eq!(m.len(), 4);
        let mut acc: Vec<Rank> = m.values().copied().collect();
        acc.sort_unstable();
        acc.dedup();
        assert_eq!(acc.len(), 4, "no acceptor matched twice");
    }

    #[test]
    fn matching_is_one_to_one() {
        // random-ish asymmetric scores
        let score = |p: Rank, a: Rank| (p * 7 + a * 13) % 5;
        let (m, ..) = fifo_round(0..20, 20..40, score);
        let mut acc: Vec<Rank> = m.values().copied().collect();
        acc.sort_unstable();
        let len = acc.len();
        acc.dedup();
        assert_eq!(acc.len(), len, "an acceptor accepted twice");
        // matches only between candidate pairs
        for (&p, &a) in &m {
            assert!(score(p, a) > 0, "matched a zero-score pair {p}->{a}");
        }
    }

    #[test]
    fn matching_is_maximal_on_candidate_graph() {
        // After the round, no unmatched proposer shares a candidate edge
        // with an unmatched acceptor (greedy maximality).
        let score = |p: Rank, a: Rank| usize::from((p + a).is_multiple_of(3));
        let (m, ..) = fifo_round(0..15, 15..30, score);
        let taken: std::collections::HashSet<Rank> = m.values().copied().collect();
        for p in (0..15).filter(|p| !m.contains_key(p)) {
            for a in 15..30 {
                if score(p, a) > 0 && !taken.contains(&a) {
                    panic!("unmatched pair ({p},{a}) with positive score");
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let score = |p: Rank, a: Rank| (p * 31 + a * 17) % 7;
        assert_eq!(fifo_round(0..30, 30..60, score), fifo_round(0..30, 30..60, score));
    }

    #[test]
    fn signal_counts_are_conservative() {
        // every REQ is answered by exactly one ACCEPT or DROP, every
        // broadcast DROP and every dismissal by one acknowledgement
        let score = |p: Rank, a: Rank| usize::from(p % 3 != a % 3);
        let (m, s, [req, accept, drop, exit]) = fifo_round(0..12, 12..24, score);
        assert!(accept <= req);
        assert_eq!(accept, s.agents_found);
        assert_eq!(accept, m.len());
        assert_eq!(req + exit, accept + drop);
        assert_eq!(req + accept + drop + exit, s.total_signals());
    }

    #[test]
    fn split_scoring_matches_monolithic_build() {
        // Scoring chunks computed separately (as the pooled builder does)
        // and frozen together must produce the identical round.
        let score = |p: Rank, a: Rank| (p * 31 + a * 17) % 7;
        let (props, accs) = (0..24, 24..48);
        let whole = scored(props.clone(), accs.clone(), score);
        let all = pairs(&props, &accs, score);
        let cut = all.iter().position(|c| c.p == 10).unwrap();
        let chunks = vec![all[..cut].to_vec(), vec![], all[cut..].to_vec()];
        let split = Scored { props, accs, chunks };
        assert_eq!(fifo(&Round::new(&whole), None), fifo(&Round::new(&split), None));
        assert_eq!(deferred_acceptance(&whole), deferred_acceptance(&split));
    }

    #[test]
    fn logged_matching_equals_unlogged() {
        let score = |p: Rank, a: Rank| (p * 5 + a * 3) % 4;
        let rc = Round::new(&scored(0..10, 10..20, score));
        let mut log = Vec::new();
        let r1 = fifo(&rc, Some(&mut log));
        let r2 = fifo(&rc, None);
        assert_eq!(r1, r2);
        // every signal appears exactly twice: once sent, once received
        let sent = log.iter().filter(|e| matches!(e, Event::Sent { .. })).count();
        let recvd = log.iter().filter(|e| matches!(e, Event::Received { .. })).count();
        assert_eq!(sent, recvd);
        assert_eq!(sent, r1.1.iter().sum::<usize>());
    }
}
