#[cfg(test)]
mod tests {
    //! The owed-delivery table in CSR form: rank `r`'s `(block, target)`
    //! rows sit at `resp_off[r]..resp_off[r + 1]` of one column, ascending.
    //! `PatternAssembler` writes it (seeded from the edges, owners moved
    //! per step, one sort at `finish`); `DhPattern::owe` / `disown` edit
    //! it in place.

    use crate::builder::{Decision, PatternAssembler};
    use crate::pattern::{DhPattern, SelectionStats};
    use nhood_topology::{Rank, Topology};

    /// `graph` assembled with no halving step (L = n): every rank keeps
    /// its own out-edges.
    fn unhalved(graph: &Topology) -> DhPattern {
        PatternAssembler::new(graph, graph.n()).finish(&SelectionStats::default())
    }

    /// `graph` (n even) assembled through one halving step at L = n / 2,
    /// in which each pair of `pairs` are each other's agent and origin
    /// and every other rank finds no agent.
    fn one_step(graph: &Topology, pairs: &[(Rank, Rank)]) -> DhPattern {
        let n = graph.n();
        let (lo, hi) = ((0, n / 2 - 1), (n / 2, n - 1));
        let partner =
            |p| pairs.iter().find_map(|&(a, b)| (a == p).then_some(b).or((b == p).then_some(a)));
        let decisions: Vec<Decision> = (0..n)
            .map(|p| {
                let (h1, h2) = if p < n / 2 { (lo, hi) } else { (hi, lo) };
                (p, partner(p), partner(p), h1, h2)
            })
            .collect();
        let mut asm = PatternAssembler::new(graph, n / 2);
        asm.step(&decisions);
        asm.finish(&SelectionStats::default())
    }

    fn assert_empty_table(p: &DhPattern) {
        assert!(p.resp_table.is_empty());
        assert_eq!(p.resp_off, vec![0; p.n() + 1]);
        for r in 0..p.n() {
            assert!(p.resp(r).is_empty(), "rank {r} owes a delivery");
            assert_eq!(p.owed(r, r).len(), 0);
        }
    }

    #[test]
    fn empty_map_roundtrip() {
        let blank = unhalved(&Topology::from_edges(4, []));
        assert_eq!(blank.n(), 4);
        assert_empty_table(&blank);
        // owing and then disowning every row gives back the canonical
        // empty table, offsets included
        let mut p = blank.clone();
        for (r, b, t) in [(2, 2, 0), (0, 0, 3), (2, 2, 1)] {
            assert!(p.owe(r, b, t));
        }
        assert_eq!(p.resp_off, [0, 1, 1, 3, 3]);
        for (r, b, t) in [(2, 2, 1), (0, 0, 3), (2, 2, 0)] {
            assert!(p.disown(r, b, t));
        }
        assert_empty_table(&p);
        assert_eq!(p, blank);
        assert_eq!(DhPattern::default().n(), 0);
    }

    #[test]
    fn from_entries_sorts_and_drops_empty() {
        // rank 5's deliveries into the low half move to its agent 0,
        // after 0's own row: the rows come out sorted by block, and the
        // ranks left with nothing (5, which gave its rows away, and 3,
        // which never had any) hold empty ranges
        let g = Topology::from_edges(8, [(5, 2), (5, 1), (0, 3)]);
        let p = one_step(&g, &[(0, 5)]);
        assert_eq!(p.resp(0), [(0, 3), (5, 1), (5, 2)]);
        assert_eq!(p.owed(0, 5).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(p.owed(0, 0).collect::<Vec<_>>(), [3]);
        assert_eq!(p.owed(0, 3).len(), 0);
        assert!(p.resp(3).is_empty() && p.resp(5).is_empty());
        assert_eq!(p.resp_off, [0, 3, 3, 3, 3, 3, 3, 3, 3]);
        assert_eq!(p.resp_table.len(), 3);
    }

    #[test]
    fn duplicate_blocks_merge_in_release_builds_too() {
        // a (block, target) row exists once however often its edge is
        // given: duplicates merge in the build itself, not behind a
        // debug-only check, so lookups and equality see one canonical row
        let g = Topology::from_edges(4, [(2, 3), (0, 3), (2, 1), (2, 3), (2, 1), (2, 0)]);
        let mut p = unhalved(&g);
        assert_eq!(p.resp(2), [(2, 0), (2, 1), (2, 3)]);
        assert_eq!(p.owed(2, 2).collect::<Vec<_>>(), [0, 1, 3]);
        assert_eq!(p.resp(0), [(0, 3)]);
        assert_eq!(p.resp_table.len(), 4);
        assert_eq!(p, unhalved(&Topology::from_edges(4, [(0, 3), (2, 0), (2, 1), (2, 3)])));
        // owing a row again is a no-op
        assert!(!p.owe(2, 2, 1));
        assert_eq!(p.resp_table.len(), 4);
    }

    #[test]
    fn insert_replaces_and_removes() {
        let mut p = unhalved(&Topology::from_edges(9, []));
        assert!(p.owe(1, 2, 4) && p.owe(1, 2, 5) && p.owe(0, 1, 7));
        assert_eq!((p.resp(0), p.resp(1)), (&[(1, 7)][..], &[(2, 4), (2, 5)][..]));
        // replace block 2's targets {4, 5} by {8}
        assert!(p.disown(1, 2, 4) && p.disown(1, 2, 5) && p.owe(1, 2, 8));
        assert_eq!(p.owed(1, 2).collect::<Vec<_>>(), [8]);
        // remove rank 0's only row: the later ranks' offsets follow
        assert!(p.disown(0, 1, 7));
        assert!(p.resp(0).is_empty());
        assert_eq!(p.resp(1), [(2, 8)]);
        assert_eq!(p.resp_off, [0, 0, 1, 1, 1, 1, 1, 1, 1, 1]);
        // room reserved up front is used in place
        let mut roomy = p.with_room(2);
        assert!(roomy.same_rows(&p));
        let at = roomy.resp_table.as_ptr();
        assert!(roomy.owe(0, 1, 7) && roomy.owe(8, 8, 0));
        assert_eq!(roomy.resp_table.as_ptr(), at, "an owe within the room moved the table");
    }

    #[test]
    fn canonical_equality_regardless_of_construction_order() {
        let edges = [(1, 2), (3, 0), (3, 1), (0, 2)];
        let a = unhalved(&Topology::from_edges(4, edges));
        let b = unhalved(&Topology::from_edges(4, edges.iter().rev().copied()));
        assert_eq!(a, b);
        // the same rows owed one by one into a blank table, in reverse
        let mut c = unhalved(&Topology::from_edges(4, []));
        for &(s, t) in edges.iter().rev() {
            assert!(c.owe(s, s, t));
        }
        assert_eq!(a, c);
    }

    #[test]
    fn builder_edits_mirror_assembly_steps() {
        // 0 and 4 match: 0 offloads its deliveries into the opposite half
        // (5, 6) to 4, and takes over 4's into its own half (2, 3) — 4's
        // delivery to 0 itself is dropped, the buffer copy serves it
        let g = Topology::from_edges(
            8,
            [(0, 1), (0, 2), (0, 5), (0, 6), (4, 7), (4, 3), (4, 0), (4, 2)],
        );
        let p = one_step(&g, &[(0, 4)]);
        assert_eq!(p.resp(0), [(0, 1), (0, 2), (4, 2), (4, 3)]);
        assert_eq!(p.resp(4), [(0, 5), (0, 6), (4, 7)]);
        assert_eq!((p.held(0), p.held(4)), (&[0, 4][..], &[4, 0][..]));
        assert_eq!(p.resp_table.len(), 7);
        for r in 0..8 {
            assert!(p.resp(r).iter().all(|(b, _)| p.held(r).contains(b)), "rank {r}");
        }
        // the assembler's own tallies: one notification per out-neighbor
        // in the opposite half (0: 5, 6; 4: 0, 2, 3), one descriptor per
        // agent found
        assert_eq!((p.stats.notifications, p.stats.descriptors), (5, 2));
    }

    #[test]
    fn builder_retain_can_empty_everything() {
        // every delivery leaves its rank: 1 -> 4 moves to 1's agent 5,
        // which holds block 1 afterwards; 1 -> 5 and 5 -> 1 arrive with
        // the buffers
        let g = Topology::from_edges(8, [(1, 4), (1, 5), (5, 1)]);
        let p = one_step(&g, &[(1, 5)]);
        assert!(p.resp(1).is_empty());
        assert_eq!(p.resp(5), [(1, 4)]);
        let p = one_step(&Topology::from_edges(8, [(1, 5), (5, 1)]), &[(1, 5)]);
        assert_empty_table(&p);
        // a rank with no out-edges owes nothing from the start
        assert_empty_table(&one_step(&Topology::from_edges(8, []), &[(1, 5)]));
    }
}
