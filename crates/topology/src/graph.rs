//! Directed virtual-topology graphs.
//!
//! A [`Topology`] mirrors what `MPI_Dist_graph_create_adjacent` gives an MPI
//! library: for every rank, an ordered list of **incoming** neighbors
//! (sources it receives from) and **outgoing** neighbors (destinations it
//! sends to). Neighborhood allgather semantics are defined against these
//! lists: rank `p` contributes one message that must reach every rank in
//! `out(p)`, and `p`'s receive buffer holds one block per rank in `in(p)`,
//! in the order of `in(p)`.

/// A rank identifier within a communicator, `0..n`.
pub type Rank = usize;

/// Directed edges `(src, dst)`.
type Edges = Vec<(Rank, Rank)>;

/// A directed communication-topology graph over ranks `0..n`.
///
/// Stored in CSR form for both directions so that in- and out-neighbor
/// queries are O(degree) slices. Neighbor lists are sorted ascending and
/// deduplicated; self-loops are rejected (a rank never "sends to itself"
/// through the collective — MPI permits them, but none of the paper's
/// workloads produce them, and forbidding them keeps executor bookkeeping
/// honest).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    out_offsets: Vec<usize>,
    out_targets: Vec<Rank>,
    in_offsets: Vec<usize>,
    in_sources: Vec<Rank>,
}

impl Topology {
    /// Builds a topology from directed edges `(src, dst)`, by counting
    /// sort: one staged copy of the edges, then both CSRs written in
    /// place (no list per rank).
    ///
    /// Edges are deduplicated; neighbor lists come out sorted.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n` or if `src == dst` (self-loop).
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (Rank, Rank)>) -> Self {
        let edges = edges.into_iter();
        let mut staged = Vec::with_capacity(edges.size_hint().0);
        for (s, d) in edges {
            assert!(s < n && d < n, "edge ({s},{d}) out of range for n={n}");
            assert_ne!(s, d, "self-loop at rank {s} is not supported");
            staged.push((s, d));
        }
        let (mut out_offsets, mut out_targets) = counting_sort(n, staged.iter().copied());
        // sort and deduplicate each row, compacting in place
        let (mut start, mut kept) = (0, 0);
        for r in 0..n {
            let end = out_offsets[r + 1];
            out_targets[start..end].sort_unstable();
            out_offsets[r] = kept;
            for i in start..end {
                if kept == out_offsets[r] || out_targets[kept - 1] != out_targets[i] {
                    out_targets[kept] = out_targets[i];
                    kept += 1;
                }
            }
            start = end;
        }
        out_offsets[n] = kept;
        out_targets.truncate(kept);
        let row = |s: Rank| &out_targets[out_offsets[s]..out_offsets[s + 1]];
        let reversed = (0..n).flat_map(|s| row(s).iter().map(move |&d| (d, s)));
        let (in_offsets, in_sources) = counting_sort(n, reversed);
        Self { n, out_offsets, out_targets, in_offsets, in_sources }
    }

    /// The edits among `added` and `removed` that change this topology,
    /// each list sorted and deduplicated: edges with an endpoint `>= n`,
    /// self-loops, `added` edges already present and `removed` ones
    /// absent are dropped.
    pub fn edits(&self, added: &[(Rank, Rank)], removed: &[(Rank, Rank)]) -> (Edges, Edges) {
        let n = self.n;
        let real = |edges: &[(Rank, Rank)], add: bool| {
            let live = |&(u, v): &(Rank, Rank)| u < n && v < n && u != v;
            let mut real: Vec<_> = edges
                .iter()
                .copied()
                .filter(|e| live(e) && self.has_edge(e.0, e.1) != add)
                .collect();
            real.sort_unstable();
            real.dedup();
            real
        };
        (real(added, true), real(removed, false))
    }

    /// This topology with `added` edges joined and `removed` ones gone —
    /// `from_edges` of the churned edge list: [`Self::with_edits`] of
    /// what [`Self::edits`] keeps, so any edge list is safe.
    pub fn churned(&self, added: &[(Rank, Rank)], removed: &[(Rank, Rank)]) -> Self {
        let (added, removed) = self.edits(added, removed);
        self.with_edits(&added, &removed)
    }

    /// [`Self::churned`] for lists as [`Self::edits`] returns them,
    /// paying for the edges that change: the touched rows are merged, the
    /// rest copied in bulk.
    pub fn with_edits(&self, added: &[(Rank, Rank)], removed: &[(Rank, Rank)]) -> Self {
        let n = self.n;
        let mut delta: Vec<(Rank, Rank, bool)> = Vec::with_capacity(added.len() + removed.len());
        delta.extend(added.iter().map(|&(u, v)| (u, v, true)));
        delta.extend(removed.iter().map(|&(u, v)| (u, v, false)));
        delta.sort_unstable();
        debug_assert!(
            delta.windows(2).all(|w| (w[0].0, w[0].1) != (w[1].0, w[1].1))
                && delta.iter().all(|&(u, v, add)| u < n && v < n && self.has_edge(u, v) != add),
            "with_edits takes the lists edits() returns"
        );
        let (out_offsets, out_targets) = spliced(&self.out_offsets, &self.out_targets, &delta);
        delta.iter_mut().for_each(|e| (e.0, e.1) = (e.1, e.0));
        delta.sort_unstable();
        let (in_offsets, in_sources) = spliced(&self.in_offsets, &self.in_sources, &delta);
        Self { n, out_offsets, out_targets, in_offsets, in_sources }
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Outgoing neighbors of `p` (the set `O` of the paper), sorted.
    #[inline]
    pub fn out_neighbors(&self, p: Rank) -> &[Rank] {
        &self.out_targets[self.out_offsets[p]..self.out_offsets[p + 1]]
    }

    /// Incoming neighbors of `p` (the set `I` of the paper), sorted.
    #[inline]
    pub fn in_neighbors(&self, p: Rank) -> &[Rank] {
        &self.in_sources[self.in_offsets[p]..self.in_offsets[p + 1]]
    }

    /// `outdegree` of `p`.
    #[inline]
    pub fn outdegree(&self, p: Rank) -> usize {
        self.out_offsets[p + 1] - self.out_offsets[p]
    }

    /// `indegree` of `p`.
    #[inline]
    pub fn indegree(&self, p: Rank) -> usize {
        self.in_offsets[p + 1] - self.in_offsets[p]
    }

    /// `true` if `src → dst` is an edge. O(log outdegree).
    pub fn has_edge(&self, src: Rank, dst: Rank) -> bool {
        self.out_neighbors(src).binary_search(&dst).is_ok()
    }

    /// Density of the graph: `edges / (n * (n - 1))`. Zero for `n < 2`.
    pub fn density(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        self.edge_count() as f64 / (self.n as f64 * (self.n as f64 - 1.0))
    }

    /// Summary statistics of the out-degree distribution.
    pub fn degree_stats(&self) -> DegreeStats {
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut sum = 0usize;
        for p in 0..self.n {
            let d = self.outdegree(p);
            min = min.min(d);
            max = max.max(d);
            sum += d;
        }
        if self.n == 0 {
            min = 0;
        }
        DegreeStats { min, max, mean: if self.n == 0 { 0.0 } else { sum as f64 / self.n as f64 } }
    }

    /// Returns the transposed graph (every edge reversed).
    pub fn transpose(&self) -> Topology {
        Topology::from_edges(self.n, self.edges().map(|(p, q)| (q, p)))
    }

    /// Whether every edge has a reverse edge.
    pub fn is_symmetric(&self) -> bool {
        (0..self.n).all(|p| self.out_neighbors(p).iter().all(|&q| self.has_edge(q, p)))
    }

    /// Iterates over all directed edges `(src, dst)`, ascending; its
    /// length is known up front.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (Rank, Rank)> + '_ {
        let mut src = 0;
        self.out_targets.iter().enumerate().map(move |(i, &dst)| {
            while self.out_offsets[src + 1] <= i {
                src += 1;
            }
            (src, dst)
        })
    }
}

/// Out-degree distribution summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum out-degree over all ranks.
    pub min: usize,
    /// Maximum out-degree over all ranks.
    pub max: usize,
    /// Mean out-degree.
    pub mean: f64,
}

/// CSR rows of `items` keyed by row: a counting pass sizes the rows, and
/// a reverse scatter fills each from its end, so items keep their order
/// within a row.
fn counting_sort(
    n: usize,
    items: impl DoubleEndedIterator<Item = (Rank, Rank)> + Clone,
) -> (Vec<usize>, Vec<Rank>) {
    let mut offsets = vec![0; n + 1];
    items.clone().for_each(|(row, _)| offsets[row] += 1);
    let mut end = 0;
    for o in &mut offsets {
        end += *o;
        *o = end;
    }
    let mut flat = vec![0; end];
    for (row, item) in items.rev() {
        offsets[row] -= 1;
        flat[offsets[row]] = item;
    }
    (offsets, flat)
}

/// The CSR rows `offsets` / `items` with `delta` applied — sorted
/// `(row, item, add)` entries, each a real change: the touched rows are
/// merged, the runs of rows between them copied whole.
fn spliced(
    offsets: &[usize],
    items: &[Rank],
    delta: &[(Rank, Rank, bool)],
) -> (Vec<usize>, Vec<Rank>) {
    let net = |e: &(Rank, Rank, bool)| if e.2 { 1 } else { -1 };
    let len = items.len() as isize + delta.iter().map(net).sum::<isize>();
    let mut out = Vec::with_capacity(len as usize);
    let mut copied = 0;
    for row in delta.chunk_by(|a, b| a.0 == b.0) {
        let r = row[0].0;
        let (lo, hi) = (offsets[r], offsets[r + 1]);
        out.extend_from_slice(&items[copied..lo]);
        let mut adds = row.iter().filter(|e| e.2).map(|e| e.1).peekable();
        for &x in &items[lo..hi] {
            while let Some(a) = adds.next_if(|&a| a < x) {
                out.push(a);
            }
            if row.binary_search(&(r, x, false)).is_err() {
                out.push(x);
            }
        }
        out.extend(adds);
        copied = hi;
    }
    out.extend_from_slice(&items[copied..]);
    let (mut shift, mut at) = (0, 0);
    let offsets = offsets.iter().enumerate().map(|(r, &o)| {
        while at < delta.len() && delta[at].0 < r {
            shift += net(&delta[at]);
            at += 1;
        }
        (o as isize + shift) as usize
    });
    (offsets.collect(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Topology {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
        Topology::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    }

    #[test]
    fn adjacency_round_trip() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(3), &[0]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[3]);
        assert_eq!(g.outdegree(0), 2);
        assert_eq!(g.indegree(3), 2);
        assert_eq!(g.indegree(1), 1);
    }

    #[test]
    fn dedup_edges() {
        let g = Topology::from_edges(3, [(0, 1), (0, 1), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_neighbors(0), &[1]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Topology::from_edges(2, [(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        Topology::from_edges(2, [(0, 2)]);
    }

    #[test]
    fn has_edge_and_recv_slot() {
        let g = diamond();
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
        // A receive slot is the sender's position in the sorted in-list.
        assert_eq!(g.in_neighbors(3).binary_search(&1), Ok(0));
        assert_eq!(g.in_neighbors(3).binary_search(&2), Ok(1));
        assert!(g.in_neighbors(3).binary_search(&0).is_err());
    }

    #[test]
    fn transpose_inverts_edges() {
        let g = diamond();
        let t = g.transpose();
        for (s, d) in g.edges() {
            assert!(t.has_edge(d, s));
        }
        assert_eq!(t.edge_count(), g.edge_count());
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn symmetry_detection() {
        assert!(!diamond().is_symmetric());
        let sym = Topology::from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)]);
        assert!(sym.is_symmetric());
    }

    #[test]
    fn density_and_stats() {
        let g = diamond();
        assert!((g.density() - 5.0 / 12.0).abs() < 1e-12);
        let st = g.degree_stats();
        assert_eq!(st.min, 1);
        assert_eq!(st.max, 2);
        assert!((st.mean - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        let g = Topology::from_edges(1, []);
        assert_eq!(g.n(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_neighbors(0), &[] as &[usize]);
        assert_eq!(g.density(), 0.0);
    }

    /// A generated edge list over `n` ranks: duplicates, a dense core, a
    /// band of ranks with no edge at all, in shuffled order.
    fn arb_edges(rng: &mut crate::rng::DetRng, n: usize) -> Vec<(Rank, Rank)> {
        let quiet = rng.gen_below(n + 1)..n; // ranks past here send nothing
        let mut edges = Vec::new();
        for _ in 0..rng.gen_below(4 * n + 1) {
            let (s, d) = (rng.gen_below(n), rng.gen_below(n));
            if s != d && !quiet.contains(&s) {
                edges.push((s, d));
                if rng.gen_bool(0.3) {
                    edges.push((s, d));
                }
            }
        }
        rng.shuffle(&mut edges);
        edges
    }

    /// The adjacency `from_edges` must produce, by sets.
    fn reference(n: usize, edges: &[(Rank, Rank)]) -> Topology {
        use std::collections::BTreeSet;
        let set: BTreeSet<(Rank, Rank)> = edges.iter().copied().collect();
        let g = Topology::from_edges(n, set.iter().copied());
        for p in 0..n {
            let out: Vec<Rank> = set.range((p, 0)..(p + 1, 0)).map(|e| e.1).collect();
            let inn: Vec<Rank> = set.iter().filter(|e| e.1 == p).map(|e| e.0).collect();
            assert_eq!((g.out_neighbors(p), g.in_neighbors(p)), (&out[..], &inn[..]), "rank {p}");
        }
        g
    }

    #[test]
    fn generated_edge_lists_build_sorted_deduplicated_adjacency() {
        let mut rng = crate::rng::DetRng::seed_from_u64(0x70b0);
        for case in 0..300 {
            let n = rng.gen_below(40);
            let edges = arb_edges(&mut rng, n);
            let g = Topology::from_edges(n, edges.iter().copied());
            assert_eq!(g, reference(n, &edges), "case {case}: n = {n}");
            assert_eq!(g.edges().len(), g.edge_count());
            assert!(g
                .edges()
                .eq((0..n).flat_map(|p| g.out_neighbors(p).iter().map(move |&q| (p, q)))));
        }
    }

    #[test]
    fn churned_equals_a_rebuild_of_the_churned_edge_list() {
        let mut rng = crate::rng::DetRng::seed_from_u64(0xc4e2);
        for case in 0..300 {
            let n = rng.gen_below(32) + 1;
            let g = Topology::from_edges(n, arb_edges(&mut rng, n));
            let present: Vec<_> = g.edges().collect();
            // real edits, edits that change nothing, duplicates, self-loops
            // and endpoints out of range
            let mut pick = || -> Vec<(Rank, Rank)> {
                (0..rng.gen_below(6))
                    .map(|_| match rng.gen_below(5) {
                        0 if !present.is_empty() => present[rng.gen_below(present.len())],
                        1 => (rng.gen_below(n + 3), rng.gen_below(n + 3)),
                        2 => (n + rng.gen_below(4), rng.gen_below(n)),
                        _ => (rng.gen_below(n), rng.gen_below(n)),
                    })
                    .collect()
            };
            let (added, removed) = (pick(), pick());
            // an edge on both lists is removed when present, added when not
            let live = |&(u, v): &(Rank, Rank)| u < n && v < n && u != v && !g.has_edge(u, v);
            let kept = present.iter().copied().filter(|e| !removed.contains(e));
            let want = kept.chain(added.iter().copied().filter(live));
            let want = Topology::from_edges(n, want.collect::<Vec<_>>());
            assert_eq!(g.churned(&added, &removed), want, "case {case}: +{added:?} -{removed:?}");
        }
    }

    #[test]
    fn edits_keep_the_changes_sorted_and_once() {
        let g = diamond();
        let (added, removed) = g.edits(
            &[(2, 0), (0, 1), (2, 0), (1, 1), (4, 0), (1, 0)],
            &[(3, 0), (0, 9), (2, 1), (3, 0), (0, 2)],
        );
        // (0, 1) is present, (1, 1) a self-loop, (4, 0) / (0, 9) out of
        // range, (2, 1) absent
        assert_eq!((added, removed), (vec![(1, 0), (2, 0)], vec![(0, 2), (3, 0)]));
        // the kept lists are their own edits, and apply as the raw ones do
        let (added, removed) = (vec![(1, 0), (2, 0)], vec![(0, 2), (3, 0)]);
        assert_eq!(g.edits(&added, &removed), (added.clone(), removed.clone()));
        let want = Topology::from_edges(4, [(0, 1), (1, 0), (1, 3), (2, 0), (2, 3)]);
        assert_eq!(g.with_edits(&added, &removed), want);
    }
}
