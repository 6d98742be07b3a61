//! Communication-pattern data structures for Distance Halving.
//!
//! A [`DhPattern`] is the per-communicator artifact that Algorithm 1 of
//! the paper builds once at `MPI_Dist_graph_create_adjacent` time and
//! that Algorithm 4 replays on every `MPI_Neighbor_allgather` call. For
//! each rank it records, per halving step: the selected **agent** (the
//! rank in the opposite half that takes over this rank's deliveries
//! there), the selected **origin** (the rank whose deliveries this rank
//! takes over), the blocks that arrive with the origin's buffer, and the
//! evolving responsibility map `O_org`/`O_on` that drives the final
//! (intra-socket + leftover) phase.
//!
//! The pattern is three tables across ranks, each behind per-rank
//! offsets — the steps, the held blocks, the owed deliveries — written
//! once by the builder's `PatternAssembler`, as `PlanWriter` writes a
//! plan: a clone is one copy per column.
//!
//! Terminology follows Table I of the paper; "block `b`" always means
//! "the allgather payload contributed by rank `b`".

use nhood_topology::Rank;

/// One halving step of one rank.
///
/// Block lists are **not** stored per step: a rank's buffer only ever
/// grows by appending arrivals, so the blocks held before any step are
/// a prefix of [`DhPattern::held`], and the blocks arriving from the
/// origin are a prefix of the *origin's* held blocks. Each step
/// therefore records only the two prefix lengths. Every field is a
/// 32-bit rank or count (an absent agent or origin is 0, a present one
/// `rank + 1`), so a step is 32 flat bytes — the Θ(n log n) step table
/// is most of a pattern, and at 100k ranks most of a build's peak RSS.
/// Read it through the accessors; resolve the actual slices with
/// [`DhPattern::held_before`] / [`DhPattern::arriving`].
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct DhStep {
    h1: [u32; 2],
    h2: [u32; 2],
    agent: u32,
    origin: u32,
    held_len: u32,
    arr_len: u32,
}

/// `x` as a step field.
///
/// # Panics
/// Panics past `u32::MAX - 1` — a pattern that large does not fit in
/// memory anyway.
fn narrow(x: usize) -> u32 {
    u32::try_from(x).ok().filter(|&v| v < u32::MAX).expect("rank or count beyond u32")
}

impl DhStep {
    /// A step from its fields (see the accessors for their meaning).
    pub(crate) fn new(
        h1: (Rank, Rank),
        h2: (Rank, Rank),
        agent: Option<Rank>,
        origin: Option<Rank>,
        held_len: usize,
        arr_len: usize,
    ) -> Self {
        let peer = |p: Option<Rank>| p.map_or(0, |r| narrow(r) + 1);
        Self {
            h1: [narrow(h1.0), narrow(h1.1)],
            h2: [narrow(h2.0), narrow(h2.1)],
            agent: peer(agent),
            origin: peer(origin),
            held_len: narrow(held_len),
            arr_len: narrow(arr_len),
        }
    }

    /// The inclusive rank range of this rank's half (`h1`) *after* the
    /// split of this step.
    pub fn h1(&self) -> (Rank, Rank) {
        (self.h1[0] as Rank, self.h1[1] as Rank)
    }

    /// The inclusive rank range of the opposite half (`h2`).
    pub fn h2(&self) -> (Rank, Rank) {
        (self.h2[0] as Rank, self.h2[1] as Rank)
    }

    /// Agent selected in this step, if the search succeeded.
    pub fn agent(&self) -> Option<Rank> {
        self.agent.checked_sub(1).map(|r| r as Rank)
    }

    /// Origin selected in this step, if any.
    pub fn origin(&self) -> Option<Rank> {
        self.origin.checked_sub(1).map(|r| r as Rank)
    }

    /// Number of blocks this rank holds *before* this step (and
    /// therefore ships to the agent, wholesale, per Algorithm 4
    /// line 12): the first `held_len` of this rank's held blocks, in
    /// buffer order.
    pub fn held_len(&self) -> usize {
        self.held_len as usize
    }

    /// Number of blocks that arrive from the origin during this step
    /// (the origin's pre-step buffer): the first `arr_len` of the
    /// **origin's** held blocks. Zero when there is no origin.
    pub fn arr_len(&self) -> usize {
        self.arr_len as usize
    }
}

impl std::fmt::Debug for DhStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DhStep")
            .field("h1", &self.h1())
            .field("h2", &self.h2())
            .field("agent", &self.agent())
            .field("origin", &self.origin())
            .field("held_len", &self.held_len())
            .field("arr_len", &self.arr_len())
            .finish()
    }
}

/// Aggregate statistics of a built pattern — the numbers behind the
/// paper's Fig. 8 discussion and the "80% agent-success at δ=0.05" claim.
/// None depends on the order the protocol's signals cross in.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelectionStats {
    /// Candidate pairs negotiated (pairs sharing an outgoing neighbor in
    /// the acceptor half), summed over rounds.
    pub pairs: usize,
    /// Notification messages (agent announcements to out-neighbors,
    /// Algorithm 1 line 30).
    pub notifications: usize,
    /// Descriptor (`D`) messages sent to agents (Algorithm 1 line 47).
    pub descriptors: usize,
    /// Number of (rank, step) pairs in which an agent search ran.
    pub agent_searches: usize,
    /// Number of those searches that found an agent — the ACCEPT count.
    pub agents_found: usize,
}

impl SelectionStats {
    /// All protocol signals (REQ / ACCEPT / DROP / EXIT; excluding
    /// notifications and descriptors): one each way per candidate pair.
    pub fn total_signals(&self) -> usize {
        2 * self.pairs
    }

    /// Fraction of agent searches that succeeded (the paper reports ~0.8
    /// for δ = 0.05 at 2160 ranks).
    pub fn success_rate(&self) -> f64 {
        if self.agent_searches == 0 {
            return 0.0;
        }
        self.agents_found as f64 / self.agent_searches as f64
    }

    /// Merges tallies from another round.
    pub fn merge(&mut self, other: &SelectionStats) {
        self.pairs += other.pairs;
        self.notifications += other.notifications;
        self.descriptors += other.descriptors;
        self.agent_searches += other.agent_searches;
        self.agents_found += other.agents_found;
    }
}

/// The complete Distance Halving communication pattern of a communicator.
///
/// Three tables across ranks, rank `r`'s entries at `off[r]..off[r + 1]`
/// of each: its halving steps, in order ([`steps`](Self::steps)); the
/// blocks it holds at the end of the halving phase, in buffer order, its
/// own first ([`held`](Self::held)); and the `(block, target)`
/// deliveries it still owes in the final phase, sorted
/// ([`resp`](Self::resp)) — the union of the paper's `O_on` for its own
/// block and `O_org` for its origins'. Self-targets never appear: they
/// are satisfied by the receive-buffer copy on arrival.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DhPattern {
    pub(crate) step_off: Vec<usize>,
    pub(crate) step_table: Vec<DhStep>,
    pub(crate) held_off: Vec<usize>,
    pub(crate) held_pool: Vec<Rank>,
    pub(crate) resp_off: Vec<usize>,
    pub(crate) resp_table: Vec<(Rank, Rank)>,
    /// Selection-protocol statistics accumulated over all steps.
    pub stats: SelectionStats,
    /// `L`: ranks per socket used for the stop condition.
    pub ranks_per_socket: usize,
}

impl DhPattern {
    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.step_off.len().saturating_sub(1)
    }

    /// Rank `r`'s halving steps, in order.
    pub fn steps(&self, r: Rank) -> &[DhStep] {
        &self.step_table[self.step_off[r]..self.step_off[r + 1]]
    }

    /// The blocks rank `r` holds at the end of the halving phase, in
    /// buffer order (its own block first).
    pub fn held(&self, r: Rank) -> &[Rank] {
        &self.held_pool[self.held_off[r]..self.held_off[r + 1]]
    }

    /// The `(block, target)` deliveries rank `r` owes in the final
    /// phase, ascending.
    pub fn resp(&self, r: Rank) -> &[(Rank, Rank)] {
        &self.resp_table[self.resp_off[r]..self.resp_off[r + 1]]
    }

    /// The targets rank `r` owes a delivery of `block`, ascending.
    pub fn owed(&self, r: Rank, block: Rank) -> impl ExactSizeIterator<Item = Rank> + '_ {
        let rows = self.resp(r);
        let lo = rows.partition_point(|&(b, _)| b < block);
        let hi = lo + rows[lo..].partition_point(|&(b, _)| b == block);
        rows[lo..hi].iter().map(|&(_, t)| t)
    }

    /// Maximum number of halving steps over all ranks.
    pub fn max_steps(&self) -> usize {
        self.step_off.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }

    /// The blocks rank `r` holds before its step `t`, in buffer order —
    /// the prefix of [`held`](Self::held) that [`DhStep::held_len`]
    /// denotes.
    pub fn held_before(&self, r: Rank, t: usize) -> &[Rank] {
        &self.held(r)[..self.steps(r)[t].held_len()]
    }

    /// The blocks arriving at rank `r` during its step `t` (the
    /// origin's pre-step buffer, in the origin's buffer order), or the
    /// empty slice when the step has no origin.
    pub fn arriving(&self, r: Rank, t: usize) -> &[Rank] {
        let step = &self.steps(r)[t];
        step.origin().map_or(&[], |o| &self.held(o)[..step.arr_len()])
    }

    /// Mean number of blocks held at the end of the halving phase — the
    /// buffer-growth indicator of §V-B.
    pub fn mean_final_blocks(&self) -> f64 {
        if self.n() == 0 {
            return 0.0;
        }
        self.held_pool.len() as f64 / self.n() as f64
    }

    /// `true` when both patterns hold the same steps, blocks and
    /// deliveries for every rank, whatever their selection statistics.
    pub fn same_rows(&self, other: &Self) -> bool {
        (&self.step_off, &self.step_table, &self.held_off, &self.held_pool)
            == (&other.step_off, &other.step_table, &other.held_off, &other.held_pool)
            && (&self.resp_off, &self.resp_table) == (&other.resp_off, &other.resp_table)
    }

    /// A copy with room for `rows` more deliveries, so that many
    /// [`owe`](Self::owe)s move no column.
    pub(crate) fn with_room(&self, rows: usize) -> Self {
        let mut resp_table = Vec::with_capacity(self.resp_table.len() + rows);
        resp_table.extend_from_slice(&self.resp_table);
        Self {
            step_off: self.step_off.clone(),
            step_table: self.step_table.clone(),
            held_off: self.held_off.clone(),
            held_pool: self.held_pool.clone(),
            resp_off: self.resp_off.clone(),
            resp_table,
            stats: self.stats,
            ranks_per_socket: self.ranks_per_socket,
        }
    }

    /// Makes rank `r` owe `target` a delivery of `block`, in place;
    /// `false` (and nothing changes) when it already does.
    pub(crate) fn owe(&mut self, r: Rank, block: Rank, target: Rank) -> bool {
        let Err(at) = self.resp(r).binary_search(&(block, target)) else { return false };
        self.resp_table.insert(self.resp_off[r] + at, (block, target));
        self.resp_off[r + 1..].iter_mut().for_each(|o| *o += 1);
        true
    }

    /// Drops rank `r`'s delivery of `block` to `target`, in place;
    /// `false` (and nothing changes) when it owes none.
    pub(crate) fn disown(&mut self, r: Rank, block: Rank, target: Rank) -> bool {
        let Ok(at) = self.resp(r).binary_search(&(block, target)) else { return false };
        self.resp_table.remove(self.resp_off[r] + at);
        self.resp_off[r + 1..].iter_mut().for_each(|o| *o -= 1);
        true
    }
}

/// Splits an inclusive range `[start, end]` at its midpoint exactly like
/// Algorithm 1 lines 13–21: `mid = ⌊(start+end)/2⌋`, lower half
/// `[start, mid]`, upper half `[mid+1, end]`.
#[inline]
pub fn split_half(start: Rank, end: Rank) -> (Rank, (Rank, Rank), (Rank, Rank)) {
    debug_assert!(start < end, "cannot split a single-rank range");
    let mid = (start + end) / 2;
    (mid, (start, mid), (mid + 1, end))
}

/// `true` if `r` lies in the inclusive range.
#[inline]
pub fn in_range(r: Rank, range: (Rank, Rank)) -> bool {
    r >= range.0 && r <= range.1
}

/// Length of an inclusive range.
#[inline]
pub fn range_len(range: (Rank, Rank)) -> usize {
    range.1 - range.0 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_matches_algorithm1() {
        // even range
        let (mid, lo, hi) = split_half(0, 7);
        assert_eq!(mid, 3);
        assert_eq!(lo, (0, 3));
        assert_eq!(hi, (4, 7));
        // odd range: lower half gets the extra rank
        let (mid, lo, hi) = split_half(0, 8);
        assert_eq!(mid, 4);
        assert_eq!(lo, (0, 4));
        assert_eq!(hi, (5, 8));
        // offset range
        let (_, lo, hi) = split_half(10, 13);
        assert_eq!(lo, (10, 11));
        assert_eq!(hi, (12, 13));
    }

    #[test]
    fn range_helpers() {
        assert!(in_range(5, (5, 9)));
        assert!(in_range(9, (5, 9)));
        assert!(!in_range(4, (5, 9)));
        assert_eq!(range_len((3, 3)), 1);
        assert_eq!(range_len((0, 7)), 8);
    }

    #[test]
    fn repeated_halving_reaches_singletons() {
        // halving [0, n-1] repeatedly always terminates with ranges of 1
        for n in [2usize, 3, 5, 8, 36, 100] {
            let mut range = (0, n - 1);
            let mut steps = 0u32;
            while range_len(range) > 1 {
                let (_, lo, hi) = split_half(range.0, range.1);
                assert_eq!(range_len(lo) + range_len(hi), range_len(range));
                // follow the lower half (arbitrary)
                range = if steps.is_multiple_of(2) { lo } else { hi };
                steps += 1;
                assert!(steps < 64, "runaway halving for n={n}");
            }
        }
    }

    #[test]
    fn selection_stats_accounting() {
        let mut a = SelectionStats {
            pairs: 5,
            notifications: 4,
            descriptors: 2,
            agent_searches: 4,
            agents_found: 2,
        };
        assert_eq!(a.total_signals(), 10);
        assert!((a.success_rate() - 0.5).abs() < 1e-12);
        let b = a;
        a.merge(&b);
        assert_eq!(a.pairs, 10);
        assert_eq!(a.agent_searches, 8);
        assert!((a.success_rate() - 0.5).abs() < 1e-12);
        assert_eq!(SelectionStats::default().success_rate(), 0.0);
    }

    #[test]
    fn pattern_aggregates() {
        // two ranks by hand: rank 0 halved twice and holds block 7 too
        let steps = [DhStep::new((0, 0), (1, 1), Some(1), None, 1, 0), DhStep::default()];
        let p = DhPattern {
            step_off: vec![0, 2, 2],
            step_table: steps.to_vec(),
            held_off: vec![0, 2, 3],
            held_pool: vec![0, 7, 1],
            resp_off: vec![0, 0, 0],
            ranks_per_socket: 2,
            ..Default::default()
        };
        assert_eq!(p.n(), 2);
        assert_eq!(p.max_steps(), 2);
        assert!((p.mean_final_blocks() - 1.5).abs() < 1e-12);
        assert_eq!(p.steps(0).iter().filter(|s| s.agent().is_some()).count(), 1);
        assert_eq!((p.held(0), p.held(1)), (&[0, 7][..], &[1][..]));
        assert_eq!(DhPattern::default().n(), 0);
        assert_eq!(DhPattern::default().mean_final_blocks(), 0.0);
    }

    #[test]
    fn a_step_is_32_flat_bytes_and_reads_back_its_fields() {
        assert_eq!(std::mem::size_of::<DhStep>(), 32);
        let s = DhStep::new((4, 7), (0, 3), Some(0), None, 3, 0);
        assert_eq!((s.h1(), s.h2(), s.agent(), s.origin()), ((4, 7), (0, 3), Some(0), None));
        assert_eq!((s.held_len(), s.arr_len()), (3, 0));
        let d = DhStep::default();
        assert_eq!((d.agent(), d.origin(), d.held_len()), (None, None, 0));
        let big = (u32::MAX - 2) as Rank;
        assert_eq!(DhStep::new((0, 0), (0, 0), None, Some(big), 0, 0).origin(), Some(big));
        assert_eq!(
            format!("{s:?}"),
            "DhStep { h1: (4, 7), h2: (0, 3), agent: Some(0), origin: None, held_len: 3, arr_len: 0 }"
        );
    }
}
