//! The Distance Halving pattern builder (Algorithm 1 of the paper).
//!
//! Runs once per communicator (the `MPI_Dist_graph_create_adjacent`
//! hook). Every rank recursively halves the communicator; in each step
//! the two halves of every segment run the joint agent/origin selection
//! of [`crate::negotiate`] (lower half proposes first, then the upper
//! half — Algorithm 1 lines 14–24), responsibilities move from each rank
//! to its agent (the descriptor `D`), and each rank's buffer grows by its
//! origin's buffer. Halving stops for a segment once it fits on one
//! socket (`≤ L` ranks).
//!
//! [`build_pattern_recorded_v`] computes each round's matching — the one
//! every delivery order of the protocol reaches — without a signal;
//! [`crate::negotiate::build_pattern_distributed_pooled_v`] runs the
//! protocol as rank machines over a fault transport — the closest
//! analogue of the paper's MPI-side code. Both score through
//! `score_step`, fold their decisions through one `PatternAssembler` and
//! build the same pattern.
//!
//! # Interpretation notes (where the paper's pseudocode is ambiguous)
//!
//! * Candidate scoring uses the *static* outgoing-neighbor sets (the
//!   paper's matrix `A` is computed once in `calculate_A`), so a rank may
//!   select an agent even after all of its own h2 targets are already
//!   offloaded — exactly as the published pseudocode behaves.
//! * A failed agent search leaves the rank's remaining h2
//!   responsibilities with the rank itself; they are delivered as direct
//!   sends in the final phase ("directly after the halving phase",
//!   Fig. 1's caption).
//! * Self-targets are satisfied by the receive-buffer copy when a block
//!   arrives (Algorithm 4 lines 15–17) and therefore never appear in the
//!   responsibility map.

use crate::negotiate::{self, Matching, Scored};
use crate::pattern::{in_range, range_len, split_half, DhPattern, DhStep, SelectionStats};
use crate::sizes::{BlockSizes, LoadMetric};
use nhood_cluster::ClusterLayout;
use nhood_cluster::WorkerPool;
use nhood_telemetry::{labels, Recorder, NULL};
use nhood_topology::{Rank, Topology};

/// Errors from pattern building.
#[derive(Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The layout holds fewer cores than the graph has ranks.
    LayoutTooSmall {
        /// Ranks in the topology.
        ranks: usize,
        /// Cores in the layout.
        capacity: usize,
    },
    /// A rank of the distributed negotiation timed out (lost signals or
    /// a straggling peer) — see
    /// [`crate::negotiate::build_pattern_distributed_pooled_v`].
    NegotiationTimeout {
        /// The rank that gave up waiting.
        rank: Rank,
        /// Halving step it was negotiating.
        step: usize,
        /// Protocol round within the step (0 or 1).
        round: u8,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::LayoutTooSmall { ranks, capacity } => {
                write!(f, "{ranks} ranks exceed layout capacity {capacity}")
            }
            BuildError::NegotiationTimeout { rank, step, round } => {
                write!(f, "rank {rank} timed out negotiating step {step} round {round}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// How agents are paired with origins in each halving step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PairingStrategy {
    /// The paper's load-aware joint negotiation (Algorithms 2–3): agents
    /// are chosen by maximum shared outgoing neighbors.
    #[default]
    LoadAware,
    /// Topology-oblivious mirror pairing (Sack–Gropp-style): rank `i` of
    /// one half always pairs with rank `i` of the other, regardless of
    /// the communication graph. Used to ablate the "load-aware" part of
    /// the contribution.
    Mirror,
}

/// One rank's outcome in one halving step:
/// `(rank, agent, origin, h1, h2)`.
pub type Decision = (Rank, Option<Rank>, Option<Rank>, (Rank, Rank), (Rank, Rank));

/// Checks the builder preconditions shared by every strategy.
pub(crate) fn check_inputs(graph: &Topology, layout: &ClusterLayout) -> Result<(), BuildError> {
    if graph.n() > layout.capacity() {
        return Err(BuildError::LayoutTooSmall { ranks: graph.n(), capacity: layout.capacity() });
    }
    Ok(())
}

/// The segment list at each halving step, one step at a time: step
/// `t`'s item is the set of ranges still being halved then (ranges of
/// length `≤ l` have stopped). Empty when `n ≤ l`.
pub fn segments_per_step(n: usize, l: usize) -> impl Iterator<Item = Vec<(Rank, Rank)>> {
    let mut segments = if n == 0 { Vec::new() } else { vec![(0, n - 1)] };
    std::iter::from_fn(move || {
        segments.retain(|&s| range_len(s) > l);
        if segments.is_empty() {
            return None;
        }
        let next = segments.iter().flat_map(|&(s, e)| {
            let (_, lo, hi) = split_half(s, e);
            [lo, hi]
        });
        let next = next.collect();
        Some(std::mem::replace(&mut segments, next))
    })
}

/// Builds the Distance Halving pattern with the paper's load-aware
/// selection, count-based scoring, serially and unrecorded — the
/// defaults of [`build_pattern_recorded_v`].
pub fn build_pattern(graph: &Topology, layout: &ClusterLayout) -> Result<DhPattern, BuildError> {
    build_pattern_recorded_v(
        graph,
        layout,
        PairingStrategy::LoadAware,
        &BlockSizes::default(),
        LoadMetric::Neighbors,
        &WorkerPool::serial(),
        &NULL,
    )
}

/// Proposer ranks scored per [`WorkerPool::map`] job; one halving round
/// of an n=1024 step yields 16 such chunks, enough slack for any sane
/// pool without drowning small rounds in scheduling overhead.
const SCORE_CHUNK: usize = 32;

/// One halving step's rounds, per segment in order: round A (the lower
/// half proposes to the upper), then round B mirrored, as
/// `(proposers, acceptors)`.
fn rounds_of(active: &[(Rank, Rank)]) -> impl Iterator<Item = ((Rank, Rank), (Rank, Rank))> + '_ {
    active.iter().flat_map(|&(s, e)| {
        let (_, lower, upper) = split_half(s, e);
        [(lower, upper), (upper, lower)]
    })
}

/// Scores one halving step's rounds ([`rounds_of`]'s order) through
/// [`negotiate::score`] on `pool`, in chunks of [`SCORE_CHUNK`]
/// proposers. Chunks come back in job order — round-major,
/// proposer-ascending — so any pool yields the serial build's rows.
pub(crate) fn score_step(
    graph: &Topology,
    active: &[(Rank, Rank)],
    sizes: &BlockSizes,
    metric: LoadMetric,
    pool: &WorkerPool,
) -> Vec<Scored> {
    let rounds: Vec<_> = rounds_of(active).collect();
    let jobs: Vec<(usize, Rank)> = rounds
        .iter()
        .enumerate()
        .flat_map(|(ri, &(props, _))| {
            (props.0..=props.1).step_by(SCORE_CHUNK).map(move |s| (ri, s))
        })
        .collect();
    let scale = metric.scale(sizes);
    let mut chunks = pool.map(jobs.len(), |j| {
        let (ri, s) = jobs[j];
        let (props, accs) = rounds[ri];
        negotiate::score(
            graph,
            props,
            accs,
            s..(s + SCORE_CHUNK).min(props.1 + 1),
            sizes,
            metric,
            scale,
        )
    });
    rounds
        .iter()
        .map(|&(props, accs)| Scored {
            props: props.0..props.1 + 1,
            accs: accs.0..accs.1 + 1,
            chunks: chunks.drain(..range_len(props).div_ceil(SCORE_CHUNK)).collect(),
        })
        .collect()
}

/// One halving step's decisions, ascending by rank: `sel(si, p)` is what
/// rank `p` of segment `si` selected in round A and in round B — its
/// agent in the round it proposes, its origin in the other.
pub(crate) fn step_decisions(
    active: &[(Rank, Rank)],
    sel: impl Fn(usize, Rank) -> [Option<Rank>; 2],
) -> Vec<Decision> {
    let mut out = Vec::new();
    for (si, &seg) in active.iter().enumerate() {
        let (_, lower, upper) = split_half(seg.0, seg.1);
        for p in seg.0..=seg.1 {
            let [a, b] = sel(si, p);
            out.push(if p <= lower.1 { (p, a, b, lower, upper) } else { (p, b, a, upper, lower) });
        }
    }
    out
}

/// The full form of [`build_pattern`] — every input a build takes:
///
/// * `strategy` pairs agents with origins ([`PairingStrategy`]);
/// * `sizes` / `metric`: [`LoadMetric::Neighbors`] reproduces the
///   paper's count-based matching exactly, and [`LoadMetric::Bytes`]
///   keeps the shared-neighbor count primary but breaks score ties
///   toward the proposer with fewer block bytes in `sizes` — the
///   cheapest block for the agent to take on (candidacy and ordering
///   are unchanged on uniform sizes);
/// * `pool` runs the per-half scoring and the rounds' matchings. Scoring
///   jobs are chunked proposer ranges and the matchings of independent
///   rounds run concurrently; results are merged in a fixed (segment,
///   round, rank) order, so the pattern — and any plan lowered from it —
///   is **byte-identical** to a serial build;
/// * `rec` receives the build-phase spans ([`labels::PLAN_BUILD`]
///   wrapping [`labels::BUILD_SCORE`] and [`labels::BUILD_MATCH`] per
///   step) against rank 0.
pub fn build_pattern_recorded_v(
    graph: &Topology,
    layout: &ClusterLayout,
    strategy: PairingStrategy,
    sizes: &BlockSizes,
    metric: LoadMetric,
    pool: &WorkerPool,
    rec: &dyn Recorder,
) -> Result<DhPattern, BuildError> {
    check_inputs(graph, layout)?;
    let mut stats = SelectionStats::default();
    let mut asm = PatternAssembler::new(graph, layout.ranks_per_socket());

    rec.span_begin(0, labels::PLAN_BUILD);
    for active in segments_per_step(graph.n(), layout.ranks_per_socket()) {
        let matchings: Vec<Matching> = match strategy {
            PairingStrategy::LoadAware => {
                rec.span_begin(0, labels::BUILD_SCORE);
                let rounds = score_step(graph, &active, sizes, metric, pool);
                rec.span_end(0, labels::BUILD_SCORE);
                rec.span_begin(0, labels::BUILD_MATCH);
                let matchings =
                    pool.map(rounds.len(), |i| negotiate::deferred_acceptance(&rounds[i]));
                rec.span_end(0, labels::BUILD_MATCH);
                matchings
            }
            // i-th proposer pairs with i-th acceptor, no negotiation; the
            // (possibly) unpaired extra rank of the bigger half finds no
            // agent
            PairingStrategy::Mirror => rounds_of(&active)
                .map(|(props, accs)| {
                    let (np, na) = (range_len(props), range_len(accs));
                    let base = props.0.min(accs.0);
                    let mut sel = vec![None; np + na];
                    for i in 0..np.min(na) {
                        sel[props.0 + i - base] = Some(accs.0 + i);
                        sel[accs.0 + i - base] = Some(props.0 + i);
                    }
                    let (agent_searches, agents_found) = (np, np.min(na));
                    let stats =
                        SelectionStats { agent_searches, agents_found, ..Default::default() };
                    Matching { sel, stats }
                })
                .collect(),
        };
        matchings.iter().for_each(|m| stats.merge(&m.stats));
        // Fold this step into the pattern immediately and drop its
        // decision list — peak memory tracks the evolving pattern, not
        // an all-steps decision table.
        asm.step(&step_decisions(&active, |si, p| {
            let at = |m: &Matching| m.sel[p - active[si].0];
            [at(&matchings[2 * si]), at(&matchings[2 * si + 1])]
        }));
    }

    let pat = asm.finish(&stats);
    rec.span_end(0, labels::PLAN_BUILD);
    Ok(pat)
}

/// Streaming pattern assembly: folds one step's (agent, origin)
/// decisions at a time into the pattern's columns — records every rank's
/// step, moves responsibilities to agents (the descriptor `D` of
/// Algorithm 1 lines 31–49), grows buffers, and tallies notification and
/// descriptor messages. Both negotiation drivers and the repair replay
/// feed it.
///
/// Each step's decision list can be dropped as soon as [`Self::step`]
/// returns, so a builder that feeds decisions as rounds complete keeps
/// peak memory at the pattern itself — it never materializes the
/// O(n log n) all-steps decision table. The step table is laid out up
/// front (a rank halves until its segment fits on a socket) and written
/// in place; responsibilities are one `(owner, block, target)` column
/// whose owners move; buffers are tracked as lengths, and filled once, at
/// [`Self::finish`].
pub(crate) struct PatternAssembler<'g> {
    graph: &'g Topology,
    l: usize,
    /// Halving steps folded so far.
    t: usize,
    step_off: Vec<usize>,
    step_table: Vec<DhStep>,
    /// Blocks each rank holds so far, and a trailing zero: `finish`
    /// turns it into the held pool's offsets in place.
    held: Vec<usize>,
    /// `(owner, block, target)`: `owner` still owes `target` a delivery
    /// of `block`; one row per graph edge not yet covered.
    resp: Vec<(Rank, Rank, Rank)>,
    stats: SelectionStats,
}

impl<'g> PatternAssembler<'g> {
    pub(crate) fn new(graph: &'g Topology, l: usize) -> Self {
        let n = graph.n();
        let mut step_off = vec![0; n + 1];
        for active in segments_per_step(n, l) {
            active
                .iter()
                .for_each(|&(s, e)| step_off[s + 1..=e + 1].iter_mut().for_each(|c| *c += 1));
        }
        for r in 0..n {
            step_off[r + 1] += step_off[r];
        }
        let mut held = vec![1; n + 1];
        held[n] = 0;
        let mut resp = Vec::with_capacity(graph.edge_count());
        resp.extend(graph.edges().map(|(b, t)| (b, b, t)));
        Self {
            graph,
            l,
            t: 0,
            step_table: vec![DhStep::default(); step_off[n]],
            step_off,
            held,
            resp,
            stats: SelectionStats::default(),
        }
    }

    /// Folds one halving step's decisions into the pattern state.
    ///
    /// # Panics
    /// Panics if a decision names a rank whose halving stopped before
    /// this step — both builders and the repair replay take their
    /// participants from [`segments_per_step`], which makes that
    /// unreachable.
    pub(crate) fn step(&mut self, decisions: &[Decision]) {
        let t = self.t;
        self.t += 1;
        // Record the step for every participating rank. Buffers only
        // grow by appending (below, after every step is recorded), so
        // pre-step contents are fully described by their current
        // lengths — no per-step snapshot.
        for &(p, agent, origin, h1, h2) in decisions {
            let arr_len = origin.map_or(0, |o| self.held[o]);
            self.step_table[self.step_off[p]..self.step_off[p + 1]][t] =
                DhStep::new(h1, h2, agent, origin, self.held[p], arr_len);
            // Notifications: agent announcements to outgoing neighbors in
            // h2 (Algorithm 1 line 30), sent whether or not one was found.
            let out = self.graph.out_neighbors(p);
            self.stats.notifications +=
                out.partition_point(|&o| o <= h2.1) - out.partition_point(|&o| o < h2.0);
            self.stats.descriptors += usize::from(agent.is_some());
        }

        // Apply responsibility transfers (descriptor D) against the
        // pre-step owners: each row is visited once, so a row that moves
        // to an agent in this step does not move on with the agent's own
        // D. A target that is its new owner is satisfied by the rbuf copy
        // on arrival.
        let (steps, off) = (&self.step_table, &self.step_off);
        self.resp.retain_mut(|(owner, _, target)| {
            let Some(step) = steps[off[*owner]..off[*owner + 1]].get(t) else { return true };
            match step.agent() {
                Some(a) if in_range(*target, step.h2()) => {
                    *owner = a;
                    *target != a
                }
                _ => true,
            }
        });

        // Apply buffer growth: the origin's pre-step buffer appends to
        // ours (its length was captured as `arr_len` above).
        for &(p, ..) in decisions {
            self.held[p] += self.step_table[self.step_off[p] + t].arr_len();
        }
    }

    /// Freezes the evolved state into the final pattern, merging
    /// `stats` accumulated by the matching rounds on top of the
    /// assembler's own notification/descriptor tallies.
    pub(crate) fn finish(mut self, round_stats: &SelectionStats) -> DhPattern {
        let n = self.graph.n();
        let mut stats = self.stats;
        stats.merge(round_stats);
        // One sort makes every rank's rows, ascending by (block, target).
        self.resp.sort_unstable();
        let mut resp_off = vec![0; n + 1];
        self.resp.iter().for_each(|&(owner, ..)| resp_off[owner + 1] += 1);
        for r in 0..n {
            resp_off[r + 1] += resp_off[r];
        }
        let mut held_off = self.held;
        let mut total = 0;
        for h in &mut held_off {
            (*h, total) = (total, total + *h);
        }
        let mut pattern = DhPattern {
            step_off: self.step_off,
            step_table: self.step_table,
            held_pool: vec![0; total],
            held_off,
            resp_off,
            resp_table: self.resp.iter().map(|&(_, b, t)| (b, t)).collect(),
            stats,
            ranks_per_socket: self.l,
        };
        // Each rank's own block, then its arrivals in step order: an
        // arrival is a prefix of the origin's pool, complete by then.
        for r in 0..n {
            pattern.held_pool[pattern.held_off[r]] = r;
        }
        for t in 0..self.t {
            for r in 0..n {
                let Some(&step) = pattern.steps(r).get(t) else { continue };
                let Some(o) = step.origin() else { continue };
                let (from, to) = (pattern.held_off[o], pattern.held_off[r] + step.held_len());
                pattern.held_pool.copy_within(from..from + step.arr_len(), to);
            }
        }
        pattern
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhood_topology::random::erdos_renyi;

    /// The full form at default sizes/metric, unrecorded.
    fn build(
        g: &Topology,
        layout: &ClusterLayout,
        strategy: PairingStrategy,
        pool: &WorkerPool,
    ) -> DhPattern {
        let sizes = BlockSizes::default();
        build_pattern_recorded_v(g, layout, strategy, &sizes, LoadMetric::Neighbors, pool, &NULL)
            .unwrap()
    }

    fn full_graph(n: usize) -> Topology {
        Topology::from_edges(
            n,
            (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j))),
        )
    }

    /// Checks the central invariant: every edge (b → t) of the graph is
    /// covered exactly once — either `t` receives `b`'s block during the
    /// halving phase (it arrives at `t` and `b ∈ I(t)`), or exactly one
    /// rank holds (b → t) in its final responsibilities.
    pub(super) fn assert_exactly_once(graph: &Topology, pat: &DhPattern) {
        use std::collections::HashMap;
        let mut covered: HashMap<(Rank, Rank), usize> = HashMap::new();
        for t in 0..graph.n() {
            for s in 0..pat.steps(t).len() {
                for &b in pat.arriving(t, s) {
                    if graph.has_edge(b, t) {
                        *covered.entry((b, t)).or_default() += 1;
                    }
                }
            }
        }
        for q in 0..graph.n() {
            for &(b, t) in pat.resp(q) {
                assert!(
                    pat.held(q).contains(&b),
                    "rank {q} responsible for block {b} it does not hold"
                );
                assert!(graph.has_edge(b, t), "spurious responsibility ({b} -> {t})");
                *covered.entry((b, t)).or_default() += 1;
            }
        }
        for (s, d) in graph.edges() {
            assert_eq!(
                covered.get(&(s, d)).copied().unwrap_or(0),
                1,
                "edge ({s} -> {d}) covered wrong number of times"
            );
        }
        let total: usize = covered.values().sum();
        assert_eq!(total, graph.edge_count());
    }

    /// A rank that found an agent in a step must end with no remaining
    /// responsibilities inside that step's h2 (later h2s are disjoint).
    fn assert_no_stale_h2(pat: &DhPattern) {
        for r in 0..pat.n() {
            for step in pat.steps(r).iter().filter(|s| s.agent().is_some()) {
                for &(_, t) in pat.resp(r) {
                    assert!(
                        !in_range(t, step.h2()),
                        "rank kept target {t} inside offloaded half {:?}",
                        step.h2()
                    );
                }
            }
        }
    }

    #[test]
    fn segments_per_step_shapes() {
        // 32 ranks, L = 4: 32 → 16 → 8 → (4,4): three active steps
        let steps = |n, l| segments_per_step(n, l).collect::<Vec<_>>();
        let s = steps(32, 4);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], vec![(0, 31)]);
        assert_eq!(s[1], vec![(0, 15), (16, 31)]);
        assert_eq!(s[2].len(), 4);
        // n ≤ L: no halving at all
        assert!(steps(8, 8).is_empty());
        assert!(steps(0, 4).is_empty());
        // odd sizes: 17 with L=4: [0,16] → [0,8],[9,16] → 5,4,4,4 → 3,2
        let s = steps(17, 4);
        assert_eq!(s[0], vec![(0, 16)]);
        assert_eq!(s[1], vec![(0, 8), (9, 16)]);
        // step 2 only halves the length-5 segment
        assert_eq!(s[2], vec![(0, 4)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_graph_trivial_pattern() {
        let g = Topology::from_edges(8, []);
        let layout = ClusterLayout::new(2, 2, 2); // L = 2
        let pat = build_pattern(&g, &layout).unwrap();
        assert_eq!(pat.n(), 8);
        assert_eq!(pat.stats.total_signals(), 0);
        assert_eq!(pat.stats.agents_found, 0);
        for r in 0..8 {
            assert!(pat.resp(r).is_empty());
            assert_eq!(pat.held(r), [r]);
        }
        assert_exactly_once(&g, &pat);
    }

    #[test]
    fn single_socket_no_halving() {
        let g = erdos_renyi(8, 0.5, 1);
        let layout = ClusterLayout::new(1, 1, 8);
        let pat = build_pattern(&g, &layout).unwrap();
        assert_eq!(pat.max_steps(), 0);
        assert_exactly_once(&g, &pat);
    }

    #[test]
    fn two_socket_full_graph() {
        let g = full_graph(8);
        let layout = ClusterLayout::new(1, 2, 4); // L = 4, one halving step
        let pat = build_pattern(&g, &layout).unwrap();
        assert_eq!(pat.max_steps(), 1);
        assert_eq!(pat.stats.agent_searches, 8);
        assert_eq!(pat.stats.agents_found, 8);
        assert_exactly_once(&g, &pat);
        assert_no_stale_h2(&pat);
        for r in 0..8 {
            assert_eq!(pat.held(r).len(), 2);
        }
    }

    #[test]
    fn correct_over_random_graphs_and_layouts() {
        for (n, delta, nodes, sockets, cores) in [
            (16, 0.3, 2, 2, 4),
            (16, 0.05, 4, 2, 2),
            (24, 0.5, 3, 2, 4),
            (36, 0.2, 3, 2, 6),
            (30, 0.7, 5, 2, 3),
            (17, 0.4, 3, 2, 3),
        ] {
            let g = erdos_renyi(n, delta, 42);
            let layout = ClusterLayout::new(nodes, sockets, cores);
            let pat = build_pattern(&g, &layout)
                .unwrap_or_else(|e| panic!("build failed for n={n}: {e}"));
            assert_exactly_once(&g, &pat);
            assert_no_stale_h2(&pat);
        }
    }

    #[test]
    fn agents_and_origins_are_mutual() {
        let g = erdos_renyi(32, 0.4, 7);
        let layout = ClusterLayout::new(4, 2, 4);
        let pat = build_pattern(&g, &layout).unwrap();
        for p in 0..32 {
            for (t, step) in pat.steps(p).iter().enumerate() {
                if let Some(a) = step.agent() {
                    assert!(in_range(a, step.h2()), "agent outside h2");
                    assert_eq!(
                        pat.steps(a)[t].origin(),
                        Some(p),
                        "agent {a} of {p} does not list {p} as origin at step {t}"
                    );
                    assert_eq!(pat.arriving(a, t), pat.held_before(p, t));
                }
                if let Some(o) = step.origin() {
                    assert!(in_range(o, step.h2()), "origin outside h2");
                    assert_eq!(pat.steps(o)[t].agent(), Some(p));
                }
            }
        }
    }

    #[test]
    fn buffer_growth_matches_origins() {
        let g = erdos_renyi(32, 0.5, 3);
        let layout = ClusterLayout::new(4, 2, 4); // L = 4 → 3 halving steps
        let pat = build_pattern(&g, &layout).unwrap();
        for r in 0..32 {
            let mut expect = 1usize;
            for step in pat.steps(r) {
                assert_eq!(step.held_len(), expect);
                expect += step.arr_len();
            }
            assert_eq!(pat.held(r).len(), expect);
            assert!(expect <= 1 << pat.steps(r).len());
        }
    }

    #[test]
    fn halving_step_count() {
        let g = full_graph(32);
        let layout = ClusterLayout::new(4, 2, 4);
        let pat = build_pattern(&g, &layout).unwrap();
        assert_eq!(pat.max_steps(), 3);
        for r in 0..32 {
            assert_eq!(pat.steps(r).len(), 3);
        }
    }

    #[test]
    fn dense_graph_offloads_everything_far() {
        let g = full_graph(16);
        let layout = ClusterLayout::new(2, 2, 4); // L = 4
        let pat = build_pattern(&g, &layout).unwrap();
        for q in 0..16 {
            let (lo, hi) = layout.socket_range(q);
            for &(_, t) in pat.resp(q) {
                assert!(t >= lo && t <= hi, "rank {q} still owes a delivery to off-socket {t}");
            }
        }
        assert_exactly_once(&g, &pat);
    }

    #[test]
    fn rejects_oversized_graph_and_bad_placement() {
        let g = full_graph(8);
        let small = ClusterLayout::new(1, 1, 4);
        assert_eq!(
            build_pattern(&g, &small).err(),
            Some(BuildError::LayoutTooSmall { ranks: 8, capacity: 4 })
        );
        // the builder plans in rank order and reads only the layout's
        // shape: any placement of that shape builds the block pattern
        let rr =
            ClusterLayout::new(2, 2, 2).with_placement(nhood_cluster::Placement::RoundRobinNodes);
        let block = build_pattern(&g, &ClusterLayout::new(2, 2, 2)).unwrap();
        assert_eq!(build_pattern(&g, &rr).unwrap(), block);
    }

    #[test]
    fn stats_notifications_counted() {
        let g = full_graph(8);
        let layout = ClusterLayout::new(1, 2, 4);
        let pat = build_pattern(&g, &layout).unwrap();
        assert_eq!(pat.stats.notifications, 8 * 4);
        assert_eq!(pat.stats.descriptors, 8);
    }

    #[test]
    fn mirror_strategy_is_correct_too() {
        for (n, delta) in [(16usize, 0.3), (24, 0.5), (17, 0.4)] {
            let g = erdos_renyi(n, delta, 42);
            let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
            let pat = build(&g, &layout, PairingStrategy::Mirror, &WorkerPool::serial());
            assert_exactly_once(&g, &pat);
            assert_eq!(pat.stats.total_signals(), 0);
            assert!(pat.stats.success_rate() > 0.9);
        }
    }

    #[test]
    fn mirror_agents_are_reflections() {
        let g = full_graph(16);
        let layout = ClusterLayout::new(2, 2, 4);
        let pat = build(&g, &layout, PairingStrategy::Mirror, &WorkerPool::serial());
        for p in 0..16usize {
            let expect = if p < 8 { p + 8 } else { p - 8 };
            assert_eq!(pat.steps(p)[0].agent(), Some(expect));
            assert_eq!(pat.steps(p)[0].origin(), Some(expect));
        }
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi(40, 0.3, 11);
        let layout = ClusterLayout::new(5, 2, 4);
        let a = build_pattern(&g, &layout).unwrap();
        let b = build_pattern(&g, &layout).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pooled_build_is_identical_to_serial() {
        for (n, delta) in [(17usize, 0.4), (32, 0.1), (40, 0.6)] {
            let g = erdos_renyi(n, delta, 23);
            let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
            let serial = build_pattern(&g, &layout).unwrap();
            for threads in [2usize, 3, 8] {
                let pool = WorkerPool::new(threads);
                let pooled = build(&g, &layout, PairingStrategy::LoadAware, &pool);
                assert_eq!(serial, pooled, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn pooled_mirror_matches_serial_mirror() {
        let g = erdos_renyi(24, 0.5, 8);
        let layout = ClusterLayout::new(3, 2, 4);
        let serial = build(&g, &layout, PairingStrategy::Mirror, &WorkerPool::serial());
        let pooled = build(&g, &layout, PairingStrategy::Mirror, &WorkerPool::new(4));
        assert_eq!(serial, pooled);
    }

    #[test]
    fn assembled_rows_are_sorted_unique_and_held() {
        for (n, delta, strategy) in [
            (37usize, 0.3, PairingStrategy::LoadAware),
            (40, 0.6, PairingStrategy::LoadAware),
            (17, 0.4, PairingStrategy::Mirror),
        ] {
            let g = erdos_renyi(n, delta, 5);
            let pat = build(
                &g,
                &ClusterLayout::new(n.div_ceil(8), 2, 4),
                strategy,
                &WorkerPool::serial(),
            );
            for r in 0..n {
                let rows = pat.resp(r);
                assert!(
                    rows.windows(2).all(|w| w[0] < w[1]),
                    "rank {r}: rows not strictly ascending"
                );
                assert!(
                    rows.iter().all(|(b, _)| pat.held(r).contains(b)),
                    "rank {r} owes a block it lacks"
                );
                let mut held = pat.held(r).to_vec();
                assert_eq!(held[0], r);
                held.sort_unstable();
                held.dedup();
                assert_eq!(held.len(), pat.held(r).len(), "rank {r} holds a block twice");
            }
        }
    }
}
