//! A truly distributed pattern builder: one OS thread per rank, running
//! the agent/origin negotiation of Algorithms 2–3 over real channels.
//!
//! Where [`crate::builder`] *emulates* the protocol sequentially (with a
//! deterministic arrival order), this module *runs* it: every rank is a
//! thread, every REQ/ACCEPT/DROP/EXIT is a real message, and arrival
//! order is whatever the scheduler produces — the closest this library
//! gets to the paper's MPI-side implementation. The resulting matching
//! can differ run-to-run (as it can on a real cluster), but every run
//! yields a valid pattern; the test suite executes patterns from this
//! builder and checks them against the MPI-semantics reference.
//!
//! # Protocol and termination
//!
//! The negotiation follows a strict **two-message invariant**: every
//! candidate pair exchanges exactly one message in each direction,
//!
//! * `REQ → / ← ACCEPT` — matched;
//! * `REQ → / ← DROP` — rejected (acceptor matched someone else, or the
//!   REQ straggled in after the acceptor's broadcast DROP crossed it);
//! * `← DROP / EXIT →` — the acceptor's broadcast DROP reached a
//!   proposer that had never contacted it; the proposer acknowledges;
//! * `EXIT → / ← DROP` — a matched proposer dismisses an acceptor it
//!   never contacted; the acceptor acknowledges.
//!
//! A round therefore ends for a rank exactly when all its candidate
//! pairs are resolved in both directions — no counters shared across
//! rounds, no global barrier, and stray messages can never leak into a
//! later round. (The published pseudocode's `c_s + c_r = c_t` accounting
//! aims at the same property; the acknowledgement rules here make it
//! watertight under message crossings.)
//!
//! # Fault injection
//!
//! [`build_pattern_distributed_pooled_v`] runs the same protocol against a
//! [`FaultPlan`]: control signals can be dropped (retried with bounded
//! exponential backoff) or delayed, and slow ranks stall at every step
//! entry. Duplication and reordering faults are **not** applied here —
//! the two-message invariant assumes exactly-once signal delivery, so
//! the transport emulation below provides it (as MPI would); a signal
//! lost beyond the retry budget surfaces as
//! [`BuildError::NegotiationTimeout`] on some waiting rank, never as a
//! hang. This is what [`crate::comm::RobustPolicy`] degrades on: a
//! timed-out negotiation falls back to the naive plan.

use crate::builder::{assemble_pattern, check_inputs, segments_per_step, BuildError, Decision};
use crate::fault::{FaultAction, FaultPlan};
use crate::pattern::{split_half, DhPattern, SelectionStats};
use crate::sizes::{BlockSizes, LoadMetric};
use nhood_cluster::ClusterLayout;
use nhood_cluster::WorkerPool;
use nhood_telemetry::{labels, Recorder, NULL};
use nhood_topology::{Bitset, Rank, Topology};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Default per-receive timeout: converts protocol bugs (or unsurvivable
/// fault schedules) into errors, not hangs.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(20);

/// Retransmission budget per control signal under fault injection.
const SIGNAL_MAX_RETRIES: u32 = 5;
/// First retry backoff for control signals; doubles per attempt with
/// deterministic jitter (see [`crate::fault::backoff`]).
const SIGNAL_BACKOFF: Duration = Duration::from_micros(100);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Req,
    Accept,
    Drop,
    Exit,
}

#[derive(Clone, Copy, Debug)]
struct Signal {
    step: u32,
    round: u8,
    from: Rank,
    kind: Kind,
}

/// One rank's participation in one halving step.
#[derive(Clone, Copy, Debug)]
struct StepRole {
    lower: (Rank, Rank),
    upper: (Rank, Rank),
    am_lower: bool,
}

#[derive(Default)]
struct PairState {
    sent: bool,
    received: bool,
    inactive: bool,
    waiting: bool,
}

/// Builds the Distance Halving pattern by actually running the
/// negotiation protocol with one thread per rank — fault-free, under
/// [`RECV_TIMEOUT`], with count-based scoring, unrecorded: the defaults
/// of [`build_pattern_distributed_pooled_v`].
///
/// Produces the same pattern *structure* as
/// [`crate::builder::build_pattern`]; the matching itself may differ (it
/// depends on real message arrival order). Intended for moderate rank
/// counts (one OS thread each).
pub fn build_pattern_distributed(
    graph: &Topology,
    layout: &ClusterLayout,
) -> Result<DhPattern, BuildError> {
    build_pattern_distributed_pooled_v(
        graph,
        layout,
        None,
        RECV_TIMEOUT,
        &BlockSizes::default(),
        LoadMetric::Neighbors,
        &WorkerPool::serial(),
        &NULL,
    )
}

/// The full form of [`build_pattern_distributed`] — every input a
/// negotiation takes:
///
/// * `fault` / `recv_timeout`: control signals consult the fault plan at
///   every send (drops are retried with bounded backoff, delays sleep),
///   slow ranks stall at step entry, and any rank left waiting longer
///   than `recv_timeout` returns [`BuildError::NegotiationTimeout`]
///   instead of panicking or hanging; the first error in rank order is
///   the one reported;
/// * `sizes` / `metric`: under [`LoadMetric::Bytes`] score ties are
///   broken toward the **proposer** with fewer block bytes (both sides
///   of a pair apply the same byte term and candidacy never changes, so
///   the candidate relation stays symmetric and the two-message
///   invariant holds); [`LoadMetric::Neighbors`] is the paper's
///   count-based scoring;
/// * `pool` manages the rank threads. Negotiation jobs block on each
///   other's messages, so its [`run_all`](WorkerPool::run_all) entry
///   point is used — every rank still gets a thread regardless of the
///   pool's bound, but spawn, join and panic propagation live in one
///   audited place instead of an ad-hoc `thread::scope` here;
/// * `rec`: every rank reports a `negotiate` span per halving step, one
///   negotiation-round event per proposer/acceptor role it plays, and a
///   retry event per retransmitted control signal.
#[allow(clippy::too_many_arguments)]
pub fn build_pattern_distributed_pooled_v(
    graph: &Topology,
    layout: &ClusterLayout,
    fault: Option<&FaultPlan>,
    recv_timeout: Duration,
    sizes: &BlockSizes,
    metric: LoadMetric,
    pool: &WorkerPool,
    rec: &dyn Recorder,
) -> Result<DhPattern, BuildError> {
    check_inputs(graph, layout)?;
    let n = graph.n();
    let l = layout.ranks_per_socket();
    let step_segments = segments_per_step(n, l);
    let out_sets: Arc<Vec<Bitset>> = Arc::new(graph.out_bitsets());

    // Per-rank step roles.
    let mut roles: Vec<Vec<Option<StepRole>>> = vec![Vec::new(); n];
    for active in &step_segments {
        for r in roles.iter_mut() {
            r.push(None);
        }
        for &seg in active {
            let (_, lower, upper) = split_half(seg.0, seg.1);
            for (p, role) in roles.iter_mut().enumerate().take(seg.1 + 1).skip(seg.0) {
                let am_lower = p <= lower.1;
                let t = role.len() - 1;
                role[t] = Some(StepRole { lower, upper, am_lower });
            }
        }
    }

    let mut senders: Vec<Sender<Signal>> = Vec::with_capacity(n);
    let mut receivers: Vec<Option<Receiver<Signal>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(Some(rx));
    }
    let senders = Arc::new(senders);

    let jobs: Vec<_> = (0..n)
        .map(|p| {
            let rx = receivers[p].take().expect("taken once");
            let senders = Arc::clone(&senders);
            let out_sets = Arc::clone(&out_sets);
            let my_roles = roles[p].clone();
            move || {
                rank_main(
                    p,
                    rx,
                    senders,
                    out_sets,
                    my_roles,
                    fault,
                    recv_timeout,
                    sizes,
                    metric,
                    rec,
                )
            }
        })
        .collect();
    let results: Vec<Result<RankOutcome, BuildError>> = pool.run_all(jobs);

    // Convert per-rank outcomes into per-step decision lists.
    let mut stats = SelectionStats::default();
    let mut steps: Vec<Vec<Decision>> = vec![Vec::new(); step_segments.len()];
    for (p, outcome) in results.into_iter().enumerate() {
        let (outcomes, s) = outcome?;
        stats.merge(&s);
        for (t, (agent, origin)) in outcomes.into_iter().enumerate() {
            if let Some(role) = roles[p][t] {
                let (h1, h2) =
                    if role.am_lower { (role.lower, role.upper) } else { (role.upper, role.lower) };
                steps[t].push((p, agent, origin, h1, h2));
            }
        }
    }
    // assemble_pattern adds notifications/descriptors itself.
    Ok(assemble_pattern(graph, l, &steps, stats))
}

/// What one negotiation thread produces: per step `(agent, origin)` —
/// the agent this rank selected (if any) and the peer it agreed to act
/// for (if any) — plus its share of the signal accounting.
type RankOutcome = (Vec<(Option<Rank>, Option<Rank>)>, SelectionStats);

/// The per-rank thread: walks its halving steps, playing proposer and
/// acceptor in the order of Algorithm 1 lines 14–24 (lower half proposes
/// in round 0, upper half in round 1).
#[allow(clippy::too_many_arguments)]
fn rank_main(
    p: Rank,
    rx: Receiver<Signal>,
    senders: Arc<Vec<Sender<Signal>>>,
    out_sets: Arc<Vec<Bitset>>,
    roles: Vec<Option<StepRole>>,
    fault: Option<&FaultPlan>,
    recv_timeout: Duration,
    sizes: &BlockSizes,
    metric: LoadMetric,
    rec: &dyn Recorder,
) -> Result<RankOutcome, BuildError> {
    let mut stats = SelectionStats::default();
    let mut parked: HashMap<(u32, u8), Vec<Signal>> = HashMap::new();
    let mut outcomes = Vec::with_capacity(roles.len());

    for (t, role) in roles.iter().enumerate() {
        let Some(role) = role else {
            outcomes.push((None, None));
            continue;
        };
        if let Some(fp) = fault {
            let stall = fp.stall(p);
            if stall > Duration::ZERO {
                std::thread::sleep(stall);
            }
        }
        rec.span_begin(p, labels::NEGOTIATE);
        let t = t as u32;
        let (h2, my_half) =
            if role.am_lower { (role.upper, role.lower) } else { (role.lower, role.upper) };
        // Candidates: opposite-half ranks sharing ≥1 outgoing neighbor in
        // the acceptor-side half. The acceptor-side half differs per
        // round: when I propose, it's my h2; when I accept, it's my h1.
        let proposer_cands = candidates(p, h2, h2, &out_sets, sizes, metric, true);
        let acceptor_cands = candidates(p, h2, my_half, &out_sets, sizes, metric, false);

        let (agent, origin) = if role.am_lower {
            let agent = propose(
                Round {
                    p,
                    step: t,
                    round: 0,
                    senders: &senders,
                    parked: &mut parked,
                    rx: &rx,
                    fault,
                    recv_timeout,
                    rec,
                },
                &proposer_cands,
                &mut stats,
            )?;
            let origin = accept(
                Round {
                    p,
                    step: t,
                    round: 1,
                    senders: &senders,
                    parked: &mut parked,
                    rx: &rx,
                    fault,
                    recv_timeout,
                    rec,
                },
                &acceptor_cands,
                &mut stats,
            )?;
            (agent, origin)
        } else {
            let origin = accept(
                Round {
                    p,
                    step: t,
                    round: 0,
                    senders: &senders,
                    parked: &mut parked,
                    rx: &rx,
                    fault,
                    recv_timeout,
                    rec,
                },
                &acceptor_cands,
                &mut stats,
            )?;
            let agent = propose(
                Round {
                    p,
                    step: t,
                    round: 1,
                    senders: &senders,
                    parked: &mut parked,
                    rx: &rx,
                    fault,
                    recv_timeout,
                    rec,
                },
                &proposer_cands,
                &mut stats,
            )?;
            (agent, origin)
        };
        rec.span_end(p, labels::NEGOTIATE);
        outcomes.push((agent, origin));
    }
    Ok((outcomes, stats))
}

/// Candidate list of `p` against the opposite half, scored by shared
/// outgoing neighbors within `score_half` (with proposer block bytes as
/// the [`LoadMetric::Bytes`] tie-breaker), best-first (score desc, rank
/// asc). The byte term always applies to the proposing rank of the pair
/// — `p` itself when `i_propose`, the candidate `c` otherwise — so both
/// sides of a pair compute the identical score and the candidate
/// relation is symmetric.
#[allow(clippy::too_many_arguments)]
fn candidates(
    p: Rank,
    opposite: (Rank, Rank),
    score_half: (Rank, Rank),
    out_sets: &[Bitset],
    sizes: &BlockSizes,
    metric: LoadMetric,
    i_propose: bool,
) -> Vec<Rank> {
    let scale = metric.scale(sizes);
    let mut cands: Vec<(usize, Rank)> = (opposite.0..=opposite.1)
        .filter_map(|c| {
            let shared =
                out_sets[p].intersection_count_in_range(&out_sets[c], score_half.0, score_half.1);
            let proposer = if i_propose { p } else { c };
            let s = metric.score(shared, proposer, sizes, scale);
            (s > 0).then_some((s, c))
        })
        .collect();
    cands.sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
    cands.into_iter().map(|(_, c)| c).collect()
}

struct Round<'a> {
    p: Rank,
    step: u32,
    round: u8,
    senders: &'a Arc<Vec<Sender<Signal>>>,
    parked: &'a mut HashMap<(u32, u8), Vec<Signal>>,
    rx: &'a Receiver<Signal>,
    fault: Option<&'a FaultPlan>,
    recv_timeout: Duration,
    rec: &'a dyn Recorder,
}

impl<'a> Round<'a> {
    fn send(&self, to: Rank, kind: Kind, stats: &mut SelectionStats) {
        match kind {
            Kind::Req => stats.req += 1,
            Kind::Accept => stats.accept += 1,
            Kind::Drop => stats.drop += 1,
            Kind::Exit => stats.exit += 1,
        }
        let sig = Signal { step: self.step, round: self.round, from: self.p, kind };
        let Some(fp) = self.fault else {
            // a peer can only be gone if the whole build is tearing down
            // on another rank's error; the join surfaces that
            let _ = self.senders[to].send(sig);
            return;
        };
        // one message per direction per pair per round, so (step, round)
        // identifies the signal on this (src, dst) pair
        let tag = (self.step as u64) << 1 | self.round as u64;
        let mut attempt: u32 = 0;
        loop {
            match fp.send_action(self.p, to, tag, attempt) {
                FaultAction::Deliver | FaultAction::Duplicate => {
                    // duplication is suppressed on the control plane: the
                    // two-message invariant requires exactly-once signals
                    let _ = self.senders[to].send(sig);
                    return;
                }
                FaultAction::Delay(d) => {
                    std::thread::sleep(d);
                    let _ = self.senders[to].send(sig);
                    return;
                }
                FaultAction::LinkDown => {
                    // a severed link never heals within a round: the signal
                    // is lost outright and the peer's timeout reports it
                    return;
                }
                FaultAction::Drop => {
                    if attempt >= SIGNAL_MAX_RETRIES {
                        return; // lost for good; the peer's timeout reports it
                    }
                    self.rec.retry(self.p);
                    // jittered per (src, dst, tag) so colliding ranks
                    // desynchronize; deterministic per fault seed
                    let seed = crate::fault::backoff_seed(fp.seed(), self.p as u64, to as u64, tag);
                    std::thread::sleep(crate::fault::backoff(SIGNAL_BACKOFF, attempt, seed));
                    attempt += 1;
                }
            }
        }
    }

    /// Receives the next signal for *this* round, parking strays. A wait
    /// longer than the configured timeout is a typed error — lost
    /// signals and dead peers must not hang the build.
    fn recv(&mut self) -> Result<Signal, BuildError> {
        let key = (self.step, self.round);
        if let Some(q) = self.parked.get_mut(&key) {
            if let Some(s) = q.pop() {
                return Ok(s);
            }
        }
        loop {
            let s = self.rx.recv_timeout(self.recv_timeout).map_err(|_| {
                BuildError::NegotiationTimeout {
                    rank: self.p,
                    step: self.step as usize,
                    round: self.round,
                }
            })?;
            if (s.step, s.round) == key {
                return Ok(s);
            }
            self.parked.entry((s.step, s.round)).or_default().push(s);
        }
    }
}

/// `find_agent` (Algorithm 2): walk the candidate list best-first,
/// keeping exactly one outstanding REQ, until accepted or exhausted.
fn propose(
    mut net: Round<'_>,
    cands: &[Rank],
    stats: &mut SelectionStats,
) -> Result<Option<Rank>, BuildError> {
    stats.agent_searches += 1;
    net.rec.negotiation_round(net.p);
    let mut state: HashMap<Rank, PairState> =
        cands.iter().map(|&c| (c, PairState::default())).collect();
    let mut selected: Option<Rank> = None;
    let mut current: Option<Rank> = None;

    if let Some(&first) = cands.first() {
        net.send(first, Kind::Req, stats);
        state.get_mut(&first).expect("candidate").sent = true;
        current = Some(first);
    }
    while state.values().any(|s| !s.sent || !s.received) {
        let sig = net.recv()?;
        let st = state.get_mut(&sig.from).expect("signal from a candidate");
        st.received = true;
        match sig.kind {
            Kind::Accept => {
                selected = Some(sig.from);
                stats.agents_found += 1;
                // dismiss everyone not yet contacted
                let pending: Vec<Rank> =
                    state.iter().filter(|(_, s)| !s.sent).map(|(&c, _)| c).collect();
                for c in pending {
                    net.send(c, Kind::Exit, stats);
                    state.get_mut(&c).expect("candidate").sent = true;
                }
            }
            Kind::Drop => {
                st.inactive = true;
                if !st.sent {
                    // unsolicited broadcast DROP: acknowledge
                    let from = sig.from;
                    net.send(from, Kind::Exit, stats);
                    state.get_mut(&from).expect("candidate").sent = true;
                } else if selected.is_none() && current == Some(sig.from) {
                    // our outstanding REQ was rejected: try the next one
                    if let Some(&next) = cands.iter().find(|c| !state[c].sent && !state[c].inactive)
                    {
                        net.send(next, Kind::Req, stats);
                        state.get_mut(&next).expect("candidate").sent = true;
                        current = Some(next);
                    }
                }
            }
            Kind::Req | Kind::Exit => {
                unreachable!("proposer received {:?}", sig.kind)
            }
        }
    }
    Ok(selected)
}

/// `find_origin` (Algorithm 3): accept the best-scoring proposer that has
/// REQ'd (re-evaluated after every event), broadcast DROP to the rest on
/// match, acknowledge EXITs.
fn accept(
    mut net: Round<'_>,
    cands: &[Rank],
    stats: &mut SelectionStats,
) -> Result<Option<Rank>, BuildError> {
    net.rec.negotiation_round(net.p);
    let mut state: HashMap<Rank, PairState> =
        cands.iter().map(|&c| (c, PairState::default())).collect();
    let mut selected: Option<Rank> = None;

    while state.values().any(|s| !s.sent || !s.received) {
        // accept the best live waiter, if any
        if selected.is_none() {
            let best_live = cands.iter().copied().find(|c| !state[c].inactive && !state[c].sent);
            if let Some(best) = best_live {
                if state[&best].waiting {
                    selected = Some(best);
                    net.send(best, Kind::Accept, stats);
                    state.get_mut(&best).expect("candidate").sent = true;
                    // broadcast DROP to everyone else not yet answered
                    let pending: Vec<Rank> =
                        state.iter().filter(|(_, s)| !s.sent).map(|(&c, _)| c).collect();
                    for c in pending {
                        net.send(c, Kind::Drop, stats);
                        state.get_mut(&c).expect("candidate").sent = true;
                    }
                    continue;
                }
            }
        }
        if !state.values().any(|s| !s.sent || !s.received) {
            break;
        }
        let sig = net.recv()?;
        let st = state.get_mut(&sig.from).expect("signal from a candidate");
        st.received = true;
        match sig.kind {
            Kind::Req => {
                if st.sent {
                    // our broadcast DROP crossed this REQ: both done
                } else if selected.is_some() {
                    let from = sig.from;
                    net.send(from, Kind::Drop, stats);
                    state.get_mut(&from).expect("candidate").sent = true;
                } else {
                    st.waiting = true;
                }
            }
            Kind::Exit => {
                st.inactive = true;
                if !st.sent {
                    let from = sig.from;
                    net.send(from, Kind::Drop, stats);
                    state.get_mut(&from).expect("candidate").sent = true;
                }
            }
            Kind::Accept | Kind::Drop => {
                unreachable!("acceptor received {:?}", sig.kind)
            }
        }
    }
    Ok(selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::virtual_exec::{reference_allgather, test_payloads};
    use crate::exec::{Executor, Virtual};
    use crate::lower::lower;
    use nhood_topology::random::erdos_renyi;

    /// The full form under a fault plan, defaults elsewhere.
    fn build_faulty(
        g: &Topology,
        layout: &ClusterLayout,
        fp: &FaultPlan,
        timeout: Duration,
    ) -> Result<DhPattern, BuildError> {
        let (sizes, pool) = (BlockSizes::default(), WorkerPool::serial());
        let metric = LoadMetric::Neighbors;
        build_pattern_distributed_pooled_v(
            g,
            layout,
            Some(fp),
            timeout,
            &sizes,
            metric,
            &pool,
            &NULL,
        )
    }

    fn check(graph: &Topology, layout: &ClusterLayout) -> DhPattern {
        let pat = build_pattern_distributed(graph, layout).expect("builds");
        let plan = Arc::new(lower(&pat, graph));
        plan.validate(graph).expect("exactly-once delivery");
        let payloads = test_payloads(graph.n(), 8, 3);
        let got = Virtual.run_simple(&plan, graph, &payloads).expect("executes");
        assert_eq!(got, reference_allgather(graph, &payloads));
        pat
    }

    #[test]
    fn distributed_negotiation_yields_valid_patterns() {
        for (n, delta) in [(16usize, 0.3), (24, 0.5), (32, 0.1), (17, 0.6)] {
            let g = erdos_renyi(n, delta, 42);
            let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
            check(&g, &layout);
        }
    }

    #[test]
    fn repeated_runs_always_valid_under_scheduling_noise() {
        let g = erdos_renyi(24, 0.4, 9);
        let layout = ClusterLayout::new(3, 2, 4);
        for _ in 0..10 {
            check(&g, &layout);
        }
    }

    #[test]
    fn empty_and_single_socket() {
        let g = Topology::from_edges(8, []);
        let layout = ClusterLayout::new(2, 2, 2);
        let pat = check(&g, &layout);
        assert_eq!(pat.stats.total_signals(), 0);
        let g = erdos_renyi(8, 0.5, 2);
        let one_socket = ClusterLayout::new(1, 1, 8);
        let pat = check(&g, &one_socket);
        assert_eq!(pat.max_steps(), 0);
    }

    #[test]
    fn matches_sequential_structure_on_full_graph() {
        // on the complete graph every search succeeds in both builders,
        // so the aggregate structure must agree even if pairings differ
        let n = 16;
        let g = Topology::from_edges(
            n,
            (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j))),
        );
        let layout = ClusterLayout::new(2, 2, 4);
        let dist = check(&g, &layout);
        let seq = crate::builder::build_pattern(&g, &layout).expect("builds");
        assert_eq!(dist.max_steps(), seq.max_steps());
        assert_eq!(dist.stats.agents_found, seq.stats.agents_found);
        for (d, s) in dist.ranks.iter().zip(&seq.ranks) {
            assert_eq!(d.held_final.len(), s.held_final.len());
        }
    }

    #[test]
    fn signal_counts_respect_two_message_invariant() {
        let g = erdos_renyi(24, 0.5, 4);
        let layout = ClusterLayout::new(3, 2, 4);
        let pat = build_pattern_distributed(&g, &layout).expect("builds");
        let s = &pat.stats;
        // every pairwise exchange is exactly two messages, so the total
        // signal count is even and splits evenly between directions
        assert_eq!(s.total_signals() % 2, 0);
        assert_eq!(s.accept, s.agents_found);
        // proposer-side sends (REQ + EXIT) equal acceptor-side sends
        // (ACCEPT + DROP): one message each way per pair
        assert_eq!(s.req + s.exit, s.accept + s.drop);
    }

    #[test]
    fn survivable_drop_rate_still_builds_valid_patterns() {
        let g = erdos_renyi(24, 0.4, 6);
        let layout = ClusterLayout::new(3, 2, 4);
        // 5% drop with a 5-retry budget: loss odds per signal ≈ 1.6e-8
        let fp = FaultPlan::seeded(31)
            .with_message_drop(0.05)
            .with_message_delay(0.1, Duration::from_micros(300));
        let pat = build_faulty(&g, &layout, &fp, Duration::from_secs(10))
            .expect("survivable schedule must build");
        let plan = Arc::new(lower(&pat, &g));
        plan.validate(&g).expect("exactly-once delivery");
        let payloads = test_payloads(24, 8, 3);
        let got = Virtual.run_simple(&plan, &g, &payloads).expect("executes");
        assert_eq!(got, reference_allgather(&g, &payloads));
    }

    #[test]
    fn unsurvivable_drops_time_out_typed_not_hang() {
        let g = erdos_renyi(16, 0.5, 8);
        let layout = ClusterLayout::new(2, 2, 4);
        // every signal is dropped every time: negotiation cannot proceed
        let fp = FaultPlan::seeded(1).with_message_drop(1.0);
        let t0 = std::time::Instant::now();
        let err = build_faulty(&g, &layout, &fp, Duration::from_millis(100))
            .expect_err("nothing can be negotiated");
        assert!(
            matches!(err, BuildError::NegotiationTimeout { .. }),
            "expected NegotiationTimeout, got {err:?}"
        );
        assert!(t0.elapsed() < Duration::from_secs(10), "must not hang");
    }
}
