//! One negotiation: the joint agent/origin selection of Algorithms 2–3
//! (REQ / ACCEPT / DROP / EXIT) — the matching it computes, and the
//! per-rank transition function that computes it signal by signal.
//!
//! One **round** is half of one halving step: every rank of one half
//! (the *proposers*) runs `find_agent` while every rank of the other half
//! (the *acceptors*) runs `find_origin`.
//!
//! # Scoring and the matching
//!
//! The *score* of a pair is the number of outgoing neighbors the two
//! ranks share **inside the acceptor half** (the paper's matrix-A query);
//! a pair is a candidate iff it shares one, which makes the relation
//! symmetric. `score` gathers it per proposer through the in-neighbor
//! lists, each proposer's candidates best-first by (score desc, acceptor
//! asc). Under [`LoadMetric::Bytes`] shared-count ties break toward the
//! proposer with fewer block bytes; the byte term is the proposer's on
//! both sides of a pair and never makes or breaks candidacy. Both sides
//! thus rank pairs by one order, (score desc, proposer asc, acceptor
//! asc): a round has one stable matching, the greedy one, and every
//! delivery order of the protocol reaches it (docs/ALGORITHM.md §5). The
//! sequential build computes it without a signal: `deferred_acceptance`.
//!
//! # The protocol
//!
//! `step` is the whole protocol, one rank and one signal at a time. It
//! keeps a strict **two-message invariant** — every candidate pair
//! exchanges exactly one message in each direction:
//!
//! * `REQ → / ← ACCEPT` — matched;
//! * `REQ → / ← DROP` — rejected (the acceptor matched someone else, or
//!   the REQ straggled in after the acceptor's broadcast DROP crossed it);
//! * `← DROP / EXIT →` — the acceptor's broadcast DROP reached a proposer
//!   that had never contacted it; the proposer acknowledges;
//! * `EXIT → / ← DROP` — a matched proposer dismisses an acceptor it never
//!   contacted; the acceptor acknowledges.
//!
//! A proposer REQs its best candidate and, on that candidate's DROP, the
//! next live one; once ACCEPTed it EXITs everyone it has not written to.
//! An acceptor ACCEPTs its best live candidate as soon as that one has
//! REQ'd and DROPs everyone it has not written to. A round ends for a rank
//! exactly when every one of its pairs is resolved in both directions, so
//! it sends 2 × pairs signals under every order — an ACCEPT per match, a
//! DROP per other pair; only the REQ / EXIT split moves.
//!
//! # Two signal drivers
//!
//! Both run `step` over a `Round`, a scored round frozen two-sided:
//! `fifo` delivers its signals from one global FIFO queue — the causal
//! replay behind [`negotiation_events`] (Fig. 8), with the per-signal
//! tally, and the tests' oracle; [`build_pattern_distributed_pooled_v`]
//! — the robust path's — makes every rank a machine on the rank runtime,
//! over its fault transport.

use crate::builder::{
    check_inputs, score_step, segments_per_step, step_decisions, BuildError, PatternAssembler,
};
use crate::exec::ExecOptions;
use crate::fault::{FaultPlan, FaultStats};
use crate::pattern::{in_range, range_len, DhPattern, SelectionStats};
use crate::runtime::{self, Clock, Machine, Poll, Port};
use crate::sizes::{BlockSizes, LoadMetric};
use nhood_cluster::{ClusterLayout, WorkerPool};
use nhood_telemetry::labels;
use nhood_topology::{Rank, Topology};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Duration;

/// Default per-signal timeout, on the logical clock: converts protocol
/// bugs (or unsurvivable fault schedules) into errors, not hangs.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(20);

/// A protocol signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Sig {
    Req,
    Accept,
    Drop,
    Exit,
}

/// One observable protocol event, in global causal order: a signal is
/// `Sent` when its sender emits it and `Received` when its receiver
/// processes it. Each rank's subsequence is the blocking send/recv
/// program it ran, which the Fig. 8 harness replays through the network
/// simulator to *measure* the pattern-creation time.
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

/// One scored candidate pair: proposer `p` and acceptor `a` as offsets
/// into their halves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Pair {
    pub(crate) score: usize,
    pub(crate) p: u32,
    pub(crate) a: u32,
}

/// The ranks of `list` (ascending) inside the inclusive `range`.
fn within(list: &[Rank], range: (Rank, Rank)) -> &[Rank] {
    let lo = list.partition_point(|&r| r < range.0);
    let hi = list.partition_point(|&r| r <= range.1);
    &list[lo..hi]
}

/// The scoring kernel: the candidate pairs of proposers `ps` (part of
/// the half `props`) against the acceptor half `accs`, proposer by
/// proposer, each proposer's pairs best-first. It gathers per proposer
/// through `in(t)` for each target `t ∈ out(p)` inside `accs`, touching
/// only O(candidate-edge) cells (the dense counter resets through the
/// touched list): peak memory follows the edge count, not n².
pub(crate) fn score(
    graph: &Topology,
    props: (Rank, Rank),
    accs: (Rank, Rank),
    ps: Range<Rank>,
    sizes: &BlockSizes,
    metric: LoadMetric,
    scale: usize,
) -> Vec<Pair> {
    let mut counts = vec![0u32; range_len(accs)];
    let mut touched: Vec<u32> = Vec::new();
    let mut out = Vec::new();
    for p in ps {
        for &t in within(graph.out_neighbors(p), accs) {
            for &a in within(graph.in_neighbors(t), accs) {
                let ai = (a - accs.0) as u32;
                if counts[ai as usize] == 0 {
                    touched.push(ai);
                }
                counts[ai as usize] += 1;
            }
        }
        let start = out.len();
        out.extend(touched.drain(..).map(|a| {
            let shared = std::mem::take(&mut counts[a as usize]) as usize;
            Pair { score: metric.score(shared, p, sizes, scale), p: (p - props.0) as u32, a }
        }));
        out[start..].sort_unstable_by_key(|c| (Reverse(c.score), c.a));
    }
    out
}

/// One scored round: proposers `props`, acceptors `accs`, and the
/// kernel's output for them in `chunks` (proposer-ascending once joined).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Scored {
    pub(crate) props: Range<Rank>,
    pub(crate) accs: Range<Rank>,
    pub(crate) chunks: Vec<Vec<Pair>>,
}

/// The round's matching, which every delivery order of the protocol
/// reaches, by deferred acceptance: a free proposer walks its best-first
/// row; an acceptor holds its best suitor by (score desc, proposer asc),
/// and the one it drops walks on from where it stopped.
pub(crate) fn deferred_acceptance(round: &Scored) -> Matching {
    let (np, lo) = (round.props.len(), round.props.start.min(round.accs.start));
    let mut rows: Vec<&[Pair]> = vec![&[]; np];
    for row in round.chunks.iter().flat_map(|c| c.chunk_by(|x, y| x.p == y.p)) {
        rows[row[0].p as usize] = row;
    }
    // per acceptor, its suitor's (score, proposer) — `None` < any suitor
    let mut held: Vec<Option<(usize, Reverse<u32>)>> = vec![None; round.accs.len()];
    for first in 0..np as u32 {
        let mut free = Some(first);
        while let Some(p) = free.take() {
            while let Some((c, rest)) = rows[p as usize].split_first() {
                rows[p as usize] = rest;
                let bid = Some((c.score, Reverse(p)));
                if bid > held[c.a as usize] {
                    free = std::mem::replace(&mut held[c.a as usize], bid).map(|(_, q)| q.0);
                    break;
                }
            }
        }
    }
    let mut sel = vec![None; round.props.end.max(round.accs.end) - lo];
    for (a, h) in held.iter().enumerate() {
        if let Some((_, Reverse(p))) = *h {
            let (p, a) = (round.props.start + p as usize, round.accs.start + a);
            (sel[p - lo], sel[a - lo]) = (Some(a), Some(p));
        }
    }
    let pairs = round.chunks.iter().map(Vec::len).sum();
    let agents_found = held.iter().flatten().count();
    let stats = SelectionStats { pairs, agent_searches: np, agents_found, ..Default::default() };
    Matching { sel, stats }
}

/// One round's frozen candidate graph, both sides in one CSR, for the
/// signal drivers. Row `i` is a rank: rows `0..np` the proposers from
/// `p0` up, the rest the acceptors from `a0` up. A row's pairs are
/// `off[i]..off[i + 1]`, best-first; `peer[j]` is the other side's row of
/// pair `j` and `mirror[j]` the same pair's index in that row.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Round {
    p0: Rank,
    a0: Rank,
    np: usize,
    off: Vec<u32>,
    peer: Vec<u32>,
    mirror: Vec<u32>,
}

impl Round {
    /// Freezes a scored round. The acceptor rows are its transpose,
    /// best-first by (score desc, proposer asc) — the comparator both
    /// sides share.
    pub(crate) fn new(round: &Scored) -> Self {
        let (props, accs) = (&round.props, &round.accs);
        let np = props.len();
        let pairs = || round.chunks.iter().flatten();
        let mut off = vec![0u32; np + accs.len() + 1];
        for c in pairs() {
            off[c.p as usize + 1] += 1;
            off[np + c.a as usize + 1] += 1;
        }
        for i in 1..off.len() {
            off[i] += off[i - 1];
        }
        let mut acc: Vec<_> =
            pairs().zip(0u32..).map(|(c, j)| (c.a, Reverse(c.score), c.p, j)).collect();
        acc.sort_unstable();
        let mut peer: Vec<u32> = pairs().map(|c| (np + c.a as usize) as u32).collect();
        let mut mirror = vec![0; peer.len()];
        for (q, &(_, _, p, j)) in (peer.len() as u32..).zip(&acc) {
            mirror[j as usize] = q;
            peer.push(p);
            mirror.push(j);
        }
        Self { p0: props.start, a0: accs.start, np, off, peer, mirror }
    }

    /// Ranks in the round (proposers and acceptors).
    fn rows(&self) -> usize {
        self.off.len() - 1
    }

    /// Row `i`'s pairs.
    fn row(&self, i: usize) -> Range<usize> {
        self.off[i] as usize..self.off[i + 1] as usize
    }

    /// The rank of row `i`.
    fn rank(&self, i: usize) -> Rank {
        if i < self.np {
            self.p0 + i
        } else {
            self.a0 + i - self.np
        }
    }

    /// The ranks the round spans, lowest to highest: its two halves, and
    /// any gap a hand-built round leaves between them.
    fn span(&self) -> Range<Rank> {
        let na = self.rows() - self.np;
        self.p0.min(self.a0)..(self.p0 + self.np).max(self.a0 + na)
    }

    /// The row of rank `r`.
    fn row_of(&self, r: Rank) -> usize {
        if (self.p0..self.p0 + self.np).contains(&r) {
            r - self.p0
        } else {
            self.np + r - self.a0
        }
    }
}

/// Pair flags: what a rank has done and heard on one pair.
const SENT: u8 = 1;
const RECEIVED: u8 = 2;
const INACTIVE: u8 = 4;
const WAITING: u8 = 8;
/// A pair that has carried its one signal each way.
const RESOLVED: u8 = SENT | RECEIVED;

/// A rank's protocol state in one round besides its pair flags.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RankState {
    /// A proposer's outstanding REQ; an acceptor's first possibly live
    /// candidate.
    cursor: u32,
    /// The selected pair: a proposer's agent, an acceptor's origin.
    sel: Option<u32>,
    /// Pairs not yet resolved in both directions; the round is over for
    /// the rank at 0.
    open: u32,
}

/// Sets `bits` on pair `k`, closing it once it is resolved both ways.
fn mark(flags: &mut [u8], me: &mut RankState, k: usize, bits: u8) {
    debug_assert_eq!(flags[k] & bits, 0, "a second signal one way on a pair");
    if flags[k] & RESOLVED != RESOLVED && (flags[k] | bits) & RESOLVED == RESOLVED {
        me.open -= 1;
    }
    flags[k] |= bits;
}

/// The protocol: rank `me` — a proposer or an acceptor, with `flags` one
/// per candidate, best-first — handles `input` (its round's start, or
/// signal `sig` on pair `k`) and `emit`s what it sends, in order, as
/// `(pair, signal)`. The module doc has the rules.
pub(crate) fn step(
    proposer: bool,
    flags: &mut [u8],
    me: &mut RankState,
    input: Option<(usize, Sig)>,
    emit: &mut dyn FnMut(usize, Sig),
) {
    let mut send = |flags: &mut [u8], me: &mut RankState, k: usize, sig: Sig| {
        mark(flags, me, k, SENT);
        emit(k, sig);
    };
    match input {
        None => {
            *me = RankState { open: flags.len() as u32, ..RankState::default() };
            if proposer && !flags.is_empty() {
                send(flags, me, 0, Sig::Req);
            }
        }
        Some((k, sig)) => {
            mark(flags, me, k, RECEIVED);
            // the signal's kind names the side it reaches: ACCEPT and DROP
            // travel to proposers, REQ and EXIT to acceptors
            match sig {
                Sig::Accept => {
                    me.sel = Some(k as u32);
                    for j in 0..flags.len() {
                        if flags[j] & SENT == 0 {
                            send(flags, me, j, Sig::Exit);
                        }
                    }
                }
                Sig::Drop => {
                    flags[k] |= INACTIVE;
                    if flags[k] & SENT == 0 {
                        send(flags, me, k, Sig::Exit);
                    } else if me.sel.is_none() && me.cursor as usize == k {
                        // our REQ was refused: ask the next live candidate
                        let next =
                            (k + 1..flags.len()).find(|&j| flags[j] & (SENT | INACTIVE) == 0);
                        if let Some(j) = next {
                            me.cursor = j as u32;
                            send(flags, me, j, Sig::Req);
                        }
                    }
                }
                Sig::Req => {
                    if flags[k] & SENT != 0 {
                        // our DROP crossed it: the pair is resolved
                    } else if me.sel.is_some() {
                        send(flags, me, k, Sig::Drop);
                    } else {
                        flags[k] |= WAITING;
                    }
                }
                Sig::Exit => {
                    flags[k] |= INACTIVE;
                    if flags[k] & SENT == 0 {
                        send(flags, me, k, Sig::Drop);
                    }
                }
            }
        }
    }
    if !proposer && me.sel.is_none() {
        // accept the best live candidate as soon as it has asked
        let mut c = me.cursor as usize;
        while c < flags.len() && flags[c] & (SENT | INACTIVE) != 0 {
            c += 1;
        }
        me.cursor = c as u32;
        if c < flags.len() && flags[c] & WAITING != 0 {
            me.sel = Some(c as u32);
            send(flags, me, c, Sig::Accept);
            for j in 0..flags.len() {
                if flags[j] & SENT == 0 {
                    send(flags, me, j, Sig::Drop);
                }
            }
        }
    }
}

/// One round's outcome: `sel[r - lowest]` is what rank `r` selected (a
/// proposer its agent, an acceptor its origin), `lowest` the round's
/// lowest rank, plus the round's tallies.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Matching {
    pub(crate) sel: Vec<Option<Rank>>,
    pub(crate) stats: SelectionStats,
}

/// A signal in flight: its receiver's row, the pair as an index into the
/// round's table (in the receiver's row), and its kind.
pub(crate) type Flight = (u32, u32, Sig);

/// The FIFO driver: one round, every signal delivered in the order it
/// was sent. With `log`, every send and receive is appended to it in
/// causal order.
pub(crate) fn fifo(round: &Round, log: Option<&mut Vec<Event>>) -> (Vec<Option<Rank>>, [usize; 4]) {
    drive(round, log, VecDeque::pop_front)
}

/// Runs a round to the end, delivering the signal `next` takes off the
/// queue of those in flight (any one: at most one signal per direction of
/// a pair is ever in flight, so any order keeps per-link FIFO), into the
/// selections (as [`Matching::sel`]) and the signals sent by kind
/// (`Sig as usize`: REQ, ACCEPT, DROP, EXIT).
pub(crate) fn drive(
    round: &Round,
    mut log: Option<&mut Vec<Event>>,
    mut next: impl FnMut(&mut VecDeque<Flight>) -> Option<Flight>,
) -> (Vec<Option<Rank>>, [usize; 4]) {
    let mut flags = vec![0u8; round.peer.len()];
    let mut state = vec![RankState::default(); round.rows()];
    let mut queue = VecDeque::new();
    let mut sent = [0; 4];
    let mut deliver = |i: usize,
                       input,
                       queue: &mut VecDeque<Flight>,
                       log: &mut Option<&mut Vec<Event>>| {
        let row = round.row(i);
        step(i < round.np, &mut flags[row.clone()], &mut state[i], input, &mut |k, sig| {
            let j = row.start + k;
            sent[sig as usize] += 1;
            if let Some(l) = log.as_deref_mut() {
                l.push(Event::Sent { from: round.rank(i), to: round.rank(round.peer[j] as usize) });
            }
            queue.push_back((round.peer[j], round.mirror[j], sig));
        });
    };
    for i in 0..round.rows() {
        deliver(i, None, &mut queue, &mut log);
    }
    while let Some((to, pair, sig)) = next(&mut queue) {
        let (to, pair) = (to as usize, pair as usize);
        if let Some(l) = log.as_deref_mut() {
            let from = round.rank(round.peer[pair] as usize);
            l.push(Event::Received { by: round.rank(to), from });
        }
        deliver(to, Some((pair - round.off[to] as usize, sig)), &mut queue, &mut log);
    }
    debug_assert!(state.iter().all(|s| s.open == 0), "a round ended with a pair unresolved");
    let span = round.span();
    let mut sel = vec![None; span.len()];
    for (i, s) in state.iter().enumerate() {
        let peer = s.sel.map(|k| round.peer[round.off[i] as usize + k as usize] as usize);
        sel[round.rank(i) - span.start] = peer.map(|row| round.rank(row));
    }
    (sel, sent)
}

/// One halving step: its active segments and their rounds, frozen for
/// the signal drivers (two per segment, A then B).
type ScoredStep = (Vec<(Rank, Rank)>, Vec<Round>);

/// Every halving step of `graph` at `l` ranks per socket, frozen.
fn scored_steps(
    graph: &Topology,
    l: usize,
    sizes: &BlockSizes,
    metric: LoadMetric,
    pool: &WorkerPool,
) -> Vec<ScoredStep> {
    let step = |active: Vec<(Rank, Rank)>| {
        let rounds = score_step(graph, &active, sizes, metric, pool);
        (active, rounds.iter().map(Round::new).collect())
    };
    segments_per_step(graph.n(), l).map(step).collect()
}

/// Every signal of `graph`'s Distance Halving negotiation on `layout`
/// (block placement; count-based scoring), round by round through the
/// FIFO driver, in causal order — what Fig. 8 replays through the
/// network simulator.
pub fn negotiation_events(graph: &Topology, layout: &ClusterLayout) -> Vec<Event> {
    let (mut log, sizes, serial) = (Vec::new(), BlockSizes::default(), WorkerPool::serial());
    let steps =
        scored_steps(graph, layout.ranks_per_socket(), &sizes, LoadMetric::Neighbors, &serial);
    for round in steps.iter().flat_map(|(_, rounds)| rounds) {
        fifo(round, Some(&mut log));
    }
    log
}

/// Builds the Distance Halving pattern by running the negotiation rank
/// by rank on the logical clock — fault-free, so first come, first
/// served — under [`RECV_TIMEOUT`], with count-based scoring, unrecorded:
/// the defaults of [`build_pattern_distributed_pooled_v`]. The pattern is
/// [`crate::builder::build_pattern`]'s, statistics included: the matching
/// and the tallies do not depend on the order signals cross in.
pub fn build_pattern_distributed(
    graph: &Topology,
    layout: &ClusterLayout,
) -> Result<DhPattern, BuildError> {
    let (sizes, metric, pool) =
        (BlockSizes::default(), LoadMetric::Neighbors, WorkerPool::serial());
    let opts = ExecOptions::new().recv_timeout(RECV_TIMEOUT);
    build_pattern_distributed_pooled_v(graph, layout, &sizes, metric, &pool, &opts)
}

/// The full form of [`build_pattern_distributed`] — every input a
/// negotiation takes: the module's scoring (`sizes`, `metric`; `pool`
/// scores the rounds) and `opts`, the transport the ranks negotiate over.
/// Its fault plan perturbs the signals (drops are retried within its
/// retry budget, delays deliver late, slow ranks stall at step entry;
/// duplication is not applied — the two-message invariant assumes
/// exactly-once delivery, as MPI's), its sink tallies the faults, its
/// recorder gets a `negotiate` span per rank and step, a round event per
/// role and a retry event per retransmission. A rank that hears nothing
/// for `opts.recv_timeout` returns [`BuildError::NegotiationTimeout`],
/// and the first timeout ends the negotiation (of those at one instant,
/// the lowest rank's). The ranks run on the logical clock — a timeout
/// costs no wall time — in the order the fault plan's seed draws (first
/// come, first served without one): a fault schedule replays exactly.
pub fn build_pattern_distributed_pooled_v(
    graph: &Topology,
    layout: &ClusterLayout,
    sizes: &BlockSizes,
    metric: LoadMetric,
    pool: &WorkerPool,
    opts: &ExecOptions<'_>,
) -> Result<DhPattern, BuildError> {
    check_inputs(graph, layout)?;
    let steps = scored_steps(graph, layout.ranks_per_socket(), sizes, metric, pool);
    let mut ranks: Vec<Negotiator> = (0..graph.n())
        .map(|p| Negotiator {
            p,
            steps: &steps,
            opts,
            picks: Vec::with_capacity(steps.len()),
            round: None,
            flags: Vec::new(),
            me: RankState::default(),
            early: Vec::new(),
            heard: Duration::ZERO,
        })
        .collect();
    let (local, clock) = (FaultStats::default(), Clock::Logical(opts.fault.map(FaultPlan::seed)));
    runtime::run(&mut ranks, opts, opts.fault_sink.unwrap_or(&local), clock)?;
    // (a match is two picks: the proposer's agent and the acceptor's origin)
    let picks = ranks.iter().flat_map(|rank| rank.picks.iter().flatten());
    let mut stats =
        SelectionStats { agents_found: picks.flatten().count() / 2, ..Default::default() };
    let mut asm = PatternAssembler::new(graph, layout.ranks_per_socket());
    for (t, (active, rounds)) in steps.iter().enumerate() {
        for round in rounds {
            stats.pairs += round.peer.len() / 2;
            stats.agent_searches += round.np;
        }
        asm.step(&step_decisions(active, |_, p| ranks[p].picks[t]));
    }
    Ok(asm.finish(&stats))
}

/// One signal between negotiating ranks: its step and round, the pair it
/// travels (an index into the round's table, in the receiver's row) and
/// its kind.
#[derive(Clone, Copy, Debug)]
struct Signal {
    step: u32,
    round: u8,
    pair: u32,
    sig: Sig,
}

/// One negotiating rank: per halving step it stalls as the fault plan
/// says, then plays its role in round A (the lower half proposes) and in
/// round B (the upper half does) — Algorithm 1 lines 14–24.
struct Negotiator<'a> {
    p: Rank,
    steps: &'a [ScoredStep],
    opts: &'a ExecOptions<'a>,
    /// Per step entered, its selection in round A and in round B.
    picks: Vec<[Option<Rank>; 2]>,
    /// The round being played (0 or 1) among the step's two tables, and
    /// the rank's pair flags and state in it.
    round: Option<(u8, &'a [Round])>,
    flags: Vec<u8>,
    me: RankState,
    /// Signals not handled yet (of later rounds, or since the last poll),
    /// and when the rank last heard anything: its timeout runs from there.
    early: Vec<Signal>,
    heard: Duration,
}

impl Machine for Negotiator<'_> {
    type Msg = Signal;
    type Error = BuildError;

    fn poll(
        &mut self,
        inbox: &mut Vec<Signal>,
        port: &mut Port<'_, Signal>,
    ) -> Result<Poll, BuildError> {
        let (p, rec) = (self.p, self.opts.recorder);
        if !inbox.is_empty() {
            self.heard = port.now;
            self.early.append(inbox);
        }
        loop {
            let Some((r, tables)) = self.round else {
                // enter the next step, if the rank's segment plays it
                let Some((active, rounds)) = self.steps.get(self.picks.len()) else {
                    return Ok(Poll::Done);
                };
                self.picks.push([None; 2]);
                let si = active.partition_point(|s| s.1 < p);
                if active.get(si).is_some_and(|&s| in_range(p, s)) {
                    port.enter(p, None);
                    rec.span_begin(p, labels::NEGOTIATE);
                    self.step(0, &rounds[2 * si..2 * si + 2], None, port);
                }
                continue;
            };
            let t = self.picks.len() - 1;
            let mut early = std::mem::take(&mut self.early);
            early.retain(|&s| {
                let later = (s.step as usize, s.round) != (t, r);
                if !later {
                    self.step(r, tables, Some(s), port);
                }
                later
            });
            self.early = early;
            if self.me.open > 0 {
                let deadline = self.heard.saturating_add(self.opts.recv_timeout);
                if port.now >= deadline {
                    return Err(BuildError::NegotiationTimeout { rank: p, step: t, round: r });
                }
                return Ok(Poll::Blocked { deadline });
            }
            let (table, sel) = (&tables[r as usize], self.me.sel);
            let row = table.row(table.row_of(p));
            self.picks[t][r as usize] =
                sel.map(|k| table.rank(table.peer[row.start + k as usize] as usize));
            if r == 0 {
                self.step(1, tables, None, port);
            } else {
                self.round = None;
                rec.span_end(p, labels::NEGOTIATE);
                return Ok(Poll::Ready);
            }
        }
    }

    fn panicked(&self, payload: Box<dyn Any + Send>) -> BuildError {
        // a broken protocol invariant: re-raise it on the caller
        std::panic::resume_unwind(payload)
    }
}

impl<'a> Negotiator<'a> {
    /// Runs `step` on the rank's row of round `r` of the step's `tables`
    /// — opening the round when `input` is `None` — and sends what it
    /// emits.
    fn step(
        &mut self,
        r: u8,
        tables: &'a [Round],
        input: Option<Signal>,
        port: &mut Port<'_, Signal>,
    ) {
        let (table, p, t) = (&tables[r as usize], self.p, self.picks.len() - 1);
        let i = table.row_of(p);
        let (row, proposer) = (table.row(i), i < table.np);
        if input.is_none() {
            self.opts.recorder.negotiation_round(p);
            self.flags.clear();
            self.flags.resize(row.len(), 0);
            (self.round, self.heard) = (Some((r, tables)), port.now);
        }
        let input = input.map(|s| (s.pair as usize - row.start, s.sig));
        step(proposer, &mut self.flags, &mut self.me, input, &mut |k, sig| {
            let j = row.start + k;
            let signal = Signal { step: t as u32, round: r, pair: table.mirror[j], sig };
            // one signal per direction per pair per round: (step, round)
            // identifies it on its (src, dst) link
            let tag = (t as u64) << 1 | u64::from(r);
            let _never_refused =
                port.send(p, table.rank(table.peer[j] as usize), tag, None, signal);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_pattern_recorded_v, PairingStrategy};
    use crate::lower::lower;
    use nhood_telemetry::NULL;
    use nhood_topology::random::erdos_renyi;
    use nhood_topology::rng::{hash_mix, DetRng};
    use std::collections::HashMap;

    /// Checks one driven round against the protocol's contract, and
    /// returns its statistics.
    fn check_round(round: &Round, (sel, sent): &(Vec<Option<Rank>>, [usize; 4])) -> SelectionStats {
        // every pair resolved both ways: exactly one signal each way, an
        // ACCEPT per match and a DROP for every other pair
        let [req, accept, drop, exit] = *sent;
        let (pairs, agents_found) = (round.peer.len() / 2, sel.iter().flatten().count() / 2);
        assert_eq!(sent.iter().sum::<usize>(), 2 * pairs, "a pair left unresolved");
        assert_eq!(req + exit, accept + drop);
        assert_eq!((accept, drop), (agents_found, pairs - agents_found));
        let sel = |r: Rank| sel[r - round.span().start];
        let cands = |i: usize| round.row(i).map(|j| round.rank(round.peer[j] as usize));
        for i in 0..round.rows() {
            let r = round.rank(i);
            if let Some(peer) = sel(r) {
                assert_eq!(sel(peer), Some(r), "{r} -> {peer} is not mutual");
                assert!(cands(i).any(|c| c == peer), "{r} -> {peer} is no candidate pair");
            } else if i < round.np {
                let free = cands(i).find(|&c| sel(c).is_none());
                assert_eq!(free, None, "proposer {r} and acceptor {free:?} both unmatched");
            }
        }
        SelectionStats { pairs, agent_searches: round.np, agents_found, ..Default::default() }
    }

    /// The pattern of `steps`' scored rounds, every round driven in the
    /// delivery order `seed` draws (0: global FIFO).
    fn drive_all(graph: &Topology, l: usize, steps: &[ScoredStep], seed: u64) -> DhPattern {
        let mut stats = SelectionStats::default();
        let mut asm = PatternAssembler::new(graph, l);
        for (t, (active, rounds)) in steps.iter().enumerate() {
            let sels: Vec<Vec<Option<Rank>>> = rounds
                .iter()
                .enumerate()
                .map(|(ri, round)| {
                    let mut rng = DetRng::seed_from_u64(hash_mix(&[seed, t as u64, ri as u64]));
                    let replay = match seed {
                        0 => fifo(round, None),
                        _ => drive(round, None, |q| {
                            let at = (!q.is_empty()).then(|| rng.gen_below(q.len()));
                            at.and_then(|i| q.swap_remove_back(i))
                        }),
                    };
                    stats.merge(&check_round(round, &replay));
                    replay.0
                })
                .collect();
            asm.step(&step_decisions(active, |si, p| {
                let at = |sel: &Vec<Option<Rank>>| sel[p - active[si].0];
                [at(&sels[2 * si]), at(&sels[2 * si + 1])]
            }));
        }
        asm.finish(&stats)
    }

    /// Drives `graph`'s negotiation under 1,000 seeded delivery orders
    /// (seed 0: global FIFO): every round satisfies [`check_round`], and
    /// every pattern lowers to a valid plan and is the one
    /// `build_pattern_recorded_v` computes without a signal — the same
    /// rows and the same order-free statistics.
    fn any_delivery_order(graph: &Topology, sizes: &BlockSizes, metric: LoadMetric) {
        let serial = WorkerPool::serial();
        let layout = ClusterLayout::new(graph.n().div_ceil(8), 2, 4);
        let l = layout.ranks_per_socket();
        let steps = scored_steps(graph, l, sizes, metric, &serial);
        let strategy = PairingStrategy::LoadAware;
        let built =
            build_pattern_recorded_v(graph, &layout, strategy, sizes, metric, &serial, &NULL);
        let built = built.unwrap();
        for seed in 0..1_000 {
            let pattern = drive_all(graph, l, &steps, seed);
            lower(&pattern, graph)
                .validate(graph)
                .unwrap_or_else(|e| panic!("n = {} seed {seed}: {e}", graph.n()));
            assert!(pattern.same_rows(&built), "n = {} seed {seed}", graph.n());
            assert_eq!(pattern.stats, built.stats, "n = {} seed {seed}", graph.n());
        }
    }

    #[test]
    fn any_delivery_order_negotiates_a_sparse_prime_graph() {
        any_delivery_order(
            &erdos_renyi(31, 0.05, 1),
            &BlockSizes::default(),
            LoadMetric::Neighbors,
        );
    }

    #[test]
    fn any_delivery_order_negotiates_a_medium_prime_graph() {
        any_delivery_order(&erdos_renyi(37, 0.3, 2), &BlockSizes::default(), LoadMetric::Neighbors);
    }

    #[test]
    fn any_delivery_order_negotiates_a_dense_prime_graph() {
        any_delivery_order(&erdos_renyi(23, 0.7, 3), &BlockSizes::default(), LoadMetric::Neighbors);
    }

    #[test]
    fn any_delivery_order_negotiates_around_isolated_ranks() {
        let g = erdos_renyi(40, 0.3, 5);
        let alone = |r: Rank| [0, 13, 39].contains(&r);
        let g = Topology::from_edges(40, g.edges().filter(|&(s, d)| !alone(s) && !alone(d)));
        any_delivery_order(&g, &BlockSizes::default(), LoadMetric::Neighbors);
    }

    #[test]
    fn any_delivery_order_negotiates_a_ragged_table_by_bytes() {
        let ragged = BlockSizes::per_rank((0..29).map(|r| [0, 8, 64, 8, 512][r % 5]).collect());
        any_delivery_order(&erdos_renyi(29, 0.3, 4), &ragged, LoadMetric::Bytes);
    }

    /// The robust negotiation under 1,000 fault seeds — drops past the
    /// retry budget, delays and a straggler — on the logical clock. Each
    /// gives a pattern that lowers to a valid plan or a typed
    /// `NegotiationTimeout`; a seed run twice gives the same pattern,
    /// field for field, or the same error. Neither the matching nor the
    /// tallies depend on the order signals cross in, so every pattern
    /// that builds is the sequential build's, field for field.
    #[test]
    fn any_fault_seed_negotiates_or_times_out_typed_and_replays() {
        use crate::fault::FaultPlan;
        let g = erdos_renyi(23, 0.3, 7);
        let g = Topology::from_edges(23, g.edges().filter(|&(s, d)| ![4, 17].contains(&s.max(d))));
        let layout = ClusterLayout::new(3, 2, 4);
        let (sizes, serial, metric) =
            (BlockSizes::default(), WorkerPool::serial(), LoadMetric::Neighbors);
        let mut built = 0;
        let sequential = crate::builder::build_pattern(&g, &layout).expect("builds");
        for seed in 0..1_000u64 {
            let fp = FaultPlan::seeded(seed)
                .with_message_drop(0.3)
                .with_message_delay(0.2, Duration::from_micros(300))
                .with_slow_rank(seed as usize % 23, Duration::from_millis(1));
            let opts = ExecOptions::new().recv_timeout(Duration::from_millis(5)).fault(&fp);
            let run =
                || build_pattern_distributed_pooled_v(&g, &layout, &sizes, metric, &serial, &opts);
            let first = run();
            let again = run();
            assert_eq!(first, again, "seed {seed}");
            match first {
                Ok(pattern) => {
                    built += 1;
                    lower(&pattern, &g).validate(&g).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                    assert_eq!(pattern, sequential, "seed {seed}: not the sequential build");
                }
                Err(e) => {
                    assert!(matches!(e, BuildError::NegotiationTimeout { .. }), "seed {seed}: {e}")
                }
            }
        }
        assert!((1..1_000).contains(&built), "{built} of 1,000 seeds built: one outcome untested");
    }

    /// One rank's `step`, collecting what it sends.
    fn fire(
        proposer: bool,
        flags: &mut [u8],
        me: &mut RankState,
        input: Option<(usize, Sig)>,
    ) -> Vec<(usize, Sig)> {
        let mut out = Vec::new();
        step(proposer, flags, me, input, &mut |k, sig| out.push((k, sig)));
        out
    }

    #[test]
    fn a_req_crossing_a_broadcast_drop_resolves_the_pair_in_two_messages() {
        // the proposer: its REQ to its best candidate is refused by a DROP
        // that was already on its way; it asks the next one
        let (mut flags, mut me) = ([0u8; 2], RankState::default());
        assert_eq!(fire(true, &mut flags, &mut me, None), [(0, Sig::Req)]);
        assert_eq!(fire(true, &mut flags, &mut me, Some((0, Sig::Drop))), [(1, Sig::Req)]);
        assert_eq!(me.open, 1, "the crossed pair is resolved, the new REQ is not");
        // the acceptor: it matched its best and broadcast DROP, then the
        // straggling REQ lands — the pair is already resolved, no reply
        let (mut flags, mut me) = ([0u8; 2], RankState::default());
        assert!(fire(false, &mut flags, &mut me, None).is_empty());
        let accepted = fire(false, &mut flags, &mut me, Some((0, Sig::Req)));
        assert_eq!(accepted, [(0, Sig::Accept), (1, Sig::Drop)]);
        assert!(fire(false, &mut flags, &mut me, Some((1, Sig::Req))).is_empty());
        assert_eq!((me.open, me.sel), (0, Some(0)));
    }

    #[test]
    fn an_unmatched_acceptor_acknowledges_an_exit_and_then_accepts_its_next_best() {
        // The rule whose absence keeps the published `c_s + c_r = c_t`
        // counter from terminating: the EXIT gets its DROP.
        let (mut flags, mut me) = ([0u8; 2], RankState::default());
        fire(false, &mut flags, &mut me, None);
        // the second-best asks first: wait for the best
        assert!(fire(false, &mut flags, &mut me, Some((1, Sig::Req))).is_empty());
        // the best matched elsewhere and dismisses us
        let out = fire(false, &mut flags, &mut me, Some((0, Sig::Exit)));
        assert_eq!(out, [(0, Sig::Drop), (1, Sig::Accept)]);
        assert_eq!((me.open, me.sel), (0, Some(1)));
    }

    /// Deferred acceptance against the FIFO replay on generated rounds:
    /// ER shapes with prime n, isolated ranks (odd seeds), both metrics —
    /// `Bytes` over a ragged table — and four or eight ranks a socket.
    /// Every round's selections and order-free tallies agree: `pairs`,
    /// `agents_found`, and the replay's ACCEPT and DROP counts.
    #[test]
    fn deferred_acceptance_is_the_fifo_matching_on_generated_rounds() {
        let serial = WorkerPool::serial();
        let mut rounds = 0;
        for seed in 0..6u64 {
            for (n, delta) in [(31, 0.05), (37, 0.3), (53, 0.6), (64, 0.15), (97, 0.1)] {
                let mut g = erdos_renyi(n, delta, seed);
                if seed % 2 == 1 {
                    let alone = |r: Rank| [0, n / 2, n - 1].contains(&r);
                    g = Topology::from_edges(n, g.edges().filter(|&(s, d)| !alone(s) && !alone(d)));
                }
                let ragged = (0..n).map(|r| (r * 7 + seed as usize) % 5 * 16).collect();
                let tables = [
                    (BlockSizes::default(), LoadMetric::Neighbors),
                    (BlockSizes::per_rank(ragged), LoadMetric::Bytes),
                ];
                for ((sizes, metric), l) in tables.iter().flat_map(|t| [(t, 4), (t, 8)]) {
                    for active in segments_per_step(n, l) {
                        for scored in score_step(&g, &active, sizes, *metric, &serial) {
                            let direct = deferred_acceptance(&scored);
                            let round = Round::new(&scored);
                            let replay = fifo(&round, None);
                            let at = format!("n = {n} seed {seed} l = {l} {metric:?}");
                            assert_eq!(direct.sel, replay.0, "{at}");
                            assert_eq!(direct.stats, check_round(&round, &replay), "{at}");
                            rounds += 1;
                        }
                    }
                }
            }
        }
        assert!(rounds > 500, "{rounds} rounds");
    }

    #[test]
    fn the_kernel_scores_shared_out_neighbors_inside_the_acceptor_half() {
        use std::collections::BTreeSet;
        let g = erdos_renyi(45, 0.2, 9);
        let (sizes, serial) = (BlockSizes::default(), WorkerPool::serial());
        for (active, rounds) in scored_steps(&g, 4, &sizes, LoadMetric::Neighbors, &serial) {
            let (_, lower, upper) = crate::pattern::split_half(active[0].0, active[0].1);
            for (round, props, accs) in [(&rounds[0], lower, upper), (&rounds[1], upper, lower)] {
                // the model: shared outgoing neighbors inside the acceptor half
                let outs = |r: Rank| -> BTreeSet<Rank> {
                    g.out_neighbors(r).iter().copied().filter(|&t| in_range(t, accs)).collect()
                };
                let shared = |r: Rank, c: Rank| outs(r).intersection(&outs(c)).count();
                for i in 0..round.rows() {
                    let (r, others) = (round.rank(i), if i < round.np { accs } else { props });
                    // best-first by (score desc, rank asc), candidates only
                    let mut want: Vec<Rank> =
                        (others.0..=others.1).filter(|&c| shared(r, c) > 0).collect();
                    want.sort_by_key(|&c| (Reverse(shared(r, c)), c));
                    let got: Vec<Rank> =
                        round.row(i).map(|j| round.rank(round.peer[j] as usize)).collect();
                    assert_eq!(got, want, "rank {r}");
                    // every pair's mirror is the same pair seen from its peer
                    for j in round.row(i) {
                        let m = round.mirror[j] as usize;
                        assert_eq!((round.mirror[m] as usize, round.peer[m] as usize), (j, i));
                    }
                }
            }
        }
    }

    #[test]
    fn pooled_scoring_freezes_the_serial_tables() {
        // 130 ranks: the first step's halves span three scoring chunks
        let g = erdos_renyi(130, 0.1, 3);
        let ragged = BlockSizes::per_rank((0..130).map(|r| r % 7 * 16).collect());
        for (sizes, metric) in
            [(BlockSizes::default(), LoadMetric::Neighbors), (ragged, LoadMetric::Bytes)]
        {
            let serial = scored_steps(&g, 8, &sizes, metric, &WorkerPool::serial());
            for threads in [2, 3] {
                assert_eq!(scored_steps(&g, 8, &sizes, metric, &WorkerPool::new(threads)), serial);
            }
        }
    }

    #[test]
    fn the_event_log_carries_every_signal_of_the_fifo_build_once_each_way() {
        let g = erdos_renyi(48, 0.2, 6);
        let layout = ClusterLayout::new(6, 2, 4);
        let log = negotiation_events(&g, &layout);
        let built = crate::builder::build_pattern(&g, &layout).unwrap();
        assert_eq!(log.len(), 2 * built.stats.total_signals());
        // causal: a link never delivers more than it has carried
        let mut in_flight: HashMap<(Rank, Rank), i64> = HashMap::new();
        for ev in &log {
            let (link, d) = match *ev {
                Event::Sent { from, to } => ((from, to), 1),
                Event::Received { by, from } => ((from, by), -1),
            };
            let n = in_flight.entry(link).or_default();
            *n += d;
            assert!(*n >= 0, "{link:?} delivered a signal before it was sent");
        }
        assert!(in_flight.values().all(|&n| n == 0), "a signal was never received");
    }
}
