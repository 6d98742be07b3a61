//! The replay engine: a structure prepared once, a run per request.
//!
//! [`Engine::prepare`] does what no message size changes — it validates
//! the schedule, derives each phase's receives from the sends and places
//! each rank — and keeps it as a compact [`Prepared`] structure (`u32`
//! offsets, each send's endpoints and tag, each row's receives as send
//! ids, one place per rank). [`Engine::run_prepared`] checks one request's
//! [`PriceColumns`] and replays a lean event loop over flat arrays: ready
//! heap keyed by port time, arrivals drained in arrival order, each
//! message priced by the Hockney model as it is issued and drained. Every
//! `Engine::run*` entry point is the two at the schedule's own prices; a
//! caller that keeps the structure (the core's `BlockArena`, per plan)
//! pays only the run.
//!
//! Preparing is one pass in program order: it checks every send's
//! owner, range and receiving phase, refuses a repeated `(src, dst, tag)`
//! key ([`crate::SendIndex`]: a counting sort by destination), then
//! indexes the receives — a counting sort of send ids by receiving row,
//! ascending within a row. No hash map is touched anywhere on this path.
//!
//! ## Determinism contract
//!
//! Reports are **bit-identical** (`to_bits`) however often a structure
//! is rerun. A send's id is its row in the schedule's send table —
//! program order (rank, phase, index), fixed when the schedule was
//! written. No run writes to a structure; the replay performs
//! every floating-point operation in one fixed order; the one batch of
//! heap pushes whose order depends on iteration (the bootstrap waiter
//! sweep) pushes ranks whose keys are already fixed — a binary heap pops
//! the minimum of its contents regardless of insertion order, and ranks
//! are heap-unique so ties cannot arise. `docs/SCALE.md` documents the
//! contract; golden constants captured from the retired hash-map engine
//! pin the arithmetic, and the tests below check it across schedules, NIC
//! modes, perturbations, prices and reruns.

use crate::engine::{Engine, Key, LevelStats, NicMode, SimError, SimReport};
use crate::perturb::Perturbation;
use crate::schedule::{Msg, PriceColumns, Schedule, SendIndex};
use nhood_cluster::{Locality, Rank};
use nhood_telemetry::{labels, Recorder, Traffic};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Sentinel: no rank waits on this send.
const NONE: u32 = u32::MAX;

/// Where a rank sits: one table entry per rank, built once per
/// structure, instead of a div/mod location per message endpoint.
#[derive(Clone, Copy, Debug)]
struct Place {
    node: u32,
    socket: u32,
    group: u32,
}

impl Place {
    /// [`nhood_cluster::ClusterLayout::locality`] from two table entries.
    fn locality(self, other: Place) -> Locality {
        match (self.node == other.node, self.socket == other.socket, self.group == other.group) {
            (true, true, _) => Locality::SameSocket,
            (true, false, _) => Locality::SameNode,
            (false, _, true) => Locality::SameGroup,
            (false, _, false) => Locality::RemoteGroup,
        }
    }
}

/// A schedule's structure: validated, indexed and placed; see the
/// [module docs](self).
#[derive(Clone, Debug)]
pub struct Prepared {
    /// Rank `r`'s phase rows are `rank_rows[r]..rank_rows[r + 1]`.
    rank_rows: Vec<u32>,
    /// Where each row's send ids and receives end.
    row_ends: Vec<(u32, u32)>,
    /// Per send: `(tag, src, dst)`.
    sends: Vec<(u64, u32, u32)>,
    /// The receives, row by row: send ids, ascending within a row.
    received: Vec<u32>,
    place: Vec<Place>,
    nodes: usize,
    groups: usize,
}

impl Prepared {
    /// Empty price columns with room for this structure's messages and
    /// rows, for a lowering to fill.
    pub fn price_columns(&self) -> PriceColumns {
        PriceColumns {
            send_bytes: Vec::with_capacity(self.sends.len()),
            local_seconds: Vec::with_capacity(self.row_ends.len()),
        }
    }

    fn rows(&self, r: Rank) -> Range<usize> {
        self.rank_rows[r] as usize..self.rank_rows[r + 1] as usize
    }

    /// The send ids of the phase rows `rows`, and where their receives
    /// sit in `received`.
    fn msgs(&self, rows: Range<usize>) -> (Range<usize>, Range<usize>) {
        let end = |p: usize| p.checked_sub(1).map_or((0, 0), |q| self.row_ends[q]);
        let ((send_lo, recv_lo), (send_hi, recv_hi)) = (end(rows.start), end(rows.end));
        (send_lo as usize..send_hi as usize, recv_lo as usize..recv_hi as usize)
    }

    /// The send ids phase row `p` receives, ascending.
    fn receives(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        self.received[self.msgs(p..p + 1).1].iter().map(|&sid| sid as usize)
    }

    /// The structural half of [`Schedule::validate`], its text included:
    /// every row's receives indexed, nobody placed yet. One pass in
    /// program order over the sends' owners, ranges and receiving phases,
    /// the duplicate-key check, then a counting sort of send ids by
    /// receiving row.
    pub(crate) fn indexed(schedule: &Schedule) -> Result<Self, SimError> {
        let (n, sends) = (schedule.n(), &schedule.send_table);
        let id_space = NONE as usize;
        if sends.len().max(schedule.rows.len()) > id_space || n >= id_space {
            return Err(SimError::ScheduleTooLarge { messages: sends.len() });
        }
        let invalid = SimError::InvalidSchedule;
        let rank_rows: Vec<u32> = (0..=n).map(|r| schedule.rows(r..r).start as u32).collect();
        for r in 0..n {
            for (k, phase) in schedule.phases(r).enumerate() {
                let bad = |why: String| Err(invalid(format!("rank {r} phase {k}: {why}")));
                for m in phase.sends {
                    if m.src != r {
                        return bad(format!("send with src {}", m.src));
                    } else if m.dst >= n {
                        return bad(format!("send to out-of-range {}", m.dst));
                    } else if m.dst == r {
                        return bad("send to self".into());
                    }
                    let count = rank_rows[m.dst + 1] - rank_rows[m.dst];
                    if m.recv_phase >= count as usize {
                        let (d, p) = (m.dst, m.recv_phase);
                        return bad(format!("send to rank {d} phase {p}, beyond its {count}"));
                    }
                }
            }
        }
        SendIndex::build(n, sends.iter().map(|m| (m.src, m.dst, m.tag))).map_err(|(s, d, t)| {
            invalid(format!("duplicate send key (src {s}, dst {d}, tag {t})"))
        })?;
        // Each row's receives: counted into `row_ends`' second half, made
        // starts by a prefix sum, then filled in send-id order, which
        // leaves every row's cursor at its end.
        let mut row_ends: Vec<(u32, u32)> =
            schedule.rows.iter().map(|p| (p.send_end as u32, 0)).collect();
        let row_of = |m: &Msg| rank_rows[m.dst] as usize + m.recv_phase;
        sends.iter().for_each(|m| row_ends[row_of(m)].1 += 1);
        let mut start = 0;
        for (_, end) in &mut row_ends {
            (start, *end) = (start + *end, start);
        }
        let mut received = vec![0; sends.len()];
        for (sid, m) in (0u32..).zip(sends) {
            let at = &mut row_ends[row_of(m)].1;
            received[*at as usize] = sid;
            *at += 1;
        }
        Ok(Self {
            rank_rows,
            row_ends,
            sends: sends.iter().map(|m| (m.tag, m.src as u32, m.dst as u32)).collect(),
            received,
            place: Vec::new(),
            nodes: 0,
            groups: 0,
        })
    }

    /// The price half of [`Schedule::validate`]: one price per send and
    /// row; every row's local work finite and non-negative (the first bad
    /// one in program order).
    pub(crate) fn check_prices(&self, p: &PriceColumns) -> Result<(), String> {
        let got = (p.send_bytes.len(), p.local_seconds.len());
        if got != (self.sends.len(), self.row_ends.len()) {
            return Err(format!("{got:?} sends and phases priced, not this schedule's"));
        }
        let bad = p.local_seconds.iter().position(|&s| s < 0.0 || !s.is_finite());
        if let Some(row) = bad {
            let r = self.rank_rows.partition_point(|&first| first as usize <= row) - 1;
            return Err(format!("rank {r} phase {}: bad local_seconds", row - self.rows(r).start));
        }
        Ok(())
    }
}

/// A finished run: the report, and every message's posting and arrival
/// time by send id (= [`Schedule::all_sends`] order).
pub(crate) type Timeline = (SimReport, Vec<Option<(f64, f64)>>);

impl Engine<'_> {
    /// Validates and indexes `schedule` and places its ranks on this
    /// engine's layout, for [`run_prepared`](Self::run_prepared) to
    /// replay at any prices. Fails as [`run`](Self::run) does:
    /// [`SimError::ScheduleTooLarge`], then [`SimError::InvalidSchedule`],
    /// then — for more ranks than the layout has cores — `InvalidSchedule`
    /// if the schedule's own prices are bad, else
    /// [`SimError::LayoutTooSmall`].
    pub fn prepare(&self, schedule: &Schedule) -> Result<Prepared, SimError> {
        let mut s = Prepared::indexed(schedule)?;
        let (n, capacity) = (schedule.n(), self.layout.capacity());
        if n > capacity {
            s.check_prices(&PriceColumns::from(schedule)).map_err(SimError::InvalidSchedule)?;
            return Err(SimError::LayoutTooSmall { ranks: n, capacity });
        }
        s.place = (0..n)
            .map(|r| {
                let at = self.layout.location(r);
                let group = self.layout.group_of_node(at.node) as u32;
                Place { node: at.node as u32, socket: at.socket as u32, group }
            })
            .collect();
        (s.nodes, s.groups) =
            (self.layout.nodes(), self.layout.nodes().div_ceil(self.layout.nodes_per_group()));
        Ok(s)
    }

    /// Replays `prepared` (on its layout, at this engine's costs) under
    /// `prices` and an optional `perturbation`: a `run*` entry point's
    /// report for the schedule of this structure at these prices, bit for
    /// bit. Checks the perturbation, the prices (with
    /// [`Schedule::validate`]'s words), then dead links. `rec` then gets a
    /// [`span_at`](Recorder::span_at) per message on the sender's track,
    /// posting to arrival in *simulated* seconds ([`INTRA_SOCKET`](labels::INTRA_SOCKET)
    /// within a socket, [`HALVING_STEP`](labels::HALVING_STEP) farther: the
    /// paper's locality split, as the executors label their phases), and,
    /// when it [tallies](Recorder::tally), every rank's traffic at once.
    pub fn run_prepared(
        &self,
        prepared: &Prepared,
        prices: &PriceColumns,
        perturbation: Option<&Perturbation>,
        rec: Option<&dyn Recorder>,
    ) -> Result<SimReport, SimError> {
        let (report, times) = self.replay(prepared, prices, perturbation)?;
        let Some(rec) = rec else { return Ok(report) };
        for (&(_, src, dst), &time) in prepared.sends.iter().zip(&times) {
            let label = match prepared.place[src as usize].locality(prepared.place[dst as usize]) {
                Locality::SameSocket => labels::INTRA_SOCKET,
                _ => labels::HALVING_STEP,
            };
            let (posted, arrival) = time.unwrap_or_default();
            rec.span_at(src as Rank, label, posted, arrival);
        }
        if let Some(tally) = rec.tally() {
            rec.traffic(&mut (0..prepared.place.len()).map(|r| {
                let (sends, recvs) = prepared.msgs(prepared.rows(r));
                let mut traffic = Traffic::default();
                let bytes = |sid: usize| prices.send_bytes[sid];
                let dst = |sid: usize| prepared.sends[sid].2 as Rank;
                sends.for_each(|sid| traffic.send(tally, r, dst(sid), bytes(sid)));
                recvs.for_each(|q| traffic.recv(bytes(prepared.received[q] as usize)));
                (r, traffic)
            }));
        }
        Ok(report)
    }

    /// [`run_prepared`](Self::run_prepared) with the message timeline.
    pub(crate) fn replay(
        &self,
        prepared: &Prepared,
        prices: &PriceColumns,
        perturbation: Option<&Perturbation>,
    ) -> Result<Timeline, SimError> {
        self.config.check()?;
        if let Some(p) = perturbation {
            p.check()?;
        }
        prepared.check_prices(prices).map_err(SimError::InvalidSchedule)?;
        if let Some(p) = perturbation.filter(|p| !p.dead_links.is_empty()) {
            let mut links = prepared.sends.iter().map(|&(_, s, d)| (s as Rank, d as Rank));
            if let Some((src, dst)) = links.find(|&(s, d)| p.link_is_down(s, d)) {
                return Err(SimError::LinkDown { src, dst });
            }
        }

        // ---- Serial replay ----
        let (n, sends) = (prepared.rank_rows.len() - 1, prepared.sends.len());
        let mut rp = Replay {
            s: prepared,
            prices,
            engine: self,
            perturbation,
            port_free: vec![0.0; n],
            nic_tx: vec![0.0; prepared.nodes],
            nic_rx: vec![0.0; prepared.nodes],
            glob_tx: vec![0.0; prepared.groups],
            glob_rx: vec![0.0; prepared.groups],
            row: prepared.rank_rows[..n].iter().map(|&p| p as usize).collect(),
            times: vec![None; sends],
            waiter_of: vec![NONE; sends],
            missing: vec![0; n],
            finish: vec![0.0; n],
            busy: vec![0.0; n],
            arrivals: Vec::new(),
            stats: LevelStats::default(),
        };

        // Ready heap of ranks whose current phase's receives are all
        // issued. Keyed by current port time so resource serialization
        // approximates event order; ranks are heap-unique, so at most n.
        let mut heap: BinaryHeap<Reverse<(Key, Rank)>> = BinaryHeap::with_capacity(n);

        // Bootstrap: every rank with at least one phase enters phase 0.
        for r in 0..n {
            if !prepared.rows(r).is_empty() && rp.issue(r) {
                heap.push(Reverse((Key(rp.port_free[r]), r)));
            }
        }
        // Sweep waiters registered before their send was issued.
        for sid in 0..sends {
            if rp.times[sid].is_some() {
                rp.wake(sid, &mut heap);
            }
        }

        while let Some(Reverse((_, r))) = heap.pop() {
            rp.drain(r);
            rp.row[r] += 1;
            if rp.row[r] == prepared.rows(r).end {
                rp.finish[r] = rp.port_free[r];
                continue;
            }
            // Enter the next phase: issue its sends, maybe unblock others.
            if rp.issue(r) {
                heap.push(Reverse((Key(rp.port_free[r]), r)));
            }
            for sid in prepared.msgs(rp.row[r]..rp.row[r] + 1).0 {
                rp.wake(sid, &mut heap);
            }
        }

        let phase = |r: Rank| rp.row[r] - prepared.rows(r).start;
        let blocked = (0..n).filter(|&r| rp.row[r] < prepared.rows(r).end).map(|r| (r, phase(r)));
        let blocked: Vec<(Rank, usize)> = blocked.collect();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock(blocked));
        }

        // every send was issued, once: the tallies need no event order
        let makespan = rp.finish.iter().copied().fold(0.0, f64::max);
        let report =
            SimReport { makespan, per_rank_finish: rp.finish, stats: rp.stats, port_busy: rp.busy };
        Ok((report, rp.times))
    }
}

/// Dense replay state of the event loop.
struct Replay<'p> {
    s: &'p Prepared,
    prices: &'p PriceColumns,
    engine: &'p Engine<'p>,
    perturbation: Option<&'p Perturbation>,
    port_free: Vec<f64>,
    /// Full-duplex NICs: independent transmit and receive queues.
    nic_tx: Vec<f64>,
    nic_rx: Vec<f64>,
    /// Dragonfly+ global links: per-group egress/ingress queues.
    glob_tx: Vec<f64>,
    glob_rx: Vec<f64>,
    /// The phase row each rank is in.
    row: Vec<usize>,
    /// Per send, once issued: when it was posted, when it arrives.
    times: Vec<Option<(f64, f64)>>,
    /// The rank blocked on each send right now, or [`NONE`].
    waiter_of: Vec<u32>,
    /// For each rank currently blocked on receives: how many are not yet
    /// issued.
    missing: Vec<usize>,
    finish: Vec<f64>,
    busy: Vec<f64>,
    /// The drain's sort scratch `(posted, arrival, occupancy)`: one
    /// vector for the whole replay instead of one per (rank, phase).
    arrivals: Vec<(f64, f64, f64)>,
    stats: LevelStats,
}

impl Replay<'_> {
    /// Issues rank `r`'s current phase: charge local work and sends,
    /// register waits for recvs whose send is not yet issued. Returns
    /// true when the rank can complete the phase immediately.
    fn issue(&mut self, r: Rank) -> bool {
        let (at, cfg) = (self.row[r], &self.engine.config);
        // straggler modeling: a perturbed rank pays its stall on top of
        // the phase's local work
        let local = self.prices.local_seconds[at] + self.perturbation.map_or(0.0, |p| p.stall(r));
        self.busy[r] += local;
        let mut t = self.port_free[r] + local;
        let me = self.s.place[r];

        for sid in self.s.msgs(at..at + 1).0 {
            let ((tag, _, dst), bytes) = (self.s.sends[sid], self.prices.send_bytes[sid]);
            let peer = self.s.place[dst as usize];
            let level = me.locality(peer);
            self.stats.record(level, bytes);
            // `α + m/β` (plus jitter) until arrival; the port is busy
            // `o + m/β` under LogGP, else as long; a NIC `g + m/β`, else
            // as long as the port
            let h = cfg.hockney.level(level);
            let wire =
                h.time(bytes) + self.perturbation.map_or(0.0, |p| p.jitter(r, dst as Rank, tag));
            let serial = bytes as f64 / h.bytes_per_sec;
            let occupancy = cfg.cpu_overhead.map_or(wire, |o| o + serial);
            let nic_hold = cfg.nic_gap.map_or(occupancy, |g| g + serial);
            self.busy[r] += occupancy;
            // The CPU posts the message and moves on; the NIC queues it
            // (store-and-forward) without stalling the port. Under TxRx
            // the message first drains through the sender node's NIC
            // queue, then through the receiver node's — two sequential
            // serializations, never a simultaneous hold (which would let
            // an idle NIC be blocked by a busy one).
            let posted = t;
            t = posted + occupancy;
            let internode = matches!(level, Locality::SameGroup | Locality::RemoteGroup);
            let (my_node, dst_node) = (me.node as usize, peer.node as usize);
            let mut wire_start = posted;
            if internode {
                match cfg.nic_mode {
                    NicMode::Off => {}
                    NicMode::TxOnly => {
                        wire_start = wire_start.max(self.nic_tx[my_node]);
                        self.nic_tx[my_node] = wire_start + nic_hold;
                    }
                    NicMode::TxRx => {
                        let tx_start = wire_start.max(self.nic_tx[my_node]);
                        self.nic_tx[my_node] = tx_start + nic_hold;
                        let mut at = tx_start;
                        // a remote-group message holds both groups' global
                        // links too, when they are modelled
                        let gl_hold = match (level, cfg.global_links) {
                            (Locality::RemoteGroup, Some(gl)) => {
                                gl.gap + bytes as f64 / gl.bytes_per_sec
                            }
                            _ => 0.0,
                        };
                        if gl_hold != 0.0 {
                            let (sg, dg) = (me.group as usize, peer.group as usize);
                            let g_tx = at.max(self.glob_tx[sg]);
                            self.glob_tx[sg] = g_tx + gl_hold;
                            let g_rx = g_tx.max(self.glob_rx[dg]);
                            self.glob_rx[dg] = g_rx + gl_hold;
                            at = g_rx;
                        }
                        let rx_start = at.max(self.nic_rx[dst_node]);
                        self.nic_rx[dst_node] = rx_start + nic_hold;
                        wire_start = rx_start;
                    }
                }
            }
            self.times[sid] = Some((posted, wire_start + wire));
        }
        self.port_free[r] = t;

        let mut pending = 0usize;
        for sid in self.s.receives(at) {
            if self.times[sid].is_none() {
                self.waiter_of[sid] = r as u32;
                pending += 1;
            }
        }
        self.missing[r] = pending;
        pending == 0
    }

    /// Send `sid` has been issued: releases the rank waiting on it, if
    /// any, onto the ready heap once it has nothing else outstanding.
    fn wake(&mut self, sid: usize, heap: &mut BinaryHeap<Reverse<(Key, Rank)>>) {
        let w = std::mem::replace(&mut self.waiter_of[sid], NONE);
        if w != NONE {
            let w = w as usize;
            self.missing[w] -= 1;
            if self.missing[w] == 0 {
                heap.push(Reverse((Key(self.port_free[w]), w)));
            }
        }
    }

    /// Completes the recvs of rank `r`'s current phase in arrival order,
    /// each holding the port `o + m/β` under LogGP, else `α + m/β`.
    fn drain(&mut self, r: Rank) {
        let (cfg, me) = (&self.engine.config, self.s.place[r]);
        self.arrivals.clear();
        for sid in self.s.receives(self.row[r]) {
            let (bytes, (posted, arrival)) =
                (self.prices.send_bytes[sid], self.times[sid].unwrap_or_default());
            let h = cfg.hockney.level(self.s.place[self.s.sends[sid].1 as usize].locality(me));
            let occupancy =
                cfg.cpu_overhead.map_or(h.time(bytes), |o| o + bytes as f64 / h.bytes_per_sec);
            self.arrivals.push((posted, arrival, occupancy));
        }
        self.arrivals.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("sim times are never NaN"));
        let mut t = self.port_free[r];
        for &(start, end, occupancy) in &self.arrivals {
            self.busy[r] += occupancy;
            let busy_start = t.max(start);
            t = (busy_start + occupancy).max(end);
        }
        self.port_free[r] = t;
    }
}

#[cfg(test)]
mod tests {
    use super::Timeline;
    use crate::engine::{Engine, GlobalLinkConfig, NicMode, SimConfig, SimError};
    use crate::perturb::Perturbation;
    use crate::schedule::{Msg, PhaseWriter, PriceColumns, Schedule};
    use nhood_cluster::{ClusterLayout, HockneyParams};
    use nhood_topology::rng::DetRng;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The perturbation every rerun/golden check runs under: stragglers
    /// on every fifth rank, jitter on about half the messages.
    fn seeded_perturbation(n: usize) -> Perturbation {
        Perturbation {
            seed: 0x5EED,
            rank_stall: (0..n).map(|r| if r % 5 == 0 { 2e-6 } else { 0.0 }).collect(),
            jitter_p: 0.5,
            max_jitter: 3e-6,
            dead_links: Vec::new(),
        }
    }

    /// Every message's `(posted, arrival)` as bits.
    fn time_bits(t: &Timeline) -> Vec<Option<(u64, u64)>> {
        t.1.iter().map(|t| t.map(|(a, b)| (a.to_bits(), b.to_bits()))).collect()
    }

    /// One cold run: prepare `s`, replay it at its own prices.
    fn replay(
        engine: &Engine,
        s: &Schedule,
        perturbation: Option<&Perturbation>,
    ) -> Result<Timeline, SimError> {
        engine.replay(&engine.prepare(s)?, &PriceColumns::from(s), perturbation)
    }

    fn assert_same(want: &Timeline, got: &Timeline, what: &str) {
        let (a, b) = (&want.0, &got.0);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "makespan differs: {what}");
        assert_eq!(bits(&a.per_rank_finish), bits(&b.per_rank_finish), "{what}");
        assert_eq!(bits(&a.port_busy), bits(&b.port_busy), "{what}");
        assert_eq!(a.stats, b.stats, "{what}");
        assert_eq!(time_bits(want), time_bits(got), "{what}");
    }

    /// The phases of `s` with every message at `3 m + 1` bytes and twice
    /// the local work: the same structure at other prices.
    fn repriced(s: &Schedule) -> Schedule {
        let bigger = |m: &Msg| Msg { bytes: 3 * m.bytes + 1, ..*m };
        let mut out = Schedule::new(s.n());
        for r in 0..s.n() {
            for ph in s.phases(r) {
                out.push_phase(r, 2.0 * ph.local_seconds + 1e-7, ph.sends.iter().map(bigger));
            }
        }
        out
    }

    /// Asserts that a structure prepared once replays its own prices, and
    /// any other prices of its shape, as a cold run of them does — report
    /// and per-message timeline, bit for bit, however often, with and
    /// without a perturbation.
    fn assert_bit_identical(layout: &ClusterLayout, config: SimConfig, s: &Schedule) {
        let engine = Engine::new(layout, config);
        let p = seeded_perturbation(s.n());
        let other = repriced(s);
        // the other prices, written as a lowering writes them
        let kept = engine.prepare(s).expect("prepares");
        let mut columns = kept.price_columns();
        for r in 0..other.n() {
            for ph in other.phases(r) {
                PhaseWriter::push_phase(
                    &mut columns,
                    r,
                    ph.local_seconds,
                    ph.sends.iter().copied(),
                );
            }
        }
        assert_eq!(columns, PriceColumns::from(&other));
        for perturbation in [None, Some(&p)] {
            let base = replay(&engine, s, perturbation).expect("cold run");
            let base_other = replay(&engine, &other, perturbation).expect("cold run");
            for round in 0..2 {
                let what = format!("warm round {round}");
                let again = engine.replay(&kept, &PriceColumns::from(s), perturbation);
                assert_same(&base, &again.expect("run"), &what);
                let warm = engine.replay(&kept, &columns, perturbation).expect("run");
                assert_same(&base_other, &warm, &format!("{what}, re-priced"));
            }
        }
    }

    /// Random rounds of permutation traffic: every phase pairs each rank
    /// with a pseudo-random partner, so every message is received in the
    /// phase it is sent in and the schedule is deadlock-free by
    /// construction.
    fn perm_rounds(n: usize, rounds: usize, seed: u64) -> Schedule {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut phases: Vec<Vec<Vec<Msg>>> = vec![Vec::new(); n];
        for t in 0..rounds {
            let mut perm: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut perm);
            for (src, &dst) in perm.iter().enumerate() {
                let bytes = (src != dst).then(|| 1 + rng.gen_below(64 * 1024));
                let sends =
                    bytes.map(|bytes| Msg { src, dst, bytes, tag: t as u64, recv_phase: t });
                phases[src].push(sends.into_iter().collect());
            }
        }
        let mut s = Schedule::new(n);
        for (r, ph) in phases.into_iter().enumerate() {
            for sends in ph {
                s.push(r, sends);
            }
        }
        s
    }

    /// A cross-phase relay chain: rank 0 sends, every other rank relays
    /// in a later phase — exercises waits on not-yet-issued sends and
    /// uneven per-rank phase counts.
    fn relay_chain(n: usize, bytes: usize) -> Schedule {
        let mut s = Schedule::new(n);
        for r in 0..n {
            if r > 0 {
                s.push(r, vec![]);
            }
            if r + 1 < n {
                // the next rank receives in its first phase
                let m = Msg { src: r, dst: r + 1, bytes, tag: (r + 1) as u64, recv_phase: 0 };
                s.push(r, vec![m]);
            }
        }
        s
    }

    fn configs() -> Vec<SimConfig> {
        let mut cfgs = vec![
            SimConfig::niagara(),
            SimConfig::classic(HockneyParams::niagara(), NicMode::TxRx),
            SimConfig::classic(HockneyParams::niagara(), NicMode::TxOnly),
            SimConfig::classic(HockneyParams::niagara(), NicMode::Off),
        ];
        let mut gl = SimConfig::niagara();
        gl.global_links = Some(GlobalLinkConfig::niagara());
        cfgs.push(gl);
        let mut no_gap = SimConfig::niagara();
        no_gap.nic_gap = None;
        cfgs.push(no_gap);
        cfgs
    }

    #[test]
    fn random_perm_traffic_is_bit_identical() {
        // Hierarchical layout with groups so all four locality levels and
        // the global-link queues are exercised.
        let layout = ClusterLayout::with_groups(16, 2, 2, 4); // 64 ranks
        for (i, config) in configs().into_iter().enumerate() {
            let s = perm_rounds(64, 6, 0xC0FFEE + i as u64);
            assert_bit_identical(&layout, config, &s);
        }
    }

    #[test]
    fn relay_chain_is_bit_identical() {
        let layout = ClusterLayout::new(8, 1, 4); // 32 ranks
        for config in configs() {
            assert_bit_identical(&layout, config, &relay_chain(32, 4096));
        }
    }

    #[test]
    fn kilorank_schedule_is_bit_identical() {
        let layout = ClusterLayout::with_groups(64, 2, 8, 8); // 1024 ranks
        let s = perm_rounds(1024, 4, 42);
        assert_bit_identical(&layout, SimConfig::niagara(), &s);
    }

    #[test]
    fn empty_and_uneven_schedules_are_bit_identical() {
        let layout = ClusterLayout::new(4, 1, 2);
        // Some ranks have no phases at all; some phases are empty.
        let mut s = Schedule::new(8);
        let m = Msg { src: 0, dst: 5, bytes: 256, tag: 7, recv_phase: 0 };
        s.push(0, vec![m]);
        s.push(5, vec![]);
        s.push(5, vec![]); // trailing empty phase
        assert_bit_identical(&layout, SimConfig::niagara(), &s);

        let empty = Schedule::new(4);
        assert_bit_identical(&layout, SimConfig::niagara(), &empty);
    }

    #[test]
    fn the_order_ranks_are_pushed_in_changes_nothing() {
        let n = 64;
        let layout = ClusterLayout::with_groups(16, 2, 2, 4);
        let rounds = perm_rounds(n, 6, 0xC0FFEE);
        // the reference: rank by rank, every table allocated once
        let mut base = Schedule::with_rows(n, 6 * n, rounds.message_count());
        // the same phases, the ranks taking turns in a seeded order (each
        // rank's own phases in theirs)
        let mut turns: Vec<usize> = (0..6 * n).map(|i| i % n).collect();
        DetRng::seed_from_u64(0xBEEF).shuffle(&mut turns);
        let mut shuffled = Schedule::new(n);
        let local = |r: usize, k: usize| (r % 3 + k) as f64 * 1e-7;
        for r in 0..n {
            for (k, ph) in rounds.phases(r).enumerate() {
                base.push_phase(r, local(r, k), ph.sends.iter().copied());
            }
        }
        let mut next = vec![0; n];
        for r in turns {
            let (k, ph) = (next[r], rounds.phases(r).nth(next[r]).unwrap());
            shuffled.push_phase(r, local(r, k), ph.sends.iter().copied());
            next[r] += 1;
        }
        assert_eq!(shuffled, base);

        let engine = Engine::new(&layout, SimConfig::niagara());
        let p = seeded_perturbation(n);
        for perturbation in [None, Some(&p)] {
            let want = replay(&engine, &base, perturbation).unwrap();
            let got = replay(&engine, &shuffled, perturbation).unwrap();
            assert_same(&want, &got, &format!("perturbed {}", perturbation.is_some()));
        }
    }

    #[test]
    fn oversized_and_invalid_schedules_fail_typed_and_in_order() {
        let layout = ClusterLayout::new(2, 1, 1);
        let engine = Engine::new(&layout, SimConfig::niagara());
        let m = Msg { src: 0, dst: 1, bytes: 8, tag: 0, recv_phase: 0 };
        // more ranks than the `u32` id space: refused before anything is
        // sized by the rank count ...
        let huge = Schedule::new(u32::MAX as usize);
        let err = engine.run(&huge).unwrap_err();
        assert_eq!(err, SimError::ScheduleTooLarge { messages: 0 });
        // ... but after a bad perturbation
        let bad = Perturbation { jitter_p: 2.0, ..Perturbation::none() };
        let err = engine.run_perturbed(&huge, &bad).unwrap_err();
        assert!(matches!(err, SimError::InvalidPerturbation(_)), "{err:?}");
        // more ranks than cores: an invalid schedule is reported as that,
        // a valid one as too large for the layout
        let mut s = Schedule::new(8);
        s.push(0, vec![m]);
        let invalid = SimError::InvalidSchedule(s.validate().unwrap_err());
        assert_eq!(engine.run(&s).unwrap_err(), invalid);
        s.push(1, vec![]);
        let too_small = SimError::LayoutTooSmall { ranks: 8, capacity: 2 };
        assert_eq!(engine.run(&s).unwrap_err(), too_small);
        assert_eq!(engine.prepare(&s).unwrap_err(), too_small);
    }

    #[test]
    fn invalid_schedules_report_the_serial_error() {
        let layout = ClusterLayout::new(2, 1, 1);
        let engine = Engine::new(&layout, SimConfig::niagara());
        let canonical = |s: &Schedule| SimError::InvalidSchedule(s.validate().unwrap_err());
        // A receiving phase the receiver does not have: rank 1 has none,
        // then one.
        let mut phaseless = Schedule::new(2);
        phaseless.push(0, vec![Msg { src: 0, dst: 1, bytes: 8, tag: 0, recv_phase: 0 }]);
        let mut beyond = Schedule::new(2);
        beyond.push(0, vec![Msg { src: 0, dst: 1, bytes: 8, tag: 0, recv_phase: 1 }]);
        beyond.push(1, vec![]);
        // A bad local_seconds.
        let mut slow = Schedule::new(2);
        slow.push_phase(0, f64::NAN, vec![Msg { src: 0, dst: 1, bytes: 8, tag: 0, recv_phase: 0 }]);
        slow.push(1, vec![]);
        for s in [&phaseless, &beyond, &slow] {
            assert_eq!(engine.run(s).unwrap_err(), canonical(s));
        }
    }

    #[test]
    fn deadlock_and_capacity_match_serial() {
        let layout = ClusterLayout::new(2, 1, 1);
        let engine = Engine::new(&layout, SimConfig::niagara());
        // Mutual cross-phase waits: 0 waits for 1's phase-1 send and vice
        // versa — valid per the matcher, but cyclic.
        let mut s = Schedule::new(2);
        let a = Msg { src: 0, dst: 1, bytes: 8, tag: 0, recv_phase: 0 };
        let b = Msg { src: 1, dst: 0, bytes: 8, tag: 1, recv_phase: 0 };
        s.push(0, vec![]);
        s.push(0, vec![a]);
        s.push(1, vec![]);
        s.push(1, vec![b]);
        let err = engine.run(&s).unwrap_err();
        assert_eq!(err, SimError::Deadlock(vec![(0, 0), (1, 0)]));
        // a kept structure deadlocks the same way at other prices
        let kept = engine.prepare(&s).unwrap();
        let prices = PriceColumns::from(&repriced(&s));
        assert_eq!(engine.run_prepared(&kept, &prices, None, None).unwrap_err(), err);

        // More ranks than cores.
        let big = perm_rounds(8, 1, 3);
        let err = engine.run(&big).unwrap_err();
        assert_eq!(err, SimError::LayoutTooSmall { ranks: 8, capacity: 2 });
    }

    fn fold_bits(v: &[f64]) -> u64 {
        v.iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, x| (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3))
    }

    /// `NicMode::{Off, TxOnly, TxRx}` × global links off/on × LogGP
    /// off/on, in golden-row order.
    fn golden_configs() -> Vec<SimConfig> {
        let mut cfgs = Vec::new();
        for nic_mode in [NicMode::Off, NicMode::TxOnly, NicMode::TxRx] {
            for gl in [false, true] {
                for loggp in [false, true] {
                    cfgs.push(SimConfig {
                        hockney: HockneyParams::niagara(),
                        nic_mode,
                        cpu_overhead: loggp.then_some(0.15e-6),
                        nic_gap: loggp.then_some(0.025e-6),
                        global_links: gl.then(GlobalLinkConfig::niagara),
                    });
                }
            }
        }
        cfgs
    }

    // `[makespan, fold(per_rank_finish), fold(port_busy)]` as `to_bits`,
    // captured at the last commit that shipped the hash-map serial
    // engine (a91473c) from `Engine::run` / `Engine::run_perturbed`:
    // one row per `golden_configs()` entry, plain then perturbed.
    const PERM: [[u64; 3]; 24] = [
        [0x3f1543fa019114bc, 0x0297727e0e2c2fe7, 0xe81b5779a54ab931],
        [0x3f19a95dada2b20a, 0x139e73fe30bb7836, 0x0768e8a52b0b6beb],
        [0x3f1038e06969534e, 0x2a00fd08417a9700, 0xe02a626e5507a62c],
        [0x3f129ade09f344a9, 0xdfbb88dddb1d4ed0, 0xef19a69b5165557c],
        [0x3f1543fa019114bc, 0x0297727e0e2c2fe7, 0xe81b5779a54ab931],
        [0x3f19a95dada2b20a, 0x139e73fe30bb7836, 0x0768e8a52b0b6beb],
        [0x3f1038e06969534e, 0x2a00fd08417a9700, 0xe02a626e5507a62c],
        [0x3f129ade09f344a9, 0xdfbb88dddb1d4ed0, 0xef19a69b5165557c],
        [0x3f24b3140e94ecdc, 0xe994e0c089fc1a9e, 0xe81b5779a54ab931],
        [0x3f27222d11c2e1c2, 0x194c2994756f8646, 0x0768e8a52b0b6beb],
        [0x3f1fcb2efb974818, 0x2573f2012eee0648, 0xe02a626e5507a62c],
        [0x3f201a392af27b7b, 0xa9e8c5d71f50f0e1, 0xef19a69b5165557c],
        [0x3f24b3140e94ecdc, 0xe994e0c089fc1a9e, 0xe81b5779a54ab931],
        [0x3f27222d11c2e1c2, 0x194c2994756f8646, 0x0768e8a52b0b6beb],
        [0x3f1fcb2efb974818, 0x2573f2012eee0648, 0xe02a626e5507a62c],
        [0x3f201a392af27b7b, 0xa9e8c5d71f50f0e1, 0xef19a69b5165557c],
        [0x3f2cece2a06ee2c0, 0xd44f75f8ac80d2de, 0xe81b5779a54ab931],
        [0x3f2f83f4182de404, 0x79880ac869388f87, 0x0768e8a52b0b6beb],
        [0x3f256d715f2c822b, 0xa575a8f4b4d390bf, 0xe02a626e5507a62c],
        [0x3f285f19fa657177, 0xeb67869ff925da39, 0xef19a69b5165557c],
        [0x3f2cd1b99eba7207, 0x0ba3abfd3c5fd4fa, 0xe81b5779a54ab931],
        [0x3f314907ed8ce330, 0x5cda86a1a6594b4e, 0x0768e8a52b0b6beb],
        [0x3f2bc8e2e708a74d, 0x812f45a7f7854337, 0xe02a626e5507a62c],
        [0x3f2b33f2cac874a0, 0x0204ef677032b703, 0xef19a69b5165557c],
    ];
    const RELAY: [[u64; 3]; 24] = [
        [0x3f006f822af3e7d4, 0xe3932c4b98b341c2, 0x57581ac120e763dd],
        [0x3f0f3ce51c7cd633, 0x2b543cdf4271eca4, 0x7c383f748e67db76],
        [0x3f006f822af3e7d4, 0xb403db533a5f61f4, 0xb4f0960c4c3ca385],
        [0x3f0f3ce51c7cd633, 0x86de567633657577, 0x499d3cf065c51dc5],
        [0x3f006f822af3e7d4, 0xe3932c4b98b341c2, 0x57581ac120e763dd],
        [0x3f0f3ce51c7cd633, 0x2b543cdf4271eca4, 0x7c383f748e67db76],
        [0x3f006f822af3e7d4, 0xb403db533a5f61f4, 0xb4f0960c4c3ca385],
        [0x3f0f3ce51c7cd633, 0x86de567633657577, 0x499d3cf065c51dc5],
        [0x3f006f822af3e7d4, 0xe3932c4b98b341c2, 0x57581ac120e763dd],
        [0x3f0f3ce51c7cd633, 0x2b543cdf4271eca4, 0x7c383f748e67db76],
        [0x3f006f822af3e7d4, 0xb403db533a5f61f4, 0xb4f0960c4c3ca385],
        [0x3f0f3ce51c7cd633, 0x86de567633657577, 0x499d3cf065c51dc5],
        [0x3f006f822af3e7d4, 0xe3932c4b98b341c2, 0x57581ac120e763dd],
        [0x3f0f3ce51c7cd633, 0x2b543cdf4271eca4, 0x7c383f748e67db76],
        [0x3f006f822af3e7d4, 0xb403db533a5f61f4, 0xb4f0960c4c3ca385],
        [0x3f0f3ce51c7cd633, 0x86de567633657577, 0x499d3cf065c51dc5],
        [0x3f006f822af3e7d4, 0xe3932c4b98b341c2, 0x57581ac120e763dd],
        [0x3f0f3ce51c7cd633, 0x2b543cdf4271eca4, 0x7c383f748e67db76],
        [0x3f006f822af3e7d4, 0xb403db533a5f61f4, 0xb4f0960c4c3ca385],
        [0x3f0f3ce51c7cd633, 0x86de567633657577, 0x499d3cf065c51dc5],
        [0x3f006f822af3e7d4, 0xe3932c4b98b341c2, 0x57581ac120e763dd],
        [0x3f0f3ce51c7cd633, 0x2b543cdf4271eca4, 0x7c383f748e67db76],
        [0x3f006f822af3e7d4, 0xb403db533a5f61f4, 0xb4f0960c4c3ca385],
        [0x3f0f3ce51c7cd633, 0x86de567633657577, 0x499d3cf065c51dc5],
    ];

    #[test]
    fn goldens_of_the_retired_serial_engine_hold_at_every_width() {
        let cases = [
            (&PERM, ClusterLayout::with_groups(16, 2, 2, 4), perm_rounds(64, 6, 0xC0FFEE)),
            (&RELAY, ClusterLayout::with_groups(8, 1, 4, 2), relay_chain(32, 4096)),
        ];
        for (golden, layout, s) in &cases {
            let p = seeded_perturbation(s.n());
            let mut rows = golden.iter();
            for (i, config) in golden_configs().into_iter().enumerate() {
                let engine = Engine::new(layout, config);
                for perturbation in [None, Some(&p)] {
                    let want = rows.next().expect("two golden rows per config");
                    let rep = replay(&engine, s, perturbation).unwrap().0;
                    let got = [
                        rep.makespan.to_bits(),
                        fold_bits(&rep.per_rank_finish),
                        fold_bits(&rep.port_busy),
                    ];
                    assert_eq!(got, *want, "config {i}, perturbed {}", perturbation.is_some());
                }
            }
        }
    }
}
