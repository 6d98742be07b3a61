//! The replay engine: sharded prepare, serial event loop.
//!
//! Most of a simulated run is per-message bookkeeping that does not
//! depend on simulated time — validating the schedule, matching each
//! recv to its send, evaluating the Hockney cost model. Only the final
//! event loop is inherently sequential. Every `Engine::run*` entry point
//! funnels into `Engine::replay`, which exploits that split:
//!
//! 1. **Parallel prepare** — ranks are partitioned into contiguous
//!    chunks, one per [`WorkerPool`] thread (a single chunk, run inline,
//!    for the pool-less entry points). Each chunk validates its own
//!    ranks' sends, indexes them under dense global send ids
//!    ([`SendIndex`]: a counting sort by destination), and precomputes
//!    every pure per-message cost (wire time including perturbation
//!    jitter, port occupancy, NIC hold, global-link hold, locality — read
//!    off one rank-location table built up front). A second parallel
//!    pass resolves each recv to its send id by binary search in the
//!    (read-only) index of the sender's chunk; duplicate recvs are then
//!    caught on the replay's own per-send flags.
//! 2. **Serial replay** — a lean event loop over flat arrays: ready heap
//!    keyed by port time, arrivals drained in arrival order.
//!
//! No hash map is touched anywhere on this path.
//!
//! ## Determinism contract
//!
//! Reports are **bit-identical** (`to_bits`) for every pool width. A
//! send's id is its row in the schedule's send table — program order
//! (rank, phase, index), fixed when the schedule was written — so where
//! the chunk boundaries fall cannot change an id, and a recv finds the
//! same id in whichever chunk's index holds its sender. The
//! precomputed costs are pure functions of the message, the layout and
//! the perturbation, so computing them on worker threads changes
//! nothing; the replay performs every floating-point operation in one
//! fixed order; and the one batch of heap pushes whose order depends on
//! iteration (the bootstrap waiter sweep) pushes ranks whose keys are
//! already fixed — a binary heap pops the minimum of its contents
//! regardless of insertion order, and ranks are heap-unique so ties
//! cannot arise. `docs/SCALE.md` documents the contract; golden
//! constants captured from the retired hash-map engine pin the
//! arithmetic, and the tests below check both across schedules, NIC
//! modes, perturbations and pool widths.

use crate::engine::{Engine, Key, LevelStats, NicMode, SimError, SimReport};
use crate::perturb::Perturbation;
use crate::schedule::{Schedule, SendIndex};
use nhood_cluster::{Locality, Rank, WorkerPool};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Sentinel for "no rank is waiting on this send".
const NO_WAITER: u32 = u32::MAX;

/// Pure per-send costs, precomputed in parallel.
struct SendPre {
    level: Locality,
    /// `α + m/β` at the message's locality level, plus perturbation
    /// jitter (arrival delay).
    wire: f64,
    /// Port hold: `cpu_overhead + m/β` under LogGP, else `wire`.
    occupancy: f64,
    /// NIC hold: `nic_gap + m/β`, else `occupancy`.
    nic_hold: f64,
    /// Global-link hold, meaningful only for remote-group messages when
    /// global links are configured; 0.0 otherwise.
    gl_hold: f64,
    dst_node: u32,
    /// Source / destination group, meaningful with `gl_hold`.
    sg: u32,
    dg: u32,
}

/// A recv resolved to the send it matches, plus its drain-side port
/// occupancy (the only cost the drain derives per arrival).
struct RecvPre {
    send_id: u32,
    occupancy: f64,
}

/// Where a rank sits: one table entry per rank, built once per replay,
/// instead of a div/mod location per message endpoint.
#[derive(Clone, Copy)]
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

/// A finished run: the report plus every message's posting and arrival
/// time, indexed by global send id (= [`Schedule::all_sends`] order).
pub(crate) struct Timeline {
    pub(crate) report: SimReport,
    pub(crate) posted: Vec<f64>,
    pub(crate) arrival: Vec<f64>,
}

/// Concatenates per-chunk tables into one dense id-indexed table. Chunks
/// are contiguous rank ranges, so concatenation is id order; a single
/// chunk (every pool-less run) is taken as is, without a copy.
fn flatten<T>(mut chunks: impl Iterator<Item = Vec<T>>, total: usize) -> Vec<T> {
    let mut flat = chunks.next().unwrap_or_default();
    flat.reserve_exact(total - flat.len());
    for chunk in chunks {
        flat.extend(chunk);
    }
    flat
}

impl Engine<'_> {
    /// The one simulation path: validates `schedule`, precomputes
    /// per-message costs on `pool`, and replays the event loop under an
    /// optional latency `perturbation`.
    pub(crate) fn replay(
        &self,
        schedule: &Schedule,
        pool: &WorkerPool,
        perturbation: Option<&Perturbation>,
    ) -> Result<Timeline, SimError> {
        if let Some(p) = perturbation {
            p.check()?;
        }
        let n = schedule.n();
        // Dense send/recv id spaces: the rows of the schedule's own tables.
        let sends = schedule.all_sends();
        let (total_sends, total_recvs) =
            (sends.len(), schedule.msg_ids(schedule.rows(0..n)).1.len());
        let id_space = NO_WAITER as usize;
        if total_sends > id_space || total_recvs > id_space || n >= id_space {
            return Err(SimError::ScheduleTooLarge { messages: total_sends.max(total_recvs) });
        }

        // Capacity must be checked before the prepare pass may resolve
        // rank locations — but an invalid schedule is reported ahead of
        // an oversized one.
        if n > self.layout.capacity() {
            schedule.validate().map_err(SimError::InvalidSchedule)?;
            return Err(SimError::LayoutTooSmall { ranks: n, capacity: self.layout.capacity() });
        }
        // The prepare passes apply `Schedule::validate`'s conditions
        // chunk-locally and only flag a violation; the serial validator
        // supplies the canonical text.
        let invalid = || {
            let why = schedule.validate().err();
            SimError::InvalidSchedule(why.unwrap_or_else(|| "rejected by the prepare pass".into()))
        };

        let place: Vec<Place> = (0..n)
            .map(|r| {
                let at = self.layout.location(r);
                let group = self.layout.group_of_node(at.node) as u32;
                Place { node: at.node as u32, socket: at.socket as u32, group }
            })
            .collect();

        // Contiguous rank chunks, one per pool thread.
        let chunk = n.div_ceil(pool.threads()).max(1);
        let chunks = n.div_ceil(chunk);

        // Pass A: per-chunk send-side validation, send index (the chunk's
        // ranks' sends under their global ids) and costs.
        let (hockney, overhead) = (&self.config.hockney, self.config.cpu_overhead);
        let tx: Vec<Option<(SendIndex, Vec<SendPre>)>> = pool.map(chunks, |c| {
            let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(n));
            let index = schedule.send_index(lo..hi).ok()?;
            // (a send the index admitted names its own rank as `src`)
            let costs = sends[schedule.msg_ids(schedule.rows(lo..hi)).0].iter().map(|m| {
                let (me, peer) = (place[m.src], place[m.dst]);
                let level = me.locality(peer);
                let h = hockney.level(level);
                let jitter = perturbation.map_or(0.0, |p| p.jitter(m.src, m.dst, m.tag));
                let wire = h.time(m.bytes) + jitter;
                let serial = m.bytes as f64 / h.bytes_per_sec;
                let occupancy = overhead.map_or(wire, |o| o + serial);
                let nic_hold = self.config.nic_gap.map_or(occupancy, |g| g + serial);
                let (gl_hold, sg, dg) = match (level, self.config.global_links) {
                    (Locality::RemoteGroup, Some(gl)) => {
                        (gl.gap + m.bytes as f64 / gl.bytes_per_sec, me.group, peer.group)
                    }
                    _ => (0.0, 0, 0),
                };
                SendPre { level, wire, occupancy, nic_hold, gl_hold, dst_node: peer.node, sg, dg }
            });
            Some((index, costs.collect()))
        });
        let tx: Vec<_> = tx.into_iter().collect::<Option<_>>().ok_or_else(invalid)?;

        // Pass B: resolve each recv in the index of its sender's chunk.
        let rx: Vec<Option<Vec<RecvPre>>> = pool.map(chunks, |c| {
            let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(n));
            let mut pre = Vec::with_capacity(schedule.msg_ids(schedule.rows(lo..hi)).1.len());
            for r in lo..hi {
                for (k, ph) in schedule.phases(r).enumerate() {
                    for m in ph.recvs {
                        schedule.check_recv(r, k, m).ok()?;
                        let sid = tx[m.src / chunk].0.find(m.src, r, m.tag)?; // else unmatched recv
                        (sends[sid as usize].bytes == m.bytes).then_some(())?; // else size mismatch
                        let h = hockney.level(place[m.src].locality(place[r]));
                        let wire = h.time(m.bytes);
                        let occupancy =
                            overhead.map_or(wire, |o| o + m.bytes as f64 / h.bytes_per_sec);
                        pre.push(RecvPre { send_id: sid, occupancy });
                    }
                }
            }
            Some(pre)
        });
        let rx: Vec<Vec<RecvPre>> = rx.into_iter().collect::<Option<_>>().ok_or_else(invalid)?;
        // The matched flags are the replay's own `sent_flag`: a recv whose
        // send's flag is set is a duplicate; with none, equal totals make
        // the matching a bijection and every flag is set, so clearing
        // them all hands the replay the vector it expects.
        let mut sent_flag = vec![false; total_sends];
        let mut claims = rx.iter().flatten().map(|p| p.send_id as usize);
        if claims.any(|sid| std::mem::replace(&mut sent_flag[sid], true))
            || total_sends != total_recvs
        {
            return Err(invalid());
        }
        sent_flag.fill(false);
        if let Some(p) = perturbation.filter(|p| !p.dead_links.is_empty()) {
            if let Some(m) = sends.iter().find(|m| p.link_is_down(m.src, m.dst)) {
                return Err(SimError::LinkDown { src: m.src, dst: m.dst });
            }
        }

        let pre_send = flatten(tx.into_iter().map(|(_, costs)| costs), total_sends);
        let pre_recv = flatten(rx.into_iter(), total_recvs);

        // ---- Serial replay ----
        let n_groups = self.layout.nodes().div_ceil(self.layout.nodes_per_group());
        let mut rp = Replay {
            pre_send: &pre_send,
            pre_recv: &pre_recv,
            place: &place,
            nic_mode: self.config.nic_mode,
            perturbation,
            port_free: vec![0.0; n],
            nic_tx: vec![0.0; self.layout.nodes()],
            nic_rx: vec![0.0; self.layout.nodes()],
            glob_tx: vec![0.0; n_groups],
            glob_rx: vec![0.0; n_groups],
            row: (0..n).map(|r| schedule.rows(r..r + 1)).collect(),
            info_start: vec![0.0; total_sends],
            info_end: vec![0.0; total_sends],
            sent_flag,
            waiter_of: vec![NO_WAITER; total_sends],
            missing: vec![0; n],
            finish: vec![0.0; n],
            busy: vec![0.0; n],
            arrivals: Vec::new(),
        };

        // Ready heap of ranks whose current phase's recvs are all
        // matched. Keyed by current port time so resource serialization
        // approximates event order.
        let mut heap: BinaryHeap<Reverse<(Key, Rank)>> = BinaryHeap::new();

        // Bootstrap: every rank with at least one phase enters phase 0.
        for r in 0..n {
            if !rp.row[r].is_empty() && rp.issue(r, schedule) {
                heap.push(Reverse((Key(rp.port_free[r]), r)));
            }
        }
        // Sweep waiters registered before their send was issued.
        for sid in 0..total_sends {
            if rp.sent_flag[sid] {
                rp.wake(sid, &mut heap);
            }
        }

        while let Some(Reverse((_, r))) = heap.pop() {
            rp.drain(r, schedule);
            rp.row[r].start += 1;
            if rp.row[r].is_empty() {
                rp.finish[r] = rp.port_free[r];
                continue;
            }
            // Enter the next phase: issue its sends, maybe unblock others.
            if rp.issue(r, schedule) {
                heap.push(Reverse((Key(rp.port_free[r]), r)));
            }
            for sid in schedule.msg_ids(rp.row[r].start..rp.row[r].start + 1).0 {
                rp.wake(sid, &mut heap);
            }
        }

        let phase = |r: Rank| rp.row[r].start - schedule.rows(r..r + 1).start;
        let blocked = (0..n).filter(|&r| !rp.row[r].is_empty()).map(|r| (r, phase(r)));
        let blocked: Vec<(Rank, usize)> = blocked.collect();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock(blocked));
        }

        // every send was issued, once: the tallies need no event order
        let mut stats = LevelStats::default();
        pre_send.iter().zip(sends).for_each(|(p, m)| stats.record(p.level, m.bytes));
        let makespan = rp.finish.iter().copied().fold(0.0, f64::max);
        let report = SimReport { makespan, per_rank_finish: rp.finish, stats, port_busy: rp.busy };
        Ok(Timeline { report, posted: rp.info_start, arrival: rp.info_end })
    }
}

/// Dense replay state of the event loop.
struct Replay<'p> {
    pre_send: &'p [SendPre],
    pre_recv: &'p [RecvPre],
    place: &'p [Place],
    nic_mode: NicMode,
    perturbation: Option<&'p Perturbation>,
    port_free: Vec<f64>,
    /// Full-duplex NICs: independent transmit and receive queues.
    nic_tx: Vec<f64>,
    nic_rx: Vec<f64>,
    /// Dragonfly+ global links: per-group egress/ingress queues.
    glob_tx: Vec<f64>,
    glob_rx: Vec<f64>,
    /// The phase rows each rank has yet to complete: it is in the first.
    row: Vec<Range<usize>>,
    info_start: Vec<f64>,
    info_end: Vec<f64>,
    sent_flag: Vec<bool>,
    /// The rank blocked on each send right now, or [`NO_WAITER`].
    waiter_of: Vec<u32>,
    /// For each rank currently blocked on recvs: how many are unmatched.
    missing: Vec<usize>,
    finish: Vec<f64>,
    busy: Vec<f64>,
    /// The drain's sort scratch `(posted, arrival, occupancy)`: one
    /// vector for the whole replay instead of one per (rank, phase).
    arrivals: Vec<(f64, f64, f64)>,
}

impl Replay<'_> {
    /// Issues rank `r`'s current phase: charge local work and sends,
    /// register waits for recvs whose send is not yet issued. Returns
    /// true when the rank can complete the phase immediately.
    fn issue(&mut self, r: Rank, schedule: &Schedule) -> bool {
        let at = self.row[r].start;
        // straggler modeling: a perturbed rank pays its stall on top of
        // the phase's local work
        let local = schedule.row(at).local_seconds + self.perturbation.map_or(0.0, |p| p.stall(r));
        self.busy[r] += local;
        let mut t = self.port_free[r] + local;
        let my_node = self.place[r].node as usize;

        let (sends, recvs) = schedule.msg_ids(at..at + 1);
        for sid in sends {
            let p = &self.pre_send[sid];
            self.busy[r] += p.occupancy;
            // The CPU posts the message and moves on; the NIC queues it
            // (store-and-forward) without stalling the port. Under TxRx
            // the message first drains through the sender node's NIC
            // queue, then through the receiver node's — two sequential
            // serializations, never a simultaneous hold (which would let
            // an idle NIC be blocked by a busy one).
            let posted = t;
            t = posted + p.occupancy;
            let internode = matches!(p.level, Locality::SameGroup | Locality::RemoteGroup);
            let mut wire_start = posted;
            if internode {
                match self.nic_mode {
                    NicMode::Off => {}
                    NicMode::TxOnly => {
                        wire_start = wire_start.max(self.nic_tx[my_node]);
                        self.nic_tx[my_node] = wire_start + p.nic_hold;
                    }
                    NicMode::TxRx => {
                        let tx_start = wire_start.max(self.nic_tx[my_node]);
                        self.nic_tx[my_node] = tx_start + p.nic_hold;
                        let mut at = tx_start;
                        if p.level == Locality::RemoteGroup && p.gl_hold != 0.0 {
                            let g_tx = at.max(self.glob_tx[p.sg as usize]);
                            self.glob_tx[p.sg as usize] = g_tx + p.gl_hold;
                            let g_rx = g_tx.max(self.glob_rx[p.dg as usize]);
                            self.glob_rx[p.dg as usize] = g_rx + p.gl_hold;
                            at = g_rx;
                        }
                        let rx_start = at.max(self.nic_rx[p.dst_node as usize]);
                        self.nic_rx[p.dst_node as usize] = rx_start + p.nic_hold;
                        wire_start = rx_start;
                    }
                }
            }
            self.info_start[sid] = posted;
            self.info_end[sid] = wire_start + p.wire;
            self.sent_flag[sid] = true;
        }
        self.port_free[r] = t;

        let mut unmatched = 0usize;
        for q in recvs {
            let sid = self.pre_recv[q].send_id as usize;
            if !self.sent_flag[sid] {
                self.waiter_of[sid] = r as u32;
                unmatched += 1;
            }
        }
        self.missing[r] = unmatched;
        unmatched == 0
    }

    /// Send `sid` has been issued: releases the rank waiting on it, if
    /// any, onto the ready heap once it has nothing else outstanding.
    fn wake(&mut self, sid: usize, heap: &mut BinaryHeap<Reverse<(Key, Rank)>>) {
        let w = std::mem::replace(&mut self.waiter_of[sid], NO_WAITER);
        if w != NO_WAITER {
            let w = w as usize;
            self.missing[w] -= 1;
            if self.missing[w] == 0 {
                heap.push(Reverse((Key(self.port_free[w]), w)));
            }
        }
    }

    /// Completes the recvs of rank `r`'s current phase in arrival order.
    fn drain(&mut self, r: Rank, schedule: &Schedule) {
        let recvs = schedule.msg_ids(self.row[r].start..self.row[r].start + 1).1;
        self.arrivals.clear();
        self.arrivals.extend(self.pre_recv[recvs].iter().map(|p| {
            let sid = p.send_id as usize;
            (self.info_start[sid], self.info_end[sid], p.occupancy)
        }));
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
    use crate::engine::{Engine, GlobalLinkConfig, NicMode, SimConfig, SimError};
    use crate::perturb::Perturbation;
    use crate::schedule::{Msg, Schedule};
    use nhood_cluster::{ClusterLayout, HockneyParams, WorkerPool};
    use nhood_topology::rng::DetRng;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The perturbation every width/golden check runs under: stragglers
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

    /// Asserts the run — report and per-message timeline — is
    /// bit-identical under every pool width, with and without a
    /// perturbation.
    fn assert_bit_identical(layout: &ClusterLayout, config: SimConfig, s: &Schedule) {
        let engine = Engine::new(layout, config);
        let p = seeded_perturbation(s.n());
        for perturbation in [None, Some(&p)] {
            let base = engine.replay(s, &WorkerPool::serial(), perturbation).expect("width-1 run");
            for threads in [2, 3, 8] {
                let wide = engine.replay(s, &WorkerPool::new(threads), perturbation).expect("run");
                assert_eq!(
                    base.report.makespan.to_bits(),
                    wide.report.makespan.to_bits(),
                    "makespan differs at {threads} threads"
                );
                assert_eq!(bits(&base.report.per_rank_finish), bits(&wide.report.per_rank_finish));
                assert_eq!(bits(&base.report.port_busy), bits(&wide.report.port_busy));
                assert_eq!(base.report.stats, wide.report.stats);
                assert_eq!(bits(&base.posted), bits(&wide.posted));
                assert_eq!(bits(&base.arrival), bits(&wide.arrival));
            }
        }
    }

    /// Random rounds of permutation traffic: every phase pairs each rank
    /// with a pseudo-random partner, so sends and recvs match within the
    /// phase and the schedule is deadlock-free by construction.
    fn perm_rounds(n: usize, rounds: usize, seed: u64) -> Schedule {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut phases: Vec<Vec<(Vec<Msg>, Vec<Msg>)>> = vec![Vec::new(); n];
        for t in 0..rounds {
            let mut perm: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut perm);
            let mut round: Vec<(Vec<Msg>, Vec<Msg>)> = vec![(Vec::new(), Vec::new()); n];
            for (src, &dst) in perm.iter().enumerate() {
                if src == dst {
                    continue;
                }
                let bytes = 1 + rng.gen_below(64 * 1024);
                let m = Msg { src, dst, bytes, tag: t as u64 };
                round[src].0.push(m);
                round[dst].1.push(m);
            }
            for (r, (sends, recvs)) in round.into_iter().enumerate() {
                phases[r].push((sends, recvs));
            }
        }
        let mut s = Schedule::new(n);
        for (r, ph) in phases.into_iter().enumerate() {
            for (sends, recvs) in ph {
                s.push(r, sends, recvs);
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
                let m = Msg { src: r - 1, dst: r, bytes, tag: r as u64 };
                s.push(r, vec![], vec![m]);
            }
            if r + 1 < n {
                let m = Msg { src: r, dst: r + 1, bytes, tag: (r + 1) as u64 };
                s.push(r, vec![m], vec![]);
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
        let m = Msg { src: 0, dst: 5, bytes: 256, tag: 7 };
        s.push(0, vec![m], vec![]);
        s.push(5, vec![], vec![m]);
        s.push(5, vec![], vec![]); // trailing empty phase
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
        let mut base =
            Schedule::with_rows(n, 6 * n, rounds.message_count(), rounds.message_count());
        // the same phases, the ranks taking turns in a seeded order (each
        // rank's own phases in theirs)
        let mut turns: Vec<usize> = (0..6 * n).map(|i| i % n).collect();
        DetRng::seed_from_u64(0xBEEF).shuffle(&mut turns);
        let mut shuffled = Schedule::new(n);
        let local = |r: usize, k: usize| (r % 3 + k) as f64 * 1e-7;
        for r in 0..n {
            for (k, ph) in rounds.phases(r).enumerate() {
                base.push_phase(r, local(r, k), ph.sends.iter().copied(), ph.recvs.iter().copied());
            }
        }
        let mut next = vec![0; n];
        for r in turns {
            let (k, ph) = (next[r], rounds.phases(r).nth(next[r]).unwrap());
            shuffled.push_phase(r, local(r, k), ph.sends.iter().copied(), ph.recvs.iter().copied());
            next[r] += 1;
        }
        assert_eq!(shuffled, base);

        let engine = Engine::new(&layout, SimConfig::niagara());
        let p = seeded_perturbation(n);
        for perturbation in [None, Some(&p)] {
            for threads in [1, 3] {
                let pool = WorkerPool::new(threads);
                let want = engine.replay(&base, &pool, perturbation).unwrap();
                let got = engine.replay(&shuffled, &pool, perturbation).unwrap();
                assert_eq!(want.report.makespan.to_bits(), got.report.makespan.to_bits());
                assert_eq!(bits(&want.report.per_rank_finish), bits(&got.report.per_rank_finish));
                assert_eq!(bits(&want.report.port_busy), bits(&got.report.port_busy));
                assert_eq!(want.report.stats, got.report.stats);
                assert_eq!(bits(&want.arrival), bits(&got.arrival));
            }
        }
    }

    #[test]
    fn oversized_and_invalid_schedules_fail_typed_and_in_order() {
        let layout = ClusterLayout::new(2, 1, 1);
        let engine = Engine::new(&layout, SimConfig::niagara());
        let m = Msg { src: 0, dst: 1, bytes: 8, tag: 0 };
        // more ranks than the `u32` id space: refused before anything is
        // sized by the rank count ...
        let huge = Schedule::new(u32::MAX as usize);
        for pool in [WorkerPool::serial(), WorkerPool::new(3)] {
            let err = engine.run_sharded(&huge, &pool).unwrap_err();
            assert_eq!(err, SimError::ScheduleTooLarge { messages: 0 });
        }
        // ... but after a bad perturbation
        let bad = Perturbation { jitter_p: 2.0, ..Perturbation::none() };
        let err = engine.run_perturbed(&huge, &bad).unwrap_err();
        assert!(matches!(err, SimError::InvalidPerturbation(_)), "{err:?}");
        // more ranks than cores: an invalid schedule is reported as that,
        // a valid one as too large for the layout
        let mut s = Schedule::new(8);
        s.push(0, vec![m], vec![]);
        let invalid = SimError::InvalidSchedule(s.validate().unwrap_err());
        assert_eq!(engine.run(&s).unwrap_err(), invalid);
        s.push(1, vec![], vec![m]);
        let too_small = SimError::LayoutTooSmall { ranks: 8, capacity: 2 };
        assert_eq!(engine.run(&s).unwrap_err(), too_small);
        assert_eq!(engine.run_sharded(&s, &WorkerPool::new(3)).unwrap_err(), too_small);
    }

    #[test]
    fn invalid_schedules_report_the_serial_error() {
        let layout = ClusterLayout::new(2, 1, 1);
        let engine = Engine::new(&layout, SimConfig::niagara());
        let canonical = |s: &Schedule| SimError::InvalidSchedule(s.validate().unwrap_err());
        // Send with no matching recv.
        let mut unmatched = Schedule::new(2);
        unmatched.push(0, vec![Msg { src: 0, dst: 1, bytes: 8, tag: 0 }], vec![]);
        // Size mismatch.
        let mut mismatch = Schedule::new(2);
        mismatch.push(0, vec![Msg { src: 0, dst: 1, bytes: 8, tag: 0 }], vec![]);
        mismatch.push(1, vec![], vec![Msg { src: 0, dst: 1, bytes: 16, tag: 0 }]);
        for s in [&unmatched, &mismatch] {
            assert_eq!(engine.run(s).unwrap_err(), canonical(s));
            assert_eq!(engine.run_sharded(s, &WorkerPool::new(4)).unwrap_err(), canonical(s));
        }
    }

    #[test]
    fn deadlock_and_capacity_match_serial() {
        let layout = ClusterLayout::new(2, 1, 1);
        let pool = WorkerPool::new(4);
        let engine = Engine::new(&layout, SimConfig::niagara());
        // Mutual cross-phase waits: 0 waits for 1's phase-1 send and vice
        // versa — valid per the matcher, but cyclic.
        let mut s = Schedule::new(2);
        let a = Msg { src: 0, dst: 1, bytes: 8, tag: 0 };
        let b = Msg { src: 1, dst: 0, bytes: 8, tag: 1 };
        s.push(0, vec![], vec![b]);
        s.push(0, vec![a], vec![]);
        s.push(1, vec![], vec![a]);
        s.push(1, vec![b], vec![]);
        let serial = engine.run(&s).unwrap_err();
        let sharded = engine.run_sharded(&s, &pool).unwrap_err();
        assert!(matches!(serial, SimError::Deadlock(_)));
        assert_eq!(serial, sharded);

        // More ranks than cores.
        let big = perm_rounds(8, 1, 3);
        let serial = engine.run(&big).unwrap_err();
        assert!(matches!(serial, SimError::LayoutTooSmall { .. }));
        assert_eq!(serial, engine.run_sharded(&big, &pool).unwrap_err());
    }

    #[test]
    fn recorded_replay_matches_serial_recorder() {
        use nhood_telemetry::CountingRecorder;
        let layout = ClusterLayout::new(4, 1, 2);
        let s = perm_rounds(8, 3, 11);
        let engine = Engine::new(&layout, SimConfig::niagara());
        let serial_rec = CountingRecorder::new(8);
        engine.run_sharded_recorded(&s, &WorkerPool::serial(), &serial_rec).unwrap();
        let sharded_rec = CountingRecorder::new(8);
        let pool = WorkerPool::new(4);
        engine.run_sharded_recorded(&s, &pool, &sharded_rec).unwrap();
        for r in 0..8 {
            assert_eq!(serial_rec.per_rank(r), sharded_rec.per_rank(r), "rank {r}");
        }
        assert_eq!(serial_rec.totals(), sharded_rec.totals());
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
                    for threads in [1, 2, 3, 8] {
                        let pool = WorkerPool::new(threads);
                        let rep = engine.replay(s, &pool, perturbation).unwrap().report;
                        let got = [
                            rep.makespan.to_bits(),
                            fold_bits(&rep.per_rank_finish),
                            fold_bits(&rep.port_busy),
                        ];
                        assert_eq!(
                            got,
                            *want,
                            "config {i}, perturbed {}, {threads} threads",
                            perturbation.is_some()
                        );
                    }
                }
            }
        }
    }
}
