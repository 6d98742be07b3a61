//! Per-rank counters.

use crate::{Rank, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One rank's counter cells. The event counters are atomics updated with
/// `Relaxed` ordering — tallies, not synchronization, exactly like the
/// fault layer's `FaultStats`. The traffic sums sit behind one lock, so
/// a record costs one uncontended lock and unlock however many of its
/// seven fields are non-zero (a `fetch_add` per field costs about twice
/// as much on `gather-small`).
#[derive(Debug, Default)]
struct Cells {
    traffic: Mutex<Traffic>,
    retries: AtomicU64,
    fallbacks: AtomicU64,
    negotiation_rounds: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    repairs: AtomicU64,
}

impl Cells {
    /// The traffic sums. Nothing panics while holding them, and a sum
    /// stays a sum even if something did: a poisoned lock is used as is.
    fn traffic(&self) -> MutexGuard<'_, Traffic> {
        self.traffic.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn bump(cell: &AtomicU64, by: u64) {
    cell.fetch_add(by, Ordering::Relaxed);
}

/// A plain-value snapshot of one rank's counters (or a sum over ranks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Messages handed to the transport.
    pub msgs_sent: u64,
    /// Payload bytes handed to the transport.
    pub bytes_sent: u64,
    /// Messages consumed.
    pub msgs_recvd: u64,
    /// Payload bytes consumed.
    pub bytes_recvd: u64,
    /// Block copies charged (pack/unpack).
    pub copies: u64,
    /// Dropped sends that were retried.
    pub retries: u64,
    /// Degradations to the fallback plan.
    pub fallbacks: u64,
    /// Completed agent-negotiation rounds.
    pub negotiation_rounds: u64,
    /// Sent messages whose destination lives on another socket
    /// (only counted when a socket map was supplied).
    pub msgs_off_socket: u64,
    /// Bytes in off-socket sends.
    pub bytes_off_socket: u64,
    /// Sent messages whose destination shares the sender's socket.
    pub msgs_intra_socket: u64,
    /// Bytes in intra-socket sends.
    pub bytes_intra_socket: u64,
    /// Plan-cache lookups served from the cache.
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that fell through to a cold build.
    pub plan_cache_misses: u64,
    /// Incremental plan repairs (churn or link-down recovery).
    pub repairs: u64,
}

impl Counts {
    /// Element-wise sum of two snapshots.
    #[must_use]
    pub fn merged(self, o: Counts) -> Counts {
        Counts {
            msgs_sent: self.msgs_sent + o.msgs_sent,
            bytes_sent: self.bytes_sent + o.bytes_sent,
            msgs_recvd: self.msgs_recvd + o.msgs_recvd,
            bytes_recvd: self.bytes_recvd + o.bytes_recvd,
            copies: self.copies + o.copies,
            retries: self.retries + o.retries,
            fallbacks: self.fallbacks + o.fallbacks,
            negotiation_rounds: self.negotiation_rounds + o.negotiation_rounds,
            msgs_off_socket: self.msgs_off_socket + o.msgs_off_socket,
            bytes_off_socket: self.bytes_off_socket + o.bytes_off_socket,
            msgs_intra_socket: self.msgs_intra_socket + o.msgs_intra_socket,
            bytes_intra_socket: self.bytes_intra_socket + o.bytes_intra_socket,
            plan_cache_hits: self.plan_cache_hits + o.plan_cache_hits,
            plan_cache_misses: self.plan_cache_misses + o.plan_cache_misses,
            repairs: self.repairs + o.repairs,
        }
    }
}

impl std::fmt::Display for Counts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sent {} msgs / {} B, recvd {} msgs / {} B, {} copies, \
             {} retries, {} fallbacks, {} negotiation rounds",
            self.msgs_sent,
            self.bytes_sent,
            self.msgs_recvd,
            self.bytes_recvd,
            self.copies,
            self.retries,
            self.fallbacks,
            self.negotiation_rounds
        )
    }
}

/// One rank's traffic in one request: what an executor tallies in plain
/// integers while it runs the rank, and hands to [`Recorder::traffic`]
/// once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Messages handed to the transport (once each, however many
    /// attempts the fault layer takes).
    pub msgs_sent: u64,
    /// Payload bytes handed to the transport.
    pub bytes_sent: u64,
    /// Messages consumed.
    pub msgs_recvd: u64,
    /// Payload bytes consumed.
    pub bytes_recvd: u64,
    /// Block copies charged (pack/unpack).
    pub copies: u64,
    /// Sent messages whose destination shares the sender's socket under
    /// the [`Tally`]'s map (zero without one).
    pub msgs_intra_socket: u64,
    /// Bytes in those sends.
    pub bytes_intra_socket: u64,
}

impl Traffic {
    /// Counts a message of `bytes` from `src` to `dst`, intra-socket when
    /// `tally`'s map puts both ranks on one socket.
    #[inline]
    pub fn send(&mut self, tally: Tally<'_>, src: Rank, dst: Rank, bytes: usize) {
        self.msgs_sent += 1;
        self.bytes_sent += bytes as u64;
        if tally.socket_of.is_some_and(|socket| socket[src] == socket[dst]) {
            self.msgs_intra_socket += 1;
            self.bytes_intra_socket += bytes as u64;
        }
    }

    /// Counts a consumed message of `bytes`.
    #[inline]
    pub fn recv(&mut self, bytes: usize) {
        self.msgs_recvd += 1;
        self.bytes_recvd += bytes as u64;
    }
}

/// How a recorder wants [`Traffic`] tallied ([`Recorder::tally`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally<'a> {
    /// `socket_of[r]` = the socket of rank `r`, when the recorder splits
    /// sends by locality.
    pub socket_of: Option<&'a [usize]>,
}

/// Per-rank counters. An executor hands over a request's traffic once
/// per rank ([`Recorder::traffic`]), so counting a request costs one
/// uncontended lock per rank whatever its message count; every other
/// hook is one relaxed `fetch_add`. On the repo benchmark's
/// `gather-small` (n = 64, ~600 messages a request) that adds about
/// 14 % to the uninstrumented replay's time, where a hook per message
/// (two dynamic calls and four `fetch_add`s each) more than doubled it.
#[derive(Debug)]
pub struct CountingRecorder {
    cells: Vec<Cells>,
    /// `socket_of[r]` = global socket index of rank `r`; enables the
    /// off-socket / intra-socket split used by the model check.
    socket_of: Option<Vec<usize>>,
}

impl CountingRecorder {
    /// Counters for `n` ranks, without locality classification.
    pub fn new(n: usize) -> Self {
        Self { cells: (0..n).map(|_| Cells::default()).collect(), socket_of: None }
    }

    /// Counters for `socket_of.len()` ranks; sends are additionally
    /// classified off-socket vs. intra-socket via the map.
    pub fn with_sockets(socket_of: Vec<usize>) -> Self {
        Self {
            cells: (0..socket_of.len()).map(|_| Cells::default()).collect(),
            socket_of: Some(socket_of),
        }
    }

    /// Number of ranks tracked.
    pub fn n(&self) -> usize {
        self.cells.len()
    }

    /// Snapshot of one rank's counters.
    pub fn per_rank(&self, r: Rank) -> Counts {
        let (c, ld) = (&self.cells[r], |a: &AtomicU64| a.load(Ordering::Relaxed));
        let t = *c.traffic();
        // under a socket map every send is intra- or off-socket; without
        // one, neither is counted
        let split = |x: u64| if self.classifies_sockets() { x } else { 0 };
        let (intra_msgs, intra_bytes) = (split(t.msgs_intra_socket), split(t.bytes_intra_socket));
        Counts {
            msgs_sent: t.msgs_sent,
            bytes_sent: t.bytes_sent,
            msgs_recvd: t.msgs_recvd,
            bytes_recvd: t.bytes_recvd,
            copies: t.copies,
            retries: ld(&c.retries),
            fallbacks: ld(&c.fallbacks),
            negotiation_rounds: ld(&c.negotiation_rounds),
            msgs_off_socket: split(t.msgs_sent).saturating_sub(intra_msgs),
            bytes_off_socket: split(t.bytes_sent).saturating_sub(intra_bytes),
            msgs_intra_socket: intra_msgs,
            bytes_intra_socket: intra_bytes,
            plan_cache_hits: ld(&c.plan_cache_hits),
            plan_cache_misses: ld(&c.plan_cache_misses),
            repairs: ld(&c.repairs),
        }
    }

    /// Sum over all ranks.
    pub fn totals(&self) -> Counts {
        (0..self.n()).map(|r| self.per_rank(r)).fold(Counts::default(), Counts::merged)
    }

    /// Whether sends are being classified by socket locality.
    pub fn classifies_sockets(&self) -> bool {
        self.socket_of.is_some()
    }
}

impl Recorder for CountingRecorder {
    fn tally(&self) -> Option<Tally<'_>> {
        Some(Tally { socket_of: self.socket_of.as_deref() })
    }

    fn traffic(&self, rank: Rank, t: &Traffic) {
        let mut sum = self.cells[rank].traffic();
        let s = &mut *sum;
        let fields = [
            (&mut s.msgs_sent, t.msgs_sent),
            (&mut s.bytes_sent, t.bytes_sent),
            (&mut s.msgs_recvd, t.msgs_recvd),
            (&mut s.bytes_recvd, t.bytes_recvd),
            (&mut s.copies, t.copies),
            (&mut s.msgs_intra_socket, t.msgs_intra_socket),
            (&mut s.bytes_intra_socket, t.bytes_intra_socket),
        ];
        for (cell, by) in fields {
            *cell = cell.wrapping_add(by);
        }
    }

    fn retry(&self, rank: Rank) {
        bump(&self.cells[rank].retries, 1);
    }

    fn fallback(&self, rank: Rank) {
        bump(&self.cells[rank].fallbacks, 1);
    }

    fn negotiation_round(&self, rank: Rank) {
        bump(&self.cells[rank].negotiation_rounds, 1);
    }

    fn plan_cache(&self, rank: Rank, hit: bool) {
        let c = &self.cells[rank];
        bump(if hit { &c.plan_cache_hits } else { &c.plan_cache_misses }, 1);
    }

    fn repair(&self, rank: Rank) {
        bump(&self.cells[rank].repairs, 1);
    }

    fn counts(&self) -> Option<Counts> {
        Some(self.totals())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rank`'s traffic of `sends` (peer, bytes) and `recvs` (bytes),
    /// tallied under `rec`'s own map and handed over once.
    fn hand_over(rec: &CountingRecorder, rank: Rank, sends: &[(Rank, usize)], recvs: &[usize]) {
        let (tally, mut t) =
            (rec.tally().expect("a counting recorder tallies"), Traffic::default());
        sends.iter().for_each(|&(peer, bytes)| t.send(tally, rank, peer, bytes));
        recvs.iter().for_each(|&bytes| t.recv(bytes));
        rec.traffic(rank, &t);
    }

    #[test]
    fn counts_accumulate_per_rank() {
        let rec = CountingRecorder::new(3);
        hand_over(&rec, 0, &[(1, 100), (2, 50)], &[]);
        hand_over(&rec, 1, &[], &[100]);
        rec.traffic(2, &Traffic { copies: 4, ..Traffic::default() });
        rec.retry(0);
        rec.negotiation_round(1);
        rec.fallback(0);

        let r0 = rec.per_rank(0);
        assert_eq!(r0.msgs_sent, 2);
        assert_eq!(r0.bytes_sent, 150);
        assert_eq!(r0.retries, 1);
        assert_eq!(r0.fallbacks, 1);
        assert_eq!(rec.per_rank(1).msgs_recvd, 1);
        assert_eq!(rec.per_rank(1).negotiation_rounds, 1);
        assert_eq!(rec.per_rank(2).copies, 4);

        let t = rec.totals();
        assert_eq!(t.msgs_sent, 2);
        assert_eq!(t.bytes_sent, 150);
        assert_eq!(t.bytes_recvd, 100);
        assert_eq!(rec.counts(), Some(t));
    }

    #[test]
    fn socket_map_classifies_sends() {
        // ranks 0,1 on socket 0; ranks 2,3 on socket 1
        let rec = CountingRecorder::with_sockets(vec![0, 0, 1, 1]);
        hand_over(&rec, 0, &[(1, 10), (2, 20)], &[]); // intra, off
        hand_over(&rec, 3, &[(2, 30)], &[]); // intra
        let t = rec.totals();
        assert_eq!(t.msgs_intra_socket, 2);
        assert_eq!(t.bytes_intra_socket, 40);
        assert_eq!(t.msgs_off_socket, 1);
        assert_eq!(t.bytes_off_socket, 20);
        assert!(rec.classifies_sockets());
    }

    #[test]
    fn unclassified_recorder_leaves_locality_zero() {
        let rec = CountingRecorder::new(2);
        hand_over(&rec, 0, &[(1, 10)], &[]);
        // a record split under some other map does not split here
        rec.traffic(1, &Traffic { msgs_sent: 1, msgs_intra_socket: 1, ..Traffic::default() });
        let t = rec.totals();
        assert_eq!(t.msgs_sent, 2);
        assert_eq!(t.msgs_off_socket + t.msgs_intra_socket, 0);
    }

    #[test]
    fn a_record_claiming_more_intra_than_sent_counts_no_off_socket_share() {
        let rec = CountingRecorder::with_sockets(vec![0, 0]);
        rec.traffic(0, &Traffic { msgs_sent: 1, msgs_intra_socket: 2, ..Traffic::default() });
        hand_over(&rec, 0, &[(1, 10)], &[]);
        let c = rec.per_rank(0);
        assert_eq!((c.msgs_sent, c.msgs_intra_socket, c.msgs_off_socket), (2, 3, 0));
    }

    #[test]
    fn plan_cache_lookups_split_by_outcome() {
        let rec = CountingRecorder::new(2);
        rec.plan_cache(0, false);
        rec.plan_cache(0, true);
        rec.plan_cache(1, true);
        assert_eq!(rec.per_rank(0).plan_cache_hits, 1);
        assert_eq!(rec.per_rank(0).plan_cache_misses, 1);
        let t = rec.totals();
        assert_eq!(t.plan_cache_hits, 2);
        assert_eq!(t.plan_cache_misses, 1);
    }

    #[test]
    fn repairs_are_counted_and_merged() {
        let rec = CountingRecorder::new(2);
        rec.repair(0);
        rec.repair(0);
        rec.repair(1);
        assert_eq!(rec.per_rank(0).repairs, 2);
        assert_eq!(rec.totals().repairs, 3);
        let m = Counts { repairs: 1, ..Counts::default() }
            .merged(Counts { repairs: 4, ..Counts::default() });
        assert_eq!(m.repairs, 5);
    }

    #[test]
    fn merged_adds_elementwise() {
        let a = Counts { msgs_sent: 1, bytes_sent: 2, ..Counts::default() };
        let b = Counts { msgs_sent: 10, retries: 3, ..Counts::default() };
        let m = a.merged(b);
        assert_eq!(m.msgs_sent, 11);
        assert_eq!(m.bytes_sent, 2);
        assert_eq!(m.retries, 3);
    }

    #[test]
    fn concurrent_bumps_are_not_lost() {
        let rec = std::sync::Arc::new(CountingRecorder::new(4));
        let mut handles = Vec::new();
        for r in 0..4 {
            let rec = std::sync::Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    hand_over(&rec, r, &[((r + 1) % 4, 8)], &[]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.totals().msgs_sent, 4000);
        assert_eq!(rec.totals().bytes_sent, 32000);
    }
}
