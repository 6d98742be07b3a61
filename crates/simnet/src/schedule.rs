//! Communication schedules: what the simulator executes.
//!
//! A [`Schedule`] is the simulator-facing description of one collective
//! operation: for every rank, an ordered list of [`Phase`]s. A phase
//! mirrors one `irecv*/isend*/waitall` block of the paper's Algorithm 4 —
//! the rank posts all the phase's receives and sends, waits for all of
//! them, then moves to the next phase. A schedule states each message
//! once, as its send: the send names the phase of its receiver that
//! waits for it, and a phase's receives are the sends that name it
//! (derived once, by [`crate::Engine::prepare`]). `(src, dst, tag)` must
//! be unique per schedule — it keys a message's jitter (collective
//! algorithms get this for free by tagging with the step number).
//! A schedule's structure is prepared once ([`crate::Prepared`]); a
//! lowering that re-prices it writes only [`PriceColumns`].

use crate::engine::SimError;
use crate::sharded::Prepared;
use nhood_cluster::Rank;
use std::ops::Range;

/// One directed message: `bytes` from `src` to `dst`, received in `dst`'s
/// phase `recv_phase`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Msg {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Payload size in bytes (zero-byte messages still pay α).
    pub bytes: usize,
    /// Message tag; `(src, dst, tag)` must be schedule-unique.
    pub tag: u64,
    /// The phase of `dst` that waits for this message, as an index among
    /// `dst`'s phases (a lock-step schedule passes the send's own).
    pub recv_phase: usize,
}

/// One post-and-wait block of a rank's program: a view into the
/// schedule's tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phase<'a> {
    /// Local (CPU/memcpy) time charged before any communication of the
    /// phase starts — used for the pack/copy overheads of Algorithm 4.
    pub local_seconds: f64,
    /// Messages this rank sends in this phase, issued in order.
    pub sends: &'a [Msg],
}

/// One phase row: its local work, and where its sends end in the send
/// table (they start where the row before it ends).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Row {
    pub(crate) local_seconds: f64,
    pub(crate) send_end: usize,
}

/// A complete communication schedule over `n` ranks, as flat tables in
/// program order (rank, phase, index): one row per phase and one send
/// table — so a send's row index *is* the dense id the engine names it
/// by.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    n: usize,
    /// Rank `r`'s phases are rows `phase_off[r]..phase_off[r + 1]`. Written
    /// up to the highest rank pushed so far: every later rank's (empty)
    /// program starts where the table ends.
    phase_off: Vec<usize>,
    pub(crate) rows: Vec<Row>,
    pub(crate) send_table: Vec<Msg>,
}

impl Schedule {
    /// Creates an empty schedule for `n` ranks (each with zero phases).
    pub fn new(n: usize) -> Self {
        Self { n, ..Self::default() }
    }

    /// [`new`](Self::new) with every table allocated once, for `phases`
    /// phases holding `sends` sends in all.
    pub fn with_rows(n: usize, phases: usize, sends: usize) -> Self {
        let (phase_off, rows) = (Vec::with_capacity(n), Vec::with_capacity(phases));
        Self { n, phase_off, rows, send_table: Vec::with_capacity(sends) }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The phase rows of the ranks in `ranks`.
    pub(crate) fn rows(&self, ranks: Range<Rank>) -> Range<usize> {
        assert!(ranks.end <= self.n, "ranks {ranks:?} of a {}-rank schedule", self.n);
        let first = |r: Rank| self.phase_off.get(r).copied().unwrap_or(self.rows.len());
        first(ranks.start)..first(ranks.end)
    }

    /// The send-table rows — the send ids — of the phase rows `rows`.
    pub(crate) fn send_ids(&self, rows: Range<usize>) -> Range<usize> {
        let at = |p: usize| self.rows[..p].last().map_or(0, |r| r.send_end);
        at(rows.start)..at(rows.end)
    }

    /// Phase row `p`.
    pub(crate) fn row(&self, p: usize) -> Phase<'_> {
        let sends = &self.send_table[self.send_ids(p..p + 1)];
        Phase { local_seconds: self.rows[p].local_seconds, sends }
    }

    /// Phases of rank `r`, in program order; `len()` is their number.
    ///
    /// # Panics
    /// If `r` is not a rank of the schedule (`r >= n`).
    pub fn phases(&self, r: Rank) -> impl ExactSizeIterator<Item = Phase<'_>> + Clone {
        self.rows(r..r + 1).map(|p| self.row(p))
    }

    /// Convenience: appends a phase without local work.
    ///
    /// # Panics
    /// As [`PhaseWriter::push_phase`].
    pub fn push<I: IntoIterator<Item = Msg>>(&mut self, r: Rank, sends: I) {
        self.push_phase(r, 0.0, sends);
    }

    /// Total number of messages.
    pub fn message_count(&self) -> usize {
        self.send_table.len()
    }

    /// Every message in the schedule, in program order (rank by rank,
    /// phase by phase): index = send id.
    pub fn all_sends(&self) -> &[Msg] {
        &self.send_table
    }

    /// Total bytes sent.
    pub fn total_bytes(&self) -> usize {
        self.send_table.iter().map(|m| m.bytes).sum()
    }

    /// Checks structural sanity:
    ///
    /// * every `Msg` in rank `r`'s sends has `src == r`;
    /// * its `dst` is a rank other than `r`, and `recv_phase` one of
    ///   `dst`'s phases;
    /// * `(src, dst, tag)` keys are unique;
    ///
    /// then its prices: every `local_seconds` finite and non-negative.
    ///
    /// Returns a description of the first problem found, and *first* is
    /// part of the contract (a schedule always gets the same text): the
    /// structure before the prices. Send defects (wrong owner,
    /// out-of-range, self-send, a receiving phase `dst` does not have) in
    /// program order — rank, phase, index; then a duplicate send key,
    /// lowest `(dst, src, tag)`; then a bad `local_seconds` in program
    /// order. It is [`crate::Engine::prepare`]'s check, then
    /// [`crate::Engine::run_prepared`]'s price check: a run names the
    /// same defect in the same words.
    pub fn validate(&self) -> Result<(), String> {
        let text = |e| match e {
            SimError::InvalidSchedule(why) => why,
            other => other.to_string(),
        };
        let prepared = Prepared::indexed(self).map_err(text)?;
        prepared.check_prices(&PriceColumns::from(self))
    }
}

/// What one run of a [`crate::Prepared`] structure pays, in the program
/// order of the schedule it was prepared from.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PriceColumns {
    /// Bytes per send, by send id.
    pub send_bytes: Vec<usize>,
    /// Local work per phase row, seconds.
    pub local_seconds: Vec<f64>,
}

/// A schedule's own prices: what a cold run replays.
impl From<&Schedule> for PriceColumns {
    fn from(s: &Schedule) -> Self {
        Self {
            send_bytes: s.send_table.iter().map(|m| m.bytes).collect(),
            local_seconds: s.rows.iter().map(|p| p.local_seconds).collect(),
        }
    }
}

/// Where a lowering writes, phase by phase and rank by rank: a whole
/// [`Schedule`], or the [`PriceColumns`] of a structure prepared before.
pub trait PhaseWriter {
    /// Appends a phase to rank `r`'s program.
    ///
    /// # Panics
    /// A [`Schedule`] panics if `r` is not one of its ranks (`r >= n`).
    fn push_phase(&mut self, r: Rank, local_seconds: f64, sends: impl IntoIterator<Item = Msg>);
}

impl PhaseWriter for Schedule {
    /// Appends a phase to rank `r`'s program; its messages are checked
    /// only by [`validate`](Schedule::validate). The tables stay in
    /// program order whatever order the ranks come in, so a push behind
    /// the highest rank written so far moves every later row: a bulk
    /// writer goes rank by rank, and then no row ever moves.
    ///
    /// # Panics
    /// If `r` is not a rank of the schedule (`r >= n`).
    fn push_phase(&mut self, r: Rank, local_seconds: f64, sends: impl IntoIterator<Item = Msg>) {
        assert!(r < self.n, "rank {r} of a {}-rank schedule", self.n);
        self.phase_off.resize(self.phase_off.len().max(r + 1), self.rows.len());
        // the new row goes after rank `r`'s last, its sends likewise:
        // appended, then rotated past the later ranks' (none, rank by rank)
        let p = self.rows(r..r + 1).end;
        let at = self.send_ids(p..p).start;
        let had = self.send_table.len();
        self.send_table.extend(sends);
        let sends = self.send_table.len() - had;
        self.send_table[at..].rotate_right(sends);
        self.rows.insert(p, Row { local_seconds, send_end: at + sends });
        self.rows[p + 1..].iter_mut().for_each(|later| later.send_end += sends);
        self.phase_off[r + 1..].iter_mut().for_each(|off| *off += 1);
    }
}

impl PhaseWriter for PriceColumns {
    fn push_phase(&mut self, _: Rank, local_seconds: f64, sends: impl IntoIterator<Item = Msg>) {
        self.local_seconds.push(local_seconds);
        self.send_bytes.extend(sends.into_iter().map(|m| m.bytes));
    }
}

/// The send-key check a schedule and a plan share: `(src, dst, tag)`
/// triples indexed by `(dst, src, tag)` without hashing — a counting sort
/// by destination into one slot vector (two allocations whatever the
/// message count, no `n × n` table), then each bucket ordered by
/// `(src, tag)`, where a repeated key sits next to its twin.
/// `docs/SCALE.md` has the method.
pub struct SendIndex;

impl SendIndex {
    /// Indexes `sends` — `(src, dst, tag)` triples over `n` ranks. `Err`
    /// carries a key two sends share: the lowest `(dst, src, tag)` among
    /// the repeated ones.
    ///
    /// # Panics
    /// Panics if a `dst` is `>= n` (range-check before indexing) or the
    /// sends do not fit `u32` offsets.
    pub fn build(
        n: usize,
        sends: impl Iterator<Item = (Rank, Rank, u64)> + Clone,
    ) -> Result<(), (Rank, Rank, u64)> {
        const FIT: &str = "send counts fit u32";
        let mut off = vec![0u32; n + 1];
        for (_, dst, _) in sends.clone() {
            off[dst + 1] += 1;
        }
        for d in 0..n {
            off[d + 1] = off[d].checked_add(off[d + 1]).expect(FIT);
        }
        // Fill with `off[d]` as bucket `d`'s cursor: afterwards it is
        // the bucket's end, so shifting by one restores the starts.
        let mut slots = vec![(0, 0); off[n] as usize];
        for (src, dst, tag) in sends {
            slots[off[dst] as usize] = (src, tag);
            off[dst] += 1;
        }
        off.rotate_right(1);
        off[0] = 0;
        // Sends come by rank, then phase, which leaves a bucket ordered by
        // `(src, tag)` whenever tags grow with the phase: sort, and look
        // for a repeated key, only where that failed.
        for d in 0..n {
            let bucket = &mut slots[off[d] as usize..off[d + 1] as usize];
            if !bucket.windows(2).all(|w| w[0] < w[1]) {
                bucket.sort_unstable();
                if let Some(w) = bucket.windows(2).find(|w| w[0] == w[1]) {
                    return Err((w[0].0, d, w[0].1));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: Rank, dst: Rank, bytes: usize, tag: u64, recv_phase: usize) -> Msg {
        Msg { src, dst, bytes, tag, recv_phase }
    }

    #[test]
    fn build_and_count() {
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 1, 100, 0, 0)]);
        s.push(1, vec![]);
        assert_eq!(s.message_count(), 1);
        assert_eq!(s.total_bytes(), 100);
        assert_eq!(s.phases(0).len(), 1);
        s.validate().unwrap();
    }

    #[test]
    fn empty_ranks_empty_phases_and_the_empty_schedule_read_back() {
        let empty = Schedule::new(0);
        assert_eq!((empty.n(), empty.message_count()), (0, 0));
        assert!(empty.all_sends().is_empty());
        empty.validate().unwrap();

        // ranks 0, 2 and 4 stay without a phase; rank 1 holds a
        // send-only, an empty and a receiving phase, pushed behind rank 3
        let (a, b) = (msg(1, 3, 8, 0, 0), msg(3, 1, 4, 1, 2));
        let mut s = Schedule::new(5);
        s.push(3, vec![]);
        s.push_phase(1, 2e-6, vec![a]);
        s.push(1, vec![]);
        s.push(1, vec![]);
        s.push(3, vec![b]);
        let shape = |r| s.phases(r).map(|p| p.sends.len()).collect::<Vec<_>>();
        assert_eq!(shape(1), [1, 0, 0]);
        assert_eq!(shape(3), [0, 1]);
        assert!([0, 2, 4].into_iter().all(|r| s.phases(r).len() == 0));
        assert_eq!(s.phases(1).next().unwrap(), Phase { local_seconds: 2e-6, sends: &[a] });
        assert_eq!(s.all_sends(), [a, b], "program order: rank 1's send sits before rank 3's");
        s.validate().unwrap();

        // ... which is the schedule the same phases give rank by rank
        let mut in_order = Schedule::with_rows(5, 5, 2);
        in_order.push_phase(1, 2e-6, vec![a]);
        in_order.push(1, vec![]);
        in_order.push(1, vec![]);
        in_order.push(3, vec![]);
        in_order.push(3, vec![b]);
        assert_eq!(s, in_order);
    }

    #[test]
    #[should_panic(expected = "rank 5 of a 5-rank schedule")]
    fn a_phase_of_a_rank_the_schedule_does_not_have_is_refused() {
        Schedule::new(5).push(5, vec![]);
    }

    #[test]
    #[should_panic(expected = "ranks 2..3 of a 2-rank schedule")]
    fn the_phases_of_a_rank_the_schedule_does_not_have_are_refused() {
        let mut s = Schedule::new(2);
        s.push(1, vec![]);
        let _ = s.phases(2);
    }

    #[test]
    fn validate_catches_a_receiving_phase_dst_does_not_have() {
        // rank 1 without a phase, then with two: index 2 is past them
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 1, 8, 0, 0)]);
        assert_eq!(
            s.validate().unwrap_err(),
            "rank 0 phase 0: send to rank 1 phase 0, beyond its 0"
        );
        s.push(1, vec![]);
        s.push(1, vec![]);
        s.push(0, vec![msg(0, 1, 8, 1, 2)]);
        assert_eq!(
            s.validate().unwrap_err(),
            "rank 0 phase 1: send to rank 1 phase 2, beyond its 2"
        );
    }

    #[test]
    fn validate_catches_wrong_owner() {
        let mut s = Schedule::new(3);
        s.push(0, vec![msg(1, 2, 8, 0, 0)]);
        assert!(s.validate().unwrap_err().contains("send with src"));
    }

    #[test]
    fn validate_catches_self_send_and_range() {
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 0, 8, 0, 0)]);
        assert!(s.validate().unwrap_err().contains("send to self"));
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 5, 8, 0, 0)]);
        assert!(s.validate().unwrap_err().contains("out-of-range"));
    }

    #[test]
    fn validate_catches_duplicate_keys() {
        let mut s = Schedule::new(3);
        s.push(0, vec![msg(0, 1, 8, 7, 0), msg(0, 1, 8, 7, 0)]);
        s.push(1, vec![]);
        assert!(s.validate().unwrap_err().contains("duplicate send key"));
    }

    #[test]
    fn the_reported_defect_is_a_function_of_the_schedule() {
        // A ring of one phase per rank whose last eight sends name a
        // second phase the receiver lacks, and whose first eight repeat
        // a key: the contract names the first bad receiving phase in
        // program order, before any duplicate, every time.
        let n = 16;
        let mut s = Schedule::new(n);
        for r in 0..n {
            let to = (r + 1) % n;
            let mut sends = vec![msg(r, to, 8, 0, usize::from(r >= 8))];
            if r < 8 {
                sends.push(msg(r, to, 8, 0, 0));
            }
            s.push(r, sends);
        }
        for _ in 0..64 {
            let e = s.validate().unwrap_err();
            assert_eq!(e, "rank 8 phase 0: send to rank 9 phase 1, beyond its 1");
        }
        // with every receiving phase in range, the lowest (dst, src, tag)
        // duplicate
        let mut s = Schedule::new(n);
        for r in 0..n {
            let to = (r + 1) % n;
            s.push(r, std::iter::repeat_n(msg(r, to, 8, 0, 0), 1 + usize::from(r < 8)));
        }
        for _ in 0..64 {
            let e = s.validate().unwrap_err();
            assert_eq!(e, "duplicate send key (src 0, dst 1, tag 0)");
        }
    }

    #[test]
    fn index_orders_buckets_and_names_the_lowest_duplicate() {
        // tags fall with the send order, so both buckets need the sort
        let sends = [(2, 0, 5), (2, 0, 1), (1, 0, 9), (3, 4, 7), (0, 4, 7)];
        assert_eq!(SendIndex::build(5, sends.iter().copied()), Ok(()));
        let twice = [(3, 4, 7), (1, 2, 8), (1, 2, 3), (3, 4, 7), (1, 2, 8)];
        let dup = SendIndex::build(5, twice.iter().copied()).err();
        assert_eq!(dup, Some((1, 2, 8)), "dst 2 sorts before dst 4");
    }

    #[test]
    fn validate_accepts_multi_phase_exchange() {
        let mut s = Schedule::new(2);
        // two-step ping-pong with distinct tags
        s.push(0, vec![msg(0, 1, 64, 0, 0)]);
        s.push(1, vec![msg(1, 0, 64, 1, 0)]);
        s.validate().unwrap();
        assert_eq!(s.message_count(), 2);
    }
}
