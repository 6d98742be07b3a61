//! Communication schedules: what the simulator executes.
//!
//! A [`Schedule`] is the simulator-facing description of one collective
//! operation: for every rank, an ordered list of [`Phase`]s. A phase
//! mirrors one `irecv*/isend*/waitall` block of the paper's Algorithm 4 —
//! the rank posts all the phase's receives and sends, waits for all of
//! them, then moves to the next phase. Messages are matched across ranks
//! by `(src, dst, tag)`, which must be unique per schedule (collective
//! algorithms get this for free by tagging with the step number).
//! A schedule's structure is prepared once ([`crate::Prepared`]); a
//! lowering that re-prices it writes only [`PriceColumns`].

use crate::engine::SimError;
use crate::sharded::Prepared;
use nhood_cluster::Rank;
use std::ops::Range;

/// One directed message: `bytes` from `src` to `dst`, matched by `tag`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Msg {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Payload size in bytes (zero-byte messages still pay α).
    pub bytes: usize,
    /// Matching tag; `(src, dst, tag)` must be schedule-unique.
    pub tag: u64,
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
    /// Messages this rank waits for in this phase (completion order is
    /// arrival order, not posting order).
    pub recvs: &'a [Msg],
}

/// One phase row: its local work, and where its sends and recvs end in
/// their tables (they start where the row before it ends).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Row {
    pub(crate) local_seconds: f64,
    pub(crate) send_end: usize,
    pub(crate) recv_end: usize,
}

/// A complete communication schedule over `n` ranks, as flat tables in
/// program order (rank, phase, index): one row per phase, one send table
/// and one recv table — so a send's row index *is* the dense id the
/// engine names it by.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    n: usize,
    /// Rank `r`'s phases are rows `phase_off[r]..phase_off[r + 1]`. Written
    /// up to the highest rank pushed so far: every later rank's (empty)
    /// program starts where the table ends.
    phase_off: Vec<usize>,
    pub(crate) rows: Vec<Row>,
    pub(crate) send_table: Vec<Msg>,
    pub(crate) recv_table: Vec<Msg>,
}

impl Schedule {
    /// Creates an empty schedule for `n` ranks (each with zero phases).
    pub fn new(n: usize) -> Self {
        Self { n, ..Self::default() }
    }

    /// [`new`](Self::new) with every table allocated once, for `phases`
    /// phases holding `sends` sends and `recvs` recvs in all.
    pub fn with_rows(n: usize, phases: usize, sends: usize, recvs: usize) -> Self {
        let (phase_off, rows) = (Vec::with_capacity(n), Vec::with_capacity(phases));
        let (send_table, recv_table) = (Vec::with_capacity(sends), Vec::with_capacity(recvs));
        Self { n, phase_off, rows, send_table, recv_table }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The phase rows of the ranks in `ranks`.
    pub(crate) fn rows(&self, ranks: Range<Rank>) -> Range<usize> {
        assert!(ranks.end <= self.n, "rank {} of a {}-rank schedule", ranks.end, self.n);
        let first = |r: Rank| self.phase_off.get(r).copied().unwrap_or(self.rows.len());
        first(ranks.start)..first(ranks.end)
    }

    /// The send-table rows — the send ids — and the recv-table rows of
    /// the phase rows `rows`.
    pub(crate) fn msg_ids(&self, rows: Range<usize>) -> (Range<usize>, Range<usize>) {
        let at = |p: usize| self.rows[..p].last().map_or((0, 0), |r| (r.send_end, r.recv_end));
        let ((send_lo, recv_lo), (send_hi, recv_hi)) = (at(rows.start), at(rows.end));
        (send_lo..send_hi, recv_lo..recv_hi)
    }

    /// Phase row `p`.
    pub(crate) fn row(&self, p: usize) -> Phase<'_> {
        let (sends, recvs) = self.msg_ids(p..p + 1);
        let local_seconds = self.rows[p].local_seconds;
        Phase { local_seconds, sends: &self.send_table[sends], recvs: &self.recv_table[recvs] }
    }

    /// Phases of rank `r`, in program order; `len()` is their number.
    pub fn phases(&self, r: Rank) -> impl ExactSizeIterator<Item = Phase<'_>> + Clone {
        self.rows(r..r + 1).map(|p| self.row(p))
    }

    /// Convenience: appends a phase without local work.
    pub fn push<I: IntoIterator<Item = Msg>>(&mut self, r: Rank, sends: I, recvs: I) {
        self.push_phase(r, 0.0, sends, recvs);
    }

    /// Total number of messages (counting each once, on the send side).
    pub fn message_count(&self) -> usize {
        self.send_table.len()
    }

    /// Every send message in the schedule, in program order (rank by
    /// rank, phase by phase): index = send id.
    pub fn all_sends(&self) -> &[Msg] {
        &self.send_table
    }

    /// Total bytes sent.
    pub fn total_bytes(&self) -> usize {
        self.send_table.iter().map(|m| m.bytes).sum()
    }

    /// Checks structural sanity:
    ///
    /// * every `Msg` in rank `r`'s sends has `src == r`; in its recvs,
    ///   `dst == r`;
    /// * ranks are in range;
    /// * `(src, dst, tag)` keys are unique;
    /// * every send has exactly one matching recv and vice versa;
    ///
    /// then its prices: every `local_seconds` finite and non-negative,
    /// every recv as long as its send.
    ///
    /// Returns a description of the first problem found, and *first* is
    /// part of the contract (a schedule always gets the same text): the
    /// structure before the prices. Send-side defects (wrong owner,
    /// out-of-range, self-send) in program order — rank, phase, index;
    /// then a duplicate send key, lowest `(dst, src, tag)`; then the
    /// first defective recv in program order (wrong owner, out-of-range,
    /// no matching send, a send an earlier recv already claimed); then an
    /// unmatched send, lowest `(dst, src, tag)`; then a bad
    /// `local_seconds` in program order; then the first recv whose size
    /// differs from its send's. It is [`crate::Engine::prepare`]'s
    /// matching, then [`crate::Engine::run_prepared`]'s
    /// price check: a run names the same defect in the same words.
    pub fn validate(&self) -> Result<(), String> {
        let text = |e| match e {
            SimError::InvalidSchedule(why) => why,
            other => other.to_string(),
        };
        let prepared = Prepared::matched(self).map_err(text)?;
        prepared.check_prices(&PriceColumns::from(self))
    }

    /// The owner and range conditions of recv `m`, posted by rank `r` in
    /// its phase `k`.
    pub(crate) fn check_recv(&self, r: Rank, k: usize, m: &Msg) -> Result<(), String> {
        if m.dst != r {
            Err(format!("rank {r} phase {k}: recv with dst {}", m.dst))
        } else if m.src >= self.n() {
            Err(format!("rank {r} phase {k}: recv from out-of-range {}", m.src))
        } else {
            Ok(())
        }
    }
}

/// What one run of a [`crate::Prepared`] structure pays, in the program
/// order of the schedule it was prepared from.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PriceColumns {
    /// Bytes per send, by send id.
    pub send_bytes: Vec<usize>,
    /// Bytes per recv, in recv order.
    pub recv_bytes: Vec<usize>,
    /// Local work per phase row, seconds.
    pub local_seconds: Vec<f64>,
}

/// A schedule's own prices: what a cold run replays.
impl From<&Schedule> for PriceColumns {
    fn from(s: &Schedule) -> Self {
        let bytes = |t: &[Msg]| t.iter().map(|m| m.bytes).collect();
        let (send_bytes, recv_bytes) = (bytes(&s.send_table), bytes(&s.recv_table));
        Self {
            send_bytes,
            recv_bytes,
            local_seconds: s.rows.iter().map(|p| p.local_seconds).collect(),
        }
    }
}

/// Where a lowering writes, phase by phase and rank by rank: a whole
/// [`Schedule`], or the [`PriceColumns`] of a structure prepared before.
pub trait PhaseWriter {
    /// Appends a phase to rank `r`'s program.
    fn push_phase(
        &mut self,
        r: Rank,
        local_seconds: f64,
        sends: impl IntoIterator<Item = Msg>,
        recvs: impl IntoIterator<Item = Msg>,
    );
}

impl PhaseWriter for Schedule {
    /// Appends a phase to rank `r`'s program; nothing is checked until
    /// [`validate`](Schedule::validate). The tables stay in program order
    /// whatever order the ranks come in, so a push behind the highest
    /// rank written so far moves every later row: a bulk writer goes
    /// rank by rank, and then no row ever moves.
    fn push_phase(
        &mut self,
        r: Rank,
        local_seconds: f64,
        sends: impl IntoIterator<Item = Msg>,
        recvs: impl IntoIterator<Item = Msg>,
    ) {
        assert!(r < self.n, "rank {r} of a {}-rank schedule", self.n);
        self.phase_off.resize(self.phase_off.len().max(r + 1), self.rows.len());
        // the new row goes after rank `r`'s last, its messages likewise:
        // appended, then rotated past the later ranks' (none, rank by rank)
        let p = self.rows(r..r + 1).end;
        let (send_at, recv_at) = self.msg_ids(p..p);
        let (had_sends, had_recvs) = (self.send_table.len(), self.recv_table.len());
        self.send_table.extend(sends);
        self.recv_table.extend(recvs);
        let (sends, recvs) = (self.send_table.len() - had_sends, self.recv_table.len() - had_recvs);
        self.send_table[send_at.start..].rotate_right(sends);
        self.recv_table[recv_at.start..].rotate_right(recvs);
        let (send_end, recv_end) = (send_at.end + sends, recv_at.end + recvs);
        self.rows.insert(p, Row { local_seconds, send_end, recv_end });
        for later in &mut self.rows[p + 1..] {
            (later.send_end, later.recv_end) = (later.send_end + sends, later.recv_end + recvs);
        }
        self.phase_off[r + 1..].iter_mut().for_each(|off| *off += 1);
    }
}

impl PhaseWriter for PriceColumns {
    fn push_phase(
        &mut self,
        _: Rank,
        local_seconds: f64,
        sends: impl IntoIterator<Item = Msg>,
        recvs: impl IntoIterator<Item = Msg>,
    ) {
        self.local_seconds.push(local_seconds);
        self.send_bytes.extend(sends.into_iter().map(|m| m.bytes));
        self.recv_bytes.extend(recvs.into_iter().map(|m| m.bytes));
    }
}

/// One indexed send; [`Slot::key`] orders a bucket.
#[derive(Clone, Copy, Default)]
struct Slot {
    src: u32,
    id: u32,
    tag: u64,
}

impl Slot {
    fn key(&self) -> (u32, u64) {
        (self.src, self.tag)
    }
}

/// The message-matching kernel: a set of sends, each under a dense
/// `u32` id, indexed by `(dst, src, tag)` so that a recv finds the send
/// it mirrors without hashing — a counting sort by destination into one
/// slot vector (two allocations whatever the message count, no `n × n`
/// table), then a binary search inside the receiver's own bucket. The
/// caller keeps one *matched* flag per send id: a recv whose send's flag
/// is already set is a duplicate, and a flag still clear after every
/// recv was looked up is an unmatched send. `docs/SCALE.md` has the
/// method.
pub struct SendIndex {
    /// Bucket `d` is `slots[off[d]..off[d + 1]]`.
    off: Vec<u32>,
    slots: Vec<Slot>,
}

impl SendIndex {
    /// Indexes `sends` — `(src, dst, tag)` triples over `n` ranks, the
    /// `i`-th under id `i`. `Err` carries a key two sends
    /// share: the lowest `(dst, src, tag)` among the repeated ones.
    ///
    /// # Panics
    /// Panics if a `dst` is `>= n` (range-check before indexing) or the
    /// ids do not fit `u32`.
    pub fn build(
        n: usize,
        sends: impl Iterator<Item = (Rank, Rank, u64)> + Clone,
    ) -> Result<Self, (Rank, Rank, u64)> {
        const FIT: &str = "send ids fit u32";
        let mut off = vec![0u32; n + 1];
        for (_, dst, _) in sends.clone() {
            off[dst + 1] += 1;
        }
        for d in 0..n {
            off[d + 1] = off[d].checked_add(off[d + 1]).expect(FIT);
        }
        // Fill with `off[d]` as bucket `d`'s cursor: afterwards it is
        // the bucket's end, so shifting by one restores the starts.
        let mut slots = vec![Slot::default(); off[n] as usize];
        for (i, (src, dst, tag)) in sends.enumerate() {
            let id = u32::try_from(i).expect(FIT);
            slots[off[dst] as usize] = Slot { src: u32::try_from(src).expect(FIT), id, tag };
            off[dst] += 1;
        }
        off.rotate_right(1);
        off[0] = 0;
        // Ids ascend by rank, then phase, which leaves a bucket ordered by
        // `(src, tag)` whenever tags grow with the phase: sort, and look
        // for a repeated key, only where that failed.
        for d in 0..n {
            let bucket = &mut slots[off[d] as usize..off[d + 1] as usize];
            if !bucket.windows(2).all(|w| w[0].key() < w[1].key()) {
                bucket.sort_unstable_by_key(Slot::key);
                if let Some(w) = bucket.windows(2).find(|w| w[0].key() == w[1].key()) {
                    return Err((w[0].src as Rank, d, w[0].tag));
                }
            }
        }
        Ok(Self { off, slots })
    }

    /// The id of the send `(src, dst, tag)`, if it was indexed.
    pub fn find(&self, src: Rank, dst: Rank, tag: u64) -> Option<u32> {
        let bucket = &self.slots[*self.off.get(dst)? as usize..*self.off.get(dst + 1)? as usize];
        let key = (u32::try_from(src).ok()?, tag);
        bucket.binary_search_by_key(&key, Slot::key).ok().map(|at| bucket[at].id)
    }

    /// The lowest `(dst, src, tag)` — returned as `(src, dst, tag)` —
    /// whose flag in `matched` (indexed by send id) is clear.
    pub fn first_unmatched(&self, matched: &[bool]) -> Option<(Rank, Rank, u64)> {
        let at = self.slots.iter().position(|s| !matched[s.id as usize])?;
        let dst = self.off.partition_point(|&o| o as usize <= at) - 1;
        Some((self.slots[at].src as Rank, dst, self.slots[at].tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: Rank, dst: Rank, bytes: usize, tag: u64) -> Msg {
        Msg { src, dst, bytes, tag }
    }

    #[test]
    fn build_and_count() {
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 1, 100, 0)], vec![]);
        s.push(1, vec![], vec![msg(0, 1, 100, 0)]);
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
        // send-only, an empty and a recv-only phase, pushed behind rank 3
        let (a, b) = (msg(1, 3, 8, 0), msg(3, 1, 4, 1));
        let mut s = Schedule::new(5);
        s.push(3, vec![], vec![a]);
        s.push_phase(1, 2e-6, vec![a], vec![]);
        s.push(1, vec![], vec![]);
        s.push(1, vec![], vec![b]);
        s.push(3, vec![b], vec![]);
        let shape = |r| s.phases(r).map(|p| (p.sends.len(), p.recvs.len())).collect::<Vec<_>>();
        assert_eq!(shape(1), [(1, 0), (0, 0), (0, 1)]);
        assert_eq!(shape(3), [(0, 1), (1, 0)]);
        assert!([0, 2, 4].into_iter().all(|r| s.phases(r).len() == 0));
        assert_eq!(
            s.phases(1).next().unwrap(),
            Phase { local_seconds: 2e-6, sends: &[a], recvs: &[] }
        );
        assert_eq!(s.all_sends(), [a, b], "program order: rank 1's send sits before rank 3's");
        s.validate().unwrap();

        // ... which is the schedule the same phases give rank by rank
        let mut in_order = Schedule::with_rows(5, 5, 2, 2);
        in_order.push_phase(1, 2e-6, vec![a], vec![]);
        in_order.push(1, vec![], vec![]);
        in_order.push(1, vec![], vec![b]);
        in_order.push(3, vec![], vec![a]);
        in_order.push(3, vec![b], vec![]);
        assert_eq!(s, in_order);
    }

    #[test]
    #[should_panic(expected = "rank 5 of a 5-rank schedule")]
    fn a_phase_of_a_rank_the_schedule_does_not_have_is_refused() {
        Schedule::new(5).push(5, vec![], vec![]);
    }

    #[test]
    fn validate_catches_unmatched_send() {
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 1, 8, 0)], vec![]);
        let e = s.validate().unwrap_err();
        assert!(e.contains("no matching recv"), "{e}");
    }

    #[test]
    fn validate_catches_unmatched_recv() {
        let mut s = Schedule::new(2);
        s.push(1, vec![], vec![msg(0, 1, 8, 0)]);
        let e = s.validate().unwrap_err();
        assert!(e.contains("no matching send"), "{e}");
    }

    #[test]
    fn validate_catches_size_mismatch() {
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 1, 8, 0)], vec![]);
        s.push(1, vec![], vec![msg(0, 1, 9, 0)]);
        assert!(s.validate().unwrap_err().contains("size mismatch"));
    }

    #[test]
    fn validate_catches_wrong_owner() {
        let mut s = Schedule::new(3);
        s.push(0, vec![msg(1, 2, 8, 0)], vec![]);
        assert!(s.validate().unwrap_err().contains("send with src"));
        let mut s = Schedule::new(3);
        s.push(0, vec![], vec![msg(1, 2, 8, 0)]);
        assert!(s.validate().unwrap_err().contains("recv with dst"));
    }

    #[test]
    fn validate_catches_self_send_and_range() {
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 0, 8, 0)], vec![]);
        assert!(s.validate().unwrap_err().contains("send to self"));
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 5, 8, 0)], vec![]);
        assert!(s.validate().unwrap_err().contains("out-of-range"));
    }

    #[test]
    fn validate_catches_duplicate_keys() {
        let mut s = Schedule::new(3);
        s.push(0, vec![msg(0, 1, 8, 7), msg(0, 1, 8, 7)], vec![]);
        assert!(s.validate().unwrap_err().contains("duplicate send key"));
    }

    #[test]
    fn the_reported_defect_is_a_function_of_the_schedule() {
        // A ring whose first eight recvs are retagged: eight orphaned
        // recvs and eight unmatched sends. The text used to follow a
        // hasher's iteration order; the contract names the first
        // defective recv in program order.
        let n = 16;
        let mut s = Schedule::new(n);
        for r in 0..n {
            let from = (r + n - 1) % n;
            let tag = if r < 8 { 99 } else { 0 };
            s.push(r, vec![msg(r, (r + 1) % n, 8, 0)], vec![msg(from, r, 8, tag)]);
        }
        for _ in 0..64 {
            let e = s.validate().unwrap_err();
            assert_eq!(e, "recv (src 15, dst 0, tag 99) has no matching send");
        }
        // with the orphans gone, the lowest (dst, src, tag) unmatched send
        let mut s = Schedule::new(n);
        for r in 0..n {
            let recv = (r >= 8).then(|| msg((r + n - 1) % n, r, 8, 0));
            s.push_phase(r, 0.0, Some(msg(r, (r + 1) % n, 8, 0)), recv);
        }
        for _ in 0..64 {
            let e = s.validate().unwrap_err();
            assert_eq!(e, "send (src 15, dst 0, tag 0) has no matching recv");
        }
    }

    #[test]
    fn index_orders_buckets_and_names_the_lowest_duplicate() {
        // tags fall with the send order, so both buckets need the sort
        let sends = [(2, 0, 5), (2, 0, 1), (1, 0, 9), (3, 4, 7), (0, 4, 7)];
        let index = SendIndex::build(5, sends.iter().copied()).unwrap();
        for (i, &(src, dst, tag)) in sends.iter().enumerate() {
            assert_eq!(index.find(src, dst, tag), Some(i as u32));
        }
        assert_eq!(index.find(2, 0, 9), None);
        assert_eq!(index.find(2, 7, 5), None, "no such bucket");
        assert_eq!(index.find(usize::MAX, 0, 5), None, "src beyond u32");
        // one flag per send id; clear flags are
        // reported in (dst, src, tag) order
        let mut matched = vec![true; 5];
        (matched[1], matched[4]) = (false, false);
        assert_eq!(index.first_unmatched(&matched), Some((2, 0, 1)));
        matched[1] = true;
        assert_eq!(index.first_unmatched(&matched), Some((0, 4, 7)));
        matched[4] = true;
        assert_eq!(index.first_unmatched(&matched), None);

        let twice = [(3, 4, 7), (1, 2, 8), (1, 2, 3), (3, 4, 7), (1, 2, 8)];
        let dup = SendIndex::build(5, twice.iter().copied()).err();
        assert_eq!(dup, Some((1, 2, 8)), "dst 2 sorts before dst 4");
    }

    #[test]
    fn validate_accepts_multi_phase_exchange() {
        let mut s = Schedule::new(2);
        // two-step ping-pong with distinct tags
        s.push(0, vec![msg(0, 1, 64, 0)], vec![msg(1, 0, 64, 1)]);
        s.push(1, vec![msg(1, 0, 64, 1)], vec![msg(0, 1, 64, 0)]);
        s.validate().unwrap();
        assert_eq!(s.message_count(), 2);
    }
}
