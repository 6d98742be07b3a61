//! Communication schedules: what the simulator executes.
//!
//! A [`Schedule`] is the simulator-facing description of one collective
//! operation: for every rank, an ordered list of [`Phase`]s. A phase
//! mirrors one `irecv*/isend*/waitall` block of the paper's Algorithm 4 —
//! the rank posts all the phase's receives and sends, waits for all of
//! them, then moves to the next phase. Messages are matched across ranks
//! by `(src, dst, tag)`, which must be unique per schedule (collective
//! algorithms get this for free by tagging with the step number).

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

/// One post-and-wait block of a rank's program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Phase {
    /// Local (CPU/memcpy) time charged before any communication of the
    /// phase starts — used for the pack/copy overheads of Algorithm 4.
    pub local_seconds: f64,
    /// Messages this rank sends in this phase, issued in order.
    pub sends: Vec<Msg>,
    /// Messages this rank waits for in this phase (completion order is
    /// arrival order, not posting order).
    pub recvs: Vec<Msg>,
}

/// A complete communication schedule over `n` ranks.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    ranks: Vec<Vec<Phase>>,
}

impl Schedule {
    /// Creates an empty schedule for `n` ranks (each with zero phases).
    pub fn new(n: usize) -> Self {
        Self { ranks: vec![Vec::new(); n] }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.ranks.len()
    }

    /// Phases of rank `r`.
    pub fn phases(&self, r: Rank) -> &[Phase] {
        &self.ranks[r]
    }

    /// Appends a phase to rank `r`'s program; nothing is checked until
    /// [`validate`](Self::validate).
    pub fn push_phase(&mut self, r: Rank, phase: Phase) {
        self.ranks[r].push(phase);
    }

    /// Convenience: appends a phase built from send/recv lists.
    pub fn push(&mut self, r: Rank, sends: Vec<Msg>, recvs: Vec<Msg>) {
        self.push_phase(r, Phase { local_seconds: 0.0, sends, recvs });
    }

    /// Total number of messages (counting each once, on the send side).
    pub fn message_count(&self) -> usize {
        self.ranks.iter().flat_map(|ph| ph.iter()).map(|p| p.sends.len()).sum()
    }

    /// Iterates every send message in the schedule (rank by rank, phase
    /// by phase).
    pub fn all_sends(&self) -> impl Iterator<Item = &Msg> + '_ {
        self.ranks.iter().flat_map(|phases| phases.iter()).flat_map(|p| p.sends.iter())
    }

    /// Total bytes sent.
    pub fn total_bytes(&self) -> usize {
        self.all_sends().map(|m| m.bytes).sum()
    }

    /// Checks structural sanity:
    ///
    /// * every `Msg` in rank `r`'s sends has `src == r`; in its recvs,
    ///   `dst == r`;
    /// * ranks are in range;
    /// * `(src, dst, tag)` keys are unique;
    /// * every send has exactly one matching recv and vice versa.
    ///
    /// Returns a description of the first problem found, and *first* is
    /// part of the contract (a schedule always gets the same text):
    /// send-side defects (bad `local_seconds`, wrong owner, out-of-range,
    /// self-send) in program order — rank, phase, index; then a
    /// duplicate send key, lowest `(dst, src, tag)`; then the first
    /// defective recv in program order (wrong owner, out-of-range, no
    /// matching send, a send an earlier recv already claimed, size
    /// mismatch); then an unmatched send, lowest `(dst, src, tag)`.
    pub fn validate(&self) -> Result<(), String> {
        let key = |(s, d, t): (Rank, Rank, u64)| format!("(src {s}, dst {d}, tag {t})");
        let index = self.send_index(0..self.n(), 0)?;
        let sends: Vec<&Msg> = self.all_sends().collect();
        let mut matched = vec![false; sends.len()];
        for (r, phases) in self.ranks.iter().enumerate() {
            for (k, phase) in phases.iter().enumerate() {
                for m in &phase.recvs {
                    self.check_recv(r, k, m)?;
                    let at = (m.src, m.dst, m.tag);
                    let Some(id) = index.find(m.src, r, m.tag) else {
                        return Err(format!("recv {} has no matching send", key(at)));
                    };
                    let send = sends[id as usize].bytes;
                    if std::mem::replace(&mut matched[id as usize], true) {
                        return Err(format!("duplicate recv key {}", key(at)));
                    } else if send != m.bytes {
                        let (at, recv) = (key(at), m.bytes);
                        return Err(format!("size mismatch on {at}: send {send} vs recv {recv}"));
                    }
                }
            }
        }
        let unmatched = |send| Err(format!("send {} has no matching recv", key(send)));
        index.first_unmatched(&matched).map_or(Ok(()), unmatched)
    }

    /// The send side of [`validate`](Self::validate) for the ranks in
    /// `span`: checks their phases' `local_seconds` and every send's
    /// owner and range, then indexes the sends under ids counted from
    /// `first_id` in program order.
    pub(crate) fn send_index(&self, span: Range<Rank>, first_id: u32) -> Result<SendIndex, String> {
        let n = self.n();
        for r in span.clone() {
            for (k, phase) in self.ranks[r].iter().enumerate() {
                if phase.local_seconds < 0.0 || !phase.local_seconds.is_finite() {
                    return Err(format!("rank {r} phase {k}: bad local_seconds"));
                }
                for m in &phase.sends {
                    if m.src != r {
                        return Err(format!("rank {r} phase {k}: send with src {}", m.src));
                    } else if m.dst >= n {
                        return Err(format!("rank {r} phase {k}: send to out-of-range {}", m.dst));
                    } else if m.dst == r {
                        return Err(format!("rank {r} phase {k}: send to self"));
                    }
                }
            }
        }
        let sends = self.ranks[span].iter().flatten().flat_map(|p| &p.sends);
        SendIndex::build(n, first_id, sends.map(|m| (m.src, m.dst, m.tag)))
            .map_err(|(s, d, t)| format!("duplicate send key (src {s}, dst {d}, tag {t})"))
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
/// method and why chunking cannot change an id.
pub struct SendIndex {
    /// Bucket `d` is `slots[off[d]..off[d + 1]]`.
    off: Vec<u32>,
    slots: Vec<Slot>,
}

impl SendIndex {
    /// Indexes `sends` — `(src, dst, tag)` triples over `n` ranks, the
    /// `i`-th under id `first_id + i`. `Err` carries a key two sends
    /// share: the lowest `(dst, src, tag)` among the repeated ones.
    ///
    /// # Panics
    /// Panics if a `dst` is `>= n` (range-check before indexing) or the
    /// ids do not fit `u32`.
    pub fn build(
        n: usize,
        first_id: u32,
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
            let id = u32::try_from(i).ok().and_then(|i| first_id.checked_add(i)).expect(FIT);
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
        for r in 0..8 {
            s.ranks[r][0].recvs.clear();
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
        let index = SendIndex::build(5, 10, sends.iter().copied()).unwrap();
        for (i, &(src, dst, tag)) in sends.iter().enumerate() {
            assert_eq!(index.find(src, dst, tag), Some(10 + i as u32));
        }
        assert_eq!(index.find(2, 0, 9), None);
        assert_eq!(index.find(2, 7, 5), None, "no such bucket");
        assert_eq!(index.find(usize::MAX, 0, 5), None, "src beyond u32");
        // ids 10.. index a flag vector of that length; clear flags are
        // reported in (dst, src, tag) order
        let mut matched = vec![true; 15];
        (matched[11], matched[14]) = (false, false);
        assert_eq!(index.first_unmatched(&matched), Some((2, 0, 1)));
        matched[11] = true;
        assert_eq!(index.first_unmatched(&matched), Some((0, 4, 7)));
        matched[14] = true;
        assert_eq!(index.first_unmatched(&matched), None);

        let twice = [(3, 4, 7), (1, 2, 8), (1, 2, 3), (3, 4, 7), (1, 2, 8)];
        let dup = SendIndex::build(5, 0, twice.iter().copied()).err();
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
