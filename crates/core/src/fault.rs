//! Deterministic fault injection for the threaded executor and the
//! distributed pattern builder.
//!
//! A [`FaultPlan`] is a *seeded, stateless* description of adverse
//! network and process behaviour: message drops, delays, duplication,
//! reordering, per-rank stragglers and outright rank crashes. Every
//! decision is a pure function of `(seed, src, dst, tag, attempt)`, so a
//! fault schedule is exactly reproducible across runs and across threads
//! regardless of scheduling — the property the chaos test-suite builds
//! on: for any seed, a run must either produce buffers identical to the
//! reference allgather or surface a *typed* error/fallback, never silent
//! corruption and never a hang.
//!
//! Consumers:
//!
//! * the rank runtime's fault transport — the one place the plan is
//!   consulted at run time: every send of the threaded executor
//!   ([`crate::exec::threaded`]) and every REQ/ACCEPT/DROP/EXIT signal of
//!   the robust path's negotiation ([`crate::negotiate`]) goes through
//!   it, dropped attempts are retried after bounded exponential backoff
//!   (the "reliable transport over a lossy link" emulation), and delays,
//!   backoffs and stalls become later delivery and wake-up times;
//! * `nhood_simnet` consumes the same plan as a
//!   [`Perturbation`](nhood_simnet::Perturbation) so simulated latencies
//!   reflect the stragglers the real executors would see.
//!
//! [`FaultStats`] aggregates what was actually injected during one run,
//! using atomics so the runtime's workers can tally without locking.

use crate::remap::Relabel;
use nhood_topology::rng::{hash_mix, unit_f64};
use nhood_topology::Rank;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Domain-separation tags so the per-fault-kind hash streams are
/// independent (a message dropped at attempt 0 is not automatically
/// delayed at attempt 1).
mod domain {
    pub const DROP: u64 = 0x01;
    pub const DELAY: u64 = 0x02;
    pub const DUP: u64 = 0x03;
    pub const REORDER: u64 = 0x04;
    pub const JITTER: u64 = 0x05;
}

/// Cap on any single backoff, so a large attempt count (or a
/// pathological base) cannot put a retry minutes out: `base * 2^16`
/// un-jittered reaches ~6.5 s at a 100 µs base.
pub const BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Jittered exponential backoff for the transport's retries: `base *
/// 2^attempt`, capped at [`BACKOFF_CAP`], then scaled by a deterministic
/// jitter factor in `[0.5, 1.0)` derived from `(seed, attempt)` — the
/// time a retried attempt lands after the one dropped before it.
///
/// An un-jittered formula lands the retries of messages dropped in the
/// same attempt in lockstep, where they re-collide. The jitter
/// decorrelates them while staying a pure function of its inputs —
/// chaos tests remain exactly reproducible per seed.
pub fn backoff(base: Duration, attempt: u32, seed: u64) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16)).min(BACKOFF_CAP);
    let f = 0.5 + 0.5 * unit_f64(hash_mix(&[seed, attempt as u64]));
    exp.mul_f64(f)
}

/// The canonical per-message jitter seed of the transport's retries:
/// mixes the fault plan's seed with the message identity, so two runs
/// with the same fault schedule retry on the same jittered schedule.
pub fn backoff_seed(plan_seed: u64, src: u64, dst: u64, tag: u64) -> u64 {
    hash_mix(&[plan_seed, src, dst, tag])
}

/// What the fault layer decides for one transmission attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Silently discard this attempt (the transport may retry).
    Drop,
    /// Deliver late, by the given duration. The sender is not stalled:
    /// its later sends leave on time.
    Delay(Duration),
    /// Deliver twice (the receive path must be duplicate-tolerant).
    Duplicate,
    /// The link is dead: no attempt on this edge can ever succeed.
    /// Unlike [`FaultAction::Drop`] this is not retryable — the
    /// transport must surface a typed link failure immediately so the
    /// caller can repair the plan around the edge.
    LinkDown,
}

/// A deterministic, seeded fault schedule.
///
/// Build one with [`FaultPlan::seeded`] and the `with_*` methods; all
/// probabilities are independent per message and clamped to `[0, 1]`.
/// The plan itself is immutable during a run — per-run tallies live in
/// [`FaultStats`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    delay_p: f64,
    max_delay: Duration,
    dup_p: f64,
    reorder_p: f64,
    /// Per-phase stall injected at phase entry of a straggler rank.
    slow: HashMap<Rank, Duration>,
    /// Rank -> phase index at which the rank stops participating.
    crashed: HashMap<Rank, usize>,
    /// Directed edge -> phase index from which the link is dead.
    link_down: HashMap<(Rank, Rank), usize>,
    /// Each rank id's physical rank once relabelled; empty: ids are physical.
    physical: Vec<Rank>,
}

impl FaultPlan {
    /// A fault-free plan with the given seed; compose with `with_*`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            drop_p: 0.0,
            delay_p: 0.0,
            max_delay: Duration::ZERO,
            dup_p: 0.0,
            reorder_p: 0.0,
            slow: HashMap::new(),
            crashed: HashMap::new(),
            link_down: HashMap::new(),
            physical: Vec::new(),
        }
    }

    /// Drops each transmission attempt independently with probability `p`.
    pub fn with_message_drop(mut self, p: f64) -> Self {
        self.drop_p = p.clamp(0.0, 1.0);
        self
    }

    /// Delays a message with probability `p`, by a deterministic duration
    /// in `[0, max_delay)`: the message arrives late, its sender is not
    /// stalled.
    pub fn with_message_delay(mut self, p: f64, max_delay: Duration) -> Self {
        self.delay_p = p.clamp(0.0, 1.0);
        self.max_delay = max_delay;
        self
    }

    /// Duplicates a message with probability `p`.
    pub fn with_message_duplication(mut self, p: f64) -> Self {
        self.dup_p = p.clamp(0.0, 1.0);
        self
    }

    /// Holds a message back behind the ones its sender posts with it (so
    /// they overtake it), with probability `p`.
    pub fn with_message_reorder(mut self, p: f64) -> Self {
        self.reorder_p = p.clamp(0.0, 1.0);
        self
    }

    /// Makes `rank` a straggler: it stalls `stall` at every phase entry.
    pub fn with_slow_rank(mut self, rank: Rank, stall: Duration) -> Self {
        self.slow.insert(rank, stall);
        self
    }

    /// Crashes `rank` at entry to `phase`: from that phase on it sends
    /// and receives nothing.
    pub fn with_crashed_rank(mut self, rank: Rank, phase: usize) -> Self {
        self.crashed.insert(rank, phase);
        self
    }

    /// Kills the physical link between `a` and `b` from `phase` on: every
    /// transmission attempt in either direction fails immediately and
    /// unretryably with [`FaultAction::LinkDown`]. Link failures are
    /// bidirectional (both directed edges die together), matching a cable
    /// or port failure rather than a lossy path.
    pub fn with_link_down(mut self, a: Rank, b: Rank, phase: usize) -> Self {
        self.link_down.insert((a, b), phase);
        self.link_down.insert((b, a), phase);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The physical rank id `r` names.
    fn phys(&self, r: Rank) -> Rank {
        self.physical.get(r).map_or(r, |&p| p)
    }

    #[inline]
    fn roll(&self, domain: u64, src: Rank, dst: Rank, tag: u64, attempt: u32) -> f64 {
        let (src, dst) = (self.phys(src) as u64, self.phys(dst) as u64);
        unit_f64(hash_mix(&[self.seed, domain, src, dst, tag, attempt as u64]))
    }

    /// The verdict for transmission `attempt` of message `(src, dst,
    /// tag)`. A data message sent during `phase` first meets the link
    /// state — a dead link preempts every probabilistic fault — while a
    /// control signal (`None`) sees none. Drop takes precedence over delay
    /// over duplication, so a single attempt suffers at most one fault.
    pub fn send_action(
        &self,
        src: Rank,
        dst: Rank,
        tag: u64,
        attempt: u32,
        phase: Option<usize>,
    ) -> FaultAction {
        let link = (self.phys(src), self.phys(dst));
        if phase.is_some_and(|k| self.link_down.get(&link).is_some_and(|&at| k >= at)) {
            return FaultAction::LinkDown;
        }
        if self.roll(domain::DROP, src, dst, tag, attempt) < self.drop_p {
            return FaultAction::Drop;
        }
        if self.roll(domain::DELAY, src, dst, tag, attempt) < self.delay_p {
            let f = self.roll(domain::JITTER, src, dst, tag, attempt);
            return FaultAction::Delay(self.max_delay.mul_f64(f));
        }
        if self.roll(domain::DUP, src, dst, tag, attempt) < self.dup_p {
            return FaultAction::Duplicate;
        }
        FaultAction::Deliver
    }

    /// Whether message `(src, dst, tag)` is held back behind the messages
    /// its sender posts with it.
    pub fn reorders(&self, src: Rank, dst: Rank, tag: u64) -> bool {
        self.roll(domain::REORDER, src, dst, tag, 0) < self.reorder_p
    }

    /// The stall a straggler suffers at each phase entry (zero for
    /// healthy ranks).
    pub fn stall(&self, rank: Rank) -> Duration {
        self.slow.get(&self.phys(rank)).copied().unwrap_or(Duration::ZERO)
    }

    /// True if `rank` has crashed by `phase`.
    pub fn is_crashed(&self, rank: Rank, phase: usize) -> bool {
        self.crashed.get(&self.phys(rank)).is_some_and(|&at| phase >= at)
    }

    /// Lowers this plan onto the simulator's perturbation model:
    /// straggler stalls become per-phase local work, the delay fault
    /// becomes per-message jitter, and dead links fail the simulated run
    /// with a typed error. (Drops/dups/crashes have no timing analogue
    /// in a lossless discrete-event model and are ignored.)
    pub fn to_perturbation(&self, n: usize) -> nhood_simnet::Perturbation {
        let mut stall = vec![0.0f64; n];
        for (&r, &d) in &self.slow {
            if r < n {
                stall[r] = d.as_secs_f64();
            }
        }
        let mut dead_links: Vec<(usize, usize)> =
            self.link_down.keys().filter(|&&(s, d)| s < n && d < n).copied().collect();
        dead_links.sort_unstable();
        nhood_simnet::Perturbation {
            seed: self.seed,
            rank_stall: stall,
            jitter_p: self.delay_p,
            max_jitter: self.max_delay.as_secs_f64(),
            dead_links,
        }
    }
}

/// Renames the ids a plan is asked about, not its faults: `to[r]` is
/// answered as `r` was, every fault and draw on its physical rank.
impl Relabel for FaultPlan {
    fn relabelled(&self, to: &[Rank]) -> Self {
        let mut physical = vec![0; to.len()];
        to.iter().enumerate().for_each(|(r, &new)| physical[new] = self.phys(r));
        Self { physical, ..self.clone() }
    }
}

/// Per-run fault/retry tallies, thread-safe by atomics.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Transmission attempts discarded by the drop fault.
    pub drops: AtomicU64,
    /// Messages delivered late.
    pub delays: AtomicU64,
    /// Messages delivered twice.
    pub duplicates: AtomicU64,
    /// Messages held back past a successor.
    pub reorders: AtomicU64,
    /// Retransmission attempts made by the transport.
    pub retries: AtomicU64,
    /// Messages abandoned after the retry budget was exhausted.
    pub lost: AtomicU64,
    /// Sends refused because the link was dead (unretryable).
    pub link_downs: AtomicU64,
}

impl FaultStats {
    /// Relaxed increment helper.
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-data snapshot of the counters.
    pub fn snapshot(&self) -> FaultCounts {
        FaultCounts {
            drops: self.drops.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            reorders: self.reorders.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            lost: self.lost.load(Ordering::Relaxed),
            link_downs: self.link_downs.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`FaultStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transmission attempts discarded by the drop fault.
    pub drops: u64,
    /// Messages delivered late.
    pub delays: u64,
    /// Messages delivered twice.
    pub duplicates: u64,
    /// Messages held back past a successor.
    pub reorders: u64,
    /// Retransmission attempts made by the transport.
    pub retries: u64,
    /// Messages abandoned after the retry budget was exhausted.
    pub lost: u64,
    /// Sends refused because the link was dead (unretryable).
    pub link_downs: u64,
}

impl FaultCounts {
    /// Total faults injected (excluding retries, which are reactions).
    pub fn total_injected(&self) -> u64 {
        self.drops + self.delays + self.duplicates + self.reorders + self.link_downs
    }
}

impl std::fmt::Display for FaultCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drops={} delays={} dups={} reorders={} retries={} lost={} link_downs={}",
            self.drops,
            self.delays,
            self.duplicates,
            self.reorders,
            self.retries,
            self.lost,
            self.link_downs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_attempt_sensitive() {
        let fp = FaultPlan::seeded(7).with_message_drop(0.5);
        for src in 0..8 {
            for tag in 0..8 {
                assert_eq!(
                    fp.send_action(src, 1, tag, 0, None),
                    fp.send_action(src, 1, tag, 0, None)
                );
            }
        }
        // with p=0.5 some (message, attempt) pairs must differ across
        // attempts — retries can succeed
        let differs = (0..64u64)
            .any(|tag| fp.send_action(0, 1, tag, 0, None) != fp.send_action(0, 1, tag, 1, None));
        assert!(differs);
    }

    #[test]
    fn a_relabelled_plan_keeps_every_fault_on_its_physical_rank() {
        let fp = FaultPlan::seeded(5)
            .with_message_drop(0.3)
            .with_message_reorder(0.3)
            .with_slow_rank(1, Duration::from_millis(3))
            .with_crashed_rank(2, 1)
            .with_link_down(0, 3, 1);
        let to = [2, 0, 3, 1]; // rank r is called to[r]
        let twice = fp.relabelled(&to).relabelled(&[1, 3, 0, 2]);
        let to_twice = [0, 1, 2, 3].map(|r| [1, 3, 0, 2][to[r]]);
        for (named, to) in [(fp.relabelled(&to), to), (twice, to_twice)] {
            for (src, dst) in (0..4).flat_map(|s| (0..4).map(move |d| (s, d))) {
                for (tag, phase) in (0..16).zip([None, Some(0), Some(2)].into_iter().cycle()) {
                    let (a, b) = (to[src], to[dst]);
                    assert_eq!(
                        named.send_action(a, b, tag, 0, phase),
                        fp.send_action(src, dst, tag, 0, phase)
                    );
                    assert_eq!(named.reorders(a, b, tag), fp.reorders(src, dst, tag));
                }
            }
            for (r, &v) in to.iter().enumerate() {
                assert_eq!(named.stall(v), fp.stall(r));
                assert_eq!(named.is_crashed(v, 1), fp.is_crashed(r, 1));
            }
        }
    }

    #[test]
    fn inactive_plan_injects_nothing() {
        let fp = FaultPlan::seeded(3);
        for tag in 0..100 {
            assert_eq!(fp.send_action(0, 1, tag, 0, Some(0)), FaultAction::Deliver);
            assert!(!fp.reorders(0, 1, tag));
        }
        assert!(!fp.is_crashed(0, 0));
        assert_eq!(fp.stall(0), Duration::ZERO);
    }

    #[test]
    fn drop_rate_concentrates_near_p() {
        let fp = FaultPlan::seeded(11).with_message_drop(0.05);
        let n = 20_000;
        let drops =
            (0..n).filter(|&tag| fp.send_action(2, 3, tag, 0, None) == FaultAction::Drop).count();
        let expect = 0.05 * n as f64;
        assert!((drops as f64 - expect).abs() < 5.0 * expect.sqrt(), "{drops}");
    }

    #[test]
    fn crash_and_slow_schedules() {
        let fp = FaultPlan::seeded(0)
            .with_crashed_rank(3, 2)
            .with_slow_rank(1, Duration::from_millis(5));
        assert!(!fp.is_crashed(3, 0));
        assert!(!fp.is_crashed(3, 1));
        assert!(fp.is_crashed(3, 2));
        assert!(fp.is_crashed(3, 9));
        assert!(!fp.is_crashed(4, 9));
        assert_eq!(fp.stall(1), Duration::from_millis(5));
    }

    #[test]
    fn delay_durations_bounded() {
        let fp = FaultPlan::seeded(5).with_message_delay(1.0, Duration::from_millis(10));
        for tag in 0..200 {
            match fp.send_action(0, 1, tag, 0, None) {
                FaultAction::Delay(d) => assert!(d < Duration::from_millis(10)),
                other => panic!("p=1 must delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn perturbation_lowering_carries_stalls_and_jitter() {
        let fp = FaultPlan::seeded(9)
            .with_slow_rank(2, Duration::from_micros(100))
            .with_message_delay(0.5, Duration::from_micros(50));
        let p = fp.to_perturbation(4);
        assert_eq!(p.rank_stall.len(), 4);
        assert!((p.rank_stall[2] - 100e-6).abs() < 1e-12);
        assert_eq!(p.rank_stall[0], 0.0);
        assert_eq!(p.jitter_p, 0.5);
        assert!((p.max_jitter - 50e-6).abs() < 1e-12);
    }

    #[test]
    fn backoff_is_jittered_deterministic_and_capped() {
        let base = Duration::from_micros(100);
        // deterministic per (seed, attempt)
        assert_eq!(backoff(base, 2, 7), backoff(base, 2, 7));
        // jittered: two colliding senders with different message seeds
        // must not sleep the same duration (the pre-fix formula gave
        // every sender exactly base * 2^attempt)
        let distinct =
            (0..8u64).map(|s| backoff(base, 3, s)).collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1, "all seeds slept identically");
        // jitter stays within [0.5, 1.0) of the exponential value
        for attempt in 0..6 {
            let exp = base * (1 << attempt);
            for seed in 0..16 {
                let d = backoff(base, attempt, seed);
                assert!(d >= exp / 2 && d < exp, "attempt {attempt} seed {seed}: {d:?}");
            }
        }
        // capped: the pre-fix formula reached base * 2^16 = 6.5536 s
        assert!(backoff(base, 16, 1) <= BACKOFF_CAP);
        assert!(backoff(base, 40, 1) <= BACKOFF_CAP, "attempt clamp + cap must both hold");
        assert!(backoff(Duration::from_secs(5), 0, 1) <= BACKOFF_CAP, "pathological base capped");
    }

    #[test]
    fn link_down_is_bidirectional_phased_and_unretryable() {
        let fp = FaultPlan::seeded(1).with_link_down(2, 5, 1);
        // before the failure phase the link behaves normally
        assert_eq!(fp.send_action(2, 5, 9, 0, Some(0)), FaultAction::Deliver);
        // from the failure phase on, both directions die, every attempt
        for phase in 1..4 {
            for attempt in 0..3 {
                assert_eq!(fp.send_action(2, 5, 9, attempt, Some(phase)), FaultAction::LinkDown);
                assert_eq!(fp.send_action(5, 2, 9, attempt, Some(phase)), FaultAction::LinkDown);
            }
        }
        // unrelated edges are untouched, and control signals see no link
        assert_eq!(fp.send_action(2, 4, 9, 0, Some(3)), FaultAction::Deliver);
        assert_eq!(fp.send_action(2, 5, 9, 0, None), FaultAction::Deliver);
    }

    #[test]
    fn perturbation_lowering_carries_dead_links() {
        let fp = FaultPlan::seeded(4).with_link_down(1, 3, 0).with_link_down(7, 9, 2);
        let p = fp.to_perturbation(8); // rank 9 out of range -> filtered
        assert_eq!(p.dead_links, vec![(1, 3), (3, 1)]);
    }

    #[test]
    fn stats_snapshot_roundtrip() {
        let stats = FaultStats::default();
        FaultStats::bump(&stats.drops);
        FaultStats::bump(&stats.drops);
        FaultStats::bump(&stats.retries);
        let c = stats.snapshot();
        assert_eq!(c.drops, 2);
        assert_eq!(c.retries, 1);
        assert_eq!(c.total_injected(), 2);
        assert!(c.to_string().contains("drops=2"));
    }
}
