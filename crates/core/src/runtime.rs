//! One rank runtime: the fault transport and the driver of every
//! per-rank protocol — the threaded executor's phase programs and the
//! robust path's negotiation. A rank is a [`Machine`] that never sleeps
//! or waits: polled with what reached it, it does what it can and says
//! what it waits for. Its [`Port`] is the one place a fault plan is
//! consulted: a retry or a delay is a later delivery time, a duplicate a
//! second delivery, a dead link a typed refusal, a straggler's stall its
//! own clock moving ahead. [`run`] drives the ranks on the wall clock, on
//! a fixed pool of `available_parallelism()` workers — not a thread per
//! rank — or on a logical clock at width 1 that jumps to the next event
//! when no rank can move (a timeout costs no wall time), where a seed
//! draws the next ready rank: the same seed replays the same run. A run
//! ends at its first failure.

use crate::exec::ExecOptions;
use crate::fault::{backoff, backoff_seed, FaultAction, FaultStats};
use nhood_cluster::WorkerPool;
use nhood_topology::rng::DetRng;
use nhood_topology::Rank;
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How a run keeps time: real, or logical — where `Some(seed)` draws the
/// order of ranks and messages due at one time (`None`: first come,
/// first served).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Clock {
    Wall,
    Logical(Option<u64>),
}

/// What a poll left a rank doing: ready to go on, waiting for a message
/// or until `deadline` (since the run began; polled at or past it, it
/// must not wait on it again), or done.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Poll {
    Ready,
    Blocked { deadline: Duration },
    Done,
}

/// A rank of a protocol, as the driver polls it.
pub(crate) trait Machine: Send {
    type Msg: Clone + Send;
    type Error: Send;

    /// Advances the rank over what reached it since its last poll, in
    /// arrival order; it takes all of `inbox`.
    fn poll(
        &mut self,
        inbox: &mut Vec<Self::Msg>,
        port: &mut Port<'_, Self::Msg>,
    ) -> Result<Poll, Self::Error>;

    /// The error a poll that panicked becomes.
    fn panicked(&self, payload: Box<dyn Any + Send>) -> Self::Error;
}

/// A dead link refused a send.
pub(crate) struct LinkDown;

/// A rank's end of the fault transport during one poll.
pub(crate) struct Port<'a, M> {
    opts: &'a ExecOptions<'a>,
    stats: &'a FaultStats,
    /// The rank's time since the run began: the run's, or later by the
    /// stalls it served.
    pub(crate) now: Duration,
    /// What it sent: (delivery time, destination, message).
    out: &'a mut Vec<(Duration, Rank, M)>,
}

impl<M: Clone> Port<'_, M> {
    /// Sends message `tag` from `src` to `dst` under the fault plan: data
    /// of `phase` — a dead link refuses it, a duplicate arrives twice, a
    /// reordered one behind those sent with it — or (`None`) a control
    /// signal, which sees no link state and arrives at most once, as the
    /// negotiation's two-message invariant needs. A dropped attempt is
    /// retried after a jittered backoff until the retry budget runs out;
    /// then the message is lost, and its receiver's timeout reports it.
    pub(crate) fn send(
        &mut self,
        src: Rank,
        dst: Rank,
        tag: u64,
        phase: Option<usize>,
        msg: M,
    ) -> Result<(), LinkDown> {
        let (opts, stats, mut at) = (self.opts, self.stats, self.now);
        let bump = FaultStats::bump;
        let Some(fp) = opts.fault else {
            self.out.push((at, dst, msg));
            return Ok(());
        };
        if phase.is_some() && fp.reorders(src, dst, tag) {
            bump(&stats.reorders);
            at = at.saturating_add(Duration::from_nanos(1));
        }
        for attempt in 0.. {
            match fp.send_action(src, dst, tag, attempt, phase) {
                FaultAction::Deliver => break,
                FaultAction::Duplicate => {
                    if phase.is_some() {
                        bump(&stats.duplicates);
                        self.out.push((at, dst, msg.clone()));
                    }
                    break;
                }
                FaultAction::Delay(d) => {
                    bump(&stats.delays);
                    at = at.saturating_add(d);
                    break;
                }
                FaultAction::Drop => {
                    bump(&stats.drops);
                    if attempt == opts.max_retries {
                        bump(&stats.lost);
                        return Ok(());
                    }
                    bump(&stats.retries);
                    opts.recorder.retry(src);
                    let seed = backoff_seed(fp.seed(), src as u64, dst as u64, tag);
                    at = at.saturating_add(backoff(opts.backoff_base, attempt, seed));
                }
                FaultAction::LinkDown => {
                    bump(&stats.link_downs);
                    return Err(LinkDown);
                }
            }
        }
        self.out.push((at, dst, msg));
        Ok(())
    }

    /// `rank` enters `phase` (a negotiation step, `None`): `false` if the
    /// fault plan has crashed it by then; a straggler's stall moves its
    /// clock ahead.
    pub(crate) fn enter(&mut self, rank: Rank, phase: Option<usize>) -> bool {
        let Some(fp) = self.opts.fault else { return true };
        self.now = self.now.saturating_add(fp.stall(rank));
        !phase.is_some_and(|k| fp.is_crashed(rank, k))
    }
}

/// Where a rank stands with the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Queued,
    Running,
    Blocked(Duration),
    Done,
}

/// The driver's books, behind one lock.
struct Sched<M, E> {
    state: Vec<State>,
    /// Each rank's time: the clock's, or ahead of it by its stalls.
    local: Vec<Duration>,
    inbox: Vec<Vec<M>>,
    /// Deliveries (`Some`), and ranks to poll — queued ones, and waiting
    /// ones at their deadline (stale once the rank moved on) — by time,
    /// then a seeded draw (0 unseeded), then posting order.
    events: BTreeMap<(Duration, u64, u64), (Rank, Option<M>)>,
    posted: u64,
    rng: Option<DetRng>,
    live: usize,
    clock: Duration,
    /// The failure that ends the run, and its rank.
    failed: Option<(Rank, E)>,
}

impl<M, E> Sched<M, E> {
    fn push(&mut self, at: Duration, to: Rank, msg: Option<M>) {
        self.posted += 1;
        let draw = self.rng.as_mut().map_or(0, DetRng::next_u64);
        self.events.insert((at, draw, self.posted), (to, msg));
    }

    fn queue(&mut self, r: Rank, now: Duration) {
        self.state[r] = State::Queued;
        self.push(now, r, None);
    }
}

/// INVARIANT: a rank's panic is caught inside its poll, so only a bug in
/// the driver itself can poison its locks — and then the run must not go
/// on. (The threaded executor's panicking-rank test tries the first.)
fn unpoisoned<T>(held: LockResult<T>) -> T {
    held.expect("a driver bug poisoned the rank runtime's books")
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    unpoisoned(m.lock())
}

/// One run: the books, the ranks and the transport they share.
struct Driver<'a, R: Machine> {
    sched: Mutex<Sched<R::Msg, R::Error>>,
    /// Notified whenever a poll is booked.
    booked: Condvar,
    ranks: Vec<Mutex<&'a mut R>>,
    opts: &'a ExecOptions<'a>,
    stats: &'a FaultStats,
    clock: Clock,
    start: Instant,
}

impl<R: Machine> Driver<'_, R> {
    /// One worker: takes the events due, in order, polling ranks as they
    /// come up, until every rank is done or one failed; with none due,
    /// waits for the next — on the logical clock, by jumping to it, unless
    /// a failure is booked: then the clock stops at its instant.
    fn work(&self) {
        let wall = self.clock == Clock::Wall;
        let (mut out, mut s) = (Vec::new(), lock(&self.sched));
        while s.live > 0 && !(wall && s.failed.is_some()) {
            let now = if wall { self.start.elapsed() } else { s.clock };
            let Some(due) = s.events.first_entry().filter(|e| e.key().0 <= now) else {
                if s.failed.is_some() {
                    break;
                }
                let next = s.events.keys().next().map(|&(at, ..)| at);
                s = match (self.clock, next) {
                    (Clock::Wall, Some(at)) => {
                        let wait = at.saturating_sub(self.start.elapsed());
                        unpoisoned(self.booked.wait_timeout(s, wait)).0
                    }
                    (Clock::Wall, None) => unpoisoned(self.booked.wait(s)),
                    // INVARIANT: a waiting rank's wake-up is booked, so an
                    // idle logical run always has a next event
                    (Clock::Logical(_), None) => break,
                    (Clock::Logical(_), Some(at)) => {
                        s.clock = at;
                        s
                    }
                };
                continue;
            };
            let ((at, ..), (r, msg)) = due.remove_entry();
            match (s.state[r], msg) {
                (State::Done, _) => continue,
                (state, Some(msg)) => {
                    s.inbox[r].push(msg);
                    if let State::Blocked(_) = state {
                        s.queue(r, now);
                    }
                    continue;
                }
                (State::Queued, None) => {}
                (state, None) if state == State::Blocked(at) => {}
                _ => continue,
            }
            s.state[r] = State::Running;
            let (mut inbox, local) = (std::mem::take(&mut s.inbox[r]), now.max(s.local[r]));
            drop(s);
            let (res, local) = {
                let mut rank = lock(&self.ranks[r]);
                let (opts, stats) = (self.opts, self.stats);
                let mut port = Port { opts, stats, now: local, out: &mut out };
                let res = catch_unwind(AssertUnwindSafe(|| rank.poll(&mut inbox, &mut port)));
                (res.unwrap_or_else(|payload| Err(rank.panicked(payload))), port.now)
            };
            s = lock(&self.sched);
            for (at, to, msg) in out.drain(..) {
                s.push(at, to, Some(msg));
            }
            inbox.append(&mut s.inbox[r]);
            (s.inbox[r], s.local[r]) = (inbox, local);
            match res {
                Ok(Poll::Blocked { deadline }) if s.inbox[r].is_empty() => {
                    s.state[r] = State::Blocked(deadline);
                    s.push(deadline, r, None);
                }
                Ok(Poll::Ready | Poll::Blocked { .. }) => s.queue(r, now),
                res => {
                    (s.state[r], s.live) = (State::Done, s.live - 1);
                    // the first on the wall clock; the lowest rank of the
                    // failure's instant on the logical one
                    let first = s.failed.as_ref().is_none_or(|&(f, _)| !wall && r < f);
                    if let (Err(e), true) = (res, first) {
                        s.failed = Some((r, e));
                    }
                }
            }
            self.booked.notify_all();
        }
    }
}

/// Runs `ranks` on `clock` over the transport of `opts` (its fault plan,
/// retry budget and recorder), tallying into `stats`, until every rank is
/// done or one fails. On the wall clock the first failure a worker
/// records stops the run: no further poll starts, and waiting ranks are
/// abandoned. On the logical clock the events due at the failure's
/// instant still run, then the clock stops — so what failed and what
/// moved are the same under every seed — and the lowest-ranked failure
/// of that instant is returned.
pub(crate) fn run<R: Machine>(
    ranks: &mut [R],
    opts: &ExecOptions<'_>,
    stats: &FaultStats,
    clock: Clock,
) -> Result<(), R::Error> {
    let n = ranks.len();
    let mut sched = Sched {
        state: vec![State::Queued; n],
        local: vec![Duration::ZERO; n],
        inbox: (0..n).map(|_| Vec::new()).collect(),
        events: BTreeMap::new(),
        posted: 0,
        rng: match clock {
            Clock::Logical(seed) => seed.map(DetRng::seed_from_u64),
            Clock::Wall => None,
        },
        live: n,
        clock: Duration::ZERO,
        failed: None,
    };
    (0..n).for_each(|r| sched.queue(r, Duration::ZERO));
    let (sched, booked, start) = (Mutex::new(sched), Condvar::new(), Instant::now());
    let ranks = ranks.iter_mut().map(Mutex::new).collect();
    let driver = Driver { sched, booked, ranks, opts, stats, clock, start };
    let pool = if clock == Clock::Wall { WorkerPool::auto() } else { WorkerPool::serial() };
    pool.map(pool.threads().min(n), |_| driver.work());
    unpoisoned(driver.sched.into_inner()).failed.map_or(Ok(()), |(_, e)| Err(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of ranks passing one token `laps` times around: every rank
    /// but the first blocks on its predecessor's message, and gives up
    /// one second into the run.
    struct Relay {
        rank: Rank,
        n: usize,
        laps: usize,
        got: usize,
        started: bool,
    }

    impl Machine for Relay {
        type Msg = usize;
        type Error = (Rank, Duration);

        fn poll(
            &mut self,
            inbox: &mut Vec<usize>,
            port: &mut Port<'_, usize>,
        ) -> Result<Poll, Self::Error> {
            let (r, to, now) = (self.rank, (self.rank + 1) % self.n, port.now);
            if r == 0 && !self.started {
                self.started = true;
                port.send(r, to, 1, Some(0), 1).map_err(|_| (r, now))?;
            }
            for hops in inbox.drain(..) {
                self.got += 1;
                if hops < self.laps * self.n {
                    port.send(r, to, hops as u64 + 1, Some(0), hops + 1).map_err(|_| (r, now))?;
                }
            }
            let deadline = Duration::from_secs(1);
            match () {
                _ if self.got == self.laps => Ok(Poll::Done),
                _ if now >= deadline => Err((r, now)),
                _ => Ok(Poll::Blocked { deadline }),
            }
        }

        fn panicked(&self, _: Box<dyn Any + Send>) -> Self::Error {
            (self.rank, Duration::MAX)
        }
    }

    fn relay(n: usize, laps: usize) -> Vec<Relay> {
        (0..n).map(|rank| Relay { rank, n, laps, got: 0, started: false }).collect()
    }

    #[test]
    fn mutually_blocking_ranks_finish_on_every_clock() {
        // every rank waits on another's message, more ranks than workers:
        // a waiting rank yields its worker instead of blocking it
        let stats = FaultStats::default();
        for clock in [Clock::Wall, Clock::Logical(None), Clock::Logical(Some(7))] {
            let mut ranks = relay(5, 3);
            let out = run(&mut ranks, &ExecOptions::new(), &stats, clock);
            assert!(out.is_ok(), "{clock:?}: {out:?}");
        }
    }

    #[test]
    fn a_lost_message_times_out_at_once_on_the_logical_clock() {
        // every attempt dropped: the ring stalls, and every rank gives up
        // at its one-second deadline — in virtual time, not wall time; the
        // lowest rank of that instant is reported
        let fp = crate::fault::FaultPlan::seeded(3).with_message_drop(1.0);
        let (stats, t0) = (FaultStats::default(), Instant::now());
        let opts = ExecOptions::new().retries(2, Duration::from_millis(100)).fault(&fp);
        let out = run(&mut relay(4, 1), &opts, &stats, Clock::Logical(Some(1)));
        assert_eq!(out, Err((0, Duration::from_secs(1))));
        assert!(t0.elapsed() < Duration::from_millis(500));
        let c = stats.snapshot();
        assert_eq!((c.drops, c.retries, c.lost), (3, 2, 1));
    }

    #[test]
    fn the_first_failure_ends_the_run_on_every_clock() {
        // rank 0's first send hits a dead link: the ranks waiting on the
        // token are abandoned, not left to sit out their deadlines
        let fp = crate::fault::FaultPlan::seeded(5).with_link_down(0, 1, 0);
        let opts = ExecOptions::new().fault(&fp);
        for clock in [Clock::Wall, Clock::Logical(None), Clock::Logical(Some(7))] {
            let (stats, t0) = (FaultStats::default(), Instant::now());
            let out = run(&mut relay(4, 1), &opts, &stats, clock);
            assert_eq!(out.map_err(|(r, _)| r), Err(0), "{clock:?}");
            assert!(t0.elapsed() < Duration::from_millis(500), "{clock:?}");
        }
    }
}
