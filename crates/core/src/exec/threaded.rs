//! The threaded executor: one OS thread per rank, real channels.
//!
//! Each rank runs its share of the compiled program concurrently: per
//! phase it sends its messages over `std::sync::mpsc` channels, then
//! blocks until every message the program has it integrate that phase
//! has arrived (early arrivals are parked, mirroring MPI's
//! unexpected-message queue) and integrates them in program order — the
//! virtual backend's order — so outputs (f32 bits included) are
//! identical. This exercises the program under genuine concurrency and
//! shared-nothing message passing — the closest this library gets to
//! running the collective "for real".
//!
//! A message travels as its program id. A reduce message carries its
//! packed partials; gather and routed blocks are never modified in
//! flight, so their message carries no bytes and a rank that has run
//! its phases copies each delivered block once, from its origin's send
//! buffer (the shared-memory analog of an RDMA read from registered
//! memory).
//!
//! # Robustness
//!
//! The executor is the primary consumer of the fault-injection layer
//! ([`crate::fault`]), for every op. [`ExecOptions`] carries a receive
//! timeout, an optional per-phase deadline, a retry budget with bounded
//! exponential backoff, and an optional [`crate::fault::FaultPlan`].
//! Sends traverse a small reliable-transport emulation: an attempt the
//! fault plan drops is retried (with backoff) until the budget is
//! exhausted, at which point the message is lost for good and the
//! receiver's timeout converts the loss into [`ExecError::Timeout`] /
//! [`ExecError::PhaseDeadline`] instead of a hang. Crashed ranks return
//! [`ExecError::RankCrashed`]; a duplicated delivery is dropped by
//! message id before anything is integrated, so no operator is ever
//! applied twice, and reordered ones wait their turn. The guarantee
//! chased by the chaos suite: **identical-to-reference buffers or a
//! typed error — never silent corruption, never a hang.**

use crate::arena::BlockArena;
use crate::collective::program::{Exec, Staged, Wire};
use crate::exec::{execute, ExecError, ExecOptions, ExecOutcome, Executor};
use crate::fault::{backoff, backoff_seed, FaultAction, FaultStats};
use crate::plan::CollectivePlan;
use nhood_topology::{Rank, Topology};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A wire message: its program id and, for the reduce shapes, its packed
/// blocks.
type Envelope = (usize, Vec<u8>);

/// Default per-receive timeout.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// The one-OS-thread-per-rank backend (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Threaded;

impl Executor for Threaded {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn run(
        &self,
        plan: &Arc<CollectivePlan>,
        graph: &Topology,
        payloads: &[Vec<u8>],
        arena: &mut BlockArena,
        opts: &ExecOptions<'_>,
    ) -> Result<ExecOutcome, ExecError> {
        execute(opts.gather_op(), None, plan, graph, payloads, arena, true, opts)
    }
}

/// One rank's view of a threaded run.
struct RankCtx<'a> {
    exec: &'a Exec<'a>,
    rank: Rank,
    senders: &'a [Sender<Envelope>],
    opts: &'a ExecOptions<'a>,
    stats: &'a FaultStats,
}

impl RankCtx<'_> {
    /// Sends message `id` during `phase`, consulting the fault plan per
    /// attempt — the only place a data message meets a [`FaultAction`].
    /// A dropped attempt is retried after bounded exponential backoff
    /// until the budget runs out; then the message is abandoned (the
    /// receiver's timeout surfaces the loss as a typed error). A dead
    /// link is not retryable: the send fails immediately with
    /// [`ExecError::LinkDown`] so the caller can repair around the edge.
    fn transport_send(&self, id: usize, wire: Vec<u8>, phase: usize) -> Result<(), ExecError> {
        let (opts, stats) = (self.opts, self.stats);
        let m = self.exec.prog.msg(id);
        // a send can only fail if the peer already exited on error; the
        // peer's error is the root cause
        let deliver = |wire| drop(self.senders[m.dst].send((id, wire)));
        let Some(fp) = opts.fault else {
            deliver(wire);
            return Ok(());
        };
        let mut attempt: u32 = 0;
        loop {
            match fp.send_action_at(m.src, m.dst, m.tag, attempt, phase) {
                FaultAction::Deliver => break deliver(wire),
                FaultAction::Duplicate => {
                    FaultStats::bump(&stats.duplicates);
                    deliver(wire.clone());
                    break deliver(wire);
                }
                FaultAction::Delay(d) => {
                    FaultStats::bump(&stats.delays);
                    std::thread::sleep(d);
                    break deliver(wire);
                }
                FaultAction::Drop => {
                    FaultStats::bump(&stats.drops);
                    if attempt >= opts.max_retries {
                        FaultStats::bump(&stats.lost);
                        break;
                    }
                    FaultStats::bump(&stats.retries);
                    opts.recorder.retry(m.src);
                    // jittered exponential backoff, seeded per message so
                    // chaos runs stay deterministic but retrying ranks
                    // don't wake in lockstep
                    let seed = backoff_seed(fp.seed(), m.src as u64, m.dst as u64, m.tag);
                    std::thread::sleep(backoff(opts.backoff_base, attempt, seed));
                    attempt += 1;
                }
                FaultAction::LinkDown => {
                    FaultStats::bump(&stats.link_downs);
                    return Err(ExecError::LinkDown { src: m.src, dst: m.dst, phase });
                }
            }
        }
        Ok(())
    }

    /// Phase-entry fault hooks: injected crash, then injected stall.
    fn phase_entry_faults(&self, k: usize) -> Result<(), ExecError> {
        if let Some(fp) = self.opts.fault {
            if fp.is_crashed(self.rank, k) {
                return Err(ExecError::RankCrashed { rank: self.rank, phase: k });
            }
            let stall = fp.stall(self.rank);
            if stall > Duration::ZERO {
                std::thread::sleep(stall);
            }
        }
        Ok(())
    }

    /// Blocks for the next envelope of phase `k`, within the receive
    /// timeout and what is left of the phase `deadline`.
    fn recv_wait(
        &self,
        rx: &Receiver<Envelope>,
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<Envelope, ExecError> {
        let late = || ExecError::PhaseDeadline { rank: self.rank, phase: k };
        let left = deadline.map(|dl| dl.checked_duration_since(Instant::now()).ok_or_else(late));
        let wait =
            left.transpose()?.map_or(self.opts.recv_timeout, |d| d.min(self.opts.recv_timeout));
        rx.recv_timeout(wait).map_err(|_| match deadline {
            Some(dl) if Instant::now() >= dl => late(),
            _ => ExecError::Timeout { rank: self.rank, phase: k },
        })
    }

    /// The rank's thread: per phase, send, collect the phase's arrivals,
    /// integrate them in program order. `arena` is the rank's staging
    /// buffer (reduce shapes), `rbuf` its sized receive buffer.
    fn main(
        &self,
        rx: Receiver<Envelope>,
        arena: &mut [u8],
        rbuf: &mut Vec<u8>,
    ) -> Result<(), ExecError> {
        let (prog, rank, rec) = (self.exec.prog, self.rank, self.opts.recorder);
        let by_ref = !prog.shape.reduces();
        // arrivals of phases this rank has not reached yet
        let mut early: Vec<Envelope> = Vec::new();
        let mut got: Vec<Option<Vec<u8>>> = Vec::new();
        for k in 0..prog.phases {
            let (label, copies) = prog.phase(k);
            rec.span_begin(rank, label);
            if let Some(&blocks) = copies.get(rank).filter(|&&blocks| blocks > 0) {
                rec.copies(rank, blocks);
            }
            self.phase_entry_faults(k)?;
            let deadline = self.opts.phase_deadline.map(|d| Instant::now() + d);

            // the reorder fault holds one message back past its successor
            let mut held: Option<Envelope> = None;
            for &id in prog.sends(k, rank) {
                let m = prog.msg(id);
                let (wire, bytes) = self.exec.pack(id, arena);
                // one logical message, however many attempts it takes
                rec.msg_sent(rank, m.dst, bytes);
                if held.is_none()
                    && self.opts.fault.is_some_and(|fp| fp.reorders(rank, m.dst, m.tag))
                {
                    FaultStats::bump(&self.stats.reorders);
                    held = Some((id, wire));
                    continue;
                }
                self.transport_send(id, wire, k)?;
                if let Some((id, wire)) = held.take() {
                    self.transport_send(id, wire, k)?;
                }
            }
            if let Some((id, wire)) = held.take() {
                self.transport_send(id, wire, k)?;
            }

            // File the phase's arrivals by id. An id past the phase is
            // early and parked; one below it, or already filed, is a
            // transport duplicate and dropped before anything integrates.
            let due = prog.recvs(k, rank);
            got.clear();
            got.resize(due.len(), None);
            let mut waiting = due.len();
            let mut parked = std::mem::take(&mut early).into_iter();
            while waiting > 0 {
                let (id, wire) = match parked.next() {
                    Some(envelope) => envelope,
                    None => self.recv_wait(&rx, k, deadline)?,
                };
                if id >= due.end {
                    early.push((id, wire));
                } else if id >= due.start && got[id - due.start].is_none() {
                    got[id - due.start] = Some(wire);
                    waiting -= 1;
                }
            }
            early.extend(parked);
            for (id, wire) in due.zip(got.drain(..)) {
                // INVARIANT: the loop above ends when `waiting` — the
                // count of unfilled entries of `got` — reaches zero.
                let wire = wire.expect("every due message was filed");
                let bytes = if by_ref {
                    self.exec.wire_bytes(id)
                } else {
                    self.exec.integrate(id, Wire::Packed(&wire), arena, rbuf)
                };
                rec.msg_recvd(rank, prog.msg(id).src, bytes);
            }
            rec.span_end(rank, label);
        }
        if by_ref {
            self.exec.deliver(rank, rbuf);
        }
        Ok(())
    }
}

/// Runs a staged execution with one thread per rank. When several ranks
/// fail the most actionable error is returned: a [`ExecError::LinkDown`]
/// beats the timeouts it cascades into on peer ranks (they were waiting
/// for data that could never cross the dead link), so the caller sees
/// the root cause rather than a symptom.
pub(crate) fn run(
    staged: &mut Staged,
    opts: &ExecOptions<'_>,
    stats: &FaultStats,
) -> Result<(), ExecError> {
    let Staged { exec, arena: staged, rbufs } = staged;
    let exec = &*exec;
    let (senders, receivers): (Vec<_>, Vec<_>) = rbufs.iter().map(|_| channel()).unzip();
    let arenas =
        staged.iter_mut().map(Vec::as_mut_slice).chain(std::iter::repeat_with(Default::default));
    let results: Vec<Result<(), ExecError>> = std::thread::scope(|scope| {
        let senders = &senders[..];
        let handles: Vec<_> = receivers
            .into_iter()
            .zip(arenas)
            .zip(rbufs.iter_mut())
            .enumerate()
            .map(|(rank, ((rx, arena), rbuf))| {
                let ctx = RankCtx { exec, rank, senders, opts, stats };
                scope.spawn(move || ctx.main(rx, arena, rbuf))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| h.join().unwrap_or(Err(ExecError::WorkerPanic { rank })))
            .collect()
    });
    let mut errors = results.into_iter().filter_map(Result::err);
    let Some(first) = errors.next() else { return Ok(()) };
    let is_link_down = |e: &ExecError| matches!(e, ExecError::LinkDown { .. });
    Err(if is_link_down(&first) { first } else { errors.find(is_link_down).unwrap_or(first) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::common_neighbor::plan_common_neighbor;
    use crate::exec::virtual_exec::{reference_allgather, test_payloads, Virtual};
    use crate::fault::FaultPlan;
    use crate::lower::lower;
    use crate::naive::plan_naive;
    use nhood_cluster::ClusterLayout;
    use nhood_topology::random::erdos_renyi;

    /// Runs the plan and checks the buffers against the definition.
    fn run_checked(
        plan: &Arc<CollectivePlan>,
        g: &Topology,
        payloads: &[Vec<u8>],
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        let out = Threaded.run_simple(plan, g, payloads)?;
        assert_eq!(out, reference_allgather(g, payloads), "diverged from the reference");
        Ok(out)
    }

    #[test]
    fn naive_threaded_matches_reference() {
        let g = erdos_renyi(16, 0.4, 1);
        let plan = Arc::new(plan_naive(&g));
        let payloads = test_payloads(16, 32, 2);
        let got = run_checked(&plan, &g, &payloads).unwrap();
        assert_eq!(got, reference_allgather(&g, &payloads));
    }

    #[test]
    fn distance_halving_threaded_matches_virtual() {
        let g = erdos_renyi(24, 0.4, 8);
        let layout = ClusterLayout::new(3, 2, 4);
        let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        let payloads = test_payloads(24, 16, 9);
        let threaded = run_checked(&plan, &g, &payloads).unwrap();
        let virt = Virtual.run_simple(&plan, &g, &payloads).unwrap();
        assert_eq!(threaded, virt);
        assert_eq!(threaded, reference_allgather(&g, &payloads));
    }

    #[test]
    fn common_neighbor_threaded_matches_reference() {
        let g = erdos_renyi(20, 0.5, 4);
        let plan = Arc::new(plan_common_neighbor(&g, 4));
        let payloads = test_payloads(20, 8, 1);
        let got = run_checked(&plan, &g, &payloads).unwrap();
        assert_eq!(got, reference_allgather(&g, &payloads));
    }

    #[test]
    fn lost_message_times_out_cleanly() {
        let g = Topology::from_edges(2, [(0, 1)]);
        let plan = Arc::new(plan_naive(&g));
        let payloads = test_payloads(2, 4, 0);
        // every attempt dropped, no retries: rank 1 would wait forever
        let fp = FaultPlan::seeded(1).with_message_drop(1.0);
        let opts = ExecOptions::new()
            .recv_timeout(Duration::from_millis(50))
            .retries(0, Duration::ZERO)
            .fault(&fp);
        let err = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap_err();
        assert_eq!(err, ExecError::Timeout { rank: 1, phase: 0 });
    }

    #[test]
    fn link_down_fails_typed_and_is_counted_in_sink() {
        let g = erdos_renyi(16, 0.5, 7);
        let plan = Arc::new(plan_naive(&g));
        // Pick a directed edge the naive plan actually sends over.
        let (src, dst) = {
            let msg = (0..16).find_map(|r| Some((r, plan.phase(r, 0).sends().next()?.peer())));
            msg.expect("naive plan on a connected-ish graph has sends")
        };
        let fp = FaultPlan::seeded(1).with_link_down(src, dst, 0);
        let payloads = test_payloads(16, 8, 5);
        let sink = FaultStats::default();
        let opts = ExecOptions::new()
            .fault(&fp)
            .fault_sink(&sink)
            .recv_timeout(Duration::from_millis(200));
        let err = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap_err();
        // LinkDown must win over the timeouts it cascades into on peers.
        assert!(matches!(err, ExecError::LinkDown { .. }), "{err:?}");
        let counts = sink.snapshot();
        assert!(counts.link_downs >= 1, "{counts}");
    }

    #[test]
    fn fault_sink_survives_failed_runs() {
        // Even though run() errors, the caller-provided sink keeps the
        // injected-fault tally.
        let g = Topology::from_edges(2, [(0, 1), (1, 0)]);
        let plan = Arc::new(plan_naive(&g));
        let fp = FaultPlan::seeded(2).with_link_down(0, 1, 0);
        let payloads = test_payloads(2, 4, 1);
        let sink = FaultStats::default();
        let opts = ExecOptions::new()
            .fault(&fp)
            .fault_sink(&sink)
            .recv_timeout(Duration::from_millis(200));
        let err = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap_err();
        assert!(matches!(err, ExecError::LinkDown { .. }), "{err:?}");
        assert!(sink.snapshot().link_downs >= 1);
    }

    #[test]
    fn out_of_order_arrivals_are_parked() {
        // Rank 2 integrates 0's block in phase 0 and 1's in phase 1.
        // Rank 0 stalls at every phase entry, so rank 1 — idle in phase
        // 0 — has sent its phase-1 message long before: it reaches rank
        // 2 a phase early and must be parked, not dropped or integrated.
        let g = Topology::from_edges(3, [(0, 2), (1, 2)]);
        let plan =
            crate::arena::tests::hand_plan(3, 2, &[(0, 0, 2, &[0], &[0]), (1, 1, 2, &[1], &[1])]);
        let payloads = test_payloads(3, 4, 3);
        let fp = FaultPlan::seeded(0).with_slow_rank(0, Duration::from_millis(5));
        let opts = ExecOptions::new().fault(&fp);
        for _ in 0..20 {
            let out = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap();
            assert_eq!(out.rbufs, reference_allgather(&g, &payloads));
        }
    }

    #[test]
    fn empty_communicator() {
        let g = Topology::from_edges(0, []);
        let plan = Arc::new(plan_naive(&g));
        assert!(Threaded.run_simple(&plan, &g, &[]).unwrap().is_empty());
    }

    #[test]
    fn repeated_runs_are_stable_under_scheduling() {
        // concurrency stress: many small ranks, many repetitions, one
        // shared arena (checks cross-run state is reset correctly)
        let g = erdos_renyi(48, 0.3, 13);
        let layout = ClusterLayout::new(4, 2, 6);
        let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        let payloads = test_payloads(48, 8, 4);
        let want = reference_allgather(&g, &payloads);
        let mut arena = BlockArena::new();
        let opts = ExecOptions::default();
        for _ in 0..5 {
            let out = Threaded.run(&plan, &g, &payloads, &mut arena, &opts).unwrap();
            assert_eq!(out.rbufs, want);
            arena.adopt_rbufs(out.rbufs);
        }
    }

    #[test]
    fn retries_recover_from_dropped_messages() {
        let g = erdos_renyi(16, 0.4, 3);
        let plan = Arc::new(plan_naive(&g));
        let payloads = test_payloads(16, 8, 6);
        let fp = FaultPlan::seeded(77).with_message_drop(0.2);
        let rec = nhood_telemetry::CountingRecorder::new(16);
        let opts = ExecOptions::new()
            .recv_timeout(Duration::from_secs(5))
            .retries(4, Duration::from_micros(50))
            .fault(&fp)
            .recorder(&rec);
        let out = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap();
        assert_eq!(out.rbufs, reference_allgather(&g, &payloads));
        assert!(out.faults.drops > 0, "20% drop on a dense 16-rank naive plan must fire");
        assert!(out.faults.retries >= out.faults.drops - out.faults.lost);
        assert_eq!(out.faults.lost, 0, "retry budget should recover every drop here");
        // the telemetry recorder sees the same retry tally as FaultStats
        assert_eq!(rec.totals().retries, out.faults.retries);
    }

    #[test]
    fn recorder_counts_agree_with_virtual_executor() {
        let g = erdos_renyi(20, 0.4, 7);
        let layout = ClusterLayout::new(3, 2, 4);
        let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        let payloads = test_payloads(20, 16, 9);
        let vrec = nhood_telemetry::CountingRecorder::new(20);
        let vopts = ExecOptions::new().recorder(&vrec);
        Virtual.run(&plan, &g, &payloads, &mut BlockArena::new(), &vopts).unwrap();
        let trec = nhood_telemetry::CountingRecorder::new(20);
        let topts = ExecOptions::new().recorder(&trec);
        let out = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &topts).unwrap();
        assert_eq!(out.rbufs, reference_allgather(&g, &payloads));
        for r in 0..20 {
            assert_eq!(vrec.per_rank(r), trec.per_rank(r), "rank {r}");
        }
    }

    #[test]
    fn span_recorder_sees_balanced_phase_spans() {
        let g = erdos_renyi(12, 0.4, 2);
        let layout = ClusterLayout::new(2, 2, 3);
        let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        let payloads = test_payloads(12, 8, 0);
        let rec = nhood_telemetry::SpanRecorder::new();
        let opts = ExecOptions::new().recorder(&rec);
        Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap();
        let events = rec.events();
        // every rank opens and closes one span per phase
        let begins = events.iter().filter(|e| e.kind == nhood_telemetry::EventKind::Begin).count();
        let ends = events.iter().filter(|e| e.kind == nhood_telemetry::EventKind::End).count();
        assert_eq!(begins, 12 * plan.phase_count());
        assert_eq!(begins, ends);
        assert!(events.iter().any(|e| e.label == nhood_telemetry::labels::HALVING_STEP));
        assert!(events.iter().any(|e| e.label == nhood_telemetry::labels::INTRA_SOCKET));
    }

    #[test]
    fn duplicates_and_reorders_are_harmless() {
        let g = erdos_renyi(20, 0.4, 5);
        let layout = ClusterLayout::new(3, 2, 4);
        let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        let payloads = test_payloads(20, 8, 11);
        let fp = FaultPlan::seeded(5).with_message_duplication(0.3).with_message_reorder(0.3);
        let opts = ExecOptions::new().fault(&fp);
        let out = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap();
        assert_eq!(out.rbufs, reference_allgather(&g, &payloads));
        assert!(out.faults.duplicates + out.faults.reorders > 0);
    }

    #[test]
    fn faulted_wires_land_in_posted_slots_whatever_order_they_arrive() {
        // Every message duplicated, reordered where possible and dropped
        // half the time, on a plan that itself delivers block 0 to rank 3
        // twice and relays an empty block: a wire lands by slot, so a
        // second copy overwrites and nothing depends on arrival order.
        let g = Topology::from_edges(4, [(0, 1), (0, 3), (1, 3), (2, 1), (2, 3)]);
        let plan = crate::arena::tests::hand_plan(
            4,
            2,
            &[
                (0, 0, 1, &[0], &[0]),
                (0, 2, 1, &[2], &[2]),
                (0, 0, 3, &[0], &[0]),
                (1, 1, 3, &[2, 1, 0], &[2, 1, 0]),
            ],
        );
        let payloads = vec![vec![1u8; 6], vec![2u8; 3], vec![], vec![4u8; 2]];
        let fp = FaultPlan::seeded(9)
            .with_message_duplication(1.0)
            .with_message_reorder(1.0)
            .with_message_drop(0.5);
        let opts =
            ExecOptions::new().ragged(true).retries(32, Duration::from_micros(10)).fault(&fp);
        let mut arena = BlockArena::new();
        for _ in 0..10 {
            let out = Threaded.run(&plan, &g, &payloads, &mut arena, &opts).unwrap();
            assert_eq!(out.rbufs, reference_allgather(&g, &payloads));
            assert!(out.faults.duplicates > 0 || out.faults.drops > 0);
            arena.adopt_rbufs(out.rbufs);
        }
    }

    #[test]
    fn crashed_rank_is_a_typed_error_not_a_hang() {
        let g = erdos_renyi(12, 0.5, 9);
        let plan = Arc::new(plan_naive(&g));
        let payloads = test_payloads(12, 4, 2);
        let fp = FaultPlan::seeded(0).with_crashed_rank(3, 0);
        let opts = ExecOptions::new().recv_timeout(Duration::from_millis(100)).fault(&fp);
        let t0 = Instant::now();
        let err = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap_err();
        assert!(err.is_timeout_class(), "{err:?}");
        assert!(t0.elapsed() < Duration::from_secs(5), "must not hang");
    }

    #[test]
    fn phase_deadline_fires_when_messages_are_lost_for_good() {
        let g = Topology::from_edges(2, [(0, 1)]);
        let plan = Arc::new(plan_naive(&g));
        let payloads = test_payloads(2, 4, 0);
        // p=1 drop: every attempt (and every retry) is discarded
        let fp = FaultPlan::seeded(1).with_message_drop(1.0);
        let opts = ExecOptions::new()
            .recv_timeout(Duration::from_secs(30))
            .phase_deadline(Some(Duration::from_millis(80)))
            .retries(2, Duration::from_micros(10))
            .fault(&fp);
        let t0 = Instant::now();
        let err = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap_err();
        assert_eq!(err, ExecError::PhaseDeadline { rank: 1, phase: 0 });
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn slow_rank_stalls_but_completes() {
        let g = erdos_renyi(8, 0.5, 4);
        let plan = Arc::new(plan_naive(&g));
        let payloads = test_payloads(8, 4, 1);
        let fp = FaultPlan::seeded(2).with_slow_rank(1, Duration::from_millis(20));
        let opts = ExecOptions::new().fault(&fp);
        let t0 = Instant::now();
        let out = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap();
        assert_eq!(out.rbufs, reference_allgather(&g, &payloads));
        assert!(t0.elapsed() >= Duration::from_millis(20), "straggler must stall the run");
    }

    #[test]
    fn allgatherv_ragged_payloads_both_engines() {
        let g = erdos_renyi(20, 0.4, 6);
        let layout = ClusterLayout::new(3, 2, 4);
        // lengths 0..=4, including zero-length blocks
        let payloads: Vec<Vec<u8>> = (0..20).map(|r| vec![r as u8; r % 5]).collect();
        let want = reference_allgather(&g, &payloads);
        for plan in [
            plan_naive(&g),
            plan_common_neighbor(&g, 4),
            lower(&build_pattern(&g, &layout).unwrap(), &g),
        ]
        .map(Arc::new)
        {
            let opts = ExecOptions::new().ragged(true);
            let got =
                Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap().rbufs;
            assert_eq!(got, want);
        }
    }
}
