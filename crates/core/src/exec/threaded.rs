//! The threaded executor: one OS thread per rank, real channels, real
//! copies.
//!
//! Each rank runs its plan program concurrently: per phase it packs and
//! sends its messages over `std::sync::mpsc` channels, then blocks until
//! every expected message of the phase has arrived (out-of-order
//! arrivals are parked, mirroring MPI's unexpected-message queue). This
//! exercises the plan under genuine concurrency and shared-nothing
//! message passing — the closest this library gets to running the
//! collective "for real".
//!
//! Data movement is true zero-copy: a wire message is a list of borrowed
//! slices into the original payload buffers, **one descriptor per
//! block** (the shared-memory analog of an RDMA iovec send from
//! registered memory). Each rank keeps a slot-indexed table of the
//! slices it holds, laid out like the virtual backend's (see the arena
//! module docs): a send reads the descriptors its precomputed slot runs
//! hold, a receive stores the arrived descriptors in the slots it
//! posted, and payload bytes are copied exactly **once** per rank — into
//! the final receive buffer. Uniform and ragged (`allgatherv`) payloads
//! take the same path.
//!
//! # Robustness
//!
//! The executor is the primary consumer of the fault-injection layer
//! ([`crate::fault`]). [`ExecOptions`] carries a receive timeout, an
//! optional per-phase deadline, a retry budget with bounded exponential
//! backoff, and an optional [`crate::fault::FaultPlan`]. Sends traverse
//! a small reliable-transport emulation: an attempt the fault plan drops is
//! retried (with backoff) until the budget is exhausted, at which point
//! the message is lost for good and the receiver's timeout converts the
//! loss into [`ExecError::Timeout`] / [`ExecError::PhaseDeadline`]
//! instead of a hang. Crashed ranks return
//! [`ExecError::RankCrashed`]; duplicated and reordered deliveries are
//! absorbed by the tag-matched, idempotent receive path. The guarantee
//! chased by the chaos suite: **identical-to-reference buffers or a
//! typed error — never silent corruption, never a hang.**

use crate::arena::{slots, BlockArena, RankLayout};
use crate::exec::{
    check_count, check_payloads, phase_label, ExecError, ExecOptions, ExecOutcome, Executor,
};
use crate::fault::{backoff, backoff_seed, FaultAction, FaultStats};
use crate::plan::{CollectivePlan, PlanPhase};
use nhood_topology::{Rank, Topology};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A zero-copy scatter-gather wire message: one planned message as one
/// borrowed slice per block, in message block order (empty blocks
/// included). Every block in the system originates in some rank's
/// payload, so forwarding re-shares the same slices hop after hop; no
/// payload byte is copied in transit.
struct SegWire<'a> {
    src: Rank,
    tag: u64,
    segs: Vec<&'a [u8]>,
}

impl SegWire<'_> {
    fn byte_len(&self) -> usize {
        self.segs.iter().map(|s| s.len()).sum()
    }

    /// Structural copy for the duplication fault.
    fn duplicate(&self) -> Self {
        Self { src: self.src, tag: self.tag, segs: self.segs.clone() }
    }
}

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
        if opts.ragged {
            check_count(payloads, plan.n())?;
        } else {
            check_payloads(payloads, plan.n())?;
        }
        run_arena(plan, graph, payloads, arena, opts)
    }
}

/// Sends `wire` to `dst` during `phase`, consulting the fault plan per
/// attempt. A dropped attempt is retried after bounded exponential
/// backoff until the budget runs out; then the message is abandoned (the
/// receiver's timeout surfaces the loss as a typed error). A dead link
/// is not retryable: the send fails immediately with
/// [`ExecError::LinkDown`] so the caller can repair around the edge.
fn transport_send<'a>(
    senders: &[Sender<SegWire<'a>>],
    dst: Rank,
    wire: SegWire<'a>,
    phase: usize,
    opts: &ExecOptions<'_>,
    stats: &FaultStats,
) -> Result<(), ExecError> {
    // one logical message per call, however many attempts it takes
    opts.recorder.msg_sent(wire.src, dst, wire.byte_len());
    let Some(fp) = opts.fault else {
        // a send can only fail if the peer already exited on error; the
        // peer's error is the root cause
        let _ = senders[dst].send(wire);
        return Ok(());
    };
    let mut attempt: u32 = 0;
    loop {
        match fp.send_action_at(wire.src, dst, wire.tag, attempt, phase) {
            FaultAction::Deliver => {
                let _ = senders[dst].send(wire);
                return Ok(());
            }
            FaultAction::Duplicate => {
                FaultStats::bump(&stats.duplicates);
                let _ = senders[dst].send(wire.duplicate());
                let _ = senders[dst].send(wire);
                return Ok(());
            }
            FaultAction::Delay(d) => {
                FaultStats::bump(&stats.delays);
                std::thread::sleep(d);
                let _ = senders[dst].send(wire);
                return Ok(());
            }
            FaultAction::Drop => {
                FaultStats::bump(&stats.drops);
                if attempt >= opts.max_retries {
                    FaultStats::bump(&stats.lost);
                    return Ok(());
                }
                FaultStats::bump(&stats.retries);
                opts.recorder.retry(wire.src);
                // jittered exponential backoff, seeded per message so
                // chaos runs stay deterministic but retrying ranks
                // don't wake in lockstep
                let seed = backoff_seed(fp.seed(), wire.src as u64, dst as u64, wire.tag);
                std::thread::sleep(backoff(opts.backoff_base, attempt, seed));
                attempt += 1;
            }
            FaultAction::LinkDown => {
                FaultStats::bump(&stats.link_downs);
                return Err(ExecError::LinkDown { src: wire.src, dst, phase });
            }
        }
    }
}

/// Phase-entry fault hooks: injected crash, then injected stall.
fn phase_entry_faults(r: Rank, k: usize, opts: &ExecOptions<'_>) -> Result<(), ExecError> {
    if let Some(fp) = opts.fault {
        if fp.is_crashed(r, k) {
            return Err(ExecError::RankCrashed { rank: r, phase: k });
        }
        let stall = fp.stall(r);
        if stall > Duration::ZERO {
            std::thread::sleep(stall);
        }
    }
    Ok(())
}

/// Computes the receive wait budget, converting an elapsed deadline into
/// the right typed error.
fn recv_wait(
    r: Rank,
    k: usize,
    deadline: Option<Instant>,
    recv_timeout: Duration,
) -> Result<Duration, ExecError> {
    let mut wait = recv_timeout;
    if let Some(dl) = deadline {
        let now = Instant::now();
        if now >= dl {
            return Err(ExecError::PhaseDeadline { rank: r, phase: k });
        }
        wait = wait.min(dl - now);
    }
    Ok(wait)
}

/// Folds per-rank results into receive buffers, choosing the most
/// actionable error when several ranks failed: a [`ExecError::LinkDown`]
/// beats the timeouts it cascades into on peer ranks (they were waiting
/// for data that could never cross the dead link), so the caller sees
/// the root cause rather than a symptom.
fn collect_rank_results(
    results: Vec<Result<Vec<u8>, ExecError>>,
) -> Result<Vec<Vec<u8>>, ExecError> {
    let mut rbufs = Vec::with_capacity(results.len());
    let mut first_err: Option<ExecError> = None;
    for res in results {
        match res {
            Ok(b) => rbufs.push(b),
            Err(e) => {
                let have_link_down = matches!(first_err, Some(ExecError::LinkDown { .. }));
                if first_err.is_none()
                    || (matches!(e, ExecError::LinkDown { .. }) && !have_link_down)
                {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(rbufs),
    }
}

/// The zero-copy arena engine: each rank thread owns its slot table.
fn run_arena(
    plan: &Arc<CollectivePlan>,
    graph: &Topology,
    payloads: &[Vec<u8>],
    arena: &mut BlockArena,
    opts: &ExecOptions<'_>,
) -> Result<ExecOutcome, ExecError> {
    let n = plan.n();
    let local_stats = FaultStats::default();
    let stats = opts.fault_sink.unwrap_or(&local_stats);
    if n == 0 {
        return Ok(ExecOutcome::default());
    }
    let layout = arena.prepare(plan, graph)?;
    let rbuf_seed = arena.take_rbufs(n);
    let rbuf_caps: Vec<usize> = rbuf_seed.iter().map(Vec::capacity).collect();

    let mut senders: Vec<Sender<SegWire<'_>>> = Vec::with_capacity(n);
    let mut receivers: Vec<Option<Receiver<SegWire<'_>>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(Some(rx));
    }
    let senders = Arc::new(senders);
    let labels: Vec<&'static str> = (0..plan.phase_count()).map(|k| phase_label(plan, k)).collect();

    type RankOut = Result<Vec<u8>, ExecError>;
    let results: Vec<RankOut> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (r, rbuf) in rbuf_seed.into_iter().enumerate() {
            let rx = receivers[r].take().expect("receiver taken once");
            let senders = Arc::clone(&senders);
            let rl = &layout.ranks[r];
            let program = &plan.per_rank[r];
            let labels = &labels;
            let own = payloads[r].as_slice();
            handles.push(scope.spawn(move || -> RankOut {
                rank_main_arena(r, rl, program, labels, &senders, rx, opts, stats, own, rbuf)
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(r, h)| h.join().unwrap_or(Err(ExecError::WorkerPanic { rank: r })))
            .collect()
    });

    let rbufs = collect_rank_results(results)?;
    for (r, rb) in rbufs.iter().enumerate() {
        arena.note_realloc(rb.capacity() != rbuf_caps[r]);
    }
    Ok(ExecOutcome { rbufs, faults: stats.snapshot(), sim: None })
}

#[allow(clippy::too_many_arguments)]
fn rank_main_arena<'a>(
    r: Rank,
    rl: &RankLayout,
    program: &[PlanPhase],
    labels: &[&'static str],
    senders: &[Sender<SegWire<'a>>],
    rx: Receiver<SegWire<'a>>,
    opts: &ExecOptions<'_>,
    stats: &FaultStats,
    own: &'a [u8],
    mut rbuf: Vec<u8>,
) -> Result<Vec<u8>, ExecError> {
    // the slice each slot holds now; `None` until a block reaches it
    let mut table: Vec<Option<&'a [u8]>> = vec![None; rl.slots.len()];
    if let Some(slot0) = table.first_mut() {
        *slot0 = Some(own);
    }
    // messages that arrived before their phase
    let mut parked: HashMap<(Rank, u64), SegWire<'a>> = HashMap::new();
    // keys already landed — a late duplicate is dropped, not re-landed
    let mut seen: std::collections::HashSet<(Rank, u64)> = std::collections::HashSet::new();
    for (k, ops) in rl.phases.iter().enumerate() {
        opts.recorder.span_begin(r, labels[k]);
        if program[k].copy_blocks > 0 {
            opts.recorder.copies(r, program[k].copy_blocks);
        }
        phase_entry_faults(r, k, opts)?;
        let deadline = opts.phase_deadline.map(|d| Instant::now() + d);

        let mut held: Option<(Rank, SegWire<'a>)> = None;
        for op in &ops.sends {
            // resolve precomputed slot runs to the descriptors they hold
            // now — one per block, no bytes moved
            let segs = slots(&op.runs)
                .map(|slot| {
                    table[slot].ok_or(ExecError::MissingBlock {
                        rank: r,
                        block: rl.slots[slot],
                        phase: k,
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            let wire = SegWire { src: r, tag: op.tag, segs };
            let reorder =
                opts.fault.is_some_and(|fp| fp.reorders(r, op.peer, op.tag) && held.is_none());
            if reorder {
                FaultStats::bump(&stats.reorders);
                held = Some((op.peer, wire));
                continue;
            }
            transport_send(senders, op.peer, wire, k, opts, stats)?;
            if let Some((dst, w)) = held.take() {
                transport_send(senders, dst, w, k, opts, stats)?;
            }
        }
        if let Some((dst, w)) = held.take() {
            transport_send(senders, dst, w, k, opts, stats)?;
        }

        // land the phase's arrivals in the slots they were posted to; a
        // slot hit twice (duplicate-delivery plans) gets the same block
        for op in &ops.recvs {
            let key = (op.peer, op.tag);
            let w = loop {
                if let Some(w) = parked.remove(&key) {
                    break w;
                }
                let wait = recv_wait(r, k, deadline, opts.recv_timeout)?;
                let w = rx.recv_timeout(wait).map_err(|_| {
                    if deadline.is_some_and(|dl| Instant::now() >= dl) {
                        ExecError::PhaseDeadline { rank: r, phase: k }
                    } else {
                        ExecError::Timeout { rank: r, phase: k }
                    }
                })?;
                let wkey = (w.src, w.tag);
                if wkey == key {
                    break w;
                }
                // stray: park if early, drop if a duplicate of a landed key
                if !seen.contains(&wkey) {
                    parked.insert(wkey, w);
                }
            };
            seen.insert(key);
            opts.recorder.msg_recvd(r, w.src, w.byte_len());
            for (slot, &seg) in slots(&op.runs).zip(&w.segs) {
                table[slot] = Some(seg);
            }
        }
        opts.recorder.span_end(r, labels[k]);
    }
    // assemble the receive buffer from precomputed slot runs — the one
    // per-byte copy on this engine
    let mut want = 0usize;
    for slot in slots(&rl.out_runs) {
        let seg = table[slot].ok_or(ExecError::Undelivered { rank: r, block: rl.slots[slot] })?;
        want += seg.len();
    }
    rbuf.clear();
    rbuf.reserve(want);
    for seg in slots(&rl.out_runs).filter_map(|slot| table[slot]) {
        rbuf.extend_from_slice(seg);
    }
    Ok(rbuf)
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
        let mut plan = plan_naive(&g);
        plan.per_rank[0][0].sends.clear(); // rank 1 will wait forever
        let plan = Arc::new(plan);
        let payloads = test_payloads(2, 4, 0);
        let opts = ExecOptions::new().recv_timeout(Duration::from_millis(50));
        let err = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap_err();
        assert_eq!(err, ExecError::Timeout { rank: 1, phase: 0 });
    }

    #[test]
    fn link_down_fails_typed_and_is_counted_in_sink() {
        let g = erdos_renyi(16, 0.5, 7);
        let plan = Arc::new(plan_naive(&g));
        // Pick a directed edge the naive plan actually sends over.
        let (src, dst) = {
            let msg = plan.per_rank.iter().enumerate().find_map(|(r, prog)| {
                prog.iter().flat_map(|p| p.sends.iter()).next().map(|m| (r, m.peer))
            });
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
        // rank 0 sends two messages in phases 0 and 1; rank 1 receives
        // them in opposite phases — the phase-1 message must be parked if
        // it overtakes. (With unbounded channels ordering is FIFO per
        // pair, so construct cross-pair overtaking instead.)
        let g = Topology::from_edges(3, [(0, 2), (1, 2)]);
        // rank 2 expects 0's block in phase 0 and 1's in phase 1; but rank
        // 1 sends immediately. Its message arrives "early".
        let plan = Arc::new(crate::plan::CollectivePlan {
            algorithm: crate::plan::Algorithm::Naive,
            per_rank: vec![
                vec![
                    crate::plan::PlanPhase {
                        copy_blocks: 0,
                        sends: vec![crate::plan::PlannedMsg { peer: 2, blocks: vec![0], tag: 0 }],
                        recvs: vec![],
                    },
                    crate::plan::PlanPhase::default(),
                ],
                vec![
                    crate::plan::PlanPhase {
                        copy_blocks: 0,
                        sends: vec![crate::plan::PlannedMsg { peer: 2, blocks: vec![1], tag: 1 }],
                        recvs: vec![],
                    },
                    crate::plan::PlanPhase::default(),
                ],
                vec![
                    crate::plan::PlanPhase {
                        copy_blocks: 0,
                        sends: vec![],
                        recvs: vec![crate::plan::PlannedMsg { peer: 0, blocks: vec![0], tag: 0 }],
                    },
                    crate::plan::PlanPhase {
                        copy_blocks: 0,
                        sends: vec![],
                        recvs: vec![crate::plan::PlannedMsg { peer: 1, blocks: vec![1], tag: 1 }],
                    },
                ],
            ],
            selection: None,
        });
        let payloads = test_payloads(3, 4, 3);
        for _ in 0..20 {
            let got = run_checked(&plan, &g, &payloads).unwrap();
            assert_eq!(got, reference_allgather(&g, &payloads));
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
