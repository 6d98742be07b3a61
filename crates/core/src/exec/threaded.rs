//! The threaded executor: every rank's share of the compiled program is
//! a machine on the one rank runtime (the crate-private `runtime`
//! module), polled by a fixed pool of workers under genuine concurrency
//! and shared-nothing message passing.
//!
//! Per phase a rank posts its sends, files what arrives by program id
//! (early arrivals are parked, mirroring MPI's unexpected-message queue;
//! a duplicate is dropped before anything integrates, so no operator
//! runs twice) and integrates the phase's messages in program order —
//! the virtual backend's — so outputs (f32 bits included) are identical.
//! A reduce message carries its packed partials; a gather or routed one
//! travels as its id alone, and a rank that has run its phases copies
//! each delivered block once, from its origin's send buffer (the
//! shared-memory analog of an RDMA read from registered memory).
//!
//! [`ExecOptions`] carries the runtime's fault plan and retry budget and
//! a receive timeout: a message lost for good is [`ExecError::Timeout`],
//! a crashed rank [`ExecError::RankCrashed`], a dead link
//! [`ExecError::LinkDown`] — the first failure ends the run — and the
//! chaos suite's guarantee is **identical-to-reference buffers or a
//! typed error, never silent corruption, never a hang.**

use crate::arena::BlockArena;
use crate::collective::program::{Exec, Staged, Wire};
use crate::exec::{execute, ExecError, ExecOptions, ExecOutcome, Executor};
use crate::fault::FaultStats;
use crate::plan::CollectivePlan;
use crate::runtime::{self, Clock, LinkDown, Machine, Poll, Port};
use nhood_telemetry::{Tally, Traffic};
use nhood_topology::{Rank, Topology};
use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

/// A wire message: its program id and, for the reduce shapes, its packed
/// blocks.
type Envelope = (usize, Vec<u8>);

/// Default per-receive timeout.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// The concurrent backend (see module docs).
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
        execute(opts.gather_op(), None, plan, graph, payloads, arena, Some(Clock::Wall), opts)
    }
}

/// One rank of a threaded run.
struct RankRun<'a> {
    exec: &'a Exec<'a>,
    opts: &'a ExecOptions<'a>,
    /// How the recorder tallies, asked once for the whole request.
    tally: Tally<'a>,
    rank: Rank,
    /// Its staging buffer (reduce shapes) and receive buffer.
    arena: &'a mut [u8],
    rbuf: &'a mut Vec<u8>,
    /// The phase, and whether the rank has entered it.
    k: usize,
    entered: bool,
    /// The phase's next message to integrate; its arrived ones by id,
    /// from its first; arrivals not filed (of later phases, or new).
    next: usize,
    got: Vec<Option<Vec<u8>>>,
    early: Vec<Envelope>,
    /// When the rank last heard anything: its receive timeout runs from
    /// there.
    heard: Duration,
    /// What it has sent, integrated and copied (its sends split by the
    /// recorder's socket map): handed to the recorder when the run is over.
    traffic: Traffic,
}

impl Machine for RankRun<'_> {
    type Msg = Envelope;
    type Error = ExecError;

    fn poll(
        &mut self,
        inbox: &mut Vec<Envelope>,
        port: &mut Port<'_, Envelope>,
    ) -> Result<Poll, ExecError> {
        let (prog, rank, k) = (self.exec.prog, self.rank, self.k);
        if !inbox.is_empty() {
            self.heard = port.now;
            self.early.append(inbox);
        }
        if k == prog.phases {
            if self.exec.job.red.is_none() {
                self.exec.deliver(rank, self.rbuf);
            }
            return Ok(Poll::Done);
        }
        if !self.entered {
            self.enter(port)?;
        }
        self.integrate();
        if self.next < prog.recvs(k, rank).end {
            let deadline = self.heard.saturating_add(self.opts.recv_timeout);
            if port.now >= deadline {
                return Err(ExecError::Timeout { rank, phase: k });
            }
            return Ok(Poll::Blocked { deadline });
        }
        self.opts.recorder.span_end(rank, prog.phase(k).0);
        (self.k, self.entered) = (k + 1, false);
        Ok(Poll::Ready)
    }

    fn panicked(&self, _: Box<dyn Any + Send>) -> ExecError {
        ExecError::WorkerPanic { rank: self.rank }
    }
}

impl RankRun<'_> {
    /// Enters phase `k`, crashed or stalled as the fault plan says, and
    /// posts its sends.
    fn enter(&mut self, port: &mut Port<'_, Envelope>) -> Result<(), ExecError> {
        let (prog, rank, k) = (self.exec.prog, self.rank, self.k);
        let (label, copies) = prog.phase(k);
        self.opts.recorder.span_begin(rank, label);
        self.traffic.copies += copies.get(rank).map_or(0, |&blocks| blocks.into());
        if !port.enter(rank, Some(k)) {
            return Err(ExecError::RankCrashed { rank, phase: k });
        }
        let due = prog.recvs(k, rank);
        (self.entered, self.heard, self.next) = (true, port.now, due.start);
        self.got.clear();
        self.got.resize(due.len(), None);
        for &id in prog.sends(k, rank) {
            let m = prog.msg(id);
            let wire = self.exec.pack(id, self.arena);
            // one logical message, however many attempts it takes
            self.traffic.send(self.tally, rank, m.dst, self.exec.wire_bytes(id));
            let refused = |LinkDown| ExecError::LinkDown { src: m.src, dst: m.dst, phase: k };
            port.send(m.src, m.dst, m.tag, Some(k), (id, wire)).map_err(refused)?;
        }
        Ok(())
    }

    /// Files the unfiled arrivals — one of a later phase stays parked, one
    /// already integrated or filed is a duplicate — and integrates the
    /// phase's messages in program order as far as they have arrived.
    fn integrate(&mut self) {
        let (prog, rank) = (self.exec.prog, self.rank);
        let due = prog.recvs(self.k, rank);
        let mut i = 0;
        while let Some(&(id, _)) = self.early.get(i) {
            if id >= due.end {
                i += 1;
                continue;
            }
            let (id, wire) = self.early.swap_remove(i);
            if id >= self.next {
                self.got[id - due.start].get_or_insert(wire);
            }
        }
        while let Some(wire) = self.got.get_mut(self.next - due.start).and_then(Option::take) {
            let id = self.next;
            if let Some(red) = self.exec.job.red {
                self.exec.integrate(id, red, Wire::Packed(&wire), self.arena, self.rbuf);
            }
            self.traffic.recv(self.exec.wire_bytes(id));
            self.next += 1;
        }
    }
}

/// Runs a staged execution, every rank a machine on the runtime's
/// `clock`, to its end or its first failure, then hands the recorder every
/// rank's traffic in one call (what it moved so far, when the run failed).
pub(crate) fn run(
    staged: &mut Staged,
    opts: &ExecOptions<'_>,
    stats: &FaultStats,
    clock: Clock,
) -> Result<(), ExecError> {
    let Staged { exec, arena, rbufs } = staged;
    let (exec, tally) = (&*exec, opts.recorder.tally());
    let arenas =
        arena.iter_mut().map(Vec::as_mut_slice).chain(std::iter::repeat_with(Default::default));
    let mut ranks: Vec<RankRun> = (rbufs.iter_mut().zip(arenas).enumerate())
        .map(|(rank, (rbuf, arena))| RankRun {
            exec,
            opts,
            tally: tally.unwrap_or_default(),
            rank,
            arena,
            rbuf,
            k: 0,
            entered: false,
            next: 0,
            got: Vec::new(),
            early: Vec::new(),
            heard: Duration::ZERO,
            traffic: Traffic::default(),
        })
        .collect();
    let result = runtime::run(&mut ranks, opts, stats, clock);
    if tally.is_some() {
        opts.recorder.traffic(&mut ranks.iter().map(|r| (r.rank, r.traffic)));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::collective::CollectiveOp;
    use crate::common_neighbor::plan_common_neighbor;
    use crate::exec::virtual_exec::{reference_allgather, test_payloads, Virtual};
    use crate::fault::FaultPlan;
    use crate::lower::lower;
    use crate::naive::plan_naive;
    use nhood_cluster::ClusterLayout;
    use nhood_topology::random::erdos_renyi;
    use std::time::Instant;

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
        // the LinkDown ends the run before its peers time out
        assert!(matches!(err, ExecError::LinkDown { .. }), "{err:?}");
        let counts = sink.snapshot();
        assert!(counts.link_downs >= 1, "{counts}");
    }

    #[test]
    fn a_link_down_run_keeps_the_partial_traffic_it_moved() {
        // The refused send counts (it was handed to the transport), and so
        // does everything the other ranks sent and integrated before they
        // gave up. `(messages, bytes, digest of every rank's counters)`
        // captured while the executor reported each message by its own
        // hook; the same under every seeded order.
        const PARTIAL: (u64, u64, u64) = (113, 1928, 0xa6082787a3b60b24);
        let g = erdos_renyi(24, 0.4, 8);
        let layout = ClusterLayout::new(3, 2, 4);
        let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        let (src, dst) = (0..24)
            .find_map(|r| Some((r, plan.phase(r, 1).sends().next()?.peer())))
            .expect("a second-phase send");
        let fp = FaultPlan::seeded(1).with_link_down(src, dst, 1);
        let payloads = test_payloads(24, 8, 5);
        let socket_of: Vec<usize> = (0..24).map(|r| r / 4).collect();
        for seed in 0..4 {
            let rec = nhood_telemetry::CountingRecorder::with_sockets(socket_of.clone());
            let opts = ExecOptions::new().fault(&fp).recorder(&rec);
            let (arena, clock) = (&mut BlockArena::new(), Some(Clock::Logical(Some(seed))));
            let err =
                execute(CollectiveOp::Allgather, None, &plan, &g, &payloads, arena, clock, &opts);
            assert_eq!(err.unwrap_err(), ExecError::LinkDown { src, dst, phase: 1 });
            let digest = (0..24).map(|r| rec.per_rank(r)).fold(0xcbf2_9ce4_8422_2325u64, |h, c| {
                let fields = [
                    c.msgs_sent,
                    c.bytes_sent,
                    c.msgs_recvd,
                    c.bytes_recvd,
                    c.copies,
                    c.msgs_off_socket,
                    c.bytes_off_socket,
                    c.msgs_intra_socket,
                    c.bytes_intra_socket,
                ];
                fields.iter().fold(h, |h, &x| (h ^ x).wrapping_mul(0x0100_0000_01b3))
            });
            let t = rec.totals();
            assert_eq!((t.msgs_sent, t.bytes_sent, digest), PARTIAL, "seed {seed}");
        }
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
        let plan = crate::arena::tests::hand_plan(3, 2, &[(0, 0, 2, &[0]), (1, 1, 2, &[1])]);
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
        // half the time, on a plan that relays an empty block: a wire
        // lands by slot, so a second copy is dropped and nothing depends
        // on arrival order.
        let g = Topology::from_edges(4, [(0, 1), (0, 3), (1, 3), (2, 1), (2, 3)]);
        let plan = crate::arena::tests::hand_plan(
            4,
            2,
            &[(0, 0, 1, &[0]), (0, 2, 1, &[2]), (0, 0, 3, &[0]), (1, 1, 3, &[2, 1])],
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

    #[test]
    fn a_panicking_rank_is_a_typed_error_on_every_clock() {
        struct Breaks;
        impl nhood_telemetry::Recorder for Breaks {
            fn span_begin(&self, rank: Rank, _: &'static str) {
                assert_ne!(rank, 3, "rank 3 breaks");
            }
        }
        let g = erdos_renyi(8, 0.5, 4);
        let plan = Arc::new(plan_naive(&g));
        let payloads = test_payloads(8, 4, 1);
        // the panic ends the run before its peers time out waiting for it
        let opts = ExecOptions::new().recorder(&Breaks).recv_timeout(Duration::from_millis(100));
        for clock in [Clock::Wall, Clock::Logical(Some(1))] {
            let arena = &mut BlockArena::new();
            let err = execute(
                CollectiveOp::Allgather,
                None,
                &plan,
                &g,
                &payloads,
                arena,
                Some(clock),
                &opts,
            );
            assert_eq!(err.unwrap_err(), ExecError::WorkerPanic { rank: 3 }, "{clock:?}");
        }
    }

    #[test]
    fn a_delayed_message_arrives_late_and_its_sender_moves_on() {
        // rank 0 sends to 20 peers in one phase, each message late by up
        // to 50 ms: all of them make a 60 ms receive timeout. A sender
        // stalled by every delay in turn (≈ 0.5 s in all) would not.
        let g = Topology::from_edges(21, (1..21).map(|d| (0, d)));
        let plan = Arc::new(plan_naive(&g));
        let payloads = test_payloads(21, 4, 2);
        let fp = FaultPlan::seeded(4).with_message_delay(1.0, Duration::from_millis(50));
        let opts = ExecOptions::new().recv_timeout(Duration::from_millis(60)).fault(&fp);
        let arena = &mut BlockArena::new();
        let clock = Some(Clock::Logical(None));
        let out = execute(CollectiveOp::Allgather, None, &plan, &g, &payloads, arena, clock, &opts);
        let out = out.unwrap();
        assert_eq!(out.rbufs, reference_allgather(&g, &payloads));
        assert_eq!(out.faults.delays, 20);
    }

    /// The seeded-interleaving contract of the executor, on the logical
    /// clock: every algorithm that serves `op`, 1,000 seeds over small
    /// generated graphs — prime n, isolated ranks, ragged tables with zero
    /// blocks — under drop, duplicate, reorder, delay and stall faults.
    /// Each run delivers `collective::reference`'s bytes or a typed
    /// timeout-class error, and a seed run twice gives the same bytes,
    /// fault counts and error.
    fn any_seeded_interleaving(op: CollectiveOp) {
        use crate::collective::{derive_sizes, reference};
        use crate::comm::DistGraphComm;
        use crate::plan::Algorithm;
        use crate::sizes::BlockSizes;
        let graphs = [(23, 0.3, &[0, 11][..]), (19, 0.5, &[][..]), (13, 0.2, &[7][..])].map(
            |(n, delta, alone): (usize, f64, &[Rank])| {
                let g = erdos_renyi(n, delta, n as u64);
                let keep = |&(s, d): &(Rank, Rank)| !alone.contains(&s) && !alone.contains(&d);
                Topology::from_edges(n, g.edges().filter(keep))
            },
        );
        let algos = [
            Algorithm::Naive,
            Algorithm::DistanceHalving,
            Algorithm::CommonNeighbor { k: 4 },
            Algorithm::HierarchicalLeader { leaders_per_node: 1 },
            Algorithm::Bruck,
            Algorithm::Pat { radix: 2 },
        ];
        let fill =
            |p: Rank, len: usize| -> Vec<u8> { (0..len).map(|i| (p * 31 + i * 7) as u8).collect() };
        for algo in algos {
            if op.reduction().is_some() && matches!(algo, Algorithm::Pat { .. }) {
                continue; // PAT's refusal (one leader per node never shares a slot)
            }
            let mut cells: Vec<_> = graphs
                .iter()
                .map(|g| {
                    let n = g.n();
                    let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
                    let plan = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
                    let plan = plan.plan_shared(algo).unwrap();
                    let ragged: Vec<usize> = (0..n).map(|r| [0, 3, 8, 0, 5][r % 5]).collect();
                    let out = |p: Rank| g.out_neighbors(p).iter();
                    let sbufs: Vec<Vec<u8>> = (0..n)
                        .map(|p| match op {
                            CollectiveOp::Allgather | CollectiveOp::Allreduce(_) => fill(p, 8),
                            CollectiveOp::Allgatherv => fill(p, ragged[p]),
                            CollectiveOp::Alltoallv => fill(p, g.outdegree(p) * ragged[p]),
                            CollectiveOp::ReduceScatter(_) => {
                                fill(p, out(p).map(|&d| ragged[d]).sum())
                            }
                        })
                        .collect();
                    let table = BlockSizes::per_rank(ragged);
                    let sizes = match op {
                        CollectiveOp::Allgather | CollectiveOp::Allgatherv => None,
                        CollectiveOp::Allreduce(_) => {
                            Some(derive_sizes(g, op, &sbufs, None).unwrap())
                        }
                        _ => Some(derive_sizes(g, op, &sbufs, Some(&table)).unwrap()),
                    };
                    let want = reference(g, op, &sbufs, sizes.as_ref()).unwrap();
                    (g, plan, sbufs, sizes, want, BlockArena::new())
                })
                .collect();
            for seed in 0..1_000u64 {
                let (g, plan, sbufs, sizes, want, arena) = &mut cells[seed as usize % 3];
                let fp = FaultPlan::seeded(seed)
                    .with_message_drop(0.1)
                    .with_message_duplication(0.1)
                    .with_message_reorder(0.2)
                    .with_message_delay(0.2, Duration::from_micros(300))
                    .with_slow_rank(seed as usize % g.n(), Duration::from_micros(100));
                let mut once = || {
                    let sink = FaultStats::default();
                    let opts = ExecOptions::new().fault(&fp).fault_sink(&sink);
                    let clock = Some(Clock::Logical(Some(seed)));
                    let out = execute(op, sizes.as_ref(), plan, g, sbufs, arena, clock, &opts);
                    (out.map(|out| out.rbufs), sink.snapshot())
                };
                let first = once();
                assert_eq!(first, once(), "{op} {algo} seed {seed}: the replay diverged");
                match first.0 {
                    Ok(bufs) => assert_eq!(&bufs, want, "{op} {algo} seed {seed}"),
                    Err(e) => assert!(e.is_timeout_class(), "{op} {algo} seed {seed}: {e}"),
                }
            }
        }
    }

    #[test]
    fn any_seeded_interleaving_of_an_allgather_is_exact_or_typed() {
        any_seeded_interleaving(CollectiveOp::Allgather);
    }

    #[test]
    fn any_seeded_interleaving_of_an_allgatherv_is_exact_or_typed() {
        any_seeded_interleaving(CollectiveOp::Allgatherv);
    }

    #[test]
    fn any_seeded_interleaving_of_an_alltoallv_is_exact_or_typed() {
        any_seeded_interleaving(CollectiveOp::Alltoallv);
    }

    #[test]
    fn any_seeded_interleaving_of_a_reduce_scatter_is_exact_or_typed() {
        any_seeded_interleaving(CollectiveOp::ReduceScatter(crate::collective::Reduction::SUM_U8));
    }

    #[test]
    fn any_seeded_interleaving_of_an_allreduce_is_exact_or_typed() {
        use crate::collective::{DType, ReduceOp, Reduction};
        any_seeded_interleaving(CollectiveOp::Allreduce(Reduction::new(ReduceOp::Max, DType::U32)));
    }
}
