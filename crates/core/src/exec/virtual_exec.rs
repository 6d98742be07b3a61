//! The virtual executor: deterministic, sequential, real bytes.
//!
//! Runs all ranks in lock-step, one program phase at a time, integrating
//! every message in the program's order. It is the correctness oracle for
//! every op, algorithm and topology in the test suite and scales to
//! thousands of ranks. No message is materialised: a gather or routed
//! block is copied once, from its origin's send buffer into the receive
//! buffer, when the phases are over; a reduce partial is read where its
//! sender holds it.

use crate::arena::BlockArena;
use crate::collective::program::{Staged, Wire};
use crate::exec::{execute, ExecError, ExecOptions, ExecOutcome, Executor};
use crate::plan::CollectivePlan;
use nhood_telemetry::Recorder;
use nhood_topology::Topology;
use std::sync::Arc;

/// The sequential real-bytes backend (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Virtual;

impl Executor for Virtual {
    fn name(&self) -> &'static str {
        "virtual"
    }

    fn run(
        &self,
        plan: &Arc<CollectivePlan>,
        graph: &Topology,
        payloads: &[Vec<u8>],
        arena: &mut BlockArena,
        opts: &ExecOptions<'_>,
    ) -> Result<ExecOutcome, ExecError> {
        let plan = arena.cell(plan, graph);
        execute(opts.gather_op(), None, &plan, graph, payloads, arena, None, opts)
    }
}

/// Runs a staged execution sequentially, then hands `rec` every rank's
/// traffic in one call when it tallies.
pub(crate) fn run(staged: &mut Staged, rec: &dyn Recorder) {
    let Staged { exec, arena: staged, rbufs } = staged;
    let prog = exec.prog;
    if let Some(red) = exec.job.red {
        // phase by phase, receiver by receiver: the program's message order
        for id in (0..prog.phases).flat_map(|k| (0..prog.n).flat_map(move |r| prog.recvs(k, r))) {
            let m = prog.msg(id);
            let [from, to] =
                staged.get_disjoint_mut([m.src, m.dst]).expect("checked: no self-peer");
            exec.integrate(id, red, Wire::Sender(from), to, &mut rbufs[m.dst]);
        }
    } else {
        rbufs.iter_mut().enumerate().for_each(|(r, rbuf)| exec.deliver(r, rbuf));
    }
    if let Some(tally) = rec.tally() {
        rec.traffic(&mut exec.traffic(tally));
    }
}

/// Reference receive buffers straight from the definition — what any
/// correct neighborhood allgather must produce.
pub fn reference_allgather(graph: &Topology, payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
    (0..graph.n())
        .map(|r| {
            let ins = graph.in_neighbors(r);
            let mut rbuf = Vec::with_capacity(ins.iter().map(|&b| payloads[b].len()).sum());
            for &b in ins {
                rbuf.extend_from_slice(&payloads[b]);
            }
            rbuf
        })
        .collect()
}

/// Convenience payload generator for tests: rank `r`'s block is `m` bytes
/// derived from `r` and a seed, so misplaced blocks are detected.
pub fn test_payloads(n: usize, m: usize, seed: u64) -> Vec<Vec<u8>> {
    (0..n)
        .map(|r| {
            (0..m)
                .map(|i| {
                    let x = (r as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(seed)
                        .wrapping_add(i as u64);
                    (x ^ (x >> 32)) as u8
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::tests::hand_plan;
    use crate::builder::build_pattern;
    use crate::collective::program::tests::checked;
    use crate::common_neighbor::plan_common_neighbor;
    use crate::exec::Threaded;
    use crate::lower::lower;
    use crate::naive::plan_naive;
    use crate::plan::PlanValidationError;
    use nhood_cluster::ClusterLayout;
    use nhood_topology::random::erdos_renyi;

    /// Runs the plan and checks the buffers against the definition.
    fn run_checked(
        plan: &Arc<CollectivePlan>,
        g: &Topology,
        payloads: &[Vec<u8>],
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        let out = Virtual.run_simple(plan, g, payloads)?;
        assert_eq!(out, reference_allgather(g, payloads), "diverged from the reference");
        Ok(out)
    }

    #[test]
    fn naive_matches_reference() {
        let g = erdos_renyi(24, 0.3, 1);
        let plan = Arc::new(plan_naive(&g));
        let payloads = test_payloads(24, 16, 7);
        let got = run_checked(&plan, &g, &payloads).unwrap();
        assert_eq!(got, reference_allgather(&g, &payloads));
    }

    #[test]
    fn distance_halving_matches_reference() {
        for (n, delta, nodes, cores) in
            [(16, 0.3, 2, 4), (24, 0.5, 3, 4), (36, 0.1, 3, 6), (30, 0.7, 5, 3)]
        {
            let g = erdos_renyi(n, delta, 42);
            let layout = ClusterLayout::new(nodes, 2, cores);
            let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
            let payloads = test_payloads(n, 8, 3);
            let got = run_checked(&plan, &g, &payloads)
                .unwrap_or_else(|e| panic!("n={n} delta={delta}: {e}"));
            assert_eq!(got, reference_allgather(&g, &payloads), "n={n} delta={delta}");
        }
    }

    #[test]
    fn common_neighbor_matches_reference() {
        for k in [2usize, 4, 8] {
            let g = erdos_renyi(32, 0.4, 9);
            let plan = Arc::new(plan_common_neighbor(&g, k));
            let payloads = test_payloads(32, 12, 1);
            let got = run_checked(&plan, &g, &payloads).unwrap();
            assert_eq!(got, reference_allgather(&g, &payloads), "k={k}");
        }
    }

    #[test]
    fn zero_byte_payloads_work() {
        let g = erdos_renyi(12, 0.5, 2);
        let plan = Arc::new(plan_naive(&g));
        let payloads = vec![vec![]; 12];
        let got = run_checked(&plan, &g, &payloads).unwrap();
        for (r, rbuf) in got.iter().enumerate() {
            assert!(rbuf.is_empty(), "rank {r}");
        }
    }

    #[test]
    fn payload_shape_errors() {
        let g = erdos_renyi(4, 0.5, 2);
        let plan = Arc::new(plan_naive(&g));
        assert_eq!(
            Virtual.run_simple(&plan, &g, &[vec![0u8; 4]]).unwrap_err(),
            ExecError::PayloadCountMismatch { got: 1, want: 4 }
        );
        let bad = vec![vec![0u8; 4], vec![0u8; 4], vec![0u8; 5], vec![0u8; 4]];
        assert_eq!(
            Virtual.run_simple(&plan, &g, &bad).unwrap_err(),
            ExecError::PayloadSizeMismatch { rank: 2, got: 5, want: 4 }
        );
    }

    #[test]
    fn corrupt_plan_caught_as_missing_block() {
        let g = Topology::from_edges(3, [(0, 2)]);
        // rank 1 claims to send block 0, which it never received
        let forged = crate::plan::PlannedMsg { peer: 2, blocks: vec![0], tag: 5 };
        let plan = plan_naive(&g).edited(|rows| rows[1][0].sends.push(forged));
        let payloads = test_payloads(3, 4, 0);
        assert_eq!(
            run_checked(&Arc::new(plan), &g, &payloads).unwrap_err(),
            ExecError::InvalidPlan(PlanValidationError::UnheldBlock {
                rank: 1,
                phase: 0,
                block: 0
            })
        );
    }

    #[test]
    fn dropped_message_caught_as_undelivered() {
        let g = Topology::from_edges(2, [(0, 1)]);
        let plan = plan_naive(&g).edited(|rows| rows[0][0].sends.clear());
        let payloads = test_payloads(2, 4, 0);
        assert_eq!(
            run_checked(&Arc::new(plan), &g, &payloads).unwrap_err(),
            ExecError::InvalidPlan(PlanValidationError::NeverDelivered { src: 0, dst: 1 })
        );
    }

    #[test]
    fn payload_bytes_land_in_correct_slots() {
        // directed asymmetric graph: rbuf layout must follow in-neighbor
        // order, not arrival order
        let g = Topology::from_edges(4, [(2, 0), (1, 0), (3, 0)]);
        let plan = Arc::new(plan_naive(&g));
        let payloads = test_payloads(4, 4, 11);
        let got = run_checked(&plan, &g, &payloads).unwrap();
        // in_neighbors(0) = [1, 2, 3]
        assert_eq!(&got[0][0..4], &payloads[1][..]);
        assert_eq!(&got[0][4..8], &payloads[2][..]);
        assert_eq!(&got[0][8..12], &payloads[3][..]);
    }

    #[test]
    fn allgatherv_ragged_payloads() {
        let g = erdos_renyi(20, 0.4, 6);
        let layout = ClusterLayout::new(3, 2, 4);
        let payloads: Vec<Vec<u8>> = (0..20).map(|r| vec![r as u8; r % 5]).collect(); // lengths 0..=4
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
                Virtual.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap().rbufs;
            assert_eq!(got, want);
        }
        // the strict (uniform) call rejects ragged payloads
        assert!(matches!(
            Virtual.run_simple(&Arc::new(plan_naive(&g)), &g, &payloads),
            Err(ExecError::PayloadSizeMismatch { .. })
        ));
    }

    #[test]
    fn recorder_counts_match_plan_statics_on_both_engines() {
        let g = erdos_renyi(24, 0.3, 5);
        let layout = ClusterLayout::new(3, 2, 4);
        let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        let payloads = test_payloads(24, 8, 1);
        let rec = nhood_telemetry::CountingRecorder::new(24);
        let opts = ExecOptions::new().recorder(&rec);
        let got = Virtual.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap().rbufs;
        assert_eq!(got, reference_allgather(&g, &payloads));
        let t = rec.totals();
        assert_eq!(t.msgs_sent as usize, plan.message_count());
        assert_eq!(t.msgs_sent, t.msgs_recvd);
        assert_eq!(t.bytes_sent, t.bytes_recvd);
        assert_eq!(t.bytes_sent as usize, plan.total_blocks_sent() * 8);
    }

    #[test]
    fn a_request_hands_the_recorder_one_traffic_record_per_rank() {
        // Counting costs one hand-over per request, not one per rank or
        // per message: however many messages a request moves, a recorder
        // is asked for its `tally` once and sees one `traffic` call
        // carrying at most n records — on every executor and clock, and
        // in a recorded simulator replay.
        #[derive(Default)]
        struct Calls(Mutex<Vec<usize>>, AtomicUsize);
        impl Recorder for Calls {
            fn tally(&self) -> Option<Tally<'_>> {
                self.1.fetch_add(1, Ordering::Relaxed);
                Some(Tally::default())
            }
            fn traffic(&self, records: &mut dyn Iterator<Item = (Rank, Traffic)>) {
                self.0.lock().unwrap().push(records.count());
            }
        }
        use crate::collective::program::Program;
        use crate::collective::{derive_sizes, CollectiveOp, Reduction};
        use crate::runtime::Clock;
        use crate::sizes::BlockSizes;
        use nhood_simnet::{Engine, PriceColumns, SimConfig};
        use nhood_telemetry::{Tally, Traffic};
        use nhood_topology::Rank;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let handed = |rec: Calls, n: usize, what: &str| {
            assert_eq!(rec.1.into_inner(), 1, "{what} at n = {n}: `tally` asked more than once");
            let calls = rec.0.into_inner().unwrap();
            assert_eq!(calls.len(), 1, "{what} at n = {n}: {calls:?}");
            assert!(calls[0] <= n, "{what} at n = {n}: {} records", calls[0]);
        };
        for (n, delta) in [(24, 0.3), (48, 0.6)] {
            let g = erdos_renyi(n, delta, 4);
            let layout = ClusterLayout::new(n / 8, 2, 4);
            let plan = checked(lower(&build_pattern(&g, &layout).unwrap(), &g));
            assert!(plan.message_count() > 2 * n, "a request of more messages than ranks");
            let payloads = test_payloads(n, 8, 2);
            let op = CollectiveOp::Allreduce(Reduction::SUM_U8);
            let sizes = derive_sizes(&g, op, &payloads, None).unwrap();
            for (op, sizes) in [(CollectiveOp::Allgather, None), (op, Some(&sizes))] {
                for clock in [None, Some(Clock::Wall), Some(Clock::Logical(Some(3)))] {
                    let rec = Calls::default();
                    let (arena, opts) = (&mut BlockArena::new(), ExecOptions::new().recorder(&rec));
                    execute(op, sizes, &plan, &g, &payloads, arena, clock, &opts).unwrap();
                    handed(rec, n, &format!("{op} on {clock:?}"));
                }
            }
            let schedule = Program::for_plan(&plan, &g).unwrap().schedule(&BlockSizes::uniform(8));
            let engine = Engine::new(&layout, SimConfig::niagara());
            let (rec, prices) = (Calls::default(), PriceColumns::from(&schedule));
            let prepared = engine.prepare(&schedule).unwrap();
            engine.run_prepared(&prepared, &prices, None, Some(&rec)).unwrap();
            handed(rec, n, "a recorded replay");
        }
    }

    #[test]
    fn arena_is_reused_across_runs() {
        let g = erdos_renyi(24, 0.4, 8);
        let layout = ClusterLayout::new(3, 2, 4);
        let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        let mut arena = BlockArena::new();
        let opts = ExecOptions::default();
        let mut prev = None;
        for round in 0..10u64 {
            let payloads = test_payloads(24, 32, round);
            let out = Virtual.run(&plan, &g, &payloads, &mut arena, &opts).unwrap();
            assert_eq!(out.rbufs, reference_allgather(&g, &payloads), "round {round}");
            // give the output buffers back so the next run reuses them
            arena.adopt_rbufs(out.rbufs);
            if let Some(p) = prev {
                assert_eq!(arena.reallocations(), p, "round {round} reallocated");
            }
            prev = Some(arena.reallocations());
        }
        // the same arena serves any block size, ragged rounds included,
        // and a rejected call leaves it usable
        for m in [4usize, 64, 8, 0] {
            let uniform = test_payloads(24, m, 9);
            let out = Virtual.run(&plan, &g, &uniform, &mut arena, &opts).unwrap();
            assert_eq!(out.rbufs, reference_allgather(&g, &uniform), "m={m}");
            arena.adopt_rbufs(out.rbufs);
            let ragged: Vec<Vec<u8>> = (0..24).map(|r| vec![r as u8; (r + m) % 5]).collect();
            let vopts = ExecOptions::new().ragged(true);
            let out = Virtual.run(&plan, &g, &ragged, &mut arena, &vopts).unwrap();
            assert_eq!(out.rbufs, reference_allgather(&g, &ragged), "ragged after m={m}");
            arena.adopt_rbufs(out.rbufs);
        }
        assert!(Virtual.run(&plan, &g, &[vec![0u8; 4]], &mut arena, &opts).is_err());
        let payloads = test_payloads(24, 4, 1);
        let out = Virtual.run(&plan, &g, &payloads, &mut arena, &opts).unwrap();
        assert_eq!(out.rbufs, reference_allgather(&g, &payloads));
    }

    #[test]
    fn warm_arena_follows_the_plan_not_the_allocation() {
        // One arena across: the same `Arc` twice (warm), equal content
        // in another `Arc` (content path, same layout), another plan on
        // the same graph (rebuild), and back.
        let g = erdos_renyi(24, 0.4, 8);
        let layout = ClusterLayout::new(3, 2, 4);
        let dh = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        let twin = Arc::new(CollectivePlan::clone(&dh));
        let naive = Arc::new(plan_naive(&g));
        let mut arena = BlockArena::new();
        for (i, plan) in [&dh, &dh, &twin, &naive, &dh, &twin, &twin].into_iter().enumerate() {
            let payloads = test_payloads(24, 16, i as u64);
            let out = Virtual.run(plan, &g, &payloads, &mut arena, &ExecOptions::new()).unwrap();
            assert_eq!(out.rbufs, reference_allgather(&g, &payloads), "run {i}");
            arena.adopt_rbufs(out.rbufs);
        }
    }

    #[test]
    fn malformed_peers_fail_typed_on_both_backends() {
        // regression: a message a rank addressed to itself panicked the
        // virtual backend (an `assert_ne!`) and was silently delivered by the
        // threaded one; an out-of-range peer indexed past the ranks
        let g = Topology::from_edges(2, [(0, 1)]);
        let payloads = test_payloads(2, 4, 0);
        for peer in [0, 7] {
            let msgs = [(0, 0, 1, &[0][..]), (0, 0, 0, &[0])];
            let plan =
                Arc::new(hand_plan(2, 1, &msgs).edited(|rows| rows[0][0].sends[1].peer = peer));
            let backends: [&dyn Executor; 2] = [&Virtual, &Threaded];
            for exec in backends {
                assert_eq!(
                    exec.run_simple(&plan, &g, &payloads).unwrap_err(),
                    ExecError::InvalidPlan(PlanValidationError::BadPeer {
                        rank: 0,
                        phase: 0,
                        peer
                    }),
                    "{} peer {peer}",
                    exec.name()
                );
            }
        }
    }

    #[test]
    fn a_stray_send_is_received_as_transit() {
        // regression: a send no recv row mirrored indexed a hash map with
        // the missing (src, tag) key and panicked; the threaded backend
        // parked it forever. A send is its receive now: rank 1 holds the
        // stray block in transit, and every edge is still delivered once
        let g = Topology::from_edges(3, [(0, 2)]);
        let stray = crate::plan::PlannedMsg { peer: 1, blocks: vec![0], tag: 9 };
        let plan = Arc::new(plan_naive(&g).edited(|rows| rows[0][0].sends.push(stray)));
        let payloads = test_payloads(3, 4, 0);
        assert_eq!(plan.phase(1, 0).recvs().map(|m| m.peer()).collect::<Vec<_>>(), [0]);
        let want = reference_allgather(&g, &payloads);
        assert_eq!(run_checked(&plan, &g, &payloads).unwrap(), want);
        assert_eq!(Threaded.run_simple(&plan, &g, &payloads).unwrap(), want);
    }

    #[test]
    fn large_scale_smoke() {
        // 540 ranks like the paper's smallest run, tiny payloads
        let g = erdos_renyi(540, 0.05, 4);
        let layout = ClusterLayout::niagara(15, 36);
        let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        plan.validate(&g).unwrap();
        let payloads = test_payloads(540, 8, 5);
        let got = Virtual.run_simple(&plan, &g, &payloads).unwrap();
        assert_eq!(got, reference_allgather(&g, &payloads));
    }
}
