//! Chaos suite: seeded fault schedules against the threaded executor,
//! the distributed negotiation, and the robust communicator API — all of
//! them rank machines on one fault transport.
//!
//! The invariant under test everywhere: **a faulted run either returns
//! buffers exactly equal to `reference_allgather`, or a typed
//! error/fallback — never silently corrupted data, never a hang.**
//! Every schedule is seeded, so failures reproduce exactly.

use nhood_cluster::{ClusterLayout, WorkerPool};
use nhood_core::builder::BuildError;
use nhood_core::exec::virtual_exec::{reference_allgather, test_payloads};
use nhood_core::exec::{ExecOptions, Executor, Threaded, Virtual};
use nhood_core::fault::FaultPlan;
use nhood_core::lower::lower;
use nhood_core::negotiate::build_pattern_distributed_pooled_v;
use nhood_core::BlockArena;
use nhood_core::{
    Algorithm, BlockSizes, CollectiveRequest, DistGraphComm, ExecBackend, LoadMetric, RobustPolicy,
};
use nhood_topology::{MooreSpec, Topology};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `plan`-style chaos on the robust communicator: every outcome
/// must be exact-or-typed. Returns (ok, fallback, error) tallies.
fn robust_sweep(
    graph: &Topology,
    layout: ClusterLayout,
    algo: Algorithm,
    schedules: &[FaultPlan],
    deadline: Duration,
) -> (usize, usize, usize) {
    let payloads = test_payloads(graph.n(), 16, 0xBEEF);
    let want = reference_allgather(graph, &payloads);
    let (mut ok, mut fell, mut err) = (0, 0, 0);
    for fp in schedules {
        let comm = DistGraphComm::create_adjacent(graph.clone(), layout.clone())
            .unwrap()
            .with_policy(RobustPolicy { recv_timeout: deadline, negotiation_timeout: deadline })
            .with_fault_plan(fp.clone());
        let t0 = Instant::now();
        let req = CollectiveRequest::allgather(&payloads)
            .algorithm(algo)
            .robust(true)
            .backend(ExecBackend::Threaded);
        match comm.collective(&req) {
            Ok(out) => {
                let report = out.report.expect("robust runs carry an execution report");
                assert_eq!(
                    out.rbufs,
                    want,
                    "seed {}: corrupted buffers ({report}) — the one forbidden outcome",
                    fp.seed()
                );
                if report.clean() {
                    ok += 1;
                } else {
                    fell += 1;
                }
            }
            Err(_) => err += 1, // typed by construction
        }
        assert!(
            t0.elapsed() < deadline * 4 + Duration::from_secs(5),
            "seed {}: run exceeded its termination bound",
            fp.seed()
        );
    }
    (ok, fell, err)
}

#[test]
fn erdos_renyi_drop_delay_reorder_sweep() {
    let g = nhood_topology::random::erdos_renyi(32, 0.3, 17);
    let layout = ClusterLayout::new(4, 2, 4);
    for &p in &[0.02, 0.1, 0.3] {
        let schedules: Vec<FaultPlan> = (0..4)
            .map(|s| {
                FaultPlan::seeded(s * 1009 + 1)
                    .with_message_drop(p)
                    .with_message_delay(p, Duration::from_micros(300))
                    .with_message_reorder(p)
            })
            .collect();
        let (ok, fell, err) = robust_sweep(
            &g,
            layout.clone(),
            Algorithm::DistanceHalving,
            &schedules,
            Duration::from_millis(1500),
        );
        // every run classified; moderate rates should mostly complete
        assert_eq!(ok + fell + err, 4);
        if p <= 0.1 {
            assert!(ok + fell >= 3, "drop {p}: only {ok}+{fell} of 4 runs produced buffers");
        }
    }
}

#[test]
fn moore_topology_survives_chaos() {
    // 8×8 Moore neighborhood graph (radius 1): the paper's structured
    // stencil case, denser per-rank than ER at the same n
    let g = nhood_topology::moore::moore(64, MooreSpec { r: 1, d: 2 });
    let layout = ClusterLayout::new(8, 2, 4);
    let schedules: Vec<FaultPlan> = (0..3)
        .map(|s| FaultPlan::seeded(0xA0 ^ s).with_message_drop(0.05).with_message_reorder(0.1))
        .collect();
    let (ok, fell, err) =
        robust_sweep(&g, layout, Algorithm::DistanceHalving, &schedules, Duration::from_secs(5));
    assert_eq!(ok + fell + err, 3);
    assert!(
        ok + fell == 3,
        "5% drops must be survivable on Moore(64): ok={ok} fell={fell} err={err}"
    );
}

#[test]
fn naive_plan_is_chaos_tolerant_too() {
    let g = nhood_topology::random::erdos_renyi(24, 0.4, 23);
    let layout = ClusterLayout::new(3, 2, 4);
    let schedules: Vec<FaultPlan> = (0..3)
        .map(|s| FaultPlan::seeded(100 + s).with_message_drop(0.08).with_message_duplication(0.1))
        .collect();
    let (ok, _, err) =
        robust_sweep(&g, layout, Algorithm::Naive, &schedules, Duration::from_secs(5));
    assert_eq!(ok, 3, "err={err}");
}

#[test]
fn crashed_rank_is_timeout_class_never_a_hang() {
    // regression: a crashed rank used to leave peers blocked on recv
    // forever; it must now surface as a timeout-class typed error within
    // the configured budget on every executor path
    let g = nhood_topology::random::erdos_renyi(16, 0.4, 31);
    let layout = ClusterLayout::new(2, 2, 4);
    let plan = {
        let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
        comm.plan_shared(Algorithm::DistanceHalving).unwrap()
    };
    let payloads = test_payloads(16, 8, 4);
    for crash_phase in 0..plan.phase_count().min(3) {
        let fp = FaultPlan::seeded(7).with_crashed_rank(5, crash_phase);
        let opts = ExecOptions::new().recv_timeout(Duration::from_millis(200)).fault(&fp);
        let t0 = Instant::now();
        let err = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap_err();
        assert!(err.is_timeout_class(), "crash at phase {crash_phase}: got {err:?}");
        assert!(t0.elapsed() < Duration::from_secs(10), "crash at phase {crash_phase} hung");
    }
}

#[test]
fn negotiation_chaos_yields_valid_pattern_or_typed_timeout() {
    let g = nhood_topology::random::erdos_renyi(24, 0.4, 11);
    let layout = ClusterLayout::new(3, 2, 4);
    for seed in 0..6u64 {
        // rates from survivable to hostile
        let p = [0.02, 0.05, 0.1, 0.3, 0.6, 0.95][seed as usize % 6];
        let fp = FaultPlan::seeded(seed).with_message_drop(p);
        let t0 = Instant::now();
        let opts = ExecOptions::new().recv_timeout(Duration::from_millis(400)).fault(&fp);
        let (sizes, metric, pool) =
            (BlockSizes::default(), LoadMetric::Neighbors, WorkerPool::serial());
        let built = build_pattern_distributed_pooled_v(&g, &layout, &sizes, metric, &pool, &opts);
        match built {
            Ok(pat) => {
                // a pattern that builds must be fully correct
                let plan = Arc::new(lower(&pat, &g));
                plan.validate(&g).expect("exactly-once delivery");
                let payloads = test_payloads(24, 8, 9);
                assert_eq!(
                    Virtual.run_simple(&plan, &g, &payloads).unwrap(),
                    reference_allgather(&g, &payloads)
                );
            }
            Err(e) => {
                assert!(
                    matches!(e, BuildError::NegotiationTimeout { .. }),
                    "seed {seed}: non-timeout error {e:?}"
                );
            }
        }
        assert!(t0.elapsed() < Duration::from_secs(30), "seed {seed} hung");
    }
}

/// The robust report counts the negotiation's faults too: under 10 %
/// drops the robust path's negotiation drops and retries control
/// signals, and the report's tally — "across every attempt this call
/// made" — holds them, as the request's counting recorder does.
#[test]
fn the_robust_report_counts_the_negotiations_faults() {
    let g = nhood_topology::random::erdos_renyi(32, 0.3, 17);
    let comm = DistGraphComm::create_adjacent(g.clone(), ClusterLayout::new(4, 2, 4))
        .unwrap()
        .with_fault_plan(FaultPlan::seeded(0xD0).with_message_drop(0.1));
    let payloads = test_payloads(32, 16, 3);
    let run = |comm: &DistGraphComm| {
        let rec = nhood_telemetry::CountingRecorder::new(32);
        let req = CollectiveRequest::allgather(&payloads)
            .algorithm(Algorithm::DistanceHalving)
            .robust(true)
            .backend(ExecBackend::Threaded)
            .recorder(&rec);
        let out = comm.collective(&req).unwrap();
        let report = out.report.expect("robust runs carry an execution report");
        assert_eq!(out.rbufs, reference_allgather(&g, &payloads), "{report}");
        assert_eq!(rec.totals().retries, report.faults.retries, "{report}");
        report.faults
    };
    let negotiated = run(&comm);
    // the same plan already live (an empty churn arms it): the same
    // messages meet the same faults, and nothing is negotiated
    let mut live = comm.clone();
    live.mutate(&[], &[]).unwrap();
    let executed = run(&live);
    assert!(negotiated.drops > executed.drops, "negotiated {negotiated}, live {executed}");
}

/// The acceptance bar from the issue: 64-rank Erdős–Rényi graph, 5%
/// message drop, threaded execution — every seeded run terminates within
/// its deadline and returns buffers identical to the reference, or a
/// typed fallback/error.
#[test]
fn acceptance_64_rank_5pct_drop() {
    let g = nhood_topology::random::erdos_renyi(64, 0.3, 2024);
    let layout = ClusterLayout::new(8, 2, 4);
    let schedules: Vec<FaultPlan> =
        (0..5).map(|s| FaultPlan::seeded(0xACCE97 + s).with_message_drop(0.05)).collect();
    let t0 = Instant::now();
    let (ok, fell, err) =
        robust_sweep(&g, layout, Algorithm::DistanceHalving, &schedules, Duration::from_secs(10));
    assert_eq!(ok + fell + err, 5);
    // 5% drop against a 4-retry budget: loss odds ≈ 3e-7 per message, so
    // clean completion is the overwhelmingly expected outcome
    assert!(ok >= 4, "ok={ok} fell={fell} err={err}");
    assert!(t0.elapsed() < Duration::from_secs(120), "acceptance sweep exceeded its budget");
}

/// Seeded ragged size table with deliberate zero-length blocks — the
/// chaos suite predates variable-size payloads and only covered uniform
/// blocks until this test.
fn seeded_ragged_sizes(n: usize, seed: u64) -> Vec<usize> {
    (0..n)
        .map(|r| {
            let x = (r as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
            let x = x ^ (x >> 31);
            if r % 7 == 3 {
                0 // silent ranks: zero-length blocks must survive chaos too
            } else {
                1 + (x % 48) as usize
            }
        })
        .collect()
}

fn ragged_payloads(sizes: &[usize], seed: u64) -> Vec<Vec<u8>> {
    sizes
        .iter()
        .enumerate()
        .map(|(r, &m)| {
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

/// The 64-rank 5%-drop acceptance bar, ragged edition: seeded per-rank
/// block sizes (including zero-length blocks) through `allgatherv`
/// semantics on all three backends — virtual, threaded-under-chaos, and
/// the discrete-event simulator.
#[test]
fn acceptance_64_rank_5pct_drop_ragged() {
    use nhood_core::exec::sim_exec::{simulate_v, SimCost};
    use nhood_core::BlockSizes;

    let g = nhood_topology::random::erdos_renyi(64, 0.3, 2024);
    let layout = ClusterLayout::new(8, 2, 4);
    let sizes = seeded_ragged_sizes(64, 0xC0FFEE);
    assert!(sizes.contains(&0), "the seeded table must exercise zero-length blocks");
    let payloads = ragged_payloads(&sizes, 0xACCE97);
    let want = reference_allgather(&g, &payloads);

    // Planning is pinned to the seeded size table, so byte-weighted
    // selection sees the same raggedness the execution does.
    let comm = DistGraphComm::create_adjacent(g.clone(), layout.clone())
        .unwrap()
        .with_block_sizes(BlockSizes::per_rank(sizes.clone()));

    // Backend 1 — virtual, through the public ragged request surface.
    let req = CollectiveRequest::allgatherv(&payloads).algorithm(Algorithm::DistanceHalving);
    assert_eq!(comm.collective(&req).unwrap().rbufs, want);

    // Backend 2 — threaded under seeded 5% drops, with the same retry
    // budget as the uniform acceptance test.
    let plan = comm.plan_shared(Algorithm::DistanceHalving).unwrap();
    for s in 0..3 {
        let fp = FaultPlan::seeded(0xACCE97 + s).with_message_drop(0.05);
        let opts = ExecOptions::new()
            .ragged(true)
            .recv_timeout(Duration::from_secs(5))
            .retries(4, Duration::from_micros(50))
            .fault(&fp);
        let out = Threaded
            .run(&plan, &g, &payloads, &mut BlockArena::new(), &opts)
            .unwrap_or_else(|e| panic!("seed {s}: {e}"));
        assert_eq!(out.rbufs, want, "seed {s}: ragged buffers corrupted");
    }

    // The robust wrapper accepts ragged payloads too: every seeded run
    // is exact-or-typed, exactly like the uniform sweep.
    for s in 0..3u64 {
        let fp = FaultPlan::seeded(0xACCE97 + s).with_message_drop(0.05);
        let robust = DistGraphComm::create_adjacent(g.clone(), layout.clone())
            .unwrap()
            .with_block_sizes(BlockSizes::per_rank(sizes.clone()))
            .with_fault_plan(fp);
        // errors are typed by construction; a success must be exact
        let req = CollectiveRequest::allgatherv(&payloads)
            .algorithm(Algorithm::DistanceHalving)
            .robust(true)
            .backend(ExecBackend::Threaded);
        if let Ok(out) = robust.collective(&req) {
            let report = out.report.expect("robust runs carry an execution report");
            assert_eq!(out.rbufs, want, "seed {s}: corrupted ragged buffers ({report})");
        }
    }

    // Backend 3 — the simulator consumes the ragged schedule: no real
    // bytes move, so acceptance is a finite positive makespan.
    let report = simulate_v(&plan, &layout, &sizes, &SimCost::niagara()).unwrap();
    assert!(
        report.makespan.is_finite() && report.makespan > 0.0,
        "ragged schedule must simulate to completion, got makespan {}",
        report.makespan
    );
}

#[test]
fn direct_threaded_exact_under_retry_budget() {
    // bypass the robust wrapper: the raw executor itself must deliver
    // exact buffers when the retry budget covers the drop rate
    let g = nhood_topology::random::erdos_renyi(20, 0.5, 3);
    let layout = ClusterLayout::new(3, 2, 4);
    let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
    let payloads = test_payloads(20, 32, 1);
    let want = reference_allgather(&g, &payloads);
    for algo in [Algorithm::Naive, Algorithm::DistanceHalving, Algorithm::CommonNeighbor { k: 4 }] {
        let plan = comm.plan_shared(algo).unwrap();
        for seed in 0..3 {
            let fp = FaultPlan::seeded(seed)
                .with_message_drop(0.1)
                .with_message_duplication(0.1)
                .with_message_reorder(0.2)
                .with_message_delay(0.1, Duration::from_micros(200));
            let opts = ExecOptions::new()
                .recv_timeout(Duration::from_secs(5))
                .retries(4, Duration::from_micros(50))
                .fault(&fp);
            let out = Threaded
                .run(&plan, &g, &payloads, &mut BlockArena::new(), &opts)
                .unwrap_or_else(|e| panic!("{algo} seed {seed}: {e}"));
            assert_eq!(out.rbufs, want, "{algo} seed {seed}");
        }
    }
}

/// Send buffers of every combining op on `g`: alltoallv and
/// reduce_scatter at one `m`-byte block per out-neighbor, allreduce at
/// one per rank; `f32` fills whole lanes with small finite values.
fn combining_ops(g: &Topology, m: usize) -> Vec<(nhood_core::CollectiveOp, Vec<Vec<u8>>)> {
    use nhood_core::{CollectiveOp, DType, ReduceOp, Reduction};
    let bytes =
        |p: usize, len: usize| -> Vec<u8> { (0..len).map(|i| (p * 31 + i * 7) as u8).collect() };
    let lanes = |p: usize, len: usize| -> Vec<u8> {
        (0..len / 4).flat_map(|i| ((p * 13 + i) as f32 * 0.37 - 5.0).to_le_bytes()).collect()
    };
    let per_edge = |fill: &dyn Fn(usize, usize) -> Vec<u8>| -> Vec<Vec<u8>> {
        (0..g.n()).map(|p| fill(p, g.outdegree(p) * m)).collect()
    };
    let f32_sum = Reduction::new(ReduceOp::Sum, DType::F32);
    vec![
        (CollectiveOp::Alltoallv, per_edge(&bytes)),
        (CollectiveOp::ReduceScatter(Reduction::SUM_U8), per_edge(&bytes)),
        (
            CollectiveOp::Allreduce(Reduction::new(ReduceOp::Max, DType::U32)),
            test_payloads(g.n(), m, 5),
        ),
        (CollectiveOp::ReduceScatter(f32_sum), per_edge(&lanes)),
        (CollectiveOp::Allreduce(f32_sum), (0..g.n()).map(|p| lanes(p, m)).collect()),
    ]
}

/// A communicator whose Distance Halving plan is live (so the drills
/// exercise the data path, not the negotiation) under `fp` and `policy`.
fn armed(g: &Topology, fp: Option<FaultPlan>, policy: RobustPolicy) -> DistGraphComm {
    let comm = DistGraphComm::create_adjacent(g.clone(), ClusterLayout::new(4, 2, 4)).unwrap();
    let mut comm = comm.with_policy(policy);
    comm.mutate(&[], &[]).unwrap();
    match fp {
        Some(fp) => comm.with_fault_plan(fp),
        None => comm,
    }
}

fn robust_threaded(op: nhood_core::CollectiveOp, sbufs: &[Vec<u8>]) -> CollectiveRequest<'_> {
    CollectiveRequest::new(op, sbufs).robust(true).backend(ExecBackend::Threaded)
}

/// One transport for every op: the combining family under 5 % drops,
/// duplicates, reorders and 300 µs delays. Exact lanes are byte-equal to
/// the reference; an f32 sum is **bit-equal to the fault-free run** —
/// the proof that no duplicate or retry folded anything twice.
#[test]
fn combining_ops_survive_drop_duplicate_reorder_delay() {
    use nhood_core::{collective::reference, DType};
    let g = nhood_topology::random::erdos_renyi(32, 0.3, 17);
    let clean = armed(&g, None, RobustPolicy::default());
    for (op, sbufs) in combining_ops(&g, 16) {
        let quiet = clean.collective(&robust_threaded(op, &sbufs)).unwrap();
        assert_eq!(quiet.faults.total_injected(), 0);
        for seed in [3u64, 0xC0FFEE, 0xACCE97] {
            let fp = FaultPlan::seeded(seed)
                .with_message_drop(0.05)
                .with_message_duplication(0.05)
                .with_message_reorder(0.05)
                .with_message_delay(0.05, Duration::from_micros(300));
            let comm = armed(&g, Some(fp), RobustPolicy::default());
            let out = comm.collective(&robust_threaded(op, &sbufs)).unwrap();
            let report = out.report.expect("robust runs carry an execution report");
            assert!(report.clean(), "{op} seed {seed}: {report}");
            assert!(report.faults.total_injected() > 0, "{op} seed {seed}: no fault fired");
            if op.reduction().is_some_and(|red| red.dtype == DType::F32) {
                assert_eq!(out.rbufs, quiet.rbufs, "{op} seed {seed}: an operator ran twice");
            } else {
                assert_eq!(out.rbufs, reference(&g, op, &sbufs, None).unwrap(), "{op} seed {seed}");
            }
        }
    }
}

/// Every attempt of every message dropped: neither the requested plan
/// nor the naive fallback can finish, and the caller must see a
/// timeout-class error within its budget — never a hang.
#[test]
fn an_unsurvivable_combining_schedule_is_timeout_class() {
    use nhood_core::CommError;
    let g = nhood_topology::random::erdos_renyi(16, 0.4, 31);
    let policy = RobustPolicy { recv_timeout: Duration::from_millis(200), ..Default::default() };
    let comm = armed(&g, Some(FaultPlan::seeded(1).with_message_drop(1.0)), policy);
    for (op, sbufs) in combining_ops(&g, 8) {
        let t0 = Instant::now();
        match comm.collective(&robust_threaded(op, &sbufs)) {
            Err(CommError::Exec(e)) => assert!(e.is_timeout_class(), "{op}: {e:?}"),
            other => panic!("{op}: expected a timeout-class error, got {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "{op} hung");
    }
}

/// Every relay link of the Distance Halving plan — a pair of ranks no
/// graph edge joins — is dead, more than the repair budget routes
/// around: each combining op degrades to the naive program, which
/// crosses graph edges only, and says so in its report.
#[test]
fn a_dead_link_degrades_combining_ops_to_the_naive_program() {
    use nhood_core::{collective::reference, DType, FallbackReason};
    let g = nhood_topology::random::erdos_renyi(32, 0.3, 17);
    let policy = RobustPolicy::default();
    let plan = armed(&g, None, policy).churn_plan().unwrap();
    let mut fp = FaultPlan::seeded(7);
    for r in 0..plan.n() {
        for peer in plan.phases(r).flat_map(|phase| phase.sends()).map(|m| m.peer()) {
            if !g.has_edge(r, peer) && !g.has_edge(peer, r) {
                fp = fp.with_link_down(r, peer, 0);
            }
        }
    }
    let comm = armed(&g, Some(fp), policy);
    for (op, sbufs) in combining_ops(&g, 8) {
        let out = comm.collective(&robust_threaded(op, &sbufs)).unwrap();
        let report = out.report.expect("robust runs carry an execution report");
        assert_eq!(report.used, Algorithm::Naive, "{op}: {report}");
        assert!(matches!(report.fallback, Some(FallbackReason::ExecFailed(_))), "{op}: {report}");
        assert!(report.faults.link_downs >= 1, "{op}: {report}");
        if !op.reduction().is_some_and(|red| red.dtype == DType::F32) {
            assert_eq!(out.rbufs, reference(&g, op, &sbufs, None).unwrap(), "{op}");
        }
    }
}
