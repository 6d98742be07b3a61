//! Randomized property tests (seeded, deterministic) over the core
//! invariants:
//!
//! * plans of all three algorithms validate (exactly-once delivery) and
//!   execute to the reference receive buffers on arbitrary graphs and
//!   layouts;
//! * the simulator respects causality and its makespan is bounded below
//!   by the critical path and above by full serialization;
//! * the §V model is monotone in message size and density.
//!
//! Each test draws `CASES` random instances from a fixed-seed
//! [`DetRng`], so failures reproduce exactly; on failure the offending
//! case is identified by its index in the panic message.

use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::{simulate, SimCost};
use nhood_core::exec::virtual_exec::{reference_allgather, test_payloads};
use nhood_core::model::ModelParams;
use nhood_core::{
    Algorithm, BlockArena, BlockSizes, CollectiveRequest, DistGraphComm, ExecBackend, ExecOptions,
    Executor, Threaded, Virtual,
};
use nhood_topology::rng::DetRng;
use nhood_topology::Topology;
use std::sync::Arc;

/// Cases per property; each case is an independent random instance.
const CASES: usize = 48;

/// Runs `body` against `CASES` seeded RNGs, labelling failures with the
/// case index.
fn for_cases(test_seed: u64, mut body: impl FnMut(&mut DetRng)) {
    for case in 0..CASES {
        let mut rng =
            DetRng::seed_from_u64(test_seed ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = r {
            panic!("case {case} (test_seed {test_seed:#x}) failed: {e:?}");
        }
    }
}

/// A random directed graph over 2..`max_n` ranks with uniform edge
/// probability.
fn arb_graph(rng: &mut DetRng, max_n: usize) -> Topology {
    let n = rng.gen_range(2..max_n);
    let pct = rng.gen_range(0..100usize);
    let seed = rng.next_u64();
    nhood_topology::random::erdos_renyi(n, pct as f64 / 100.0, seed)
}

#[test]
fn all_algorithms_correct_on_arbitrary_graphs() {
    for_cases(0xA1, |rng| {
        let g = arb_graph(rng, 40);
        let (sockets, cores) = (rng.gen_range(1..=4usize), rng.gen_range(1..=8usize));
        let k = rng.gen_range(1..12usize);
        let n = g.n();
        let per_node = sockets * cores;
        let layout = ClusterLayout::new(n.div_ceil(per_node), sockets, cores);
        let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
        let payloads = test_payloads(n, 4, 99);
        let want = reference_allgather(&g, &payloads);
        for algo in [Algorithm::Naive, Algorithm::CommonNeighbor { k }, Algorithm::DistanceHalving]
        {
            let plan = comm.plan_shared(algo).unwrap();
            plan.validate(&g).unwrap();
            assert_eq!(&Virtual.run_simple(&plan, &g, &payloads).unwrap(), &want, "{algo}");
        }
    });
}

#[test]
fn dh_plan_structure_invariants() {
    for_cases(0xA2, |rng| {
        let g = arb_graph(rng, 48);
        let n = g.n();
        let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
        let pattern = nhood_core::builder::build_pattern(&g, &layout).unwrap();
        for p in 0..n {
            // buffer always starts with the rank's own block
            assert_eq!(pattern.held(p).first(), Some(&p));
            // held blocks are unique (a block never arrives twice)
            let mut seen = std::collections::HashSet::new();
            for &b in pattern.held(p) {
                assert!(seen.insert(b), "rank {p} holds block {b} twice");
            }
            // h2 ranges of successive steps are disjoint
            let steps = pattern.steps(p);
            for (i, a) in steps.iter().enumerate() {
                for b in steps.iter().skip(i + 1) {
                    assert!(
                        a.h2().1 < b.h2().0 || b.h2().1 < a.h2().0,
                        "overlapping h2 ranges {:?} and {:?}",
                        a.h2(),
                        b.h2()
                    );
                }
            }
            // agents/origins always live in that step's h2
            for s in steps {
                if let Some(a) = s.agent() {
                    assert!(a >= s.h2().0 && a <= s.h2().1);
                }
                if let Some(o) = s.origin() {
                    assert!(o >= s.h2().0 && o <= s.h2().1);
                }
            }
        }
    });
}

#[test]
fn simulator_causality_and_bounds() {
    for_cases(0xA3, |rng| {
        let g = arb_graph(rng, 32);
        let m = rng.gen_range(0..65536usize);
        let n = g.n();
        let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
        let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
        let cost = SimCost::niagara();
        let plan = comm.plan(Algorithm::Naive).unwrap();
        let rep = simulate(&plan, comm.layout(), m, &cost).unwrap();
        assert!(rep.makespan >= 0.0);
        assert!(rep.makespan.is_finite());
        // lower bound: any single message's wire time
        if g.edge_count() > 0 {
            let min_wire =
                cost.net.hockney.same_socket.time(m).min(cost.net.hockney.remote_group.alpha);
            assert!(rep.makespan >= min_wire * 0.99);
        }
        // per-rank finishes never exceed the makespan
        for &f in &rep.per_rank_finish {
            assert!(f <= rep.makespan + 1e-15);
        }
        // message tallies are conserved
        assert_eq!(rep.stats.total_msgs(), g.edge_count());
    });
}

#[test]
fn sim_latency_monotone_in_message_size() {
    for_cases(0xA4, |rng| {
        let g = arb_graph(rng, 24);
        let n = g.n();
        let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
        let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
        let cost = SimCost::niagara();
        for algo in [Algorithm::Naive, Algorithm::DistanceHalving] {
            let plan = comm.plan(algo).unwrap();
            let t1 = simulate(&plan, comm.layout(), 64, &cost).unwrap().makespan;
            let t2 = simulate(&plan, comm.layout(), 4096, &cost).unwrap().makespan;
            let t3 = simulate(&plan, comm.layout(), 262_144, &cost).unwrap().makespan;
            assert!(t1 <= t2 + 1e-12, "{algo}: {t1} > {t2}");
            assert!(t2 <= t3 + 1e-12, "{algo}: {t2} > {t3}");
        }
    });
}

#[test]
fn model_monotonicity() {
    for_cases(0xA5, |rng| {
        let n = rng.gen_range(64..4096usize);
        let delta = 0.01 + rng.gen_f64() * 0.99;
        let m = rng.gen_range(1..(1usize << 22));
        let p = ModelParams::niagara(n, delta);
        // time strictly grows with message size
        assert!(p.naive_time(m) < p.naive_time(m * 2));
        assert!(p.dh_time(m) < p.dh_time(m * 2));
        // naive time grows with density; message counts stay in range
        let denser = ModelParams::niagara(n, (delta + 0.1).min(1.0));
        assert!(denser.naive_time(m) >= p.naive_time(m));
        assert!(p.expected_intra_socket_msgs() <= p.l as f64 + 1e-9);
        assert!(p.expected_off_socket_msgs() <= p.halving_steps() as f64 + 1e-9);
    });
}

#[test]
fn alltoall_correct_on_arbitrary_graphs() {
    for_cases(0xA7, |rng| {
        use nhood_core::collective::{reference, CollectiveOp, Reduction};
        let g = arb_graph(rng, 32);
        let n = g.n();
        let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
        let m = 4;
        // one distinct block per edge: an alltoallv send buffer, and a
        // reduce_scatter one at uniform size
        let sbufs: Vec<Vec<u8>> = (0..n)
            .map(|p| {
                let mut buf = Vec::new();
                for &d in g.out_neighbors(p) {
                    buf.extend((0..m).map(|i| (p * 31 + d * 7 + i) as u8));
                }
                buf
            })
            .collect();
        let own: Vec<Vec<u8>> = (0..n).map(|p| vec![(p * 29 + 3) as u8; m]).collect();
        let sizes = BlockSizes::uniform(m);
        let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
        for algo in [Algorithm::Naive, Algorithm::DistanceHalving] {
            comm.alltoall_plan(algo).unwrap().validate(&g).unwrap();
            // every shape compiles what `validate` admits, so a request
            // over a valid plan runs and matches the reference
            for (op, bufs) in [
                (CollectiveOp::Alltoallv, &sbufs),
                (CollectiveOp::ReduceScatter(Reduction::SUM_U8), &sbufs),
                (CollectiveOp::Allreduce(Reduction::SUM_U8), &own),
            ] {
                let req = CollectiveRequest::new(op, bufs).sizes(sizes.clone()).algorithm(algo);
                let want = reference(&g, op, bufs, Some(&sizes)).unwrap();
                assert_eq!(comm.collective(&req).unwrap().rbufs, want, "{op} {algo}");
            }
        }
    });
}

#[test]
fn reordered_planner_correct_under_any_placement() {
    for_cases(0xA8, |rng| {
        let g = arb_graph(rng, 32);
        let round_robin = rng.gen_bool(0.5);
        let n = g.n();
        let mut layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
        if round_robin {
            layout = layout.with_placement(nhood_cluster::Placement::RoundRobinNodes);
        }
        // the request path: off block placement every planner that reads
        // locality off rank numbers runs the locality re-ranking, on every
        // backend
        let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
        let payloads = test_payloads(n, 4, 13);
        let want = reference_allgather(&g, &payloads);
        let leaders = [1, 2, 8].map(|l| Algorithm::HierarchicalLeader { leaders_per_node: l });
        for algo in [Algorithm::DistanceHalving, Algorithm::Bruck].into_iter().chain(leaders) {
            for backend in [ExecBackend::Virtual, ExecBackend::Threaded, ExecBackend::Sim] {
                let req = CollectiveRequest::allgather(&payloads).algorithm(algo).backend(backend);
                assert_eq!(comm.collective(&req).unwrap().rbufs, want, "{algo} {backend}");
            }
        }
    });
}

#[test]
fn allgatherv_ragged_correct() {
    for_cases(0xA9, |rng| {
        let g = arb_graph(rng, 24);
        let lens: Vec<usize> = (0..24).map(|_| rng.gen_range(0..16usize)).collect();
        let n = g.n();
        let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
        let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
        let payloads: Vec<Vec<u8>> = (0..n).map(|r| vec![r as u8; lens[r % lens.len()]]).collect();
        let want = reference_allgather(&g, &payloads);
        let opts = ExecOptions::new().ragged(true);
        for algo in [Algorithm::Naive, Algorithm::DistanceHalving] {
            let plan = comm.plan_shared(algo).unwrap();
            let out = Virtual.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap();
            assert_eq!(&out.rbufs, &want, "{algo}");
        }
    });
}

#[test]
fn leader_hierarchy_correct_for_any_leader_count() {
    for_cases(0xAA, |rng| {
        let g = arb_graph(rng, 40);
        let leaders = rng.gen_range(1..9usize);
        let n = g.n();
        let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
        let plan = Arc::new(nhood_core::leader::plan_hierarchical_leader(&g, &layout, leaders));
        plan.validate(&g).unwrap();
        let payloads = test_payloads(n, 4, 31);
        assert_eq!(
            Virtual.run_simple(&plan, &g, &payloads).unwrap(),
            reference_allgather(&g, &payloads)
        );
    });
}

#[test]
fn plan_io_round_trips_arbitrary_plans() {
    for_cases(0xAB, |rng| {
        use nhood_core::plan_io::{decode_plan, write_plan};
        let g = arb_graph(rng, 32);
        let k = rng.gen_range(1..10usize);
        let n = g.n();
        let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
        let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
        for algo in [Algorithm::Naive, Algorithm::CommonNeighbor { k }, Algorithm::DistanceHalving]
        {
            let plan = comm.plan(algo).unwrap();
            let mut buf = Vec::new();
            write_plan(&plan, &mut buf).unwrap();
            let back = decode_plan(&buf).unwrap();
            assert!(back == plan);
            // truncation at any point must error, never mis-parse
            if buf.len() > 16 {
                let cut = buf.len() / 2;
                assert!(decode_plan(&buf[..cut]).is_err());
            }
        }
    });
}

#[test]
fn threaded_matches_virtual_on_small_graphs() {
    for_cases(0xAC, |rng| {
        let g = arb_graph(rng, 20);
        let m = rng.gen_range(0..64usize);
        let n = g.n();
        let layout = ClusterLayout::new(n.div_ceil(4), 2, 2);
        let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
        let payloads = test_payloads(n, m, 5);
        let plan = comm.plan_shared(Algorithm::DistanceHalving).unwrap();
        let v = Virtual.run_simple(&plan, &g, &payloads).unwrap();
        let t = Threaded.run_simple(&plan, &g, &payloads).unwrap();
        assert_eq!(v, t);
    });
}

#[test]
fn telemetry_counters_agree_across_all_backends() {
    // The tentpole invariant of the telemetry subsystem: the same plan
    // produces the same per-rank message/byte/copy counters on the
    // virtual and threaded executors (exactly), and the simulator — which
    // sees uniform `blocks.len() × m`-byte messages — matches both on
    // message and byte totals.
    for_cases(0xAD, |rng| {
        use nhood_core::exec::sim_exec::to_schedule_v;
        use nhood_telemetry::CountingRecorder;

        let g = arb_graph(rng, 20);
        let m = rng.gen_range(1..64usize);
        let n = g.n();
        let layout = ClusterLayout::new(n.div_ceil(4), 2, 2);
        let comm = DistGraphComm::create_adjacent(g.clone(), layout.clone()).unwrap();
        let payloads = test_payloads(n, m, 5);
        let algo = if rng.gen_bool(0.5) { Algorithm::DistanceHalving } else { Algorithm::Naive };
        let plan = comm.plan_shared(algo).unwrap();

        let vrec = CountingRecorder::new(n);
        Virtual
            .run(&plan, &g, &payloads, &mut BlockArena::new(), &ExecOptions::new().recorder(&vrec))
            .unwrap();
        let trec = CountingRecorder::new(n);
        Threaded
            .run(&plan, &g, &payloads, &mut BlockArena::new(), &ExecOptions::new().recorder(&trec))
            .unwrap();
        for r in 0..n {
            assert_eq!(vrec.per_rank(r), trec.per_rank(r), "{algo}: rank {r} counters diverge");
        }

        let cost = SimCost::niagara();
        let srec = CountingRecorder::new(n);
        let schedule = to_schedule_v(&plan, &vec![m; plan.n()], &cost);
        let engine = nhood_simnet::Engine::new(&layout, cost.net);
        let prepared = engine.prepare(&schedule).unwrap();
        let prices = nhood_simnet::PriceColumns::from(&schedule);
        engine.run_prepared(&prepared, &prices, None, Some(&srec)).unwrap();
        let (v, s) = (vrec.totals(), srec.totals());
        assert_eq!(v.msgs_sent, s.msgs_sent, "{algo}: sim message totals diverge");
        assert_eq!(v.msgs_recvd, s.msgs_recvd, "{algo}");
        assert_eq!(v.bytes_sent, s.bytes_sent, "{algo}: sim byte totals diverge");
        assert_eq!(v.bytes_recvd, s.bytes_recvd, "{algo}");
    });
}

#[test]
fn arena_path_byte_identical_to_reference_on_all_backends() {
    // Satellite invariant of the zero-copy arena: on random graphs
    // (n ≤ 64, δ ∈ {0.1, 0.3, 0.6}) the arena engine produces receive
    // buffers byte-identical to `reference_allgather` on both
    // byte-moving backends, and the simulated schedule of the same plan
    // agrees with them on message and byte totals.
    use nhood_core::exec::sim_exec::{simulate, SimCost};
    use nhood_telemetry::CountingRecorder;

    for_cases(0xAE, |rng| {
        let n = rng.gen_range(2..=64usize);
        let delta = [0.1, 0.3, 0.6][rng.gen_range(0..3usize)];
        let seed = rng.next_u64();
        let g = nhood_topology::random::erdos_renyi(n, delta, seed);
        let m = rng.gen_range(1..128usize);
        let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
        let comm = DistGraphComm::create_adjacent(g.clone(), layout.clone()).unwrap();
        let payloads = test_payloads(n, m, seed);
        let want = reference_allgather(&g, &payloads);
        for algo in
            [Algorithm::Naive, Algorithm::DistanceHalving, Algorithm::CommonNeighbor { k: 4 }]
        {
            let plan = comm.plan_shared(algo).unwrap();
            let opts = ExecOptions::new();
            let vrec = CountingRecorder::new(n);
            let v = Virtual
                .run(&plan, &g, &payloads, &mut BlockArena::new(), &opts.recorder(&vrec))
                .unwrap();
            assert_eq!(&v.rbufs, &want, "{algo}: virtual arena diverges from reference");
            let t = Threaded.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap();
            assert_eq!(&t.rbufs, &want, "{algo}: threaded arena diverges from reference");
            let st = simulate(&plan, &layout, m, &SimCost::niagara()).unwrap().stats;
            let (vt, sim_bytes) = (vrec.totals(), st.bytes.iter().sum::<usize>());
            assert_eq!(
                vt.msgs_sent as usize,
                st.total_msgs(),
                "{algo}: sim message totals diverge"
            );
            assert_eq!(vt.bytes_sent as usize, sim_bytes, "{algo}: sim byte totals diverge");
        }
    });
}

#[test]
fn chrome_trace_json_is_stable_and_well_formed() {
    // Golden-style test: a tiny fixed plan on a deterministic (simulated
    // clock, classic cost) backend must render the same Chrome-tracing
    // JSON every run, and that JSON must be structurally sound.
    use nhood_core::exec::sim_exec::{to_schedule_v, SimCost};
    use nhood_simnet::{Engine, NicMode, SimConfig};
    use nhood_telemetry::{chrome_trace_json, SpanRecorder};

    let g = nhood_topology::random::erdos_renyi(6, 0.5, 1);
    let layout = ClusterLayout::new(2, 1, 3);
    let comm = DistGraphComm::create_adjacent(g.clone(), layout.clone()).unwrap();
    let plan = comm.plan(Algorithm::DistanceHalving).unwrap();
    let cost = SimCost {
        net: SimConfig::classic(nhood_cluster::HockneyParams::flat(1e-6, 1e9), NicMode::Off),
        memcpy_bytes_per_sec: f64::INFINITY,
    };
    let schedule = to_schedule_v(&plan, &vec![8; plan.n()], &cost);
    let render = || {
        let spans = SpanRecorder::new();
        let engine = Engine::new(&layout, cost.net);
        let prepared = engine.prepare(&schedule).unwrap();
        let prices = nhood_simnet::PriceColumns::from(&schedule);
        engine.run_prepared(&prepared, &prices, None, Some(&spans)).unwrap();
        chrome_trace_json(&spans.events())
    };
    let json = render();
    // deterministic: same plan + simulated clock → byte-identical output
    assert_eq!(json, render());
    // structurally a JSON array of objects with the fields Chrome needs
    let body = json.trim();
    assert!(body.starts_with('[') && body.ends_with(']'), "{json}");
    assert_eq!(body.matches('{').count(), body.matches('}').count(), "{json}");
    assert!(json.contains("\"thread_name\""), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    let complete_events = json.matches("\"ph\":\"X\"").count();
    assert_eq!(complete_events, plan.message_count(), "one span per planned message");
    for line in json.lines().filter(|l| l.contains("\"ph\":\"X\"")) {
        assert!(line.contains("\"pid\":0"), "{line}");
        assert!(line.contains("\"ts\":"), "{line}");
        assert!(line.contains("\"dur\":"), "{line}");
    }
}
