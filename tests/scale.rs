//! Paper-scale smoke tests and headline-claim checks at reduced scale.
//! These are the slowest tests in the suite (hundreds of ranks); they
//! guard the behaviours the evaluation section depends on.

use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::simulate;
use nhood_core::exec::virtual_exec::{reference_allgather, test_payloads};
use nhood_core::{Algorithm, DistGraphComm, Executor, SimCost, Threaded, Virtual};
use nhood_topology::moore::{moore, MooreSpec};
use nhood_topology::random::erdos_renyi;
use std::sync::Arc;

/// Simulated latency of `algo` on `comm` at `m`-byte blocks, its plan
/// built once in the communicator's memo.
fn latency(comm: &DistGraphComm, algo: Algorithm, m: usize, cost: &SimCost) -> f64 {
    simulate(&comm.plan_shared(algo).unwrap(), comm.layout(), m, cost).unwrap().makespan
}

#[test]
fn paper_smallest_scale_end_to_end() {
    // 540 ranks / 15 nodes — the smallest configuration of Fig. 5 — runs
    // end-to-end with correct data movement.
    let g = erdos_renyi(540, 0.1, 42);
    let layout = ClusterLayout::niagara(15, 36);
    let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
    let payloads = test_payloads(540, 8, 11);
    let want = reference_allgather(&g, &payloads);
    for algo in [Algorithm::Naive, Algorithm::DistanceHalving] {
        let plan = comm.plan_shared(algo).unwrap();
        assert_eq!(Virtual.run_simple(&plan, &g, &payloads).unwrap(), want, "{algo}");
    }
}

#[test]
fn dh_beats_naive_on_dense_small_messages_multinode() {
    // The headline claim at reduced scale: dense RSG, small messages,
    // multi-node cluster → DH wins comfortably.
    let g = erdos_renyi(216, 0.5, 42);
    let layout = ClusterLayout::niagara(6, 36);
    let comm = DistGraphComm::create_adjacent(g, layout).unwrap();
    let cost = SimCost::niagara();
    let tn = latency(&comm, Algorithm::Naive, 64, &cost);
    let td = latency(&comm, Algorithm::DistanceHalving, 64, &cost);
    assert!(tn / td > 3.0, "expected >3x, got {:.2}x", tn / td);
}

#[test]
fn dh_speedup_grows_with_density() {
    let layout = ClusterLayout::niagara(6, 36);
    let cost = SimCost::niagara();
    let speedup = |delta: f64| {
        let g = erdos_renyi(216, delta, 42);
        let comm = DistGraphComm::create_adjacent(g, layout.clone()).unwrap();
        let tn = latency(&comm, Algorithm::Naive, 64, &cost);
        let td = latency(&comm, Algorithm::DistanceHalving, 64, &cost);
        tn / td
    };
    let sparse = speedup(0.05);
    let dense = speedup(0.5);
    assert!(dense > sparse, "dense {dense:.2} must exceed sparse {sparse:.2}");
}

#[test]
fn dh_speedup_declines_with_message_size() {
    // Fig. 5's other shape: the advantage erodes as messages grow
    // (buffer doubling + copies).
    let g = erdos_renyi(216, 0.5, 42);
    let layout = ClusterLayout::niagara(6, 36);
    let comm = DistGraphComm::create_adjacent(g, layout).unwrap();
    let cost = SimCost::niagara();
    let sp = |m: usize| {
        let tn = latency(&comm, Algorithm::Naive, m, &cost);
        let td = latency(&comm, Algorithm::DistanceHalving, m, &cost);
        tn / td
    };
    let small = sp(32);
    let large = sp(1 << 20);
    assert!(small > large, "small-message speedup {small:.2} must exceed large-message {large:.2}");
}

#[test]
fn moore_dense_neighborhoods_favor_dh() {
    // Fig. 6's shape at reduced scale: denser Moore neighborhoods leave
    // more room for improvement.
    let layout = ClusterLayout::niagara(8, 32);
    let cost = SimCost::niagara();
    let sp = |spec: MooreSpec| {
        let g = moore(256, spec);
        let comm = DistGraphComm::create_adjacent(g, layout.clone()).unwrap();
        let tn = latency(&comm, Algorithm::Naive, 4096, &cost);
        let td = latency(&comm, Algorithm::DistanceHalving, 4096, &cost);
        tn / td
    };
    let sparse = sp(MooreSpec { r: 1, d: 2 }); // 8 neighbors
    let dense = sp(MooreSpec { r: 3, d: 2 }); // 48 neighbors
    assert!(dense > sparse, "r=3 speedup {dense:.2} must exceed r=1 speedup {sparse:.2}");
}

#[test]
fn agent_success_rate_tracks_paper_claim() {
    // §VII-A: ~80% average success at δ = 0.05 with 2160 ranks. At 540
    // ranks the same ballpark (0.6–0.95) should hold; the full-scale
    // repro run confirms 0.81 (see EXPERIMENTS.md).
    let g = erdos_renyi(540, 0.05, 42);
    let layout = ClusterLayout::niagara(15, 36);
    let pattern = nhood_core::builder::build_pattern(&g, &layout).unwrap();
    let rate = pattern.stats.success_rate();
    assert!((0.5..1.0).contains(&rate), "success rate {rate}");
}

#[test]
fn dh_reduces_internode_traffic() {
    // The mechanism behind every figure: DH sends far fewer inter-node
    // messages than naive on a dense graph.
    let g = erdos_renyi(216, 0.5, 42);
    let layout = ClusterLayout::niagara(6, 36);
    let comm = DistGraphComm::create_adjacent(g, layout.clone()).unwrap();
    let cost = SimCost::niagara();
    let naive = simulate(&comm.plan(Algorithm::Naive).unwrap(), &layout, 64, &cost).unwrap();
    let dh = simulate(&comm.plan(Algorithm::DistanceHalving).unwrap(), &layout, 64, &cost).unwrap();
    assert!(
        dh.stats.internode_msgs() * 5 < naive.stats.internode_msgs(),
        "DH {} vs naive {} inter-node messages",
        dh.stats.internode_msgs(),
        naive.stats.internode_msgs()
    );
}

#[test]
fn load_is_more_balanced_than_naive() {
    // §IV claims DH balances load: the max/mean sends-per-rank ratio of
    // DH should not exceed naive's on a skewed (star-heavy) graph.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // a few hubs with huge out-degree + background sparse traffic
    for hub in 0..4usize {
        for t in 0..216usize {
            if t != hub {
                edges.push((hub, t));
            }
        }
    }
    let g_bg = erdos_renyi(216, 0.05, 9);
    edges.extend(g_bg.edges());
    let g = nhood_topology::Topology::from_edges(216, edges);
    let layout = ClusterLayout::niagara(6, 36);
    let comm = DistGraphComm::create_adjacent(g, layout).unwrap();
    let imbalance = |algo| {
        let loads = comm.plan(algo).unwrap().sends_per_rank();
        let max = *loads.iter().max().unwrap() as f64;
        let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
        max / mean
    };
    let naive = imbalance(Algorithm::Naive);
    let dh = imbalance(Algorithm::DistanceHalving);
    assert!(dh < naive, "DH imbalance {dh:.2} must beat naive {naive:.2}");
}

#[test]
fn distributed_builder_matches_at_scale() {
    // 216 ranks running the real negotiation protocol, each a machine on
    // the rank runtime's logical clock — no thread per rank.
    let g = erdos_renyi(216, 0.2, 42);
    let layout = ClusterLayout::niagara(6, 36);
    let pattern = nhood_core::negotiate::build_pattern_distributed(&g, &layout).unwrap();
    let plan = Arc::new(nhood_core::lower::lower(&pattern, &g));
    plan.validate(&g).unwrap();
    let payloads = test_payloads(216, 8, 17);
    assert_eq!(
        Virtual.run_simple(&plan, &g, &payloads).unwrap(),
        reference_allgather(&g, &payloads)
    );
    // neither the matching nor the tallies depend on the delivery order:
    // the sequential build's pattern, statistics included
    let seq = nhood_core::builder::build_pattern(&g, &layout).unwrap();
    assert!(pattern.same_rows(&seq), "the matching depends on the delivery order");
    assert_eq!(pattern.stats, seq.stats, "the tallies depend on the delivery order");
}

#[test]
fn threaded_gather_at_the_papers_largest_scale() {
    // 2,160 ranks / 60 nodes — Fig. 5's largest configuration — on the
    // threaded backend: every rank a machine polled by a fixed worker
    // pool, not an OS thread.
    let g = erdos_renyi(2160, 0.05, 42);
    let layout = ClusterLayout::niagara(60, 36);
    let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
    let plan = comm.plan_shared(Algorithm::DistanceHalving).unwrap();
    let payloads = test_payloads(2160, 8, 23);
    let t0 = std::time::Instant::now();
    let got = Threaded.run_simple(&plan, &g, &payloads).unwrap();
    let wall = t0.elapsed();
    assert_eq!(got, reference_allgather(&g, &payloads));
    println!("threaded DH gather, n = 2160, δ = 0.05, 8 B blocks: {wall:?}");
}

#[test]
fn paper_fig1_narrative_holds() {
    // The walkthrough of Fig. 1: across three halving steps a rank's
    // buffer accumulates its origins' buffers, each agent/origin lies in
    // the step's opposite half, and the halves nest strictly.
    let g = erdos_renyi(64, 0.5, 1);
    let layout = ClusterLayout::new(4, 2, 8); // L = 8 -> 3 halving steps
    let pattern = nhood_core::builder::build_pattern(&g, &layout).unwrap();
    assert_eq!(pattern.max_steps(), 3);
    for p in 0..64 {
        let mut buf_len = 1usize;
        let mut prev_h1: Option<(usize, usize)> = None;
        for step in pattern.steps(p) {
            // halves nest: this step's h1 ∪ h2 is the previous h1
            if let Some((lo, hi)) = prev_h1 {
                let (a, b) = (step.h1().0.min(step.h2().0), step.h1().1.max(step.h2().1));
                assert_eq!((a, b), (lo, hi), "rank {p}: halves do not nest");
            }
            prev_h1 = Some(step.h1());
            assert!(p >= step.h1().0 && p <= step.h1().1, "rank outside its own h1");
            assert_eq!(step.held_len(), buf_len);
            buf_len += step.arr_len();
        }
        // the final half fits on one socket
        if let Some(last) = pattern.steps(p).last() {
            assert!(last.h1().1 - last.h1().0 < 8);
        }
    }
}
