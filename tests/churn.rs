//! Churn suite: topology mutation via `DistGraphComm::mutate` and
//! mid-collective link-down recovery.
//!
//! The invariant under test: **a repaired plan is indistinguishable, by
//! its outputs, from a from-scratch build on the mutated topology** —
//! property-tested across sizes, densities and add/remove/add-back
//! churn sequences on both executors and the simulator — and a `LinkDown`
//! mid-run heals by repair, not by falling back to naive, whenever the
//! damage is under threshold.

use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::{simulate, SimCost};
use nhood_core::exec::virtual_exec::{reference_allgather, test_payloads};
use nhood_core::exec::{ExecOptions, Executor, Threaded, Virtual};
use nhood_core::fault::FaultPlan;
use nhood_core::repair::MAX_DAMAGE_FRAC;
use nhood_core::BlockArena;
use nhood_core::{Algorithm, CollectivePlan, CollectiveRequest, DistGraphComm, ExecBackend};
use nhood_topology::{Rank, Topology};
use std::time::Duration;

fn layout_for(n: usize) -> ClusterLayout {
    ClusterLayout::new(n.div_ceil(8), 2, 4)
}

/// Picks a deterministic churn set against `g`: `k` existing edges to
/// remove and `k` non-edges to add.
type EdgeSet = Vec<(Rank, Rank)>;

fn churn_set(g: &Topology, k: usize, seed: u64) -> (EdgeSet, EdgeSet) {
    let edges: Vec<_> = g.edges().collect();
    let n = g.n();
    let mut removed: Vec<_> =
        (0..k).map(|i| edges[(seed as usize + i * 37) % edges.len()]).collect();
    removed.sort_unstable();
    removed.dedup();
    let mut added = Vec::new();
    let mut x = seed;
    while added.len() < k {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = (x >> 16) as usize % n;
        let v = (x >> 40) as usize % n;
        if u != v && !g.has_edge(u, v) && !added.contains(&(u, v)) {
            added.push((u, v));
        }
    }
    (added, removed)
}

/// The repaired live plan must reproduce the reference on every backend,
/// and agree with a from-scratch build over the same mutated topology.
fn assert_plan_matches_scratch(comm: &DistGraphComm, step: usize) {
    let g = comm.graph();
    let plan = &comm.churn_plan().expect("mutate leaves a live plan");
    let payloads = test_payloads(g.n(), 8, 0xC0 + step as u64);
    let want = reference_allgather(g, &payloads);

    // Backend 1 — virtual.
    assert_eq!(
        Virtual.run_simple(plan, g, &payloads).unwrap(),
        want,
        "step {step}: repaired plan diverges from reference (virtual)"
    );

    // Backend 2 — threaded.
    let opts = ExecOptions::new().recv_timeout(Duration::from_secs(5));
    let out = Threaded.run(plan, g, &payloads, &mut BlockArena::new(), &opts).unwrap();
    assert_eq!(out.rbufs, want, "step {step}: repaired plan diverges from reference (threaded)");

    // Backend 3 — the simulator: the repaired schedule must run to
    // completion in virtual time (no real bytes to compare).
    let sim = simulate(plan, comm.layout(), 8, &SimCost::niagara()).unwrap();
    assert!(
        sim.makespan.is_finite() && sim.makespan > 0.0,
        "step {step}: repaired schedule failed to simulate (makespan {})",
        sim.makespan
    );

    // From-scratch equivalence: a fresh communicator over the mutated
    // topology must produce the same outputs.
    let fresh = DistGraphComm::create_adjacent(g.clone(), comm.layout().clone()).unwrap();
    let scratch = fresh.plan_shared(Algorithm::DistanceHalving).unwrap();
    assert_eq!(
        Virtual.run_simple(&scratch, g, &payloads).unwrap(),
        want,
        "step {step}: from-scratch build disagrees with reference"
    );
}

/// One add → remove (restore) → add-back churn sequence; returns how
/// many of the three mutations were surgical repairs.
fn churn_roundtrip(n: usize, delta: f64, seed: u64, k: usize) -> usize {
    let g = nhood_topology::random::erdos_renyi(n, delta, seed);
    let layout = layout_for(n);
    let mut comm = DistGraphComm::create_adjacent(g, layout).unwrap();
    comm.mutate(&[], &[]).unwrap(); // warm-up: cold build into the slot
    let (added, removed) = churn_set(comm.graph(), k, seed ^ 0x5EED);

    let steps = [
        (added.clone(), removed.clone()), // churn forward
        (removed.clone(), added.clone()), // restore the original neighborhood
        (added, removed),                 // add back
    ];
    let mut surgical = 0;
    for (i, (add, rm)) in steps.iter().enumerate() {
        let rep = comm.mutate(add, rm).unwrap();
        assert_eq!(rep.edges_added, add.len(), "step {i}: add count");
        assert_eq!(rep.edges_removed, rm.len(), "step {i}: remove count");
        if !rep.full_rebuild {
            surgical += 1;
            assert!(
                rep.damage_frac <= MAX_DAMAGE_FRAC,
                "step {i}: surgical repair above the damage threshold ({})",
                rep.damage_frac
            );
        }
        assert_plan_matches_scratch(&comm, i);
    }
    surgical
}

#[test]
fn churn_roundtrips_match_scratch_builds_sparse() {
    // δ = 0.1: sparse graphs, where a removed edge is proportionally a
    // bigger hit to the neighborhood.
    let s = churn_roundtrip(32, 0.1, 11, 2);
    assert!(s >= 1, "no churn step repaired surgically at n=32 δ=0.1");
}

#[test]
fn churn_roundtrips_match_scratch_builds_medium() {
    let s = churn_roundtrip(48, 0.3, 13, 2) + churn_roundtrip(64, 0.3, 17, 3);
    assert!(s >= 2, "medium-density churn should mostly repair surgically");
}

#[test]
fn churn_roundtrips_match_scratch_builds_dense() {
    let s = churn_roundtrip(64, 0.6, 19, 3);
    assert!(s >= 1, "no churn step repaired surgically at n=64 δ=0.6");
}

#[test]
fn churn_roundtrips_match_scratch_builds_at_128() {
    // The acceptance ceiling: n = 128 with the paper's mid density.
    let s = churn_roundtrip(128, 0.3, 23, 4);
    assert!(s >= 1, "no churn step repaired surgically at n=128 δ=0.3");
}

/// Finds a (src, dst, phase) the DH plan sends over that is NOT a graph
/// edge in either direction — killing it cannot change the reference
/// output, only the relay routing.
fn dh_only_link(plan: &CollectivePlan, g: &Topology) -> Option<(usize, usize, usize)> {
    (0..plan.n()).find_map(|r| {
        plan.phases(r).enumerate().find_map(|(k, phase)| {
            let mut peers = phase.sends().map(|m| m.peer());
            peers.find(|&p| !g.has_edge(r, p) && !g.has_edge(p, r)).map(|p| (r, p, k))
        })
    })
}

/// The acceptance bar from the issue: a `LinkDown` surfacing mid-run at
/// 64 ranks recovers **via repair** — same algorithm, no naive fallback
/// — and the report records the repair truthfully.
#[test]
fn acceptance_64_rank_link_down_recovers_by_repair() {
    let g = nhood_topology::random::erdos_renyi(64, 0.4, 2024);
    let layout = ClusterLayout::new(8, 2, 4);
    let comm = DistGraphComm::create_adjacent(g.clone(), layout.clone()).unwrap();
    let plan = comm.plan(Algorithm::DistanceHalving).unwrap();
    let (src, dst, phase) = dh_only_link(&plan, &g).expect("DH at δ=0.4 uses relay links");

    let payloads = test_payloads(64, 16, 5);
    let want = reference_allgather(&g, &payloads);

    let comm = comm.with_fault_plan(FaultPlan::seeded(7).with_link_down(src, dst, phase));
    let req = CollectiveRequest::allgather(&payloads)
        .algorithm(Algorithm::DistanceHalving)
        .robust(true)
        .backend(ExecBackend::Threaded);
    let out = comm.collective(&req).unwrap();
    let report = out.report.expect("robust runs carry an execution report");
    assert_eq!(out.rbufs, want, "repaired run corrupted buffers ({report})");
    assert_eq!(report.used, Algorithm::DistanceHalving, "must not fall back to naive");
    assert!(report.fallback.is_none(), "healed runs report no fallback: {report}");
    assert!(report.repairs >= 1, "the link-down must surface as a repair: {report}");
    assert!(report.faults.link_downs >= 1, "fault tally must record the dead link");
    assert!(!report.clean(), "a repaired run is not a clean run");
    assert!(report.completeness.is_full(), "rerouting must preserve completeness here");
}

/// Every relay link dead — more than the repair budget routes around:
/// the run must degrade to naive and say so — `ExecReport` is truthful
/// in both outcomes.
#[test]
fn link_down_without_repair_reports_fallback_truthfully() {
    let g = nhood_topology::random::erdos_renyi(64, 0.4, 2024);
    let layout = ClusterLayout::new(8, 2, 4);
    let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
    let plan = comm.plan(Algorithm::DistanceHalving).unwrap();
    let mut fp = FaultPlan::seeded(7);
    for r in 0..plan.n() {
        for peer in plan.phases(r).flat_map(|phase| phase.sends()).map(|m| m.peer()) {
            if !g.has_edge(r, peer) && !g.has_edge(peer, r) {
                fp = fp.with_link_down(r, peer, 0);
            }
        }
    }

    let payloads = test_payloads(64, 16, 5);
    let want = reference_allgather(&g, &payloads);

    let comm = comm.with_fault_plan(fp);
    let req = CollectiveRequest::allgather(&payloads)
        .algorithm(Algorithm::DistanceHalving)
        .robust(true)
        .backend(ExecBackend::Threaded);
    let out = comm.collective(&req).unwrap();
    let report = out.report.expect("robust runs carry an execution report");
    assert_eq!(out.rbufs, want, "naive fallback corrupted buffers ({report})");
    assert_eq!(report.used, Algorithm::Naive, "repair could not heal: must fall back");
    assert!(report.fallback.is_some(), "fallback must be reported: {report}");
    // each repair answered a dead link, and one more ended the last attempt
    assert!(
        report.faults.link_downs > u64::from(report.repairs),
        "the failed attempts' faults must survive: {report}"
    );
}
