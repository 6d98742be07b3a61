//! Fig. 8 — communication-pattern creation overhead, Distance Halving vs
//! Common Neighbor.
//!
//! Both algorithms pay a common setup cost: assembling the matrix-A
//! shared-neighbor information (an allgather of every rank's
//! out-neighbor list). On top of that, Distance Halving runs the
//! O(n²)-message agent/origin negotiation (every signal of which our
//! builder counts), plus notifications and descriptor exchanges; Common
//! Neighbor runs a small intra-group coordination. The estimator below
//! converts those message counts into per-rank serialized time at a small
//! per-signal cost — a deliberately simple model, cross-checked by
//! replaying the negotiation through the network simulator.

use crate::common::{fmt_secs, fmt_x, Scale};
use crate::suite::{row, Measured};
use nhood_cluster::ClusterLayout;
use nhood_core::builder::build_pattern;
use nhood_topology::random::erdos_renyi;
use nhood_topology::Topology;

/// Cost knobs of the setup-time estimate.
#[derive(Clone, Copy, Debug)]
pub struct SetupCost {
    /// Cost per protocol signal / small control message (half a
    /// request-response round trip, partially pipelined).
    pub per_signal: f64,
    /// Bandwidth for bulk neighbor-list data.
    pub bytes_per_sec: f64,
    /// Bytes per rank id on the wire.
    pub id_bytes: f64,
}

impl Default for SetupCost {
    fn default() -> Self {
        Self { per_signal: 0.5e-6, bytes_per_sec: 10.5e9, id_bytes: 4.0 }
    }
}

/// Estimated pattern-creation times (seconds).
#[derive(Clone, Copy, Debug)]
pub struct SetupEstimate {
    /// Shared matrix-A assembly (allgather of adjacency lists).
    pub matrix_a: f64,
    /// Distance Halving total (matrix-A + negotiation + descriptors).
    pub dh: f64,
    /// Common Neighbor total (matrix-A + intra-group coordination).
    pub cn: f64,
    /// Signals of the Distance Halving negotiation.
    pub signals: usize,
}

/// Estimates setup time for a graph on a layout with CN group size `k`.
pub fn estimate_setup(
    graph: &Topology,
    layout: &ClusterLayout,
    k: usize,
    cost: &SetupCost,
) -> SetupEstimate {
    let n = graph.n() as f64;
    let edges = graph.edge_count() as f64;
    // Matrix A: every rank ends up with every other rank's out-neighbor
    // list — n control messages plus the adjacency bytes, per rank.
    let matrix_a = n * cost.per_signal + edges * cost.id_bytes / cost.bytes_per_sec;

    let pattern = build_pattern(graph, layout).expect("pattern builds");
    let s = &pattern.stats;
    let dh_signals = (s.total_signals() + s.notifications + s.descriptors) as f64;
    // Signals spread over ranks; the per-rank serialized share costs
    // per_signal each. Descriptor payloads add bulk bytes (one id per
    // responsibility moved — bounded by total edges over all steps).
    let dh_extra = dh_signals / n * cost.per_signal + edges * cost.id_bytes / cost.bytes_per_sec;
    // CN: each rank exchanges its list with its K-1 group mates and
    // agrees on leaders (one round).
    let mean_deg = if n == 0.0 { 0.0 } else { edges / n };
    let cn_extra = 2.0 * (k as f64 - 1.0) * cost.per_signal
        + (k as f64 - 1.0) * mean_deg * cost.id_bytes / cost.bytes_per_sec;

    let signals = s.total_signals();
    SetupEstimate { matrix_a, dh: matrix_a + dh_extra, cn: matrix_a + cn_extra, signals }
}

/// Replays a full Distance Halving negotiation through the network
/// simulator and returns the simulated wall-clock of the signal protocol
/// (the O(n²) part of pattern creation; matrix-A assembly and descriptor
/// exchange are costed by [`estimate_setup`] on top).
///
/// The per-rank subsequences of the FIFO driver's causal event log are
/// exactly the blocking send/recv programs the ranks executed, so
/// lowering each event to a single-operation schedule phase reproduces
/// the request–response serialization faithfully.
pub fn simulate_negotiation(
    graph: &Topology,
    layout: &ClusterLayout,
    cost: &nhood_core::SimCost,
) -> f64 {
    use nhood_core::negotiate::{negotiation_events, Event};
    use nhood_simnet::{Engine, Msg, Schedule};
    use std::collections::{HashMap, VecDeque};

    // One single-op phase per event, rank by rank (a stable sort keeps each
    // rank's own order): the k-th signal `from` sends `to` is received in
    // the phase of `to`'s k-th `Received { from }` event, tagged by it.
    const SIGNAL_BYTES: usize = 16;
    let rank_of = |ev: &Event| match *ev {
        Event::Sent { from, .. } => from,
        Event::Received { by, .. } => by,
    };
    let mut log = negotiation_events(graph, layout);
    log.sort_by_key(rank_of);
    let (mut phases, mut received_in) = (vec![0; graph.n()], HashMap::new());
    for ev in &log {
        if let Event::Received { by, from } = *ev {
            received_in.entry((from, by)).or_insert_with(VecDeque::new).push_back(phases[by]);
        }
        phases[rank_of(ev)] += 1;
    }
    let mut schedule = Schedule::new(graph.n());
    for ev in &log {
        let signal = match *ev {
            Event::Sent { from, to } => {
                let at = received_in.get_mut(&(from, to)).and_then(VecDeque::pop_front);
                let recv_phase = at.expect("every signal sent is received");
                let (bytes, tag) = (SIGNAL_BYTES, recv_phase as u64);
                Some(Msg { src: from, dst: to, bytes, tag, recv_phase })
            }
            Event::Received { .. } => None,
        };
        schedule.push(rank_of(ev), signal);
    }
    Engine::new(layout, cost.net).run(&schedule).expect("negotiation schedule is causal").makespan
}

/// Runs the Fig. 8 sweep: sections `fig8_setup_overhead` (the estimate
/// at the largest scale) and
/// `fig8_negotiation_sim` (the negotiation replayed through the network
/// simulator — the honest measurement of the O(n²) part — at the
/// smallest scale, to keep the replay schedule in memory).
pub fn run(scale: Scale) -> Measured {
    let (ranks, nodes) = scale.rsg_largest();
    let layout = ClusterLayout::niagara(nodes, ranks / nodes);
    let cost = SetupCost::default();
    let mut overhead = Vec::new();
    for &delta in &scale.densities() {
        let graph = erdos_renyi(ranks, delta, 42);
        let est = estimate_setup(&graph, &layout, 8, &cost);
        overhead.push(row! {
            "delta" => delta.to_string(), "dh_setup_s" => fmt_secs(est.dh),
            "cn_setup_s" => fmt_secs(est.cn), "dh_over_cn" => fmt_x(est.dh / est.cn),
            "signals" => est.signals.to_string(),
        });
    }

    let (sim_ranks, sim_nodes) = *scale.rsg_scales().first().expect("non-empty");
    let sim_layout = ClusterLayout::niagara(sim_nodes, sim_ranks / sim_nodes);
    let sim_cost = nhood_core::SimCost::niagara();
    let mut negotiation = Vec::new();
    for &delta in &scale.densities() {
        let graph = erdos_renyi(sim_ranks, delta, 42);
        let t = simulate_negotiation(&graph, &sim_layout, &sim_cost);
        let est = estimate_setup(&graph, &sim_layout, 8, &cost);
        negotiation.push(row! {
            "ranks" => sim_ranks.to_string(), "delta" => delta.to_string(),
            "negotiation_sim_s" => fmt_secs(est.matrix_a + t), "cn_estimate_s" => fmt_secs(est.cn),
            "dh_over_cn" => fmt_x((est.matrix_a + t) / est.cn),
        });
    }
    let sections = vec![("fig8_setup_overhead", overhead), ("fig8_negotiation_sim", negotiation)];
    Measured { sections, gates: vec![] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dh_setup_exceeds_cn_setup() {
        let graph = erdos_renyi(64, 0.3, 3);
        let layout = ClusterLayout::new(4, 2, 8);
        let est = estimate_setup(&graph, &layout, 8, &SetupCost::default());
        assert!(est.dh > est.cn, "DH {} must exceed CN {}", est.dh, est.cn);
        assert!(est.cn >= est.matrix_a);
    }

    #[test]
    fn quick_overhead_report() {
        let m = run(Scale::Quick);
        assert_eq!(m.section("fig8_setup_overhead").len(), 2);
        assert_eq!(m.section("fig8_negotiation_sim").len(), 2);
    }
}
