//! Non-figure experiments and ablations:
//!
//! * the §V worked example ("23 vs 600 messages");
//! * the §VII-A agent-success-rate claim (~80% at δ = 0.05);
//! * ablation: load-aware agent choice vs fixed mirror-rank choice;
//! * ablation: network-model features (NIC serialization, hierarchy).

use crate::common::{fmt_secs, fmt_x, Report, Scale};
use nhood_cluster::{ClusterLayout, HockneyParams};
use nhood_core::builder::build_pattern;
use nhood_core::exec::sim_exec::simulate;
use nhood_core::lower::lower;
use nhood_core::model::ModelParams;
use nhood_core::remap::{locality_order, reranked};
use nhood_core::{Algorithm, BlockSizes, DistGraphComm, SimCost};
use nhood_simnet::{NicMode, SimConfig};
use nhood_topology::random::erdos_renyi;
use std::path::Path;

/// The §V worked example: expected message counts at n = 2000, 50 nodes
/// × 2 × 20, δ = 0.3 — model vs the counts our builder actually produces.
pub fn run_model_example(out: &Path) -> std::io::Result<Report> {
    let mut report =
        Report::new("model_worked_example", &["quantity", "paper", "model_formula", "measured"]);
    let params = ModelParams { n: 2000, s: 2, l: 20, delta: 0.3, alpha: 1.3e-6, beta: 10.5e9 };
    // measured counts from a real build at the same configuration
    let graph = erdos_renyi(2000, 0.3, 42);
    let layout = ClusterLayout::new(50, 2, 20);
    let pattern = build_pattern(&graph, &layout).expect("builds");
    let plan = nhood_core::lower::lower(&pattern, &graph);
    let n = graph.n() as f64;
    let mut off = 0usize;
    let mut intra = 0usize;
    for r in 0..plan.n() {
        for m in plan.phases(r).flat_map(|phase| phase.sends()) {
            if layout.same_socket(r, m.peer()) {
                intra += 1;
            } else {
                off += 1;
            }
        }
    }
    report.push(vec![
        "off-socket msgs/rank".into(),
        "7".into(),
        format!("{:.1}", params.expected_off_socket_msgs()),
        format!("{:.1}", off as f64 / n),
    ]);
    report.push(vec![
        "intra-socket msgs/rank".into(),
        "16".into(),
        format!("{:.1}", params.expected_intra_socket_msgs()),
        format!("{:.1}", intra as f64 / n),
    ]);
    report.push(vec![
        "naive msgs/rank".into(),
        "600".into(),
        format!("{:.0}", params.delta * params.n as f64),
        format!("{:.0}", graph.edge_count() as f64 / n),
    ]);
    report.write_csv(out)?;
    Ok(report)
}

/// Agent-success rates per density (the paper reports ~80% at δ = 0.05
/// for 2160 ranks).
pub fn run_agent_success(scale: Scale, out: &Path) -> std::io::Result<Report> {
    let (ranks, nodes) = scale.rsg_largest();
    let layout = ClusterLayout::niagara(nodes, ranks / nodes);
    let mut report = Report::new(
        "agent_success_rate",
        &["delta", "success_rate", "mean_final_blocks", "signals"],
    );
    for &delta in &scale.densities() {
        let graph = erdos_renyi(ranks, delta, 42);
        let pattern = build_pattern(&graph, &layout).expect("builds");
        report.push(vec![
            delta.to_string(),
            format!("{:.3}", pattern.stats.success_rate()),
            format!("{:.1}", pattern.mean_final_blocks()),
            pattern.stats.total_signals().to_string(),
        ]);
    }
    report.write_csv(out)?;
    Ok(report)
}

/// Ablation: the network-model features. Simulates naïve vs Distance
/// Halving under (a) the full default model, (b) no NIC serialization,
/// (c) a flat (level-independent) network — showing which modelled
/// effect the speedup comes from.
pub fn run_ablation_network(scale: Scale, out: &Path) -> std::io::Result<Report> {
    let (ranks, nodes) = scale.rsg_largest();
    let layout = ClusterLayout::niagara(nodes, ranks / nodes);
    let graph = erdos_renyi(ranks, 0.3, 42);
    let comm = DistGraphComm::create_adjacent(graph, layout.clone()).expect("fits");
    let naive = comm.plan(Algorithm::Naive).expect("plan");
    let dh = comm.plan(Algorithm::DistanceHalving).expect("plan");

    let mut variants: Vec<(&str, SimCost)> = Vec::new();
    variants.push(("default", SimCost::niagara()));
    let mut no_nic = SimCost::niagara();
    no_nic.net.nic_mode = NicMode::Off;
    variants.push(("no-nic", no_nic));
    let mut tx_only = SimCost::niagara();
    tx_only.net.nic_mode = NicMode::TxOnly;
    variants.push(("tx-only", tx_only));
    let mut flat = SimCost::niagara();
    flat.net.hockney = HockneyParams::flat(1.3e-6, 10.5e9);
    variants.push(("flat-hockney", flat));
    let mut classic = SimCost::niagara();
    classic.net = SimConfig::classic(HockneyParams::niagara(), NicMode::TxRx);
    variants.push(("classic-occupancy", classic));
    let mut dragonfly = SimCost::niagara();
    dragonfly.net.global_links = Some(nhood_simnet::GlobalLinkConfig::niagara());
    variants.push(("dragonfly-global", dragonfly));

    let mut report =
        Report::new("ablation_network", &["variant", "msg_size", "naive_s", "dh_s", "dh_speedup"]);
    for (name, cost) in &variants {
        for &m in &[64usize, 65536] {
            let tn = simulate(&naive, &layout, m, cost).expect("sim").makespan;
            let td = simulate(&dh, &layout, m, cost).expect("sim").makespan;
            report.push(vec![
                name.to_string(),
                crate::common::fmt_bytes(m),
                fmt_secs(tn),
                fmt_secs(td),
                fmt_x(tn / td),
            ]);
        }
    }
    report.write_csv(out)?;
    Ok(report)
}

/// Ablation: load-aware agent selection vs a fixed "mirror rank" agent
/// (Sack–Gropp-style distance halving without topology awareness: rank
/// `p` always pairs with its reflection in the opposite half). Compares
/// simulated latency and total transit load.
pub fn run_ablation_selection(scale: Scale, out: &Path) -> std::io::Result<Report> {
    let (ranks, nodes) = scale.rsg_largest();
    let layout = ClusterLayout::niagara(nodes, ranks / nodes);
    let cost = SimCost::niagara();
    let mut report = Report::new(
        "ablation_selection",
        &["delta", "msg_size", "load_aware_s", "mirror_s", "load_aware_gain"],
    );
    for &delta in &scale.densities() {
        let graph = erdos_renyi(ranks, delta, 42);
        let comm = DistGraphComm::create_adjacent(graph.clone(), layout.clone()).expect("fits");
        let dh = comm.plan(Algorithm::DistanceHalving).expect("plan");
        let mirror = crate::mirror::plan_mirror_halving(&graph, &layout).expect("mirror plan");
        mirror.validate(&graph).expect("mirror plan is correct");
        for &m in &[64usize, 16384] {
            let ta = simulate(&dh, &layout, m, &cost).expect("sim").makespan;
            let tm = simulate(&mirror, &layout, m, &cost).expect("sim").makespan;
            report.push(vec![
                delta.to_string(),
                crate::common::fmt_bytes(m),
                fmt_secs(ta),
                fmt_secs(tm),
                fmt_x(tm / ta),
            ]);
        }
    }
    report.write_csv(out)?;
    Ok(report)
}

/// Extension experiment: the future-work **alltoall** variant — Distance
/// Halving routing vs the naïve alltoall, across densities and sizes.
/// (No paper counterpart; this previews §VIII.)
pub fn run_alltoall(scale: Scale, out: &Path) -> std::io::Result<Report> {
    use nhood_core::alltoall::simulate_alltoall;
    let (ranks, nodes) = scale.rsg_largest();
    let layout = ClusterLayout::niagara(nodes, ranks / nodes);
    let cost = SimCost::niagara();
    let mut report = Report::new(
        "ext_alltoall_speedup",
        &["delta", "msg_size", "naive_s", "dh_s", "dh_speedup", "naive_msgs", "dh_msgs"],
    );
    for &delta in &scale.densities() {
        let graph = erdos_renyi(ranks, delta, 42);
        let pattern = build_pattern(&graph, &layout).expect("builds");
        // the gather plans; the alltoall runs the item routing they imply
        let dh = nhood_core::lower::lower(&pattern, &graph);
        let naive = nhood_core::naive::plan_naive(&graph);
        for &m in &[64usize, 4096, 262_144] {
            let rn = simulate_alltoall(&naive, &graph, &layout, m, &cost).expect("sim");
            let rd = simulate_alltoall(&dh, &graph, &layout, m, &cost).expect("sim");
            report.push(vec![
                delta.to_string(),
                crate::common::fmt_bytes(m),
                fmt_secs(rn.makespan),
                fmt_secs(rd.makespan),
                fmt_x(rn.makespan / rd.makespan),
                rn.stats.total_msgs().to_string(),
                rd.stats.total_msgs().to_string(),
            ]);
        }
    }
    report.write_csv(out)?;
    Ok(report)
}

/// Extension experiment: allgather (padded) vs allgatherv (exact) SpMM
/// stripe packing — how much the padding of the non-`v` collective costs
/// for each Table II matrix.
pub fn run_packing(scale: Scale, out: &Path) -> std::io::Result<Report> {
    use nhood_topology::matrix::generators::{synth_symmetric, TABLE2};
    use nhood_topology::spmm_graph::spmm_topology;
    let (parts, nodes) = scale.spmm_scale();
    let layout = ClusterLayout::niagara(nodes, parts / nodes);
    let cost = SimCost::niagara();
    let mut report = Report::new(
        "ext_packing",
        &["matrix", "padded_bytes", "mean_exact_bytes", "padded_s", "exact_s", "exact_gain"],
    );
    let matrices: &[_] = match scale {
        Scale::Full => &TABLE2,
        Scale::Quick => &TABLE2[..2],
    };
    for e in matrices {
        let x = synth_symmetric(e.n, e.nnz, e.class, 42);
        let part = nhood_topology::BlockPartition::new(x.rows(), parts);
        let topology = spmm_topology(&x, parts);
        let comm = DistGraphComm::create_adjacent(topology, layout.clone()).expect("fits");
        let plan = comm.plan(Algorithm::DistanceHalving).expect("plan");
        let padded = nhood_spmm::stripe::payload_bytes(&x, &part);
        let sizes: Vec<usize> = (0..parts)
            .map(|p| {
                let nnz: usize = part.range(p).map(|r| x.row_cols(r).len()).sum();
                nhood_spmm::stripe::exact_bytes(nnz)
            })
            .collect();
        let mean = sizes.iter().sum::<usize>() / parts.max(1);
        let tp = nhood_core::exec::sim_exec::simulate(&plan, &layout, padded, &cost)
            .expect("sim")
            .makespan;
        let te = nhood_core::exec::sim_exec::simulate_v(&plan, &layout, &sizes, &cost)
            .expect("sim")
            .makespan;
        report.push(vec![
            e.name.to_string(),
            padded.to_string(),
            mean.to_string(),
            fmt_secs(tp),
            fmt_secs(te),
            fmt_x(tp / te),
        ]);
    }
    report.write_csv(out)?;
    Ok(report)
}

/// The §VII-B variance claim: the default algorithm's latency varies
/// with the node allocation a job happens to receive, while Distance
/// Halving is "considerably more stable". Reruns a Moore exchange under
/// several random node-placement permutations (global links enabled to
/// expose group boundaries) and reports mean, standard deviation and
/// coefficient of variation per algorithm.
pub fn run_variance(scale: Scale, out: &Path) -> std::io::Result<Report> {
    use nhood_topology::moore::{moore, MooreSpec};
    let (ranks, nodes, rpn) = scale.moore_scale();
    let graph = moore(ranks, MooreSpec { r: 2, d: 2 });
    let trials = match scale {
        Scale::Full => 10,
        Scale::Quick => 4,
    };
    let mut cost = SimCost::niagara();
    cost.net.global_links = Some(nhood_simnet::GlobalLinkConfig::niagara());
    let m = 4096;

    let mut samples: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut rng = nhood_topology::rng::DetRng::seed_from_u64(2024);
    for _ in 0..trials {
        let mut perm: Vec<usize> = (0..nodes).collect();
        rng.shuffle(&mut perm);
        let layout = ClusterLayout::niagara(nodes, rpn).with_node_permutation(perm);
        let comm = DistGraphComm::create_adjacent(graph.clone(), layout.clone()).expect("fits");
        for (name, algo) in [
            ("naive", Algorithm::Naive),
            ("common-neighbor", Algorithm::CommonNeighbor { k: 8 }),
            ("distance-halving", Algorithm::DistanceHalving),
        ] {
            let plan = comm.plan(algo).expect("plan");
            let t = simulate(&plan, &layout, m, &cost).expect("sim").makespan;
            samples.entry(name).or_default().push(t);
        }
        // DH with group-aware virtual re-ranking: halving splits align
        // with the *allocated* group boundaries, restoring stability (the
        // layout is block-placed, so the order is asked for explicitly)
        let order = locality_order(&layout, graph.n());
        let dh = |g: &_, _: &_| build_pattern(g, &layout).map(|p| lower(&p, g));
        let reordered = reranked(&graph, &order, &BlockSizes::default(), dh).expect("reordered");
        let t = simulate(&reordered, &layout, m, &cost).expect("sim").makespan;
        samples.entry("dh-reordered").or_default().push(t);
    }

    let mut report =
        Report::new("variance_placement", &["algorithm", "trials", "mean_s", "std_s", "cov_pct"]);
    for (name, xs) in samples {
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        let std = var.sqrt();
        report.push(vec![
            name.to_string(),
            xs.len().to_string(),
            fmt_secs(mean),
            fmt_secs(std),
            format!("{:.2}", 100.0 * std / mean),
        ]);
    }
    report.write_csv(out)?;
    Ok(report)
}

/// Extension experiment: the hierarchical leader baseline (SC'20, the
/// paper's \[9\]) against naïve, Common Neighbor and Distance Halving in
/// the large-message regime where DH's buffer doubling hurts.
pub fn run_leader(scale: Scale, out: &Path) -> std::io::Result<Report> {
    let (ranks, nodes) = scale.rsg_largest();
    let layout = ClusterLayout::niagara(nodes, ranks / nodes);
    let cost = SimCost::niagara();
    let mut report = Report::new(
        "ext_leader_large_messages",
        &["delta", "msg_size", "naive_s", "dh_x", "cn_x", "leader_x", "leaders"],
    );
    for &delta in &scale.densities() {
        let graph = erdos_renyi(ranks, delta, 42);
        let comm = DistGraphComm::create_adjacent(graph, layout.clone()).expect("fits");
        let naive = comm.plan(Algorithm::Naive).expect("plan");
        let dh = comm.plan(Algorithm::DistanceHalving).expect("plan");
        let cn = comm.plan(Algorithm::CommonNeighbor { k: 16 }).expect("plan");
        // sweep leaders like the paper sweeps K
        let leader_plans: Vec<(usize, nhood_core::CollectivePlan)> = [1usize, 2, 4, 8]
            .into_iter()
            .map(|l| {
                (l, comm.plan(Algorithm::HierarchicalLeader { leaders_per_node: l }).expect("plan"))
            })
            .collect();
        for &m in &[4096usize, 262_144, 4_194_304] {
            let tn = simulate(&naive, &layout, m, &cost).expect("sim").makespan;
            let td = simulate(&dh, &layout, m, &cost).expect("sim").makespan;
            let tc = simulate(&cn, &layout, m, &cost).expect("sim").makespan;
            let (l, tl) = leader_plans
                .iter()
                .map(|(l, p)| (*l, simulate(p, &layout, m, &cost).expect("sim").makespan))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("non-empty");
            report.push(vec![
                delta.to_string(),
                crate::common::fmt_bytes(m),
                fmt_secs(tn),
                fmt_x(tn / td),
                fmt_x(tn / tc),
                fmt_x(tn / tl),
                l.to_string(),
            ]);
        }
    }
    report.write_csv(out)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_quick() {
        let dir = std::env::temp_dir().join("nhood_extras_test");
        let r = run_leader(Scale::Quick, &dir).unwrap();
        assert_eq!(r.len(), 2 * 3);
    }

    #[test]
    fn variance_quick() {
        let dir = std::env::temp_dir().join("nhood_extras_test");
        let r = run_variance(Scale::Quick, &dir).unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn alltoall_and_packing_quick() {
        let dir = std::env::temp_dir().join("nhood_extras_test");
        let r = run_alltoall(Scale::Quick, &dir).unwrap();
        assert_eq!(r.len(), 2 * 3);
        let r = run_packing(Scale::Quick, &dir).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn worked_example_report() {
        let dir = std::env::temp_dir().join("nhood_extras_test");
        let r = run_model_example(&dir).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn agent_success_quick() {
        let dir = std::env::temp_dir().join("nhood_extras_test");
        let r = run_agent_success(Scale::Quick, &dir).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn ablations_quick() {
        let dir = std::env::temp_dir().join("nhood_extras_test");
        assert_eq!(run_ablation_network(Scale::Quick, &dir).unwrap().len(), 12);
        assert_eq!(run_ablation_selection(Scale::Quick, &dir).unwrap().len(), 4);
    }
}
