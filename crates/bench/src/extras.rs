//! Non-figure experiments and ablations:
//!
//! * the §V worked example ("23 vs 600 messages");
//! * the §VII-A agent-success-rate claim (~80% at δ = 0.05);
//! * ablation: load-aware agent choice vs fixed mirror-rank choice;
//! * ablation: network-model features (NIC serialization, hierarchy).

use crate::common::{fmt_bytes, fmt_secs, fmt_x, Scale};
use crate::suite::{row, Measured, Row};
use nhood_cluster::{ClusterLayout, HockneyParams};
use nhood_core::builder::build_pattern;
use nhood_core::exec::sim_exec::simulate;
use nhood_core::lower::lower;
use nhood_core::model::ModelParams;
use nhood_core::remap::{locality_order, reranked};
use nhood_core::{Algorithm, BlockSizes, DistGraphComm, SimCost};
use nhood_simnet::{NicMode, SimConfig};
use nhood_topology::random::erdos_renyi;

/// The §V worked example: expected message counts at n = 2000, 50 nodes
/// × 2 × 20, δ = 0.3 — model vs the counts our builder actually produces:
/// section `model_worked_example`.
pub fn run_model_example() -> Measured {
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
    let quantity = |name: &str, paper: &str, model: String, measured: String| {
        row! {
            "quantity" => name, "paper" => paper, "model_formula" => model, "measured" => measured,
        }
    };
    let rows = vec![
        quantity(
            "off-socket msgs/rank",
            "7",
            format!("{:.1}", params.expected_off_socket_msgs()),
            format!("{:.1}", off as f64 / n),
        ),
        quantity(
            "intra-socket msgs/rank",
            "16",
            format!("{:.1}", params.expected_intra_socket_msgs()),
            format!("{:.1}", intra as f64 / n),
        ),
        quantity(
            "naive msgs/rank",
            "600",
            format!("{:.0}", params.delta * params.n as f64),
            format!("{:.0}", graph.edge_count() as f64 / n),
        ),
    ];
    Measured { sections: vec![("model_worked_example", rows)], gates: vec![] }
}

/// Agent-success rates per density (the paper reports ~80% at δ = 0.05
/// for 2160 ranks): section `agent_success_rate`.
pub fn run_agent_success(scale: Scale) -> Measured {
    let (ranks, nodes) = scale.rsg_largest();
    let layout = ClusterLayout::niagara(nodes, ranks / nodes);
    let mut rows = Vec::new();
    for &delta in &scale.densities() {
        let graph = erdos_renyi(ranks, delta, 42);
        let pattern = build_pattern(&graph, &layout).expect("builds");
        rows.push(row! {
            "delta" => delta.to_string(),
            "success_rate" => format!("{:.3}", pattern.stats.success_rate()),
            "mean_final_blocks" => format!("{:.1}", pattern.mean_final_blocks()),
            "signals" => pattern.stats.total_signals().to_string(),
        });
    }
    Measured { sections: vec![("agent_success_rate", rows)], gates: vec![] }
}

/// Ablation: the network-model features. Simulates naïve vs Distance
/// Halving under (a) the full default model, (b) no NIC serialization,
/// (c) a flat (level-independent) network — showing which modelled
/// effect the speedup comes from. Section `ablation_network`.
pub fn run_ablation_network(scale: Scale) -> Measured {
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

    let mut rows = Vec::new();
    for (name, cost) in &variants {
        for &m in &[64usize, 65536] {
            let tn = simulate(&naive, &layout, m, cost).expect("sim").makespan;
            let td = simulate(&dh, &layout, m, cost).expect("sim").makespan;
            rows.push(row! {
                "variant" => *name, "msg_size" => fmt_bytes(m), "naive_s" => fmt_secs(tn),
                "dh_s" => fmt_secs(td), "dh_speedup" => fmt_x(tn / td),
            });
        }
    }
    Measured { sections: vec![("ablation_network", rows)], gates: vec![] }
}

/// Ablation: load-aware agent selection vs a fixed "mirror rank" agent
/// (Sack–Gropp-style distance halving without topology awareness: rank
/// `p` always pairs with its reflection in the opposite half). Compares
/// simulated latency. Section `ablation_selection`.
pub fn run_ablation_selection(scale: Scale) -> Measured {
    let (ranks, nodes) = scale.rsg_largest();
    let layout = ClusterLayout::niagara(nodes, ranks / nodes);
    let cost = SimCost::niagara();
    let mut rows = Vec::new();
    for &delta in &scale.densities() {
        let graph = erdos_renyi(ranks, delta, 42);
        let comm = DistGraphComm::create_adjacent(graph.clone(), layout.clone()).expect("fits");
        let dh = comm.plan(Algorithm::DistanceHalving).expect("plan");
        let mirror = crate::mirror::plan_mirror_halving(&graph, &layout).expect("mirror plan");
        mirror.validate(&graph).expect("mirror plan is correct");
        for &m in &[64usize, 16384] {
            let ta = simulate(&dh, &layout, m, &cost).expect("sim").makespan;
            let tm = simulate(&mirror, &layout, m, &cost).expect("sim").makespan;
            rows.push(row! {
                "delta" => delta.to_string(), "msg_size" => fmt_bytes(m),
                "load_aware_s" => fmt_secs(ta), "mirror_s" => fmt_secs(tm),
                "load_aware_gain" => fmt_x(tm / ta),
            });
        }
    }
    Measured { sections: vec![("ablation_selection", rows)], gates: vec![] }
}

/// Extension experiment: the future-work **alltoall** variant — Distance
/// Halving routing vs the naïve alltoall, across densities and sizes.
/// (No paper counterpart; this previews §VIII.) Section
/// `ext_alltoall_speedup`.
pub fn run_alltoall(scale: Scale) -> Measured {
    use nhood_core::alltoall::simulate_alltoall;
    let (ranks, nodes) = scale.rsg_largest();
    let layout = ClusterLayout::niagara(nodes, ranks / nodes);
    let cost = SimCost::niagara();
    let mut rows = Vec::new();
    for &delta in &scale.densities() {
        let graph = erdos_renyi(ranks, delta, 42);
        let pattern = build_pattern(&graph, &layout).expect("builds");
        // the gather plans; the alltoall runs the item routing they imply
        let dh = nhood_core::lower::lower(&pattern, &graph);
        let naive = nhood_core::naive::plan_naive(&graph);
        for &m in &[64usize, 4096, 262_144] {
            let rn = simulate_alltoall(&naive, &graph, &layout, m, &cost).expect("sim");
            let rd = simulate_alltoall(&dh, &graph, &layout, m, &cost).expect("sim");
            rows.push(row! {
                "delta" => delta.to_string(), "msg_size" => fmt_bytes(m),
                "naive_s" => fmt_secs(rn.makespan), "dh_s" => fmt_secs(rd.makespan),
                "dh_speedup" => fmt_x(rn.makespan / rd.makespan),
                "naive_msgs" => rn.stats.total_msgs().to_string(),
                "dh_msgs" => rd.stats.total_msgs().to_string(),
            });
        }
    }
    Measured { sections: vec![("ext_alltoall_speedup", rows)], gates: vec![] }
}

/// Extension experiment: allgather (padded) vs allgatherv (exact) SpMM
/// stripe packing — how much the padding of the non-`v` collective costs
/// for each Table II matrix. Section `ext_packing`.
pub fn run_packing(scale: Scale) -> Measured {
    use nhood_topology::matrix::generators::{synth_symmetric, TABLE2};
    use nhood_topology::spmm_graph::spmm_topology;
    let (parts, nodes) = scale.spmm_scale();
    let layout = ClusterLayout::niagara(nodes, parts / nodes);
    let cost = SimCost::niagara();
    let mut rows = Vec::new();
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
        rows.push(row! {
            "matrix" => e.name, "padded_bytes" => padded.to_string(),
            "mean_exact_bytes" => mean.to_string(), "padded_s" => fmt_secs(tp),
            "exact_s" => fmt_secs(te), "exact_gain" => fmt_x(tp / te),
        });
    }
    Measured { sections: vec![("ext_packing", rows)], gates: vec![] }
}

/// The §VII-B variance claim: the default algorithm's latency varies
/// with the node allocation a job happens to receive, while Distance
/// Halving is "considerably more stable". Reruns a Moore exchange under
/// several random node-placement permutations (global links enabled to
/// expose group boundaries) and reports mean, standard deviation and
/// coefficient of variation per algorithm. Section `variance_placement`.
pub fn run_variance(scale: Scale) -> Measured {
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

    let rows: Vec<Row> = samples
        .into_iter()
        .map(|(name, xs)| {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
            let std = var.sqrt();
            row! {
                "algorithm" => name, "trials" => xs.len().to_string(), "mean_s" => fmt_secs(mean),
                "std_s" => fmt_secs(std), "cov_pct" => format!("{:.2}", 100.0 * std / mean),
            }
        })
        .collect();
    Measured { sections: vec![("variance_placement", rows)], gates: vec![] }
}

/// Extension experiment: the hierarchical leader baseline (SC'20, the
/// paper's \[9\]) against naïve, Common Neighbor and Distance Halving in
/// the large-message regime where DH's buffer doubling hurts. Section
/// `ext_leader_large_messages`.
pub fn run_leader(scale: Scale) -> Measured {
    let (ranks, nodes) = scale.rsg_largest();
    let layout = ClusterLayout::niagara(nodes, ranks / nodes);
    let cost = SimCost::niagara();
    let mut rows = Vec::new();
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
            rows.push(row! {
                "delta" => delta.to_string(), "msg_size" => fmt_bytes(m), "naive_s" => fmt_secs(tn),
                "dh_x" => fmt_x(tn / td), "cn_x" => fmt_x(tn / tc), "leader_x" => fmt_x(tn / tl),
                "leaders" => l.to_string(),
            });
        }
    }
    Measured { sections: vec![("ext_leader_large_messages", rows)], gates: vec![] }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row count of `m`'s one section.
    fn rows(m: Measured) -> usize {
        assert_eq!(m.sections.len(), 1);
        m.sections[0].1.len()
    }

    #[test]
    fn leader_quick() {
        assert_eq!(rows(run_leader(Scale::Quick)), 2 * 3);
    }

    #[test]
    fn variance_quick() {
        assert_eq!(rows(run_variance(Scale::Quick)), 4);
    }

    #[test]
    fn alltoall_and_packing_quick() {
        assert_eq!(rows(run_alltoall(Scale::Quick)), 2 * 3);
        assert_eq!(rows(run_packing(Scale::Quick)), 2);
    }

    #[test]
    fn worked_example_report() {
        assert_eq!(rows(run_model_example()), 3);
    }

    #[test]
    fn agent_success_quick() {
        assert_eq!(rows(run_agent_success(Scale::Quick)), 2);
    }

    #[test]
    fn ablations_quick() {
        assert_eq!(rows(run_ablation_network(Scale::Quick)), 12);
        assert_eq!(rows(run_ablation_selection(Scale::Quick)), 4);
    }
}
