//! Figs. 4 and 5 — the Random Sparse Graph micro-benchmark, two views of
//! one sweep.
//!
//! Fig. 4: absolute latency of Distance Halving vs the naïve (default
//! Open MPI) algorithm at the largest scale, across densities and message
//! sizes, next to the §V model predictions.
//!
//! Fig. 5: speedup of Distance Halving and of the best-K Common Neighbor
//! algorithm over naïve, for 540/1080/2160 ranks (Full scale).

use crate::common::{fmt_bytes, fmt_secs, fmt_x, gmean, Scale, CN_KS};
use crate::suite::{row, Measured};
use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::simulate;
use nhood_core::model::ModelParams;
use nhood_core::{Algorithm, DistGraphComm, SimCost};
use nhood_topology::random::erdos_renyi;

/// One measured sweep point.
#[derive(Clone, Debug)]
pub struct RsgPoint {
    /// Rank count.
    pub ranks: usize,
    /// Density δ.
    pub delta: f64,
    /// Message size (bytes).
    pub m: usize,
    /// Naïve latency (s).
    pub naive: f64,
    /// Distance Halving latency (s).
    pub dh: f64,
    /// Best-K Common Neighbor latency (s).
    pub cn: f64,
    /// The winning K.
    pub cn_k: usize,
}

/// Runs the RSG sweep for one (ranks, nodes) scale and one density.
pub fn sweep_one(
    ranks: usize,
    nodes: usize,
    delta: f64,
    sizes: &[usize],
    seed: u64,
) -> Vec<RsgPoint> {
    let layout = ClusterLayout::niagara(nodes, ranks / nodes);
    let graph = erdos_renyi(ranks, delta, seed);
    let comm = DistGraphComm::create_adjacent(graph, layout.clone()).expect("layout fits");
    let cost = SimCost::niagara();

    let naive_plan = comm.plan(Algorithm::Naive).expect("naive plan");
    let dh_plan = comm.plan(Algorithm::DistanceHalving).expect("dh plan");
    let cn_plans: Vec<(usize, nhood_core::CollectivePlan)> = CN_KS
        .iter()
        .map(|&k| (k, comm.plan(Algorithm::CommonNeighbor { k }).expect("cn plan")))
        .collect();

    sizes
        .iter()
        .map(|&m| {
            let naive = simulate(&naive_plan, &layout, m, &cost).expect("sim").makespan;
            let dh = simulate(&dh_plan, &layout, m, &cost).expect("sim").makespan;
            let (cn_k, cn) = cn_plans
                .iter()
                .map(|(k, p)| (*k, simulate(p, &layout, m, &cost).expect("sim").makespan))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("CN_KS non-empty");
            RsgPoint { ranks, delta, m, naive, dh, cn, cn_k }
        })
        .collect()
}

/// Sweeps every scale × density × size once: sections
/// `fig4_rsg_latency` (the largest scale, with the model's columns),
/// `fig5_rsg_speedup` and `fig5_rsg_speedup_avg` (geometric means over
/// the sizes).
pub fn run(scale: Scale) -> Measured {
    let sizes = scale.msg_sizes();
    let largest = scale.rsg_largest();
    let (mut latency, mut speedup, mut avg) = (Vec::new(), Vec::new(), Vec::new());
    for (ranks, nodes) in scale.rsg_scales() {
        for &delta in &scale.densities() {
            let pts = sweep_one(ranks, nodes, delta, &sizes, 42);
            let model = ModelParams::niagara(ranks, delta);
            for p in &pts {
                if (ranks, nodes) == largest {
                    latency.push(row! {
                        "ranks" => ranks.to_string(), "delta" => delta.to_string(),
                        "msg_size" => fmt_bytes(p.m), "naive_s" => fmt_secs(p.naive),
                        "dh_s" => fmt_secs(p.dh),
                        "model_naive_s" => fmt_secs(model.naive_time(p.m)),
                        "model_dh_s" => fmt_secs(model.dh_time(p.m)),
                    });
                }
                speedup.push(row! {
                    "ranks" => ranks.to_string(), "delta" => delta.to_string(),
                    "msg_size" => fmt_bytes(p.m), "dh_speedup" => fmt_x(p.naive / p.dh),
                    "cn_speedup" => fmt_x(p.naive / p.cn), "cn_best_k" => p.cn_k.to_string(),
                });
            }
            let mean = |over: fn(&RsgPoint) -> f64| {
                fmt_x(gmean(pts.iter().map(|p| p.naive / over(p))).expect("a size per cell"))
            };
            avg.push(row! {
                "ranks" => ranks.to_string(), "delta" => delta.to_string(),
                "dh_avg_speedup" => mean(|p| p.dh), "cn_avg_speedup" => mean(|p| p.cn),
            });
        }
    }
    let sections = vec![
        ("fig4_rsg_latency", latency),
        ("fig5_rsg_speedup", speedup),
        ("fig5_rsg_speedup_avg", avg),
    ];
    Measured { sections, gates: vec![] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_sanity() {
        let pts = sweep_one(72, 2, 0.3, &[64, 4096], 1);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(p.naive > 0.0 && p.dh > 0.0 && p.cn > 0.0);
            assert!(CN_KS.contains(&p.cn_k));
        }
        // dense small messages: DH should win at this scale too
        assert!(pts[0].dh < pts[0].naive, "DH {} vs naive {}", pts[0].dh, pts[0].naive);
    }

    #[test]
    fn quick_reports_have_expected_shape() {
        let m = run(Scale::Quick);
        assert_eq!(m.section("fig4_rsg_latency").len(), 2 * 3); // densities × sizes
        assert_eq!(m.section("fig5_rsg_speedup").len(), 2 * 3); // scales(1) × densities × sizes
        assert_eq!(m.section("fig5_rsg_speedup_avg").len(), 2); // scales(1) × densities
    }
}
