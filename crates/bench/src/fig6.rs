//! Fig. 6 — Moore-neighborhood speedups.
//!
//! 2048 ranks on 64 nodes × 32 ranks (Full scale); Moore neighborhoods of
//! increasing density on 2-D and 3-D periodic grids; small (4 KB),
//! medium (256 KB) and large (4 MB) messages; speedup of Distance Halving
//! and best-K Common Neighbor over the naïve algorithm.

use crate::common::{fmt_bytes, fmt_secs, fmt_x, Scale, CN_KS};
use crate::suite::{row, Measured};
use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::simulate;
use nhood_core::{Algorithm, DistGraphComm, SimCost};
use nhood_topology::moore::{grid_dims, moore, MooreSpec};

/// Message sizes of Fig. 6: small, medium, large.
pub const MOORE_SIZES: [usize; 3] = [4096, 262_144, 4_194_304];

/// Moore specs the sweep tries (specs that do not factor the rank count
/// into a valid grid are skipped, mirroring how such jobs simply cannot
/// be launched).
pub const MOORE_SPECS: [MooreSpec; 6] = [
    MooreSpec { r: 1, d: 2 },
    MooreSpec { r: 2, d: 2 },
    MooreSpec { r: 3, d: 2 },
    MooreSpec { r: 4, d: 2 },
    MooreSpec { r: 1, d: 3 },
    MooreSpec { r: 2, d: 3 },
];

/// Runs the Moore sweep: section `fig6_moore_speedup`.
pub fn run(scale: Scale) -> Measured {
    let (ranks, nodes, rpn) = scale.moore_scale();
    let layout = ClusterLayout::niagara(nodes, rpn);
    let cost = SimCost::niagara();
    let sizes: Vec<usize> = match scale {
        Scale::Full => MOORE_SIZES.to_vec(),
        Scale::Quick => vec![4096, 262_144],
    };
    let mut rows = Vec::new();
    for spec in MOORE_SPECS {
        if grid_dims(ranks, spec).is_none() {
            continue;
        }
        let graph = moore(ranks, spec);
        let comm = DistGraphComm::create_adjacent(graph, layout.clone()).expect("fits");
        let naive_plan = comm.plan(Algorithm::Naive).expect("plan");
        let dh_plan = comm.plan(Algorithm::DistanceHalving).expect("plan");
        let cn_plans: Vec<(usize, nhood_core::CollectivePlan)> = CN_KS
            .iter()
            .map(|&k| (k, comm.plan(Algorithm::CommonNeighbor { k }).expect("plan")))
            .collect();
        for &m in &sizes {
            let tn = simulate(&naive_plan, &layout, m, &cost).expect("sim").makespan;
            let td = simulate(&dh_plan, &layout, m, &cost).expect("sim").makespan;
            let (k, tc) = cn_plans
                .iter()
                .map(|(k, p)| (*k, simulate(p, &layout, m, &cost).expect("sim").makespan))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("non-empty");
            rows.push(row! {
                "moore" => format!("r{}d{}", spec.r, spec.d),
                "neighbors" => spec.neighbor_count().to_string(), "msg_size" => fmt_bytes(m),
                "naive_s" => fmt_secs(tn), "dh_speedup" => fmt_x(tn / td),
                "cn_speedup" => fmt_x(tn / tc), "cn_best_k" => k.to_string(),
            });
        }
    }
    Measured { sections: vec![("fig6_moore_speedup", rows)], gates: vec![] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_moore_sweep_runs() {
        let rows = run(Scale::Quick).section("fig6_moore_speedup").len();
        // 256 ranks: all six specs factor (16x16 / 4x8x8 grids)
        assert!(rows >= 2 * 4, "got {rows} rows");
    }

    #[test]
    fn specs_cover_both_dimensionalities() {
        assert!(MOORE_SPECS.iter().any(|s| s.d == 2));
        assert!(MOORE_SPECS.iter().any(|s| s.d == 3));
    }
}
