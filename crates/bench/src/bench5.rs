//! BENCH_5 — variable-size allgatherv and byte-weighted agent
//! selection.
//!
//! For each workload — random sparse graphs, the Moore stencil, and
//! SpMM-derived topologies with their real per-stripe byte sizes — the
//! Distance Halving collective is simulated three ways:
//!
//! * `padded` — uniform allgather with every block padded to the
//!   largest (`MPI_Neighbor_allgather`, the pre-allgatherv baseline);
//! * `ragged_neighbors` — exact per-rank sizes on the wire
//!   ([`simulate_v`]) with the paper's shared-neighbor agent selection
//!   ([`LoadMetric::Neighbors`]);
//! * `ragged_bytes` — the same ragged sizes on a plan whose agent
//!   selection was byte-aware ([`LoadMetric::Bytes`]).
//!
//! Each cell also records the §V model's E\[m_in\] per received block
//! under both metrics ([`mean_block_bytes`]): the plain mean and the
//! size-biased mean, whose gap measures how ragged the size table is.
//!
//! One gate rides on the numbers (see [`report`]): on the ragged SpMM
//! workload, Bytes-metric selection must be no slower than
//! Neighbors-metric selection in geometric mean (`spmm_bytes_gmean`
//! ≥ 1.0).

use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::{simulate, simulate_v};
use nhood_core::model::mean_block_bytes;
use nhood_core::{Algorithm, BlockSizes, DistGraphComm, LoadMetric, SimCost};
use nhood_topology::matrix::generators::{synth_symmetric, TABLE2};
use nhood_topology::moore::{moore, MooreSpec};
use nhood_topology::random::erdos_renyi;
use nhood_topology::rng::DetRng;
use nhood_topology::spmm_graph::spmm_topology;
use nhood_topology::{BlockPartition, Topology};

use crate::common::gmean;
use crate::suite::{row, Gate, Measured, Val};

/// One simulated (workload, case) cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload family: `"rsg"`, `"moore"`, or `"spmm"`.
    pub workload: String,
    /// Cell label: `"n=128 d=0.3"` or a Table II matrix name.
    pub case: String,
    /// Rank count.
    pub n: usize,
    /// Total payload bytes across all ranks.
    pub total_bytes: usize,
    /// Largest per-rank block — the padded allgather's uniform size.
    pub max_bytes: usize,
    /// §V E\[m_in\] per block under `Neighbors` (the plain mean).
    pub model_mean_neighbors: f64,
    /// §V E\[m_in\] per block under `Bytes` (the size-biased mean;
    /// ≥ the plain mean, equal iff the table is uniform).
    pub model_mean_bytes: f64,
    /// Makespan of the padded uniform allgather, seconds.
    pub padded_s: f64,
    /// Makespan of ragged allgatherv on the Neighbors-selected plan.
    pub ragged_neighbors_s: f64,
    /// Makespan of ragged allgatherv on the Bytes-selected plan.
    pub ragged_bytes_s: f64,
}

impl Row {
    /// How much exact sizes save over padding: `padded /
    /// ragged_neighbors` (> 1 means allgatherv won).
    pub fn padded_over_ragged(&self) -> f64 {
        self.padded_s / self.ragged_neighbors_s
    }

    /// Byte-weighted selection gain: `ragged_neighbors / ragged_bytes`
    /// (> 1 means the Bytes metric won; 1.0 when both metrics picked
    /// the same agents).
    pub fn bytes_gain(&self) -> f64 {
        self.ragged_neighbors_s / self.ragged_bytes_s
    }
}

/// Skewed per-rank block sizes for the synthetic-topology workloads:
/// roughly one rank in eight carries a block one to two orders of
/// magnitude heavier than the rest, and zero-length blocks occur.
pub fn skewed_sizes(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_below(8) == 0 {
                4096 + rng.gen_below(4096)
            } else {
                rng.gen_below(257) // 0..=256, zeros included
            }
        })
        .collect()
}

fn cell(workload: &str, case: String, graph: Topology, sizes: Vec<usize>, rows: &mut Vec<Row>) {
    let n = graph.n();
    let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
    let cost = SimCost::niagara();
    let table = BlockSizes::per_rank(sizes.clone());
    let base = DistGraphComm::create_adjacent(graph, layout.clone())
        .expect("layout fits")
        .with_block_sizes(table.clone());
    let plan_n = base
        .clone()
        .with_load_metric(LoadMetric::Neighbors)
        .plan(Algorithm::DistanceHalving)
        .expect("plan");
    let plan_b =
        base.with_load_metric(LoadMetric::Bytes).plan(Algorithm::DistanceHalving).expect("plan");
    let max = sizes.iter().copied().max().unwrap_or(0);
    rows.push(Row {
        workload: workload.to_string(),
        case,
        n,
        total_bytes: sizes.iter().sum(),
        max_bytes: max,
        model_mean_neighbors: mean_block_bytes(&table, n, LoadMetric::Neighbors),
        model_mean_bytes: mean_block_bytes(&table, n, LoadMetric::Bytes),
        padded_s: simulate(&plan_n, &layout, max, &cost).expect("sim").makespan,
        ragged_neighbors_s: simulate_v(&plan_n, &layout, &sizes, &cost).expect("sim").makespan,
        ragged_bytes_s: simulate_v(&plan_b, &layout, &sizes, &cost).expect("sim").makespan,
    });
}

/// Per-stripe exact payload bytes of an SpMM exchange — the real size
/// table [`nhood_spmm::distributed_spmm_with`] pins under
/// `Packing::Exact`.
pub fn spmm_stripe_sizes(x: &nhood_topology::CsrMatrix, parts: usize) -> Vec<usize> {
    let part = BlockPartition::new(x.rows(), parts);
    (0..parts)
        .map(|p| {
            let nnz: usize = part.range(p).map(|r| x.row_cols(r).len()).sum();
            nhood_spmm::stripe::exact_bytes(nnz)
        })
        .collect()
}

/// Runs the full grid. `quick` shrinks rank counts, densities, and the
/// matrix list for CI smoke runs.
pub fn run(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();

    let (rsg_sizes, densities): (&[usize], &[f64]) =
        if quick { (&[64], &[0.3]) } else { (&[128, 512], &[0.1, 0.3]) };
    for &n in rsg_sizes {
        for &delta in densities {
            let g = erdos_renyi(n, delta, 42);
            cell("rsg", format!("n={n} d={delta}"), g, skewed_sizes(n, 0xB5 + n as u64), &mut rows);
        }
    }

    let moore_sizes: &[usize] = if quick { &[64] } else { &[256] };
    for &n in moore_sizes {
        let g = moore(n, MooreSpec { r: 1, d: 2 });
        cell("moore", format!("n={n} r=1 d=2"), g, skewed_sizes(n, 0x3007 + n as u64), &mut rows);
    }

    let (matrices, parts): (&[_], usize) =
        if quick { (&TABLE2[..2], 16) } else { (&TABLE2[..4], 64) };
    for e in matrices {
        let x = synth_symmetric(e.n, e.nnz, e.class, 42);
        let g = spmm_topology(&x, parts);
        cell("spmm", e.name.to_string(), g, spmm_stripe_sizes(&x, parts), &mut rows);
    }

    rows
}

/// The `rows` section and the SpMM gate of a run.
pub fn report(rows: &[Row]) -> Measured {
    let spmm = rows.iter().filter(|r| r.workload == "spmm");
    let rows = rows.iter().map(|r| {
        row! {
            "workload" => r.workload.as_str(), "case" => r.case.as_str(), "n" => r.n,
            "total_bytes" => r.total_bytes, "max_bytes" => r.max_bytes,
            "model_mean_neighbors" => Val::Fix(r.model_mean_neighbors, 3),
            "model_mean_bytes" => Val::Fix(r.model_mean_bytes, 3),
            "padded_s" => Val::Fix(r.padded_s, 9),
            "ragged_neighbors_s" => Val::Fix(r.ragged_neighbors_s, 9),
            "ragged_bytes_s" => Val::Fix(r.ragged_bytes_s, 9),
            "padded_over_ragged" => Val::Fix(r.padded_over_ragged(), 3),
            "bytes_gain" => Val::Fix(r.bytes_gain(), 4),
        }
    });
    Measured {
        sections: vec![("rows", rows.collect())],
        gates: vec![Gate::at_least("spmm_bytes_gmean", gmean(spmm.map(Row::bytes_gain)), 1.0)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::tests::{parse, Json};
    use crate::suite::{document, SUITES};

    fn row(workload: &str, padded: f64, neighbors: f64, bytes: f64) -> Row {
        Row {
            workload: workload.into(),
            case: "t".into(),
            n: 16,
            total_bytes: 1024,
            max_bytes: 256,
            model_mean_neighbors: 64.0,
            model_mean_bytes: 96.0,
            padded_s: padded,
            ragged_neighbors_s: neighbors,
            ragged_bytes_s: bytes,
        }
    }

    #[test]
    fn gate_is_spmm_only_and_tolerates_identical_plans() {
        // an rsg cell where Bytes loses must not fail the SpMM gate
        let rows = vec![row("rsg", 4.0, 2.0, 3.0), row("spmm", 4.0, 2.0, 2.0)];
        assert!(rows[0].bytes_gain() < 1.0);
        let m = report(&rows);
        let g = m.gate("spmm_bytes_gmean");
        assert!(g.armed && g.ok, "identical plans (gain 1.0) must pass: {g:?}");
        assert!((g.value.unwrap() - 1.0).abs() < 1e-12);

        let g = report(&[row("spmm", 4.0, 2.0, 2.5)]).gates[0].clone();
        assert!(!g.ok, "a real SpMM regression must fail: {g:?}");
        let g = report(&[row("rsg", 4.0, 2.0, 2.0)]).gates[0].clone();
        assert!(g.armed && !g.ok, "no SpMM cell is not evidence: {g:?}");
    }

    #[test]
    fn skewed_sizes_are_deterministic_and_actually_skewed() {
        let a = skewed_sizes(256, 7);
        assert_eq!(a, skewed_sizes(256, 7));
        assert!(a.contains(&0), "zero-length blocks must occur");
        assert!(a.iter().any(|&s| s >= 4096), "heavy blocks must occur");
        let table = BlockSizes::per_rank(a.clone());
        let plain = mean_block_bytes(&table, 256, LoadMetric::Neighbors);
        let biased = mean_block_bytes(&table, 256, LoadMetric::Bytes);
        assert!(biased > 2.0 * plain, "skew should widen the §V means: {plain} vs {biased}");
    }

    #[test]
    fn quick_run_covers_all_three_workloads_and_json_is_well_formed() {
        let rows = run(true);
        for w in ["rsg", "moore", "spmm"] {
            assert!(rows.iter().any(|r| r.workload == w), "missing workload {w}");
        }
        for r in &rows {
            assert!(r.padded_s > 0.0 && r.ragged_neighbors_s > 0.0 && r.ragged_bytes_s > 0.0);
            assert!(
                r.model_mean_bytes >= r.model_mean_neighbors - 1e-9,
                "size-biased mean must dominate the plain mean"
            );
            assert!(r.padded_over_ragged() >= 1.0 - 1e-9, "padding can never beat exact sizes");
        }
        let m = report(&rows);
        assert!(m.all_ok(), "{:?}", m.gates);
        let doc = parse(&document(&SUITES[1], true, 2, &m)).expect("valid JSON");
        assert_eq!(doc.get("rows").items().len(), rows.len());
        assert_eq!(doc.get("gates").items()[0].get("name"), &Json::Str("spmm_bytes_gmean".into()));
    }
}
