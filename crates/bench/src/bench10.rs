//! BENCH_10 — does the auto-tuner earn its keep? `Algorithm::Auto`
//! against every fixed algorithm in the portfolio, on simulated
//! makespan under the §V cost model.
//!
//! Each cell fixes an Erdős–Rényi topology, a block layout, and a
//! uniform payload size, then prices one neighborhood allgather per
//! algorithm with [`SimCost::niagara`] — the same model the tuner
//! scores candidates with, so the comparison is apples to apples. The
//! fixed arms are the algorithms a user could reasonably hard-code:
//! direct sends, Common Neighbor at the conventional K = 8, Distance
//! Halving, the leader hierarchy, Bruck, and PAT at radix 4.
//!
//! Gates, see [`report`]:
//!
//! * `gmean_vs_best` — geometric mean of best-fixed / Auto makespan
//!   ≥ [`GATE_VS_BEST`]. Auto sweeps a superset of the fixed arms, so
//!   anything under 1.0 would mean the tuner picked a loser somewhere.
//! * `gmean_vs_worst` — geometric mean of worst-fixed / Auto makespan
//!   ≥ [`GATE_VS_WORST`]: the payoff for not hard-coding the wrong
//!   algorithm must be real.

use nhood_cluster::ClusterLayout;
use nhood_core::{Algorithm, BlockSizes, DistGraphComm, SimCost};
use nhood_topology::random::erdos_renyi;

use crate::suite::{gmean, row, Gate, Measured, Val};

/// Gate: gmean(best fixed / Auto) must be at least this.
pub const GATE_VS_BEST: f64 = 1.0;
/// Gate: gmean(worst fixed / Auto) must be at least this.
pub const GATE_VS_WORST: f64 = 1.15;

/// The fixed arms Auto competes against.
pub const FIXED: [Algorithm; 6] = [
    Algorithm::Naive,
    Algorithm::CommonNeighbor { k: 8 },
    Algorithm::DistanceHalving,
    Algorithm::HierarchicalLeader { leaders_per_node: 8 },
    Algorithm::Bruck,
    Algorithm::Pat { radix: 4 },
];

/// One tuning cell: a topology / payload size, every arm priced.
#[derive(Debug, Clone)]
pub struct TuneRow {
    /// Cell label, e.g. `"n=128 δ=0.3 m=4096"`.
    pub case: String,
    /// Rank count.
    pub n: usize,
    /// Edge density of the Erdős–Rényi graph.
    pub delta: f64,
    /// Per-rank block size in bytes.
    pub m: usize,
    /// The algorithm Auto resolved to.
    pub winner: Algorithm,
    /// Auto's simulated makespan, seconds.
    pub auto_s: f64,
    /// `(arm, simulated makespan)` for each fixed arm, in [`FIXED`] order.
    pub fixed_s: Vec<(Algorithm, f64)>,
}

impl TuneRow {
    /// The fastest fixed arm's makespan.
    pub fn best_fixed(&self) -> f64 {
        self.fixed_s.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min)
    }

    /// The slowest fixed arm's makespan.
    pub fn worst_fixed(&self) -> f64 {
        self.fixed_s.iter().map(|&(_, t)| t).fold(0.0, f64::max)
    }
}

/// Runs one cell: resolve Auto for the (topology, layout, m)
/// fingerprint, then price the winner and every fixed arm.
pub fn tune_cell(n: usize, delta: f64, m: usize, seed: u64) -> TuneRow {
    let g = erdos_renyi(n, delta, seed);
    let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
    let comm = DistGraphComm::create_adjacent(g, layout)
        .expect("layout fits")
        .with_block_sizes(BlockSizes::uniform(m));
    let cost = SimCost::niagara();
    let winner = comm.resolve_algorithm(Algorithm::Auto).expect("auto resolves");
    let auto_s = comm.latency(winner, m, &cost).expect("winner prices").makespan;
    let fixed_s = FIXED
        .iter()
        .map(|&a| (a, comm.latency(a, m, &cost).expect("fixed arm prices").makespan))
        .collect();
    TuneRow { case: format!("n={n} δ={delta} m={m}"), n, delta, m, winner, auto_s, fixed_s }
}

/// Runs the cell grid. Quick runs shrink the grid for CI smoke.
pub fn run_tuning(quick: bool) -> Vec<TuneRow> {
    let mut rows = Vec::new();
    let (ns, deltas, ms): (&[usize], &[f64], &[usize]) = if quick {
        (&[64], &[0.3, 0.6], &[64, 65_536])
    } else {
        (&[128, 256], &[0.1, 0.3, 0.6], &[64, 4096, 65_536])
    };
    for &n in ns {
        for &delta in deltas {
            for &m in ms {
                rows.push(tune_cell(n, delta, m, 0xB10 + n as u64));
            }
        }
    }
    rows
}

/// The `cells` section and the two gates of a run.
pub fn report(rows: &[TuneRow]) -> Measured {
    let cells = rows.iter().map(|r| {
        let arms = r.fixed_s.iter().map(|(a, t)| (a.to_string(), Val::Sci(*t))).collect();
        row! {
            "case" => r.case.as_str(), "n" => r.n, "delta" => r.delta, "m" => r.m,
            "winner" => r.winner.to_string(), "auto_s" => Val::Sci(r.auto_s),
            "fixed_s" => Val::Obj(arms), "vs_best" => Val::Fix(r.best_fixed() / r.auto_s, 3),
            "vs_worst" => Val::Fix(r.worst_fixed() / r.auto_s, 3),
        }
    });
    let vs_best = gmean(rows.iter().map(|r| r.best_fixed() / r.auto_s));
    let vs_worst = gmean(rows.iter().map(|r| r.worst_fixed() / r.auto_s));
    Measured {
        sections: vec![("cells", cells.collect())],
        gates: vec![
            Gate::at_least("gmean_vs_best", vs_best, GATE_VS_BEST),
            Gate::at_least("gmean_vs_worst", vs_worst, GATE_VS_WORST),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::tests::{parse, Json};
    use crate::suite::{document, SUITES};

    fn row(auto_s: f64, fixed: &[f64]) -> TuneRow {
        TuneRow {
            case: "test".into(),
            n: 64,
            delta: 0.3,
            m: 64,
            winner: Algorithm::DistanceHalving,
            auto_s,
            fixed_s: fixed.iter().map(|&t| (Algorithm::Naive, t)).collect(),
        }
    }

    #[test]
    fn gates_take_geometric_means_of_both_ratios() {
        // cells at 1.0x / 4.0x vs best → gmean 2.0; 2.0x / 8.0x vs worst → 4.0
        let m = report(&[row(1.0, &[1.0, 2.0]), row(1.0, &[4.0, 8.0])]);
        assert!((m.gate("gmean_vs_best").value.unwrap() - 2.0).abs() < 1e-9, "{:?}", m.gates);
        assert!((m.gate("gmean_vs_worst").value.unwrap() - 4.0).abs() < 1e-9, "{:?}", m.gates);
        assert!(m.all_ok());

        // auto slower than the best fixed arm: the superset gate trips
        let m = report(&[row(2.0, &[1.0, 1.5])]);
        assert!(!m.gate("gmean_vs_best").ok, "{:?}", m.gates);

        let m = report(&[]);
        assert!(m.gates.iter().all(|g| g.armed && !g.ok), "an empty grid is not evidence");
    }

    #[test]
    fn small_cell_never_loses_to_a_fixed_arm() {
        // Auto sweeps a superset of FIXED under the same cost model, so
        // per-cell vs_best ≥ 1.0 holds by construction — this is the
        // end-to-end check that resolution really returns that argmin.
        for m in [64usize, 65_536] {
            let r = tune_cell(64, 0.4, m, 3);
            assert!(r.auto_s > 0.0, "{r:?}");
            assert!(r.best_fixed() / r.auto_s >= 1.0 - 1e-12, "auto lost to a fixed arm: {r:?}");
        }
    }

    #[test]
    fn json_document_is_balanced() {
        let m = report(&[row(1.0, &[1.0, 2.0])]);
        let suite = SUITES.iter().find(|s| s.id == 10).expect("suite 10");
        let json = document(suite, true, 1, &m);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"winner\""));
        let doc = parse(&json).expect("valid JSON");
        let gates = doc.get("gates").items();
        let gate = gates.iter().find(|g| g.get("name") == &Json::Str("gmean_vs_best".into()));
        assert_eq!(gate.expect("the vs-best gate").get("ok"), &Json::Bool(true));
        assert_eq!(doc.get("all_ok"), &Json::Bool(true));
    }
}
