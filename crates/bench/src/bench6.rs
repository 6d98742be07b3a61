//! BENCH_6 — topology churn: incremental plan repair vs cold rebuild.
//!
//! On block and round-robin placement, for random sparse graphs at
//! growing rank counts, the live [`DistGraphComm`] plan is mutated one
//! edge at a time (add-a-non-edge, remove-it-again: the topology never
//! drifts) and each surgical repair is timed against the cold build that
//! seeded it. Every repaired plan is executed against the MPI-semantics
//! reference and a from-scratch build over the same mutated topology.
//!
//! Two gates ride on the numbers (see [`report`]):
//!
//! * `repair_exact` — every repaired plan reproduced the reference
//!   output and every sampled mutation stayed surgical (no silent
//!   rebuilds inflating the numbers);
//! * `min_gate_speedup` — at every cell with `n >= 512`, the median
//!   single-edge repair is **≥ 10× cheaper** than the cold build
//!   (unarmed on quick runs, which stop at n = 128; the reported
//!   speedups still make regressions visible in CI).

use nhood_cluster::{ClusterLayout, Placement};
use nhood_core::exec::virtual_exec::{reference_allgather, test_payloads};
use nhood_core::exec::{Executor, Virtual};
use nhood_core::{Algorithm, DistGraphComm};
use nhood_topology::random::erdos_renyi;
use nhood_topology::rng::DetRng;
use std::time::Instant;

use crate::common::median;
use crate::suite::{row, Gate, Measured, Val};

/// The `n` from which the ≥10× speedup gate applies.
pub const GATE_N: usize = 512;

/// Required cold-build / repair ratio at and above [`GATE_N`].
pub const GATE_SPEEDUP: f64 = 10.0;

/// Cold builds behind a gated cell's median (`n >= GATE_N`; 3 elsewhere):
/// one, then one after each repair, as many as stay surgical. At 3, built
/// before the repairs, the gate read 9.3–12.5 over 12 runs of one tree.
const COLD_SAMPLES: usize = nhood_core::repair::MAX_REPAIR_ROUNDS as usize + 1;

/// One churn cell: a graph size/density with its cold-build and
/// single-edge repair costs.
#[derive(Debug, Clone)]
pub struct Row {
    /// Cell label, e.g. `"n=512 d=0.3"`.
    pub case: String,
    /// Rank count.
    pub n: usize,
    /// Edge density of the Erdős–Rényi graph.
    pub delta: f64,
    /// Cold build of the live plan (build + lower + validate), s.
    pub cold_build_s: f64,
    /// Median single-edge `mutate` over the sampled repairs, s.
    pub repair_s: f64,
    /// All sampled mutations took the surgical path.
    pub all_surgical: bool,
    /// The repaired plan's output matched `reference_allgather` and a
    /// from-scratch build over the mutated topology.
    pub exact: bool,
}

impl Row {
    /// Cold build cost over repair cost (> 1 means repair won).
    pub fn speedup(&self) -> f64 {
        self.cold_build_s / self.repair_s.max(1e-12)
    }
}

fn cell(n: usize, delta: f64, placement: Placement, rows: &mut Vec<Row>) {
    let (g, dh) = (erdos_renyi(n, delta, 42), Algorithm::DistanceHalving);
    let layout = ClusterLayout::new(n.div_ceil(8), 2, 4).with_placement(placement);
    // Both arms are medians, sampled in turn so host noise hits both; each
    // build is on a fresh communicator, and the repairs patch the first.
    let (builds, pairs) = if n >= GATE_N { (COLD_SAMPLES, COLD_SAMPLES / 2) } else { (3, 3) };
    let cold_build = || {
        let comm = DistGraphComm::create_adjacent(g.clone(), layout.clone()).expect("layout fits");
        let t0 = Instant::now();
        comm.plan_shared(dh).expect("cold build");
        (t0.elapsed().as_secs_f64(), comm)
    };
    let (first, mut comm) = cold_build();
    let mut colds = vec![first];

    // Add-then-remove pairs over seeded non-edges: the plan sees 2
    // mutations per sample and the topology ends where it started.
    let mut rng = DetRng::seed_from_u64(0xC4 + n as u64);
    let (mut times, mut all_surgical) = (Vec::with_capacity(pairs * 2), true);
    for _ in 0..pairs {
        let (u, v) = loop {
            let u = rng.gen_below(n);
            let v = rng.gen_below(n);
            if u != v && !comm.graph().has_edge(u, v) {
                break (u, v);
            }
        };
        for (add, rm) in [(vec![(u, v)], vec![]), (vec![], vec![(u, v)])] {
            let t0 = Instant::now();
            let rep = comm.mutate(&add, &rm).expect("mutate");
            times.push(t0.elapsed().as_secs_f64());
            all_surgical &= !rep.full_rebuild;
            colds.extend((colds.len() < builds).then(|| cold_build().0));
        }
    }

    // Correctness of the final repaired plan: against the reference and
    // against a from-scratch build over the same (restored) topology.
    let payloads = test_payloads(n, 8, 0xB6);
    let want = reference_allgather(comm.graph(), &payloads);
    let live = &comm.plan_shared(dh).expect("the live plan");
    let exact = Virtual.run_simple(live, comm.graph(), &payloads).expect("repaired run") == want
        && {
            let fresh = DistGraphComm::create_adjacent(comm.graph().clone(), layout)
                .expect("layout fits")
                .plan_shared(dh)
                .expect("scratch plan");
            Virtual.run_simple(&fresh, comm.graph(), &payloads).expect("scratch run") == want
        };

    rows.push(Row {
        case: format!("n={n} d={delta} {placement:?}"),
        n,
        delta,
        cold_build_s: median(colds),
        repair_s: median(times),
        all_surgical,
        exact,
    });
}

/// Runs the full grid. `quick` stops at n = 128 for CI smoke runs (the
/// speedup gate applies from [`GATE_N`], so quick runs report numbers
/// without gating on them).
pub fn run(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let ns: &[usize] = if quick { &[64, 128] } else { &[128, 256, 512] };
    for placement in [Placement::Block, Placement::RoundRobinNodes] {
        for &n in ns {
            cell(n, 0.3, placement, &mut rows);
        }
        if !quick {
            // density sweep at the gate size: sparse and dense repairs
            cell(GATE_N, 0.1, placement, &mut rows);
        }
    }
    rows
}

/// The `rows` section and the two gates of a run.
pub fn report(rows: &[Row]) -> Measured {
    let min_gate_speedup =
        rows.iter().filter(|r| r.n >= GATE_N).map(Row::speedup).min_by(f64::total_cmp);
    let rows_out = rows.iter().map(|r| {
        row! {
            "case" => r.case.as_str(), "n" => r.n, "delta" => r.delta,
            "cold_build_s" => Val::Fix(r.cold_build_s, 9), "repair_s" => Val::Fix(r.repair_s, 9),
            "speedup" => Val::Fix(r.speedup(), 2), "all_surgical" => r.all_surgical,
            "exact" => r.exact,
        }
    });
    Measured {
        sections: vec![("rows", rows_out.collect())],
        gates: vec![
            Gate::at_least("min_gate_speedup", min_gate_speedup, GATE_SPEEDUP)
                .armed_if(min_gate_speedup.is_some()),
            Gate::holds(
                "repair_exact",
                !rows.is_empty() && rows.iter().all(|r| r.all_surgical && r.exact),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: usize, cold: f64, repair: f64, surgical: bool, exact: bool) -> Row {
        Row {
            case: format!("n={n} d=0.3"),
            n,
            delta: 0.3,
            cold_build_s: cold,
            repair_s: repair,
            all_surgical: surgical,
            exact,
        }
    }

    #[test]
    fn speedup_gate_applies_only_from_gate_n() {
        // a slow small cell must not trip the gate; a slow gate cell must
        let m = report(&[row(128, 1e-3, 1e-3, true, true), row(512, 1e-2, 1e-3, true, true)]);
        let g = m.gate("min_gate_speedup");
        assert!(g.armed && g.ok, "{g:?}");
        assert_eq!(g.value.map(|s| s.round()), Some(10.0));

        let g = report(&[row(512, 1e-2, 2e-3, true, true)]).gate("min_gate_speedup").clone();
        assert!(g.armed && !g.ok, "5x at n=512 must fail the gate: {g:?}");

        let g = report(&[row(128, 1.0, 1.0, true, true)]).gate("min_gate_speedup").clone();
        assert!(!g.armed && g.ok && g.value.is_none(), "quick runs leave it unarmed: {g:?}");
    }

    #[test]
    fn exactness_gate_rejects_rebuilds_and_corruption() {
        let exact = |rows: &[Row]| report(rows).gate("repair_exact").ok;
        assert!(!exact(&[row(128, 1.0, 0.01, false, true)]));
        assert!(!exact(&[row(128, 1.0, 0.01, true, false)]));
        assert!(!exact(&[]), "an empty grid is not evidence");
        assert!(exact(&[row(128, 1.0, 0.01, true, true)]));
    }

    #[test]
    fn quick_run_repairs_surgically_and_exactly() {
        let rows = run(true);
        assert_eq!(rows.len(), 4, "two sizes on two placements");
        let m = report(&rows);
        assert!(m.gate("repair_exact").ok, "{rows:?}");
        assert!(!m.gate("min_gate_speedup").armed, "no n>=512 cell in quick runs: {:?}", m.gates);
        assert!(m.all_ok());
    }
}
