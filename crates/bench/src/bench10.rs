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
//!
//! The `frontier` section is the evidence behind the portfolio: one
//! tuning pass per cell over the [`historical`] ten-arm list, on
//! Erdős–Rényi and stencil cells, and one row per arm — cells priced,
//! cells `autotune::candidates` offered it, wins, its closest loss to a
//! cell's best and the nearest it came to a best where it was not
//! offered. It is the rollback record of the arms the tuner stopped
//! building ([`RETIRED`] everywhere but in their regime), and gates them:
//!
//! * `retired_arms_never_within_eps` — no arm comes within
//!   [`GATE_EPS`] of a cell's best where the portfolio does not offer it;
//! * `auto_is_the_full_argmin` — on every cell, Auto's own pass picks
//!   the ten-arm argmin, at the same makespan bit for bit.

use nhood_cluster::{ClusterLayout, Placement, WorkerPool};
use nhood_core::autotune::candidates;
use nhood_core::exec::sim_exec::simulate;
use nhood_core::{Algorithm, BlockSizes, DistGraphComm, SimCost, TuneOutcome};
use nhood_topology::random::erdos_renyi;
use nhood_topology::Topology;
use nhood_topology::{moore::moore_on_grid, stencil::von_neumann_on_grid, torus::torus_on_grid};

use crate::common::gmean;
use crate::suite::{row, Gate, Measured, Row, Val};

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
    let latency = |algo| {
        let plan = comm.plan_shared(algo).expect("the arm builds");
        simulate(&plan, comm.layout(), m, &cost).expect("the arm prices").makespan
    };
    let auto_s = latency(winner);
    let fixed_s = FIXED.iter().map(|&a| (a, latency(a))).collect();
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

/// The arms the tuner offered everywhere until the frontier confined
/// them to their regime (`autotune::PAT_MAX_BLOCK`, `PAT_MIN_DENSITY`).
pub const RETIRED: [Algorithm; 2] = [Algorithm::Pat { radix: 2 }, Algorithm::Pat { radix: 4 }];
/// Gate: no arm comes within this share of a frontier cell's best where
/// the portfolio does not offer it.
pub const GATE_EPS: f64 = 0.02;

/// The ten-arm list the tuner swept before the retirement: today's
/// portfolio with [`RETIRED`] back where they stood, after the Common
/// Neighbor sweep and before the node-hierarchical designs, so ties
/// break as they did.
pub fn historical(graph: &Topology, layout: &ClusterLayout, sizes: &BlockSizes) -> Vec<Algorithm> {
    let mut arms = candidates(graph, layout, sizes);
    if graph.n() >= 2 && !arms.contains(&RETIRED[0]) {
        let hier =
            |a: &Algorithm| matches!(a, Algorithm::HierarchicalLeader { .. } | Algorithm::Bruck);
        let at = arms.iter().position(hier).unwrap_or(arms.len());
        arms.splice(at..at, RETIRED);
    }
    arms
}

/// One frontier cell: every historical arm priced by one tuning pass,
/// and what Auto's own pass offered and chose.
#[derive(Debug, Clone)]
pub struct FrontierCell {
    /// Cell label, e.g. `"er n=96 δ=0.2 m=64 c=8 Block"`.
    pub case: String,
    /// `(arm, simulated makespan)` per historical arm, in list order.
    pub scores: Vec<(Algorithm, f64)>,
    /// The ten-arm argmin and its makespan.
    pub best: (Algorithm, f64),
    /// The arms Auto's pass priced: the cell's portfolio.
    pub offered: Vec<Algorithm>,
    /// Auto's winner and its makespan.
    pub auto: (Algorithm, f64),
}

impl FrontierCell {
    /// `arm`'s makespan over the cell's best, when it was priced.
    fn gap(&self, arm: Algorithm) -> Option<f64> {
        self.scores.iter().find(|s| s.0 == arm).map(|s| s.1 / self.best.1)
    }
}

/// Prices one cell: one pass over the historical list, one Auto pass.
pub fn frontier_cell(
    case: String,
    graph: Topology,
    layout: ClusterLayout,
    m: usize,
) -> FrontierCell {
    let sizes = BlockSizes::uniform(m);
    let arms = historical(&graph, &layout, &sizes);
    let comm = DistGraphComm::create_adjacent(graph, layout)
        .expect("layout fits")
        .with_block_sizes(sizes.clone());
    let won =
        |o: &TuneOutcome| (o.winner, o.scores.iter().find(|s| s.0 == o.winner).expect("scored").1);
    let all = comm.tune_candidates(&arms, &sizes, &nhood_telemetry::NULL).expect("an arm builds");
    let auto = comm.tune().expect("Auto tunes");
    let offered = auto.scores.iter().map(|s| s.0).collect();
    FrontierCell { case, best: won(&all), offered, auto: won(&auto), scores: all.scores }
}

/// The frontier grid, priced on the host's workers: Erdős–Rényi cells
/// over n × δ × m × cores per socket (2 sockets a node) × block or
/// round-robin placement, then Moore, torus and von Neumann stencils
/// over m on 2 × 8-core nodes. Quick runs take a handful of cells.
pub fn run_frontier(quick: bool) -> Vec<FrontierCell> {
    type Maker = Box<dyn Fn() -> Topology + Sync>;
    let (ns, deltas, ms, cores): (&[usize], &[f64], &[usize], &[usize]) = if quick {
        (&[48], &[0.1, 0.9], &[1, 65_536], &[4])
    } else {
        let ms = &[1, 4, 16, 64, 256, 1024, 4096, 16_384, 65_536];
        let deltas = &[0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9];
        (&[24, 48, 96, 160, 256, 500, 1024], deltas, ms, &[8, 4, 16])
    };
    let mut specs: Vec<(String, Maker, ClusterLayout, usize)> = Vec::new();
    for (&n, &delta) in ns.iter().flat_map(|n| deltas.iter().map(move |d| (n, d))) {
        for (&m, &c) in ms.iter().flat_map(|m| cores.iter().map(move |c| (m, c))) {
            for placement in [Placement::Block, Placement::RoundRobinNodes] {
                let layout = ClusterLayout::new(n.div_ceil(2 * c), 2, c).with_placement(placement);
                let case = format!("er n={n} δ={delta} m={m} c={c} {placement:?}");
                specs.push((
                    case,
                    Box::new(move || erdos_renyi(n, delta, 0xF10 + n as u64)),
                    layout,
                    m,
                ));
            }
        }
    }
    type Stencil = fn() -> Topology;
    let stencils: [(&str, Stencil); 7] = [
        ("moore 16x16 r=1", || moore_on_grid(&[16, 16], 1)),
        ("moore 16x16 r=2", || moore_on_grid(&[16, 16], 2)),
        ("moore 8x8x8 r=1", || moore_on_grid(&[8, 8, 8], 1)),
        ("torus 16x16", || torus_on_grid(&[16, 16])),
        ("torus 8x8x8", || torus_on_grid(&[8, 8, 8])),
        ("von-neumann 16x16 r=2", || von_neumann_on_grid(&[16, 16], 2)),
        ("von-neumann 8x8x8 r=2", || von_neumann_on_grid(&[8, 8, 8], 2)),
    ];
    for (name, make) in if quick { &stencils[..1] } else { &stencils[..] } {
        for &m in if quick { &[64][..] } else { ms } {
            let layout = ClusterLayout::new(make().n().div_ceil(16), 2, 8);
            specs.push((format!("{name} m={m}"), Box::new(*make), layout, m));
        }
    }
    WorkerPool::auto().map(specs.len(), |i| {
        let (case, make, layout, m) = &specs[i];
        frontier_cell(case.clone(), make(), layout.clone(), *m)
    })
}

/// The smallest of `gaps`, with its cell.
fn nearest<'a>(
    gaps: impl Iterator<Item = (f64, &'a FrontierCell)>,
) -> Option<(f64, &'a FrontierCell)> {
    gaps.min_by(|x, y| x.0.total_cmp(&y.0))
}

/// The `frontier` section — one row per historical arm: cells priced and
/// offered, wins, the closest it came to a cell's best without winning
/// and where it was not offered — the nearest any arm came to a best
/// where it was not offered, and whether Auto matched the ten-arm argmin
/// everywhere.
fn frontier(cells: &[FrontierCell]) -> (Vec<Row>, Option<f64>, bool) {
    let mut arms: Vec<Algorithm> = Vec::new();
    for &(arm, _) in cells.iter().flat_map(|c| &c.scores) {
        if !arms.contains(&arm) {
            arms.push(arm);
        }
    }
    let mut unoffered = Vec::new();
    let rows = arms.iter().map(|&arm| {
        let priced: Vec<_> = cells.iter().filter_map(|c| Some((c.gap(arm)?, c))).collect();
        let wins = priced.iter().filter(|(_, c)| c.best.0 == arm).count();
        let closest = nearest(priced.iter().copied().filter(|(_, c)| c.best.0 != arm));
        let retired = nearest(priced.iter().copied().filter(|(_, c)| !c.offered.contains(&arm)));
        unoffered.extend(retired.map(|(r, _)| r));
        row! {
            "arm" => arm.to_string(), "cells" => priced.len(),
            "offered" => priced.iter().filter(|(_, c)| c.offered.contains(&arm)).count(),
            "wins" => wins, "closest" => closest.map(|(r, _)| Val::Fix(r, 4)),
            "closest_case" => closest.map(|(_, c)| c.case.clone()),
            "unoffered_nearest" => retired.map(|(r, _)| Val::Fix(r, 4)),
        }
    });
    let rows = rows.collect();
    let argmin =
        cells.iter().all(|c| c.auto.0 == c.best.0 && c.auto.1.to_bits() == c.best.1.to_bits());
    (rows, unoffered.into_iter().min_by(f64::total_cmp), argmin)
}

/// The `cells` and `frontier` sections and the four gates of a run.
pub fn report(rows: &[TuneRow], cells: &[FrontierCell]) -> Measured {
    let tuned = rows.iter().map(|r| {
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
    let (arms, nearest, argmin) = frontier(cells);
    Measured {
        sections: vec![("cells", tuned.collect()), ("frontier", arms)],
        gates: vec![
            Gate::at_least("gmean_vs_best", vs_best, GATE_VS_BEST),
            Gate::at_least("gmean_vs_worst", vs_worst, GATE_VS_WORST),
            Gate::at_least("retired_arms_never_within_eps", nearest, 1.0 + GATE_EPS),
            Gate::holds("auto_is_the_full_argmin", argmin && !cells.is_empty()),
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

    const PAT2: Algorithm = Algorithm::Pat { radix: 2 };
    const DH: Algorithm = Algorithm::DistanceHalving;

    /// A frontier cell whose historical arms scored `scores` and where
    /// Auto's own pass, offered every arm but PAT, picked `auto`.
    fn cell(scores: &[(Algorithm, f64)], auto: (Algorithm, f64)) -> FrontierCell {
        let best = scores.iter().copied().reduce(|b, s| if s.1 < b.1 { s } else { b }).unwrap();
        let offered = scores.iter().map(|s| s.0).filter(|a| !RETIRED.contains(a)).collect();
        FrontierCell { case: format!("{scores:?}"), scores: scores.to_vec(), best, offered, auto }
    }

    /// Two cells PAT never comes within 2 % of, Auto picking the argmin.
    fn frontier_cells() -> Vec<FrontierCell> {
        vec![
            cell(&[(Algorithm::Naive, 1.0), (DH, 1.2), (PAT2, 1.5)], (Algorithm::Naive, 1.0)),
            cell(&[(Algorithm::Naive, 2.0), (DH, 1.0), (PAT2, 2.1)], (DH, 1.0)),
        ]
    }

    #[test]
    fn gates_take_geometric_means_of_both_ratios() {
        // cells at 1.0x / 4.0x vs best → gmean 2.0; 2.0x / 8.0x vs worst → 4.0
        let m = report(&[row(1.0, &[1.0, 2.0]), row(1.0, &[4.0, 8.0])], &frontier_cells());
        assert!((m.gate("gmean_vs_best").value.unwrap() - 2.0).abs() < 1e-9, "{:?}", m.gates);
        assert!((m.gate("gmean_vs_worst").value.unwrap() - 4.0).abs() < 1e-9, "{:?}", m.gates);
        assert!(m.all_ok());

        // auto slower than the best fixed arm: the superset gate trips
        let m = report(&[row(2.0, &[1.0, 1.5])], &frontier_cells());
        assert!(!m.gate("gmean_vs_best").ok, "{:?}", m.gates);

        let m = report(&[], &[]);
        assert!(m.gates.iter().all(|g| g.armed && !g.ok), "an empty grid is not evidence");
    }

    #[test]
    fn the_frontier_gates_retired_arms_and_the_argmin() {
        let m = report(&[row(1.0, &[1.0])], &frontier_cells());
        let nearest = m.gate("retired_arms_never_within_eps");
        assert!(nearest.ok && (nearest.value.unwrap() - 1.5).abs() < 1e-9, "{:?}", m.gates);
        assert!(m.gate("auto_is_the_full_argmin").ok, "{:?}", m.gates);
        let rows = &m.sections[1].1;
        let arm = |name: &str| rows.iter().find(|r| r[0].1 == Val::Str(name.into())).unwrap();
        let counts = |name: &str| arm(name)[1..4].iter().map(|kv| kv.1.clone()).collect::<Vec<_>>();
        assert_eq!(counts("naive"), [2usize.into(), 2usize.into(), 1usize.into()]);
        assert_eq!(arm("naive")[4].1, Val::Fix(2.0, 4), "its one loss, at 2.0x the best");
        assert_eq!(arm("naive")[6].1, Val::Null, "offered everywhere");
        assert_eq!(counts("pat(r=2)"), [2usize.into(), 0usize.into(), 0usize.into()]);
        assert_eq!(arm("pat(r=2)")[6].1, Val::Fix(1.5, 4));

        // an arm within 2 % of a cell's best where it is not offered
        let mut cells = frontier_cells();
        cells[1].scores[2].1 = 1.01;
        let m = report(&[row(1.0, &[1.0])], &cells);
        assert!(!m.gate("retired_arms_never_within_eps").ok, "{:?}", m.gates);
        // ... is fine where the portfolio offers it
        cells[1].offered.push(PAT2);
        let m = report(&[row(1.0, &[1.0])], &cells);
        assert!(m.gate("retired_arms_never_within_eps").ok, "{:?}", m.gates);

        // Auto off the ten-arm argmin by one bit
        let mut cells = frontier_cells();
        cells[0].auto.1 = f64::from_bits(1.0f64.to_bits() + 1);
        let m = report(&[row(1.0, &[1.0])], &cells);
        assert!(!m.gate("auto_is_the_full_argmin").ok, "{:?}", m.gates);
    }

    #[test]
    fn the_historical_list_puts_pat_back_where_it_stood() {
        let (sparse, tiny) = (erdos_renyi(64, 0.3, 1), BlockSizes::uniform(64));
        let names = |arms: Vec<Algorithm>| arms.iter().map(ToString::to_string).collect::<Vec<_>>();
        let arms = names(historical(&sparse, &ClusterLayout::new(8, 2, 4), &tiny));
        assert_eq!(arms.len(), 10, "{arms:?}");
        assert_eq!(arms[6..8], ["pat(r=2)", "pat(r=4)"], "after the CN sweep: {arms:?}");
        assert_eq!(arms[8..], ["hierarchical-leader(l=8)", "bruck"]);
        // in PAT's regime the portfolio already holds it, once
        let dense = erdos_renyi(64, 0.9, 1);
        let layout = ClusterLayout::new(8, 2, 4);
        let (m1, m16) = (BlockSizes::uniform(1), BlockSizes::uniform(16));
        assert_eq!(historical(&dense, &layout, &m1), candidates(&dense, &layout, &m1));
        assert_eq!(historical(&dense, &layout, &m1), historical(&dense, &layout, &m16));
        let rr = ClusterLayout::new(8, 2, 4).with_placement(Placement::RoundRobinNodes);
        let block = historical(&sparse, &ClusterLayout::new(8, 2, 4), &tiny);
        assert_eq!(historical(&sparse, &rr, &tiny), block, "the node-hierarchical arms too");
        assert_eq!(historical(&erdos_renyi(1, 0.3, 1), &rr, &tiny), [Algorithm::Naive]);
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
        let m = report(&[row(1.0, &[1.0, 2.0])], &frontier_cells());
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
