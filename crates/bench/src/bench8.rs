//! BENCH_8 — what message combining buys: the fused sparse allreduce
//! against the classic emulation (neighborhood allgather, then reduce
//! locally for free).
//!
//! Both arms run the same Distance Halving routing through the
//! collective-agnostic request API with a [`CountingRecorder`]
//! attached, so the comparison is on **bytes moved** — the quantity
//! the paper's §V model prices — not on wall clock, which a virtual
//! transport cannot measure honestly. The emulation's local reduction
//! is costed at zero bytes, the strongest possible baseline: every
//! byte the fused op saves comes purely from applying
//! [`ReduceOp`](nhood_core::ReduceOp)s at
//! forwarding agents, collapsing the blocks that share a relay hop
//! into one.
//!
//! Gates, see [`report`]: the best cell moves ≥ [`GATE_BYTES_RATIO`]×
//! fewer bytes fused than emulated (`max_bytes_ratio`), and every cell's
//! fused output byte-matches [`reference_allreduce`] (`all_correct`).

use nhood_cluster::ClusterLayout;
use nhood_core::collective::reference_allreduce;
use nhood_core::{Algorithm, CollectiveRequest, DistGraphComm, Reduction};
use nhood_telemetry::CountingRecorder;
use nhood_topology::random::erdos_renyi;
use nhood_topology::rng::hash_mix;

use crate::suite::{row, Gate, Measured, Val};

/// Required emulated / fused bytes-moved ratio (best cell).
pub const GATE_BYTES_RATIO: f64 = 1.2;

/// One comparison cell: identical topology and payloads, two arms.
#[derive(Debug, Clone)]
pub struct FusionRow {
    /// Cell label, e.g. `"n=128 δ=0.3 m=1024"`.
    pub case: String,
    /// Rank count.
    pub n: usize,
    /// Edge density of the Erdős–Rényi graph.
    pub delta: f64,
    /// Per-rank block size in bytes.
    pub m: usize,
    /// Bytes sent by the fused `allreduce` request.
    pub fused_bytes: u64,
    /// Messages sent by the fused request.
    pub fused_msgs: u64,
    /// Bytes sent by the allgather half of the emulation.
    pub emulated_bytes: u64,
    /// Messages sent by the emulation.
    pub emulated_msgs: u64,
    /// Whether the fused output byte-matched the naive reference.
    pub correct: bool,
}

impl FusionRow {
    /// Emulated over fused bytes moved.
    pub fn bytes_ratio(&self) -> f64 {
        self.emulated_bytes as f64 / (self.fused_bytes as f64).max(1e-9)
    }
}

/// Runs one cell: fused allreduce and its allgather emulation over the
/// same graph and payloads, each under its own recorder.
pub fn fusion_cell(n: usize, delta: f64, m: usize, seed: u64) -> FusionRow {
    let g = erdos_renyi(n, delta, seed);
    let layout = ClusterLayout::new(n.div_ceil(16), 2, 8);
    let comm = DistGraphComm::create_adjacent(g.clone(), layout).expect("layout fits");
    let payloads: Vec<Vec<u8>> = (0..n)
        .map(|r| (0..m).map(|i| (hash_mix(&[seed, r as u64, i as u64]) & 0xFF) as u8).collect())
        .collect();
    let red = Reduction::SUM_U8;

    let fused_rec = CountingRecorder::new(n);
    let req = CollectiveRequest::allreduce(&payloads, red)
        .algorithm(Algorithm::DistanceHalving)
        .recorder(&fused_rec);
    let fused = comm.collective(&req).expect("fused allreduce").rbufs;
    let correct = fused == reference_allreduce(&g, &payloads, red);

    let emu_rec = CountingRecorder::new(n);
    let req = CollectiveRequest::allgather(&payloads)
        .algorithm(Algorithm::DistanceHalving)
        .recorder(&emu_rec);
    comm.collective(&req).expect("emulation allgather");
    // The emulation's second half — reducing the gathered blocks
    // locally — moves zero bytes, so nothing more is charged.

    let (f, e) = (fused_rec.totals(), emu_rec.totals());
    FusionRow {
        case: format!("n={n} δ={delta} m={m}"),
        n,
        delta,
        m,
        fused_bytes: f.bytes_sent,
        fused_msgs: f.msgs_sent,
        emulated_bytes: e.bytes_sent,
        emulated_msgs: e.msgs_sent,
        correct,
    }
}

/// Runs the cell grid. Quick runs shrink the grid for CI smoke.
pub fn run_fusion(quick: bool) -> Vec<FusionRow> {
    let m = 1024;
    let cells: &[(usize, f64)] = if quick {
        &[(128, 0.3), (128, 0.5)]
    } else {
        &[(128, 0.3), (128, 0.5), (256, 0.3), (256, 0.5)]
    };
    cells.iter().map(|&(n, delta)| fusion_cell(n, delta, m, 0xB8)).collect()
}

/// The `cells` section and the two gates of a run.
pub fn report(rows: &[FusionRow]) -> Measured {
    let max_bytes_ratio = rows.iter().map(FusionRow::bytes_ratio).max_by(f64::total_cmp);
    let cells = rows.iter().map(|r| {
        row! {
            "case" => r.case.as_str(), "n" => r.n, "delta" => r.delta, "m" => r.m,
            "fused_bytes" => r.fused_bytes, "fused_msgs" => r.fused_msgs,
            "emulated_bytes" => r.emulated_bytes, "emulated_msgs" => r.emulated_msgs,
            "bytes_ratio" => Val::Fix(r.bytes_ratio(), 3), "correct" => r.correct,
        }
    });
    Measured {
        sections: vec![("cells", cells.collect())],
        gates: vec![
            Gate::at_least("max_bytes_ratio", max_bytes_ratio, GATE_BYTES_RATIO),
            Gate::holds("all_correct", !rows.is_empty() && rows.iter().all(|r| r.correct)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::tests::{parse, Json};
    use crate::suite::{document, SUITES};

    fn row(fused: u64, emulated: u64, correct: bool) -> FusionRow {
        FusionRow {
            case: "test".into(),
            n: 16,
            delta: 0.3,
            m: 64,
            fused_bytes: fused,
            fused_msgs: 10,
            emulated_bytes: emulated,
            emulated_msgs: 10,
            correct,
        }
    }

    #[test]
    fn ratio_gate_takes_the_best_cell_and_demands_correctness() {
        let m = report(&[row(1000, 1100, true), row(1000, 1500, true)]);
        assert!(m.all_ok(), "{:?}", m.gates);
        assert!((m.gate("max_bytes_ratio").value.unwrap() - 1.5).abs() < 1e-9);

        let m = report(&[row(1000, 1100, true)]);
        assert!(!m.gate("max_bytes_ratio").ok, "1.1x fails the 1.2x bar: {:?}", m.gates);

        let m = report(&[row(1000, 1500, false)]);
        assert!(!m.gate("all_correct").ok, "a wrong fused buffer poisons the verdict");

        let m = report(&[]);
        assert!(m.gates.iter().all(|g| g.armed && !g.ok), "an empty grid is not evidence");
    }

    #[test]
    fn small_cell_is_correct_and_fused_never_moves_more_bytes() {
        let r = fusion_cell(48, 0.4, 64, 7);
        assert!(r.correct, "{r:?}");
        assert!(r.fused_bytes > 0 && r.emulated_bytes > 0, "{r:?}");
        assert!(r.fused_bytes <= r.emulated_bytes, "combining at hops can only shed bytes: {r:?}");
    }

    #[test]
    fn json_document_is_balanced() {
        let m = report(&[row(1000, 1500, true)]);
        let suite = SUITES.iter().find(|s| s.id == 8).expect("suite 8");
        let json = document(suite, true, 1, &m);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"fused_bytes\""));
        let doc = parse(&json).expect("valid JSON");
        let gates = doc.get("gates").items();
        let gate = gates.iter().find(|g| g.get("name") == &Json::Str("max_bytes_ratio".into()));
        assert_eq!(gate.expect("the ratio gate").get("ok"), &Json::Bool(true));
        assert_eq!(doc.get("all_ok"), &Json::Bool(true));
    }
}
