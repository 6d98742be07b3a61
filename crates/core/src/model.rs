//! The paper's §V performance model, implemented formula-for-formula.
//!
//! Hockney cost `α + m/β` per message; a communicator of `n` ranks on
//! nodes of `S` sockets × `L` ranks; Erdős–Rényi density `δ`. The model
//! predicts the expected collective time of the naïve algorithm (eqs. 4–5)
//! and of Distance Halving (eqs. 6–8), from the expected off-socket and
//! intra-socket message counts (eqs. 1–2) and the expected intra-socket
//! message size (eq. 3).
//!
//! All logarithms are base 2 (`log(n/L)` counts halving steps). The
//! paper's worked example ("23 vs 600 messages" for n = 2000, δ = 0.3,
//! L = 20) is itself slightly inconsistent with the formulas as printed —
//! the formulas below follow the *printed equations*; `EXPERIMENTS.md`
//! quantifies the worked-example discrepancy.

use crate::sizes::{BlockSizes, LoadMetric};

/// Expected size (bytes) of the block behind one delivered message under
/// a [`LoadMetric`]:
///
/// * [`LoadMetric::Neighbors`]: a uniformly random block — the plain
///   mean `Σs / n`;
/// * [`LoadMetric::Bytes`]: blocks travel inside buffers in proportion
///   to their own size, so a delivered byte belongs to block `r` with
///   probability `s_r / Σs` — the **size-biased mean** `Σs² / Σs`.
///
/// By Cauchy–Schwarz the size-biased mean is ≥ the plain mean, with
/// equality exactly on uniform tables; the gap is what byte-weighted
/// agent selection has to win back on ragged workloads.
pub fn mean_block_bytes(sizes: &BlockSizes, n: usize, metric: LoadMetric) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let total: f64 = (0..n).map(|r| sizes.size(r) as f64).sum();
    match metric {
        LoadMetric::Neighbors => total / n as f64,
        LoadMetric::Bytes => {
            if total == 0.0 {
                0.0
            } else {
                let sq: f64 = (0..n)
                    .map(|r| {
                        let s = sizes.size(r) as f64;
                        s * s
                    })
                    .sum();
                sq / total
            }
        }
    }
}

/// Model inputs.
#[derive(Clone, Copy, Debug)]
pub struct ModelParams {
    /// Communicator size `n`.
    pub n: usize,
    /// Sockets per node `S`.
    pub s: usize,
    /// Ranks per socket `L`.
    pub l: usize,
    /// Erdős–Rényi density `δ ∈ [0, 1]`.
    pub delta: f64,
    /// Hockney latency `α` (seconds).
    pub alpha: f64,
    /// Hockney bandwidth `β` (bytes per second).
    pub beta: f64,
}

impl ModelParams {
    /// Niagara-flavoured defaults at a given scale and density (flat α–β,
    /// as the model assumes: "we do not distinguish the inter-node,
    /// intra-node, and intra-socket bandwidth").
    pub fn niagara(n: usize, delta: f64) -> Self {
        Self { n, s: 2, l: 18, delta, alpha: 1.3e-6, beta: 10.5e9 }
    }

    /// Number of halving steps as the model counts them:
    /// `⌈log2(n/L)⌉ + 1`.
    pub fn halving_steps(&self) -> usize {
        if self.n <= self.l {
            return 0;
        }
        (self.n as f64 / self.l as f64).log2().ceil() as usize + 1
    }

    /// Eq. (1): expected off-socket messages per rank,
    /// `min(⌈log2(n/L)⌉ + 1, δ(n − L))`.
    pub fn expected_off_socket_msgs(&self) -> f64 {
        let steps = self.halving_steps() as f64;
        steps.min(self.delta * (self.n as f64 - self.l as f64)).max(0.0)
    }

    /// Eq. (2): expected intra-socket messages per rank,
    /// `(1 − (1−δ)^(⌈log2(n/L)⌉ + 2)) · L`.
    pub fn expected_intra_socket_msgs(&self) -> f64 {
        let e = self.halving_steps() as f64 + 1.0;
        (1.0 - (1.0 - self.delta).powf(e)) * self.l as f64
    }

    /// Eq. (3): expected intra-socket message size (bytes),
    /// `δ · E[n_in] · E[m]`. `m` is the payload of a uniform collective,
    /// or — for variable block sizes — the expected size of a block
    /// carried by an intra-socket message under a [`LoadMetric`]
    /// ([`mean_block_bytes`]).
    pub fn expected_intra_socket_bytes(&self, m: f64) -> f64 {
        self.delta * self.expected_intra_socket_msgs() * m
    }

    /// Hockney term `α + m/β`.
    fn t(&self, m: f64) -> f64 {
        self.alpha + m / self.beta
    }

    /// Eq. (4): expected per-rank communication time of the naïve
    /// algorithm, `2 δ n (α + m/β)`.
    pub fn naive_rank_time(&self, m: usize) -> f64 {
        2.0 * self.delta * self.n as f64 * self.t(m as f64)
    }

    /// Eq. (5): expected collective time of the naïve algorithm,
    /// `S · L · E[t_r(naïve)]`.
    pub fn naive_time(&self, m: usize) -> f64 {
        (self.s * self.l) as f64 * self.naive_rank_time(m)
    }

    /// Eq. (6): expected off-socket (halving-phase) time per rank. The
    /// buffer doubles every step (worst case), so
    /// `E[n_off]·α + (2^(E[n_off]+1) − 1)·m/β`.
    pub fn dh_off_socket_time(&self, m: usize) -> f64 {
        let n_off = self.expected_off_socket_msgs();
        n_off * self.alpha + ((2f64.powf(n_off + 1.0) - 1.0) * m as f64) / self.beta
    }

    /// Eq. (7): expected intra-socket time per rank,
    /// `E[n_in] (α + E[m_in]/β)`, at block size `m` (see
    /// [`expected_intra_socket_bytes`](Self::expected_intra_socket_bytes)
    /// for the variable-size reading).
    pub fn dh_intra_socket_time(&self, m: f64) -> f64 {
        let n_in = self.expected_intra_socket_msgs();
        n_in * self.t(self.expected_intra_socket_bytes(m))
    }

    /// Eq. (8): expected collective time of Distance Halving,
    /// `2 S L (E[t_off] + E[t_in])`.
    pub fn dh_time(&self, m: usize) -> f64 {
        2.0 * (self.s * self.l) as f64
            * (self.dh_off_socket_time(m) + self.dh_intra_socket_time(m as f64))
    }
}

/// One row of the Fig. 2 model comparison.
#[derive(Clone, Copy, Debug)]
pub struct ModelPoint {
    /// Density δ.
    pub delta: f64,
    /// Message size (bytes).
    pub m: usize,
    /// Eq. (5) naïve prediction (seconds).
    pub naive: f64,
    /// Eq. (8) Distance Halving prediction (seconds).
    pub dh: f64,
}

/// Generates the Fig. 2 model sweep: naïve vs DH predictions over message
/// sizes × densities at a fixed scale.
pub fn fig2_sweep(n: usize, deltas: &[f64], msg_sizes: &[usize]) -> Vec<ModelPoint> {
    let mut out = Vec::with_capacity(deltas.len() * msg_sizes.len());
    for &delta in deltas {
        let p = ModelParams::niagara(n, delta);
        for &m in msg_sizes {
            out.push(ModelPoint { delta, m, naive: p.naive_time(m), dh: p.dh_time(m) });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: usize, delta: f64, l: usize) -> ModelParams {
        ModelParams { n, s: 2, l, delta, alpha: 1e-6, beta: 1e10 }
    }

    #[test]
    fn halving_step_count_formula() {
        assert_eq!(p(2000, 0.3, 20).halving_steps(), 8); // ⌈log2(100)⌉+1 = 7+1
        assert_eq!(p(2160, 0.3, 18).halving_steps(), 8); // ⌈log2(120)⌉+1
        assert_eq!(p(16, 0.3, 16).halving_steps(), 0); // fits one socket
        assert_eq!(p(32, 0.3, 16).halving_steps(), 2); // ⌈log2 2⌉+1
    }

    #[test]
    fn off_socket_msgs_clamped_by_sparsity() {
        // dense: limited by the number of steps
        assert!((p(2000, 0.3, 20).expected_off_socket_msgs() - 8.0).abs() < 1e-12);
        // ultra sparse: limited by δ(n−L)
        let sparse = p(2000, 0.001, 20);
        assert!((sparse.expected_off_socket_msgs() - 0.001 * 1980.0).abs() < 1e-12);
        // δ = 0: nothing to send
        assert_eq!(p(2000, 0.0, 20).expected_off_socket_msgs(), 0.0);
    }

    #[test]
    fn intra_socket_msgs_bounded_by_l() {
        for delta in [0.0, 0.05, 0.3, 0.7, 1.0] {
            let v = p(2000, delta, 20).expected_intra_socket_msgs();
            assert!((0.0..=20.0).contains(&v), "delta={delta} v={v}");
        }
        // worst case: δ = 1 → exactly L
        assert!((p(2000, 1.0, 20).expected_intra_socket_msgs() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn byte_weighted_mean_block_size() {
        // uniform table: both metrics agree with the scalar m
        let u = BlockSizes::uniform(64);
        assert_eq!(mean_block_bytes(&u, 10, LoadMetric::Neighbors), 64.0);
        assert_eq!(mean_block_bytes(&u, 10, LoadMetric::Bytes), 64.0);
        let params = p(10, 0.3, 2);
        for metric in [LoadMetric::Neighbors, LoadMetric::Bytes] {
            assert_eq!(
                params.expected_intra_socket_bytes(mean_block_bytes(&u, 10, metric)),
                params.expected_intra_socket_bytes(64.0)
            );
        }
        // ragged table: size-biased mean strictly exceeds the plain mean
        let r = BlockSizes::per_rank(vec![0, 8, 8, 8, 8, 8, 8, 8, 8, 1024]);
        let plain = mean_block_bytes(&r, 10, LoadMetric::Neighbors);
        let biased = mean_block_bytes(&r, 10, LoadMetric::Bytes);
        assert!((plain - 1088.0 / 10.0).abs() < 1e-9);
        assert!(biased > plain, "size-biased {biased} must exceed plain {plain}");
        assert!(params.dh_intra_socket_time(biased) >= params.dh_intra_socket_time(plain));
        // degenerate inputs
        assert_eq!(mean_block_bytes(&r, 0, LoadMetric::Bytes), 0.0);
        assert_eq!(mean_block_bytes(&BlockSizes::uniform(0), 4, LoadMetric::Bytes), 0.0);
    }

    #[test]
    fn model_is_monotone_in_message_size() {
        let params = p(2160, 0.3, 18);
        let mut last_naive = 0.0;
        let mut last_dh = 0.0;
        for m in [8usize, 64, 1024, 65536, 1 << 22] {
            let nv = params.naive_time(m);
            let dh = params.dh_time(m);
            assert!(nv > last_naive);
            assert!(dh > last_dh);
            last_naive = nv;
            last_dh = dh;
        }
    }

    #[test]
    fn dh_wins_small_messages_loses_huge_ones() {
        // The crossover the paper's Fig. 2 shows: DH is far ahead for
        // small m on dense graphs, and the doubling buffer erodes the
        // advantage as m grows.
        let params = ModelParams::niagara(2160, 0.5);
        let speedup = |m| params.naive_time(m) / params.dh_time(m);
        assert!(speedup(32) > 5.0, "speedup at 32B: {}", speedup(32));
        assert!(speedup(32) > speedup(1 << 22), "speedup must shrink with message size");
    }

    #[test]
    fn speedup_grows_with_density_for_small_messages() {
        let m = 64;
        let speedup = |p: ModelParams| p.naive_time(m) / p.dh_time(m);
        let s_sparse = speedup(ModelParams::niagara(2160, 0.05));
        let s_dense = speedup(ModelParams::niagara(2160, 0.7));
        assert!(s_dense > s_sparse, "dense {s_dense} should beat sparse {s_sparse}");
    }

    #[test]
    fn worked_example_message_counts() {
        // §V example: n = 2000, 50 nodes × 2 sockets × 20 cores, δ = 0.3.
        // The paper quotes "23 (7 off-socket + 16 intra-socket)" vs 600
        // for naive; the printed formulas give 8 off-socket and ~20
        // intra-socket — close, and the naive count matches exactly.
        let params = p(2000, 0.3, 20);
        let naive_msgs = params.delta * params.n as f64;
        assert!((naive_msgs - 600.0).abs() < 1e-9);
        let dh_msgs = params.expected_off_socket_msgs() + params.expected_intra_socket_msgs();
        assert!(dh_msgs < 30.0, "DH sends ~{dh_msgs} messages, naive 600");
    }

    #[test]
    fn fig2_sweep_shape() {
        let pts = fig2_sweep(2160, &[0.05, 0.3], &[8, 1024]);
        assert_eq!(pts.len(), 4);
        for pt in &pts {
            assert!(pt.naive > 0.0 && pt.dh > 0.0);
        }
        // dense small-message point favours DH
        let dense_small = pts.iter().find(|p| p.delta == 0.3 && p.m == 8).unwrap();
        assert!(dense_small.naive > dense_small.dh);
    }
}
