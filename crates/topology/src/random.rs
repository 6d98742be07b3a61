//! Erdős–Rényi random sparse graph workloads.
//!
//! The paper's Random Sparse Graph micro-benchmark (Figs. 4, 5, 8) draws a
//! directed G(n, δ) graph: every ordered pair `(i, j)`, `i ≠ j`, is an edge
//! independently with probability δ. The same model is used by the Common
//! Neighbor line of work the paper compares against.

use crate::graph::{Rank, Topology};
use crate::rng::DetRng;

/// Generates a directed Erdős–Rényi graph G(n, δ), seeded and reproducible.
///
/// Every ordered pair `(i, j)` with `i ≠ j` becomes an edge with independent
/// probability `delta`. For sparse graphs (δ < 0.1) a geometric skip
/// sampler is used so generation is O(edges) rather than O(n²).
///
/// # Panics
/// Panics unless `0.0 <= delta <= 1.0`.
pub fn erdos_renyi(n: usize, delta: f64, seed: u64) -> Topology {
    assert!((0.0..=1.0).contains(&delta), "delta must be in [0, 1], got {delta}");
    let mut rng = DetRng::seed_from_u64(seed);
    if delta == 0.0 || n < 2 {
        return Topology::from_edges(n, []);
    }
    if delta == 1.0 {
        let edges = (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)));
        return Topology::from_edges(n, edges);
    }

    let mut edges: Vec<(Rank, Rank)> = Vec::with_capacity((delta * (n * n) as f64) as usize);
    if delta < 0.1 {
        // Geometric skipping over the n*(n-1) candidate slots.
        let total = n as u64 * (n as u64 - 1);
        let log_q = (1.0 - delta).ln();
        let mut slot: u64 = 0;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let skip = (u.ln() / log_q).floor() as u64;
            slot = match slot.checked_add(skip) {
                Some(s) => s,
                None => break,
            };
            if slot >= total {
                break;
            }
            let i = (slot / (n as u64 - 1)) as usize;
            let mut j = (slot % (n as u64 - 1)) as usize;
            if j >= i {
                j += 1; // skip the diagonal
            }
            edges.push((i, j));
            slot += 1;
        }
    } else {
        for i in 0..n {
            for j in 0..n {
                if i != j && rng.gen_f64() < delta {
                    edges.push((i, j));
                }
            }
        }
    }
    Topology::from_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = erdos_renyi(100, 0.3, 42);
        let b = erdos_renyi(100, 0.3, 42);
        assert_eq!(a, b);
        let c = erdos_renyi(100, 0.3, 43);
        assert_ne!(a, c, "different seed should (overwhelmingly) differ");
    }

    #[test]
    fn extreme_densities() {
        let empty = erdos_renyi(50, 0.0, 1);
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi(20, 1.0, 1);
        assert_eq!(full.edge_count(), 20 * 19);
        assert!(full.is_symmetric());
    }

    #[test]
    fn density_concentrates_near_delta() {
        for &delta in &[0.05, 0.1, 0.3, 0.7] {
            let g = erdos_renyi(400, delta, 7);
            let got = g.density();
            // n(n-1) ≈ 160k Bernoulli trials: 4-sigma window.
            let sigma = (delta * (1.0 - delta) / (400.0 * 399.0)).sqrt();
            assert!(
                (got - delta).abs() < 4.0 * sigma + 1e-9,
                "delta={delta} got={got} sigma={sigma}"
            );
        }
    }

    #[test]
    fn sparse_path_matches_density_too() {
        // Exercises the geometric-skip sampler specifically.
        let g = erdos_renyi(1000, 0.01, 99);
        let got = g.density();
        assert!((got - 0.01).abs() < 0.002, "got {got}");
        // No self-loops slipped through index fix-up.
        for (s, d) in g.edges() {
            assert_ne!(s, d);
        }
    }

    #[test]
    fn tiny_communicators() {
        assert_eq!(erdos_renyi(0, 0.5, 1).n(), 0);
        assert_eq!(erdos_renyi(1, 0.5, 1).edge_count(), 0);
    }
}
