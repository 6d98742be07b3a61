//! Moore neighborhoods on d-dimensional periodic grids.
//!
//! The Moore micro-benchmark (Fig. 6) places ranks on a d-dimensional grid
//! and connects each rank to every rank within Chebyshev distance `r`
//! (wrapping at the grid boundary), giving each rank exactly
//! `(2r+1)^d − 1` neighbors. The topology is symmetric and, unlike the
//! Erdős–Rényi workloads, strongly clustered: a rank's neighbors are
//! *near it in rank order*, which is exactly the structure Distance
//! Halving exploits.

use crate::graph::{Rank, Topology};

/// A Moore-neighborhood specification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MooreSpec {
    /// Chebyshev radius.
    pub r: usize,
    /// Grid dimensionality.
    pub d: usize,
}

impl MooreSpec {
    /// Number of neighbors of every rank: `(2r+1)^d − 1`.
    pub fn neighbor_count(&self) -> usize {
        (2 * self.r + 1).pow(self.d as u32) - 1
    }
}

/// Computes grid side lengths for `n` ranks on a `d`-dimensional grid.
///
/// Dimensions are chosen as equal as possible (their product must equal
/// `n`); returns `None` if `n` has no such factorisation with every side
/// `> 2r` (sides must exceed the neighborhood diameter so that wrapped
/// neighbors are distinct).
pub fn grid_dims(n: usize, spec: MooreSpec) -> Option<Vec<usize>> {
    fn search(n: usize, d: usize, min_side: usize, start: usize) -> Option<Vec<usize>> {
        if d == 1 {
            return (n >= min_side && n >= start).then(|| vec![n]);
        }
        // Try sides close to the d-th root first for near-cubic grids.
        let root = (n as f64).powf(1.0 / d as f64).round() as usize;
        let mut candidates: Vec<usize> =
            (min_side.max(start)..=n).filter(|s| n.is_multiple_of(*s)).collect();
        candidates.sort_by_key(|&s| s.abs_diff(root));
        for s in candidates {
            if let Some(mut rest) = search(n / s, d - 1, min_side, s) {
                rest.insert(0, s);
                return Some(rest);
            }
        }
        None
    }
    if n == 0 || spec.d == 0 {
        return None;
    }
    let min_side = 2 * spec.r + 1;
    search(n, spec.d, min_side, 1).map(|mut dims| {
        dims.sort_unstable();
        dims
    })
}

/// `n` cannot be factored into a `d`-dimensional grid with every side
/// `> 2r` — the typed form of what used to be a panic, so callers fed a
/// bad spec (e.g. from the CLI) can report instead of aborting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoGridError {
    /// The requested rank count.
    pub n: usize,
    /// The spec that has no valid grid for `n`.
    pub spec: MooreSpec,
}

impl std::fmt::Display for NoGridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n={} has no {}-D grid with sides > {}", self.n, self.spec.d, 2 * self.spec.r)
    }
}

impl std::error::Error for NoGridError {}

/// Builds a Moore-neighborhood topology for `n` ranks, reporting a typed
/// error when no valid grid exists.
///
/// Ranks are laid out on the grid in row-major order (last dimension
/// fastest), which is the natural MPI Cartesian order; grid wrap-around is
/// periodic in every dimension.
pub fn try_moore(n: usize, spec: MooreSpec) -> Result<Topology, NoGridError> {
    let dims = grid_dims(n, spec).ok_or(NoGridError { n, spec })?;
    Ok(moore_on_grid(&dims, spec.r))
}

/// Builds a Moore-neighborhood topology for `n` ranks.
///
/// # Panics
/// Panics if `n` cannot be factored into a `d`-dimensional grid with every
/// side `> 2r` (use [`try_moore`] or [`grid_dims`] for the typed form).
pub fn moore(n: usize, spec: MooreSpec) -> Topology {
    try_moore(n, spec).unwrap_or_else(|e| panic!("{e}"))
}

/// Builds a Moore-neighborhood topology on an explicit grid.
///
/// # Panics
/// Panics if any side is `<= 2r` (wrapped neighbors would collide).
pub fn moore_on_grid(dims: &[usize], r: usize) -> Topology {
    periodic_grid(dims, r, |_| true)
}

/// The one periodic-grid walk behind the Moore, von Neumann and torus
/// generators: every rank of the grid `dims` (row-major, last dimension
/// fastest) links to the ranks at each offset of `[-r, r]^d` other than
/// the origin that `keep` accepts, wrapping in every dimension.
///
/// # Panics
/// Panics if `dims` is empty or any side is `<= 2r` (wrapped neighbors
/// would collide).
pub(crate) fn periodic_grid(dims: &[usize], r: usize, keep: impl Fn(&[isize]) -> bool) -> Topology {
    assert!(!dims.is_empty(), "need at least one dimension");
    for &s in dims {
        assert!(s > 2 * r, "grid side {s} must exceed 2r = {}", 2 * r);
    }
    let n: usize = dims.iter().product();
    let d = dims.len();
    let r = r as isize;
    let mut offsets: Vec<Vec<isize>> = vec![vec![]];
    for _ in 0..d {
        let longer = |o: &Vec<isize>| (-r..=r).map(|x| [&o[..], &[x]].concat()).collect::<Vec<_>>();
        offsets = offsets.iter().flat_map(longer).collect();
    }
    offsets.retain(|o| o.iter().any(|&x| x != 0) && keep(o));

    let mut edges: Vec<(Rank, Rank)> = Vec::with_capacity(offsets.len() * n);
    let mut coord = vec![0usize; d];
    for p in 0..n {
        let mut rem = p;
        for k in (0..d).rev() {
            coord[k] = rem % dims[k];
            rem /= dims[k];
        }
        for o in &offsets {
            let wrapped = |k: usize| (coord[k] as isize + o[k]).rem_euclid(dims[k] as isize);
            edges.push((p, (0..d).fold(0, |q, k| q * dims[k] + wrapped(k) as usize)));
        }
    }
    Topology::from_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_count_formula() {
        assert_eq!(MooreSpec { r: 1, d: 2 }.neighbor_count(), 8);
        assert_eq!(MooreSpec { r: 2, d: 2 }.neighbor_count(), 24);
        assert_eq!(MooreSpec { r: 1, d: 3 }.neighbor_count(), 26);
        assert_eq!(MooreSpec { r: 3, d: 2 }.neighbor_count(), 48);
        assert_eq!(MooreSpec { r: 2, d: 3 }.neighbor_count(), 124);
    }

    #[test]
    fn grid_dims_factorisation() {
        assert_eq!(grid_dims(2048, MooreSpec { r: 1, d: 2 }), Some(vec![32, 64]));
        assert_eq!(grid_dims(64, MooreSpec { r: 1, d: 3 }), Some(vec![4, 4, 4]));
        assert_eq!(grid_dims(2048, MooreSpec { r: 1, d: 3 }), Some(vec![8, 16, 16]));
        // 2048 = 2^11 has no 2-D factorisation with both sides > 44.
        assert_eq!(grid_dims(2048, MooreSpec { r: 22, d: 2 }), None);
        assert_eq!(grid_dims(0, MooreSpec { r: 1, d: 2 }), None);
    }

    #[test]
    fn every_rank_has_exact_degree() {
        for (spec, n) in [
            (MooreSpec { r: 1, d: 2 }, 36),
            (MooreSpec { r: 2, d: 2 }, 64),
            (MooreSpec { r: 1, d: 3 }, 125),
        ] {
            let g = moore(n, spec);
            let want = spec.neighbor_count();
            for p in 0..n {
                assert_eq!(g.outdegree(p), want, "spec={spec:?} rank={p}");
                assert_eq!(g.indegree(p), want);
            }
        }
    }

    #[test]
    fn moore_is_symmetric() {
        let g = moore(64, MooreSpec { r: 1, d: 2 });
        assert!(g.is_symmetric());
        let g3 = moore(216, MooreSpec { r: 1, d: 3 });
        assert!(g3.is_symmetric());
    }

    #[test]
    fn r1_d1_is_a_ring() {
        let g = moore_on_grid(&[8], 1);
        for p in 0..8 {
            let l = (p + 7) % 8;
            let rr = (p + 1) % 8;
            let mut want = [l, rr];
            want.sort_unstable();
            assert_eq!(g.out_neighbors(p), &want);
        }
    }

    #[test]
    fn wraparound_2d() {
        // 5x5 grid, r=1: corner rank 0 must reach the far corner 24.
        let g = moore_on_grid(&[5, 5], 1);
        assert!(g.has_edge(0, 24));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 5));
        assert!(g.has_edge(0, 6));
        assert!(g.has_edge(0, 4)); // wrap in last dim
        assert!(g.has_edge(0, 20)); // wrap in first dim
        assert!(!g.has_edge(0, 12));
    }

    #[test]
    fn side_exactly_min_ok() {
        // side 3 > 2*1 holds; degree is full 8 on a 3x3 torus.
        let g = moore_on_grid(&[3, 3], 1);
        for p in 0..9 {
            assert_eq!(g.outdegree(p), 8);
        }
    }

    #[test]
    #[should_panic(expected = "must exceed 2r")]
    fn radius_too_large_for_side() {
        moore_on_grid(&[4, 4], 2);
    }

    #[test]
    fn try_moore_reports_typed_error() {
        // 2048 = 2^11 has no 2-D factorisation with both sides > 44.
        let spec = MooreSpec { r: 22, d: 2 };
        let err = try_moore(2048, spec).unwrap_err();
        assert_eq!(err, NoGridError { n: 2048, spec });
        assert_eq!(err.to_string(), "n=2048 has no 2-D grid with sides > 44");
        assert!(try_moore(64, MooreSpec { r: 1, d: 2 }).is_ok());
    }

    #[test]
    fn locality_in_rank_space() {
        // On a 2-D grid most Moore neighbors are within one row of the
        // rank, i.e. close in rank order — the property DH exploits.
        let g = moore_on_grid(&[16, 16], 1);
        let near = (0..256)
            .flat_map(|p| g.out_neighbors(p).iter().map(move |&q| (p, q)))
            .filter(|&(p, q)| p.abs_diff(q) <= 17)
            .count();
        let total = g.edge_count();
        assert!(near * 10 >= total * 7, "{near}/{total} edges are near-diagonal");
    }
}
