//! d-dimensional torus topologies: the 100k-rank stress workload.
//!
//! A `d`-dimensional torus of side `k` places `k^d` ranks on a periodic
//! grid and connects each rank to its `2d` von Neumann neighbors (±1
//! along every axis, wrapping at the boundary). Unlike the Moore
//! neighborhoods of [`crate::moore`] — whose degree `(2r+1)^d − 1` grows
//! exponentially in `d` — the torus degree is *linear* in `d`, which is
//! what makes it the right fixed-degree workload for scale benchmarks:
//! doubling `n` (by growing `k`) keeps the edge count per rank constant,
//! so memory gates can compare peak RSS across scales at matched
//! edges-per-rank. The coordinate arithmetic follows the row-major
//! (last-dimension-fastest) MPI Cartesian convention shared with
//! [`crate::moore::moore_on_grid`].

use crate::graph::Topology;

/// A torus specification: `d` dimensions of side `k` (`n = k^d` ranks,
/// degree `2d`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TorusSpec {
    /// Number of dimensions (≥ 1).
    pub d: usize,
    /// Side length of every dimension (≥ 3, so the ±1 neighbors along an
    /// axis are distinct ranks).
    pub k: usize,
}

impl TorusSpec {
    /// Number of ranks, `k^d`; `None` when it overflows `usize`.
    pub fn n(&self) -> Option<usize> {
        self.k.checked_pow(self.d as u32)
    }

    /// Degree of every rank, `2d`.
    pub fn degree(&self) -> usize {
        2 * self.d
    }
}

/// The spec cannot be realised: a dimension count of zero, a side too
/// short for distinct ±1 neighbors, or an `n = k^d` beyond `usize`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BadTorusError {
    /// The offending spec.
    pub spec: TorusSpec,
}

impl std::fmt::Display for BadTorusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let TorusSpec { d, k } = self.spec;
        write!(f, "torus d={d} k={k} is invalid (need d >= 1, k >= 3, k^d in range)")
    }
}

impl std::error::Error for BadTorusError {}

/// Builds the `d`-dimensional torus of side `k`, reporting a typed error
/// for unrealisable specs.
pub fn try_torus(spec: TorusSpec) -> Result<Topology, BadTorusError> {
    if spec.d == 0 || spec.k < 3 || spec.n().is_none() {
        return Err(BadTorusError { spec });
    }
    Ok(torus_on_grid(&vec![spec.k; spec.d]))
}

/// Builds the `d`-dimensional torus of side `k`.
///
/// # Panics
/// Panics if the spec is unrealisable (use [`try_torus`] for the typed
/// form).
pub fn torus(spec: TorusSpec) -> Topology {
    try_torus(spec).unwrap_or_else(|e| panic!("{e}"))
}

/// Builds a torus on an explicit (possibly non-cubic) grid: ±1 neighbors
/// along every axis, periodic in every dimension — the von Neumann
/// stencil of radius 1 ([`crate::stencil::von_neumann_on_grid`]).
///
/// # Panics
/// Panics if `dims` is empty or any side is `< 3`.
pub fn torus_on_grid(dims: &[usize]) -> Topology {
    assert!(!dims.is_empty(), "need at least one dimension");
    for &s in dims {
        assert!(s >= 3, "torus side {s} must be >= 3 for distinct +/-1 neighbors");
    }
    crate::stencil::von_neumann_on_grid(dims, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_arithmetic() {
        assert_eq!(TorusSpec { d: 3, k: 10 }.n(), Some(1000));
        assert_eq!(TorusSpec { d: 2, k: 316 }.n(), Some(99856));
        assert_eq!(TorusSpec { d: 3, k: 10 }.degree(), 6);
        assert!(TorusSpec { d: 64, k: 1000 }.n().is_none());
    }

    #[test]
    fn rejects_bad_specs() {
        for spec in
            [TorusSpec { d: 0, k: 5 }, TorusSpec { d: 2, k: 2 }, TorusSpec { d: 64, k: 1000 }]
        {
            let err = try_torus(spec).unwrap_err();
            assert_eq!(err.spec, spec);
            assert!(err.to_string().contains("invalid"));
        }
    }

    #[test]
    fn every_rank_has_degree_2d() {
        for spec in [TorusSpec { d: 1, k: 7 }, TorusSpec { d: 2, k: 5 }, TorusSpec { d: 3, k: 4 }] {
            let g = torus(spec);
            assert_eq!(g.n(), spec.n().unwrap());
            for p in 0..g.n() {
                assert_eq!(g.outdegree(p), spec.degree(), "{spec:?} rank {p}");
                assert_eq!(g.indegree(p), spec.degree());
            }
        }
    }

    #[test]
    fn torus_is_symmetric() {
        assert!(torus(TorusSpec { d: 2, k: 6 }).is_symmetric());
        assert!(torus(TorusSpec { d: 3, k: 4 }).is_symmetric());
    }

    #[test]
    fn d1_is_a_ring_matching_moore_r1() {
        let g = torus_on_grid(&[9]);
        let m = crate::moore::moore_on_grid(&[9], 1);
        for p in 0..9 {
            assert_eq!(g.out_neighbors(p), m.out_neighbors(p), "rank {p}");
        }
    }

    #[test]
    fn the_torus_is_the_radius_one_von_neumann_stencil() {
        // the explicit walk: ±1 along each axis, wrapped, by row-major strides
        let walk = |dims: &[usize]| {
            let n: usize = dims.iter().product();
            let stride = |k: usize| dims[k + 1..].iter().product::<usize>();
            let edges = (0..n).flat_map(|p| {
                (0..dims.len()).flat_map(move |k| {
                    let (side, c) = (dims[k], p / stride(k) % dims[k]);
                    let base = p - c * stride(k);
                    [(c + 1) % side, (c + side - 1) % side].map(|x| (p, base + x * stride(k)))
                })
            });
            Topology::from_edges(n, edges)
        };
        let grids: [&[usize]; 7] =
            [&[3], &[9], &[4, 4], &[6, 7], &[3, 5, 4], &[4, 4, 4], &[316, 316]];
        for dims in grids {
            let vn = crate::stencil::von_neumann_on_grid(dims, 1);
            assert!(vn.edges().eq(walk(dims).edges()), "{dims:?}");
            assert!(torus_on_grid(dims).edges().eq(vn.edges()), "{dims:?}");
            assert_eq!(vn.edge_count(), 2 * dims.len() * vn.n(), "{dims:?}");
        }
    }

    #[test]
    fn wraparound_2d_neighbors() {
        // 4x4 torus: rank 0 = (0,0) touches (0,1)=1, (0,3)=3, (1,0)=4, (3,0)=12.
        let g = torus_on_grid(&[4, 4]);
        let mut got = g.out_neighbors(0).to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 4, 12]);
        // interior rank 5 = (1,1): (1,0)=4, (1,2)=6, (0,1)=1, (2,1)=9
        let mut got = g.out_neighbors(5).to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![1, 4, 6, 9]);
    }

    #[test]
    fn non_cubic_grid_ok() {
        let g = torus_on_grid(&[3, 5, 4]);
        assert_eq!(g.n(), 60);
        for p in 0..60 {
            assert_eq!(g.outdegree(p), 6);
        }
        assert!(g.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "must be >= 3")]
    fn side_two_panics() {
        torus_on_grid(&[2, 4]);
    }
}
