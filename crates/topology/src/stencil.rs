//! Von Neumann (cross-shaped) stencil neighborhoods — the other classic
//! structured pattern next to [`crate::moore`]. A rank on a d-dimensional
//! periodic grid communicates with every rank within *Manhattan* distance
//! `r`, giving sparser neighborhoods than the Moore (Chebyshev) ball at
//! the same radius: `2dr` neighbors at `r = 1`.

use crate::graph::Topology;
use crate::moore::periodic_grid;

/// Number of lattice points at Manhattan distance `1..=r` from the
/// origin in `d` dimensions (the von Neumann neighborhood size).
pub fn von_neumann_count(r: usize, d: usize) -> usize {
    // count points with |x1|+..+|xd| <= r, minus the origin
    fn ball(r: isize, d: usize) -> isize {
        if d == 0 {
            return 1;
        }
        let mut total = 0;
        for x in -r..=r {
            total += ball(r - x.abs(), d - 1);
        }
        total
    }
    (ball(r as isize, d) - 1) as usize
}

/// Builds a von Neumann stencil topology on an explicit periodic grid.
///
/// # Panics
/// Panics if any side is `<= 2r` (wrapped neighbors would collide).
pub fn von_neumann_on_grid(dims: &[usize], r: usize) -> Topology {
    periodic_grid(dims, r, |o| o.iter().map(|x| x.unsigned_abs()).sum::<usize>() <= r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighborhood_sizes() {
        assert_eq!(von_neumann_count(1, 2), 4);
        assert_eq!(von_neumann_count(1, 3), 6);
        assert_eq!(von_neumann_count(2, 2), 12);
        assert_eq!(von_neumann_count(2, 3), 24);
        assert_eq!(von_neumann_count(1, 1), 2);
    }

    #[test]
    fn degrees_match_formula() {
        for (dims, r) in [(vec![8usize, 8], 1), (vec![8, 8], 2), (vec![5, 5, 5], 1)] {
            let g = von_neumann_on_grid(&dims, r);
            let want = von_neumann_count(r, dims.len());
            for p in 0..g.n() {
                assert_eq!(g.outdegree(p), want, "dims={dims:?} r={r} rank={p}");
            }
            assert!(g.is_symmetric());
        }
    }

    #[test]
    fn von_neumann_is_subset_of_moore() {
        let vn = von_neumann_on_grid(&[9, 9], 2);
        let mo = crate::moore::moore_on_grid(&[9, 9], 2);
        for (s, t) in vn.edges() {
            assert!(mo.has_edge(s, t), "({s},{t}) in von Neumann but not Moore");
        }
        assert!(vn.edge_count() < mo.edge_count());
    }

    #[test]
    fn r1_2d_is_the_plus_stencil() {
        let g = von_neumann_on_grid(&[4, 4], 1);
        // rank 5 = (1,1): neighbors (0,1)=1, (2,1)=9, (1,0)=4, (1,2)=6
        let mut want = [1usize, 9, 4, 6];
        want.sort_unstable();
        assert_eq!(g.out_neighbors(5), &want[..]);
    }

    #[test]
    #[should_panic(expected = "must exceed 2r")]
    fn small_grid_rejected() {
        von_neumann_on_grid(&[4, 4], 2);
    }
}
