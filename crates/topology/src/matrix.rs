//! Sparse matrices: COO/CSR storage and seeded synthetic generators.
//!
//! The SpMM experiment (Fig. 7 / Table II) derives its neighborhood
//! topology from the block sparsity structure of matrices from the
//! SuiteSparse collection. Those files are not redistributable here, so
//! [`generators`] provides seeded synthetic replicas matching each
//! matrix's dimensions, nonzero count and structure class (banded /
//! dense-ish / block) — see `DESIGN.md` §2 for the substitution argument.
//! No path reads a matrix file, so the crate has no Matrix Market
//! reader.

use crate::rng::DetRng;

/// A sparse matrix in Compressed Sparse Row form.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_offsets: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from COO triplets. Duplicate entries are summed;
    /// explicit zeros are kept (they still shape the communication graph,
    /// matching MPI practice where structure, not value, drives messaging).
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn from_coo(rows: usize, cols: usize, mut entries: Vec<(usize, usize, f64)>) -> Self {
        for &(r, c, _) in &entries {
            assert!(r < rows && c < cols, "entry ({r},{c}) out of {rows}x{cols}");
        }
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_offsets = vec![0usize; rows + 1];
        let mut col_indices = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        let mut prev: Option<(usize, usize)> = None;
        for (r, c, v) in entries {
            if prev == Some((r, c)) {
                *values.last_mut().expect("prev entry exists") += v;
                continue;
            }
            col_indices.push(c);
            values.push(v);
            row_offsets[r + 1] = col_indices.len();
            prev = Some((r, c));
        }
        // Fill gaps for empty trailing rows / rows between entries.
        for r in 1..=rows {
            if row_offsets[r] < row_offsets[r - 1] {
                row_offsets[r] = row_offsets[r - 1];
            }
        }
        Self { rows, cols, row_offsets, col_indices, values }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_indices.len()
    }

    /// Column indices of row `r`, sorted ascending.
    #[inline]
    pub fn row_cols(&self, r: usize) -> &[usize] {
        &self.col_indices[self.row_offsets[r]..self.row_offsets[r + 1]]
    }

    /// Values of row `r`, parallel to [`row_cols`](Self::row_cols).
    #[inline]
    pub fn row_values(&self, r: usize) -> &[f64] {
        &self.values[self.row_offsets[r]..self.row_offsets[r + 1]]
    }

    /// Iterates `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            self.row_cols(r).iter().zip(self.row_values(r)).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Fraction of cells that are stored.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> CsrMatrix {
        let entries = self.iter().map(|(r, c, v)| (c, r, v)).collect();
        CsrMatrix::from_coo(self.cols, self.rows, entries)
    }

    /// Sparse general matrix-matrix multiply (Gustavson's algorithm):
    /// `self × rhs`.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn multiply(&self, rhs: &CsrMatrix) -> CsrMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "dimension mismatch: {}x{} times {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut row_offsets = Vec::with_capacity(self.rows + 1);
        let mut col_indices = Vec::new();
        let mut values = Vec::new();
        row_offsets.push(0);
        // Dense accumulator, reset per row via the touched-columns list.
        let mut acc = vec![0.0f64; rhs.cols];
        let mut is_touched = vec![false; rhs.cols];
        let mut touched: Vec<usize> = Vec::new();
        for r in 0..self.rows {
            touched.clear();
            for (&k, &xv) in self.row_cols(r).iter().zip(self.row_values(r)) {
                for (&c, &yv) in rhs.row_cols(k).iter().zip(rhs.row_values(k)) {
                    if !is_touched[c] {
                        is_touched[c] = true;
                        touched.push(c);
                    }
                    acc[c] += xv * yv;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                col_indices.push(c);
                values.push(acc[c]);
                acc[c] = 0.0;
                is_touched[c] = false;
            }
            row_offsets.push(col_indices.len());
        }
        CsrMatrix { rows: self.rows, cols: rhs.cols, row_offsets, col_indices, values }
    }

    /// Max absolute element-wise difference, treating missing entries as 0.
    pub fn max_abs_diff(&self, other: &CsrMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut dense: std::collections::HashMap<(usize, usize), f64> =
            self.iter().map(|(r, c, v)| ((r, c), v)).collect();
        let mut max = 0.0f64;
        for (r, c, v) in other.iter() {
            let d = (dense.remove(&(r, c)).unwrap_or(0.0) - v).abs();
            max = max.max(d);
        }
        for (_, v) in dense {
            max = max.max(v.abs());
        }
        max
    }
}

/// Seeded synthetic matrix generators and the Table II replica set.
pub mod generators {
    use super::*;

    /// Structure class of a synthetic matrix, mirroring the dominant
    /// sparsity pattern of its SuiteSparse counterpart.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum StructureClass {
        /// Nonzeros concentrated in a diagonal band (FE/structural
        /// matrices such as `dwt_193`, `bcsstk13`, `cegb2802`, `comsol`).
        Banded {
            /// Half bandwidth; entries satisfy `|r - c| <= half_bandwidth`.
            half_bandwidth: usize,
        },
        /// Nonzeros spread uniformly (economics/graph matrices such as
        /// `Journals`, `ash292`).
        Uniform,
        /// Dense diagonal blocks plus sparse coupling (`Heart1`).
        BlockDense {
            /// Size of each dense diagonal block.
            block: usize,
        },
    }

    /// Generates a symmetric n×n matrix with roughly `target_nnz` stored
    /// entries following the given structure class. A full diagonal is
    /// always present (keeps the SpMM topology connected to itself and
    /// matches the FE matrices in Table II).
    pub fn synth_symmetric(
        n: usize,
        target_nnz: usize,
        class: StructureClass,
        seed: u64,
    ) -> CsrMatrix {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut entries: Vec<(usize, usize, f64)> = Vec::with_capacity(target_nnz + n);
        for i in 0..n {
            entries.push((i, i, 4.0 + rng.gen_f64()));
        }
        // Remaining off-diagonal budget, added in mirrored pairs.
        let budget = target_nnz.saturating_sub(n) / 2;
        let mut added = std::collections::HashSet::new();
        let mut tries = 0usize;
        while added.len() < budget && tries < budget * 50 {
            tries += 1;
            let (r, c) = match class {
                StructureClass::Banded { half_bandwidth } => {
                    let r = rng.gen_range(0..n);
                    let lo = r.saturating_sub(half_bandwidth);
                    let hi = (r + half_bandwidth).min(n - 1);
                    let c = rng.gen_range(lo..=hi);
                    (r, c)
                }
                StructureClass::Uniform => (rng.gen_range(0..n), rng.gen_range(0..n)),
                StructureClass::BlockDense { block } => {
                    if rng.gen_f64() < 0.9 {
                        // in-block entry
                        let b = rng.gen_range(0..n.div_ceil(block));
                        let lo = b * block;
                        let hi = ((b + 1) * block).min(n) - 1;
                        (rng.gen_range(lo..=hi), rng.gen_range(lo..=hi))
                    } else {
                        (rng.gen_range(0..n), rng.gen_range(0..n))
                    }
                }
            };
            if r == c {
                continue;
            }
            let key = (r.min(c), r.max(c));
            if added.insert(key) {
                let v = rng.gen_range(-1.0..1.0);
                entries.push((key.0, key.1, v));
                entries.push((key.1, key.0, v));
            }
        }
        CsrMatrix::from_coo(n, n, entries)
    }

    /// Description of one Table II matrix and its synthetic stand-in.
    #[derive(Clone, Copy, Debug)]
    pub struct Table2Entry {
        /// SuiteSparse name as printed in the paper.
        pub name: &'static str,
        /// Side length (all Table II matrices are square).
        pub n: usize,
        /// Nonzero count reported in the paper.
        pub nnz: usize,
        /// Structure class used for the replica.
        pub class: StructureClass,
    }

    /// The seven matrices of Table II with their replica parameters.
    pub const TABLE2: [Table2Entry; 7] = [
        Table2Entry {
            name: "dwt_193",
            n: 193,
            nnz: 1843,
            class: StructureClass::Banded { half_bandwidth: 20 },
        },
        Table2Entry { name: "Journals", n: 128, nnz: 6096, class: StructureClass::Uniform },
        Table2Entry {
            name: "Heart1",
            n: 3600,
            nnz: 1_387_773,
            class: StructureClass::BlockDense { block: 360 },
        },
        Table2Entry { name: "ash292", n: 292, nnz: 2208, class: StructureClass::Uniform },
        Table2Entry {
            name: "bcsstk13",
            n: 2003,
            nnz: 83_883,
            class: StructureClass::Banded { half_bandwidth: 120 },
        },
        Table2Entry {
            name: "cegb2802",
            n: 2802,
            nnz: 277_362,
            class: StructureClass::Banded { half_bandwidth: 200 },
        },
        Table2Entry {
            name: "comsol",
            n: 1500,
            nnz: 97_645,
            class: StructureClass::Banded { half_bandwidth: 130 },
        },
    ];

    /// Builds the synthetic replica of a Table II matrix by name.
    pub fn table2_matrix(name: &str, seed: u64) -> Option<CsrMatrix> {
        TABLE2
            .iter()
            .find(|e| e.name.eq_ignore_ascii_case(name))
            .map(|e| synth_symmetric(e.n, e.nnz, e.class, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::generators::*;
    use super::*;

    fn small() -> CsrMatrix {
        CsrMatrix::from_coo(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)],
        )
    }

    #[test]
    fn coo_round_trip() {
        let m = small();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_cols(0), &[0, 2]);
        assert_eq!(m.row_values(0), &[1.0, 2.0]);
        assert_eq!(m.row_cols(1), &[1]);
        assert_eq!(m.row_cols(2), &[0, 2]);
    }

    #[test]
    fn duplicate_entries_sum() {
        let m = CsrMatrix::from_coo(2, 2, vec![(0, 1, 1.0), (0, 1, 2.5), (1, 0, 1.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row_values(0), &[3.5]);
    }

    #[test]
    fn empty_rows_have_valid_offsets() {
        let m = CsrMatrix::from_coo(5, 5, vec![(0, 0, 1.0), (4, 4, 1.0)]);
        for r in 0..5 {
            let _ = m.row_cols(r); // must not panic
        }
        assert_eq!(m.row_cols(2), &[] as &[usize]);
    }

    #[test]
    fn transpose_involution() {
        let m = small();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().row_cols(0), &[0, 2]);
    }

    #[test]
    fn multiply_matches_dense() {
        let a = CsrMatrix::from_coo(2, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let b = CsrMatrix::from_coo(3, 2, vec![(0, 0, 1.0), (1, 0, 2.0), (2, 1, 4.0)]);
        let c = a.multiply(&b);
        // dense: [[1,8],[6,0]]
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.row_cols(0), &[0, 1]);
        assert_eq!(c.row_values(0), &[1.0, 8.0]);
        assert_eq!(c.row_cols(1), &[0]);
        assert_eq!(c.row_values(1), &[6.0]);
    }

    #[test]
    fn multiply_identity() {
        let m = small();
        let id = CsrMatrix::from_coo(3, 3, (0..3).map(|i| (i, i, 1.0)).collect());
        assert_eq!(m.multiply(&id), m);
        assert_eq!(id.multiply(&m), m);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn multiply_dim_mismatch() {
        let a = CsrMatrix::from_coo(2, 3, vec![]);
        let b = CsrMatrix::from_coo(2, 2, vec![]);
        a.multiply(&b);
    }

    #[test]
    fn max_abs_diff_detects_everything() {
        let a = small();
        assert_eq!(a.max_abs_diff(&a), 0.0);
        let b = CsrMatrix::from_coo(3, 3, vec![(0, 0, 1.0), (1, 1, 3.0)]);
        // a has (0,2,2.0),(2,0,4.0),(2,2,5.0) extra → max diff 5
        assert_eq!(a.max_abs_diff(&b), 5.0);
        assert_eq!(b.max_abs_diff(&a), 5.0);
    }

    #[test]
    fn synth_banded_respects_band() {
        let m = synth_symmetric(200, 2000, StructureClass::Banded { half_bandwidth: 10 }, 1);
        for (r, c, _) in m.iter() {
            assert!(r.abs_diff(c) <= 10, "entry ({r},{c}) outside band");
        }
    }

    #[test]
    fn synth_is_symmetric_with_full_diagonal() {
        for class in [
            StructureClass::Banded { half_bandwidth: 15 },
            StructureClass::Uniform,
            StructureClass::BlockDense { block: 25 },
        ] {
            let m = synth_symmetric(100, 1200, class, 3);
            for i in 0..100 {
                assert!(m.row_cols(i).binary_search(&i).is_ok(), "missing diagonal {i}");
            }
            let t = m.transpose();
            assert_eq!(m.max_abs_diff(&t), 0.0, "not symmetric for {class:?}");
        }
    }

    #[test]
    fn table2_replicas_hit_size_and_nnz() {
        for e in &TABLE2 {
            // Heart1 is big; sample the smaller six densely, Heart1 once.
            let m = table2_matrix(e.name, 42).unwrap();
            assert_eq!(m.rows(), e.n);
            assert_eq!(m.cols(), e.n);
            let got = m.nnz() as f64;
            let want = e.nnz as f64;
            assert!((got - want).abs() / want < 0.15, "{}: nnz {got} vs target {want}", e.name);
        }
    }

    #[test]
    fn table2_lookup_is_case_insensitive_and_total() {
        assert!(table2_matrix("HEART1", 1).is_some());
        assert!(table2_matrix("nonexistent", 1).is_none());
    }

    #[test]
    fn generators_deterministic() {
        let a = synth_symmetric(64, 600, StructureClass::Uniform, 9);
        let b = synth_symmetric(64, 600, StructureClass::Uniform, 9);
        assert_eq!(a, b);
    }
}
