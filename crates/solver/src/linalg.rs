//! Small dense linear algebra.
//!
//! The interior-point method solves Newton systems `H d = -g` where `H`
//! is symmetric positive definite and tiny (dimension = number of
//! pipeline stages, single digits in practice). A dense row-major matrix
//! with an in-place Cholesky factorization is the right tool; pulling in
//! a full linear-algebra crate would be far heavier than the problem.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `n × n` or `m × n` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Mat {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Add `value` to every diagonal entry (ridge regularization).
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Rank-1 update: `self += scale · u uᵀ` (square matrices only).
    pub fn rank1_update(&mut self, u: &[f64], scale: f64) {
        assert_eq!(self.rows, self.cols, "rank1_update needs a square matrix");
        assert_eq!(u.len(), self.rows, "vector length mismatch");
        for i in 0..self.rows {
            if u[i] == 0.0 {
                continue;
            }
            let su = scale * u[i];
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (j, r) in row.iter_mut().enumerate() {
                *r += su * u[j];
            }
        }
    }

    /// Matrix–vector product `self · x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = dot(row, x);
        }
        y
    }

    /// Overwrite `self` with the contents of `src` (same shape) without
    /// reallocating — the scratch-buffer primitive behind the
    /// escalating-ridge retry in the interior point.
    pub fn copy_from(&mut self, src: &Mat) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows, src.cols),
            "shape mismatch"
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Zero every entry in place, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// In-place Cholesky factorization `A = L Lᵀ` (lower triangle),
    /// reusing `self`'s storage. Returns `false` (leaving `self` in a
    /// partially factored state) if the matrix is not (numerically)
    /// positive definite.
    pub fn cholesky_in_place(&mut self) -> bool {
        assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
        let n = self.rows;
        for j in 0..n {
            let mut d = self[(j, j)];
            for k in 0..j {
                d -= self[(j, k)] * self[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return false;
            }
            let d = d.sqrt();
            self[(j, j)] = d;
            for i in (j + 1)..n {
                let mut s = self[(i, j)];
                for k in 0..j {
                    s -= self[(i, k)] * self[(j, k)];
                }
                self[(i, j)] = s / d;
            }
        }
        true
    }

    /// Solve `A x = b` in place, assuming `self` was already factored by
    /// [`Mat::cholesky_in_place`] (lower triangle holds `L`).
    pub fn chol_solve_into(&self, b: &mut [f64]) {
        let n = self.rows;
        assert_eq!(b.len(), n, "dimension mismatch");
        for i in 0..n {
            for k in 0..i {
                b[i] -= self[(i, k)] * b[k];
            }
            b[i] /= self[(i, i)];
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                b[i] -= self[(k, i)] * b[k];
            }
            b[i] /= self[(i, i)];
        }
    }

    /// In-place Cholesky factorization `A = L Lᵀ` (lower triangle).
    ///
    /// Returns `None` if the matrix is not (numerically) positive
    /// definite. Only the lower triangle of the result is meaningful.
    pub fn cholesky(mut self) -> Option<Chol> {
        if self.cholesky_in_place() {
            Some(Chol { l: self })
        } else {
            None
        }
    }
}

/// A symmetric positive-definite matrix stored by its lower band:
/// entry `(i, j)` with `0 ≤ i − j ≤ bw` lives at
/// `data[i·(bw+1) + (j − i + bw)]`. On deep chains the KKT certificate's
/// multiplier normal equations couple only constraints whose supports
/// overlap, so their gram matrix fits a tiny band — banded Cholesky
/// factors it in O(n·bw²) with no fill-in, versus O(n³) dense.
///
/// On an input that is exactly banded, [`BandedMat::cholesky_in_place`]
/// and [`BandedMat::solve_into`] perform bit-for-bit the same arithmetic
/// as the dense [`Mat`] path: every dense term they skip is an exact
/// `±0.0` product (Cholesky of a banded matrix has no fill-in), and
/// adding or subtracting `±0.0` leaves an IEEE double unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct BandedMat {
    n: usize,
    bw: usize,
    data: Vec<f64>,
}

impl BandedMat {
    /// Zero matrix of size `n` with lower bandwidth `bw` (`bw < n`).
    pub fn zeros(n: usize, bw: usize) -> Self {
        assert!(n > 0, "empty banded matrix");
        assert!(bw < n, "bandwidth must be < n");
        BandedMat {
            n,
            bw,
            data: vec![0.0; n * (bw + 1)],
        }
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(j <= i && i - j <= self.bw, "({i},{j}) outside band");
        i * (self.bw + 1) + (j + self.bw - i)
    }

    /// Entry `(i, j)` of the lower band (`j ≤ i`, `i − j ≤ bw`).
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[self.idx(i, j)]
    }

    /// Mutable entry `(i, j)` of the lower band.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        let k = self.idx(i, j);
        &mut self.data[k]
    }

    /// Add `value` to every diagonal entry (ridge regularization).
    pub fn add_diagonal(&mut self, value: f64) {
        for i in 0..self.n {
            *self.at_mut(i, i) += value;
        }
    }

    /// In-place banded Cholesky `A = L Lᵀ` in O(n·bw²). Returns `false`
    /// (leaving `self` partially factored) if the matrix is not
    /// numerically positive definite. No fill-in: `L` occupies the same
    /// band as `A`.
    pub fn cholesky_in_place(&mut self) -> bool {
        let n = self.n;
        let bw = self.bw;
        for j in 0..n {
            let mut d = self.at(j, j);
            for k in j.saturating_sub(bw)..j {
                let l = self.at(j, k);
                d -= l * l;
            }
            if d <= 0.0 || !d.is_finite() {
                return false;
            }
            let d = d.sqrt();
            *self.at_mut(j, j) = d;
            for i in (j + 1)..n.min(j + bw + 1) {
                let mut s = self.at(i, j);
                for k in i.saturating_sub(bw)..j {
                    s -= self.at(i, k) * self.at(j, k);
                }
                *self.at_mut(i, j) = s / d;
            }
        }
        true
    }

    /// Solve `A x = b` in place, assuming `self` was factored by
    /// [`BandedMat::cholesky_in_place`]. O(n·bw).
    pub fn solve_into(&self, b: &mut [f64]) {
        let n = self.n;
        let bw = self.bw;
        assert_eq!(b.len(), n, "dimension mismatch");
        for i in 0..n {
            for k in i.saturating_sub(bw)..i {
                b[i] -= self.at(i, k) * b[k];
            }
            b[i] /= self.at(i, i);
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n.min(i + bw + 1) {
                b[i] -= self.at(k, i) * b[k];
            }
            b[i] /= self.at(i, i);
        }
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A Cholesky factorization, ready to solve linear systems.
#[derive(Debug, Clone)]
pub struct Chol {
    l: Mat,
}

impl Chol {
    /// Solve `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        self.l.chol_solve_into(&mut y);
        y
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x` (AXPY).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solves_trivially() {
        let a = Mat::identity(3);
        let chol = a.cholesky().unwrap();
        let x = chol.solve(&[1.0, 2.0, 3.0]);
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn cholesky_solve_known_system() {
        // A = [[4,2],[2,3]], b = [2,1] → x = [0.5, 0]
        let a = Mat::from_rows(2, 2, &[4.0, 2.0, 2.0, 3.0]);
        let x = a.cholesky().unwrap().solve(&[2.0, 1.0]);
        assert!((x[0] - 0.5).abs() < 1e-12, "{x:?}");
        assert!(x[1].abs() < 1e-12, "{x:?}");
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Mat::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]); // eigvals 3, -1
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn cholesky_rejects_nan() {
        let a = Mat::from_rows(1, 1, &[f64::NAN]);
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn solve_roundtrip_random_spd() {
        // Build SPD as Bᵀ B + I for a fixed pseudo-random B.
        let n = 5;
        let mut b = Mat::zeros(n, n);
        let mut v = 1u64;
        for i in 0..n {
            for j in 0..n {
                v = v
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b[(i, j)] = ((v >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            }
        }
        let mut a = Mat::identity(n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += b[(k, i)] * b[(k, j)];
                }
                a[(i, j)] += s;
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
        let rhs = a.matvec(&x_true);
        let x = a.cholesky().unwrap().solve(&rhs);
        for (xa, xb) in x.iter().zip(&x_true) {
            assert!((xa - xb).abs() < 1e-9, "{x:?} vs {x_true:?}");
        }
    }

    #[test]
    fn rank1_update_matches_manual() {
        let mut a = Mat::zeros(2, 2);
        a.rank1_update(&[1.0, 2.0], 3.0);
        assert_eq!(a[(0, 0)], 3.0);
        assert_eq!(a[(0, 1)], 6.0);
        assert_eq!(a[(1, 0)], 6.0);
        assert_eq!(a[(1, 1)], 12.0);
    }

    #[test]
    fn add_diagonal() {
        let mut a = Mat::zeros(2, 2);
        a.add_diagonal(5.0);
        assert_eq!(a[(0, 0)], 5.0);
        assert_eq!(a[(1, 1)], 5.0);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_rows_shape_check() {
        Mat::from_rows(2, 2, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn display_formats() {
        let s = Mat::identity(2).to_string();
        assert!(s.contains("1.00000"));
    }

    /// Deterministic pseudo-random SPD matrix with the given lower
    /// bandwidth, returned in both dense and banded form.
    fn random_banded_spd(n: usize, bw: usize, seed: u64) -> (Mat, BandedMat) {
        let mut dense = Mat::zeros(n, n);
        let mut banded = BandedMat::zeros(n, bw);
        let mut v = seed;
        let mut next = || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((v >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for i in 0..n {
            for j in i.saturating_sub(bw)..i {
                let x = next();
                dense[(i, j)] = x;
                dense[(j, i)] = x;
                *banded.at_mut(i, j) = x;
            }
            // Diagonal dominance keeps it SPD for any band contents.
            let d = 2.0 * (bw as f64 + 1.0) + next().abs();
            dense[(i, i)] = d;
            *banded.at_mut(i, i) = d;
        }
        (dense, banded)
    }

    #[test]
    fn banded_cholesky_bitwise_matches_dense_on_banded_input() {
        for (n, bw) in [(6, 1), (9, 2), (17, 3), (33, 1)] {
            let (dense, mut banded) = random_banded_spd(n, bw, 42 + n as u64);
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
            let dense_x = dense.cholesky().unwrap().solve(&rhs);
            assert!(banded.cholesky_in_place());
            let mut banded_x = rhs.clone();
            banded.solve_into(&mut banded_x);
            // Not just close: the skipped dense terms are exact ±0.0
            // products, so the two factorizations are the same
            // arithmetic and the results are bit-identical.
            assert_eq!(dense_x, banded_x, "n={n} bw={bw}");
        }
    }

    #[test]
    fn banded_solve_roundtrip() {
        let (dense, mut banded) = random_banded_spd(12, 2, 7);
        let x_true: Vec<f64> = (0..12).map(|i| 0.5 * i as f64 - 3.0).collect();
        let mut x = dense.matvec(&x_true);
        assert!(banded.cholesky_in_place());
        banded.solve_into(&mut x);
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-9, "{x:?} vs {x_true:?}");
        }
    }

    #[test]
    fn banded_cholesky_rejects_indefinite() {
        let mut b = BandedMat::zeros(3, 1);
        *b.at_mut(0, 0) = 1.0;
        *b.at_mut(1, 0) = 2.0; // off-diagonal dominates → not PD
        *b.at_mut(1, 1) = 1.0;
        *b.at_mut(2, 2) = 1.0;
        assert!(!b.cholesky_in_place());
    }

    #[test]
    fn scratch_cholesky_matches_consuming_cholesky() {
        let (dense, _) = random_banded_spd(7, 3, 99);
        let rhs = vec![1.0; 7];
        let via_consume = dense.clone().cholesky().unwrap().solve(&rhs);
        let mut scratch = Mat::zeros(7, 7);
        scratch.copy_from(&dense);
        assert!(scratch.cholesky_in_place());
        let mut via_scratch = rhs.clone();
        scratch.chol_solve_into(&mut via_scratch);
        assert_eq!(via_consume, via_scratch);
    }

    #[test]
    fn scratch_ridge_retry_matches_clone_per_attempt_on_near_singular() {
        // A nearly singular SPD-ish matrix: both the old clone-per-retry
        // loop and the new scratch-buffer loop must escalate to the same
        // ridge and produce bit-identical directions.
        let n = 4;
        let mut h = Mat::zeros(n, n);
        // rank-1 (singular) plus a tiny diagonal that still fails PD.
        h.rank1_update(&[1.0, 1.0, 1.0, 1.0], 1.0);
        h.add_diagonal(-1e-18);
        let g = vec![1.0, 2.0, 3.0, 4.0];

        let reference = {
            let mut d = None;
            let mut ridge = 0.0;
            for _ in 0..8 {
                let mut hr = h.clone();
                if ridge > 0.0 {
                    hr.add_diagonal(ridge);
                }
                if let Some(chol) = hr.cholesky() {
                    d = Some(chol.solve(&g));
                    break;
                }
                ridge = if ridge == 0.0 { 1e-12 } else { ridge * 100.0 };
            }
            d.unwrap()
        };

        let scratch_based = {
            let mut scratch = Mat::zeros(n, n);
            let mut d = None;
            let mut ridge = 0.0;
            for _ in 0..8 {
                scratch.copy_from(&h);
                if ridge > 0.0 {
                    scratch.add_diagonal(ridge);
                }
                if scratch.cholesky_in_place() {
                    let mut sol = g.clone();
                    scratch.chol_solve_into(&mut sol);
                    d = Some(sol);
                    break;
                }
                ridge = if ridge == 0.0 { 1e-12 } else { ridge * 100.0 };
            }
            d.unwrap()
        };
        assert_eq!(reference, scratch_based);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be < n")]
    fn banded_bandwidth_checked() {
        BandedMat::zeros(3, 3);
    }
}
