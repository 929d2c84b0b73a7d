//! Dense, row-major linear algebra: the minimum needed by PCA, Ridge
//! regression, and Gaussian-process regression.
//!
//! The [`Matrix`] type stores `f64` elements contiguously in row-major order.
//! Factorizations provided: Cholesky (for SPD solves in Ridge/GPR) and a
//! cyclic Jacobi eigendecomposition for symmetric matrices (for PCA).

use crate::error::{MlError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Columns the lock-step kernels ([`Cholesky::solve_matrix`],
/// [`crate::gpr::Gpr::predict_batch`]) keep in registers at once.
pub(crate) const LANES: usize = 8;

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use mlkit::linalg::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(a[(1, 0)], 3.0);
/// let at = a.transpose();
/// assert_eq!(at[(0, 1)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlkit::linalg::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i[(1, 1)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of equally long rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have different lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies one column into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Appends one row in place (used by the incremental GPR to grow its
    /// training set without rebuilding the matrix).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()` on a non-empty matrix. Pushing
    /// onto a `0 x 0` matrix sets the column count from the row.
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "pushed row has wrong length");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(MlError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let lhs_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in lhs_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(MlError::ShapeMismatch {
                left: self.shape(),
                right: (v.len(), 1),
                op: "matvec",
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum::<f64>())
            .collect())
    }

    /// Scales every element by `s`, returning a new matrix.
    pub fn scaled(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// `true` if the matrix is square and symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self[(r, c)] - self[(c, r)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Cholesky factorization `A = L * L^T` for a symmetric positive-definite
    /// matrix, returning the lower-triangular factor.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotPositiveDefinite`] if a non-positive pivot is
    /// encountered, and [`MlError::ShapeMismatch`] if the matrix is not square.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlkit::linalg::Matrix;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
    /// let l = a.cholesky()?;
    /// let back = l.factor().matmul(&l.factor().transpose())?;
    /// assert!((back[(0, 0)] - 4.0).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn cholesky(&self) -> Result<Cholesky> {
        if self.rows != self.cols {
            return Err(MlError::ShapeMismatch {
                left: self.shape(),
                right: self.shape(),
                op: "cholesky",
            });
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(MlError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Symmetric eigendecomposition via the cyclic Jacobi method.
    ///
    /// Returns eigenvalues in descending order with matching (unit-norm)
    /// eigenvectors as the *columns* of the returned matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] for non-square input and
    /// [`MlError::NoConvergence`] if off-diagonal mass does not vanish within
    /// the sweep budget.
    pub fn symmetric_eigen(&self) -> Result<Eigen> {
        if self.rows != self.cols {
            return Err(MlError::ShapeMismatch {
                left: self.shape(),
                right: self.shape(),
                op: "symmetric_eigen",
            });
        }
        let n = self.rows;
        if n == 0 {
            return Ok(Eigen {
                values: Vec::new(),
                vectors: Matrix::zeros(0, 0),
            });
        }
        let mut a = self.clone();
        let mut v = Matrix::identity(n);
        let max_sweeps = 100;
        for sweep in 0..=max_sweeps {
            let mut off = 0.0;
            for r in 0..n {
                for c in (r + 1)..n {
                    off += a[(r, c)] * a[(r, c)];
                }
            }
            if off.sqrt() < 1e-11 {
                return Ok(Self::sorted_eigen(a, v));
            }
            if sweep == max_sweeps {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[(p, q)];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = a[(p, p)];
                    let aqq = a[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    // Apply the rotation G(p, q, theta) on both sides.
                    for k in 0..n {
                        let akp = a[(k, p)];
                        let akq = a[(k, q)];
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[(p, k)];
                        let aqk = a[(q, k)];
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        Err(MlError::NoConvergence {
            iterations: max_sweeps,
        })
    }

    fn sorted_eigen(a: Matrix, v: Matrix) -> Eigen {
        let n = a.rows;
        let mut idx: Vec<usize> = (0..n).collect();
        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        idx.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).expect("finite eigenvalues"));
        let values = idx.iter().map(|&i| diag[i]).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (new_c, &old_c) in idx.iter().enumerate() {
            for r in 0..n {
                vectors[(r, new_c)] = v[(r, old_c)];
            }
        }
        Eigen { values, vectors }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// Lower-triangular Cholesky factor of an SPD matrix, usable for solves.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Borrows the lower-triangular factor `L` with `A = L L^T`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` using the factorization: the one-column case of
    /// [`Cholesky::solve_matrix`].
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `b.len()` differs from the
    /// factor dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(MlError::ShapeMismatch {
                left: (n, n),
                right: (b.len(), 1),
                op: "cholesky_solve",
            });
        }
        let mut x = b.to_vec();
        self.solve_in_place(&mut x, 1);
        Ok(x)
    }

    /// Solves `A X = B` for every column of `B` in lock step.
    ///
    /// Each column goes through exactly [`Cholesky::solve`]'s operations in
    /// its order, so column `c` of the result is bit-identical to
    /// `solve(&b.col(c))`; the columns only share the walk over `L`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `B.rows()` differs from the
    /// factor dimension.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.l.rows();
        if b.rows() != n {
            return Err(MlError::ShapeMismatch {
                left: (n, n),
                right: b.shape(),
                op: "cholesky_solve_matrix",
            });
        }
        let mut out = b.clone();
        self.solve_in_place(&mut out.data, b.cols());
        Ok(out)
    }

    /// Forward then back substitution over `m` right-hand sides stored as a
    /// row-major `n x m` block (`rhs[i * m + c]` is entry `i` of column
    /// `c`), overwritten with the solutions. Per column the subtractions
    /// run in ascending `j` and end in one division, forward and back. The
    /// columns are independent, so they are solved [`LANES`] at a time
    /// with the block's partial sums held in registers across `j`; the
    /// last `m % LANES` columns go one by one through the same code.
    pub(crate) fn solve_in_place(&self, rhs: &mut [f64], m: usize) {
        debug_assert_eq!(rhs.len(), self.l.rows() * m);
        let full = m - m % LANES;
        for c0 in (0..full).step_by(LANES) {
            self.solve_columns::<LANES>(rhs, m, c0);
        }
        for c0 in full..m {
            self.solve_columns::<1>(rhs, m, c0);
        }
    }

    /// [`Cholesky::solve_in_place`] for columns `c0..c0 + W`.
    fn solve_columns<const W: usize>(&self, rhs: &mut [f64], m: usize, c0: usize) {
        let n = self.l.rows();
        let block = |rhs: &[f64], i: usize| -> [f64; W] {
            rhs[i * m + c0..i * m + c0 + W]
                .try_into()
                .expect("a block is W wide")
        };
        // Forward substitution: L Y = B.
        for i in 0..n {
            let mut s = block(rhs, i);
            let l_row = self.l.row(i);
            for (j, &lij) in l_row[..i].iter().enumerate() {
                let y = block(rhs, j);
                for (s, y) in s.iter_mut().zip(y) {
                    *s -= lij * y;
                }
            }
            let lii = l_row[i];
            for s in &mut s {
                *s /= lii;
            }
            rhs[i * m + c0..i * m + c0 + W].copy_from_slice(&s);
        }
        // Back substitution: L^T X = Y.
        for i in (0..n).rev() {
            let mut s = block(rhs, i);
            for j in i + 1..n {
                let lji = self.l[(j, i)];
                let x = block(rhs, j);
                for (s, x) in s.iter_mut().zip(x) {
                    *s -= lji * x;
                }
            }
            let lii = self.l[(i, i)];
            for s in &mut s {
                *s /= lii;
            }
            rhs[i * m + c0..i * m + c0 + W].copy_from_slice(&s);
        }
    }

    /// Log-determinant of the original matrix `A`: `2 * sum(ln L[i][i])`.
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Factor of the `(n+1) x (n+1)` matrix obtained by bordering `A` with
    /// one new column `cross` and diagonal entry `diag`:
    ///
    /// ```text
    /// A' = [ A      cross ]      L' = [ L    0 ]
    ///      [ crossᵀ diag  ]           [ rᵀ   d ]
    /// ```
    ///
    /// The existing factor is reused unchanged; only the new bottom row is
    /// computed, by forward substitution `L r = cross` followed by
    /// `d = sqrt(diag - rᵀr)` — O(n²) instead of the O(n³) full refactor.
    /// The arithmetic follows the same operation order as
    /// [`Matrix::cholesky`], so extending a factor row by row yields the
    /// bit-identical `L'` a from-scratch factorization of `A'` produces.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `cross.len()` differs from the
    /// factor dimension and [`MlError::NotPositiveDefinite`] if the bordered
    /// matrix loses positive definiteness (`diag - rᵀr <= 0`).
    pub fn extend(&self, cross: &[f64], diag: f64) -> Result<Cholesky> {
        let n = self.l.rows();
        if cross.len() != n {
            return Err(MlError::ShapeMismatch {
                left: (n, n),
                right: (cross.len(), 1),
                op: "cholesky_extend",
            });
        }
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..=i {
                l[(i, j)] = self.l[(i, j)];
            }
        }
        // New bottom row, in `Matrix::cholesky`'s operation order.
        for j in 0..n {
            let mut sum = cross[j];
            for k in 0..j {
                sum -= l[(n, k)] * l[(j, k)];
            }
            l[(n, j)] = sum / l[(j, j)];
        }
        let mut sum = diag;
        for k in 0..n {
            sum -= l[(n, k)] * l[(n, k)];
        }
        if sum <= 0.0 || !sum.is_finite() {
            return Err(MlError::NotPositiveDefinite);
        }
        l[(n, n)] = sum.sqrt();
        Ok(Cholesky { l })
    }
}

/// Result of a symmetric eigendecomposition.
#[derive(Debug, Clone)]
pub struct Eigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Unit eigenvectors as columns, matching `values` order.
    pub vectors: Matrix,
}

/// Dot product of two equally long slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two equally long slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Manhattan (L1) distance between two equally long slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// `Cholesky::solve` as it stood before the lock-step rewrite: the scalar
/// reference the bit-equality tests here and in `gpr` compare against.
#[cfg(test)]
pub(crate) fn reference_solve(ch: &Cholesky, b: &[f64]) -> Vec<f64> {
    let l = ch.factor();
    let n = l.rows();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for (j, &yj) in y.iter().enumerate().take(i) {
            sum -= l[(i, j)] * yj;
        }
        y[i] = sum / l[(i, i)];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for (j, &xj) in x.iter().enumerate().skip(i + 1) {
            sum -= l[(j, i)] * xj;
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(2, 2)], 1.0);
        assert_eq!(i[(2, 1)], 0.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(MlError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 5.0]]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn cholesky_solve_known_system() {
        // A = [[4, 2], [2, 3]], b = [2, -1] -> x = [1, -1].
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let ch = a.cholesky().unwrap();
        let x = ch.solve(&[2.0, -1.0]).unwrap();
        assert!(approx(x[0], 1.0, 1e-12));
        assert!(approx(x[1], -1.0, 1e-12));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert_eq!(a.cholesky().unwrap_err(), MlError::NotPositiveDefinite);
    }

    #[test]
    fn cholesky_log_det() {
        let a = Matrix::from_rows(&[vec![4.0, 0.0], vec![0.0, 9.0]]);
        let ch = a.cholesky().unwrap();
        assert!(approx(ch.log_det(), (36.0f64).ln(), 1e-12));
    }

    #[test]
    fn cholesky_solve_matrix_identity() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let ch = a.cholesky().unwrap();
        let inv = ch.solve_matrix(&Matrix::identity(2)).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(approx(prod[(0, 0)], 1.0, 1e-12));
        assert!(approx(prod[(0, 1)], 0.0, 1e-12));
    }

    #[test]
    fn solve_matrix_is_bit_identical_to_per_column_solve() {
        let mut rng = StdRng::seed_from_u64(0x5017e);
        // Column counts at and around the multiples of the register block,
        // so full blocks, the one-by-one tail and both together all run.
        let widths = [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES, 4 * LANES - 1];
        let sizes = [1, 2, 7, 13, 40];
        for (n, m) in sizes.into_iter().flat_map(|n| widths.map(|m| (n, m))) {
            let b = Matrix::from_vec(n, n, (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let mut a = b.matmul(&b.transpose()).unwrap();
            for i in 0..n {
                a[(i, i)] += n as f64;
            }
            let ch = a.cholesky().unwrap();
            let rhs =
                Matrix::from_vec(n, m, (0..n * m).map(|_| rng.gen_range(-9.0..9.0)).collect());
            let solved = ch.solve_matrix(&rhs).unwrap();
            assert_eq!(solved.shape(), (n, m));
            for c in 0..m {
                let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                let want = bits(reference_solve(&ch, &rhs.col(c)));
                assert_eq!(bits(solved.col(c)), want, "n {n}, column {c} of {m}");
                assert_eq!(
                    bits(ch.solve(&rhs.col(c)).unwrap()),
                    want,
                    "n {n}, solve {c}"
                );
            }
        }
    }

    #[test]
    fn solve_matrix_edge_shapes() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let ch = a.cholesky().unwrap();
        assert_eq!(
            ch.solve_matrix(&Matrix::zeros(2, 0)).unwrap().shape(),
            (2, 0)
        );
        for rows in [0, 1, 3] {
            assert!(matches!(
                ch.solve_matrix(&Matrix::zeros(rows, 2)),
                Err(MlError::ShapeMismatch {
                    op: "cholesky_solve_matrix",
                    ..
                })
            ));
        }
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn eigen_diagonal() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 7.0]]);
        let e = a.symmetric_eigen().unwrap();
        assert!(approx(e.values[0], 7.0, 1e-10));
        assert!(approx(e.values[1], 3.0, 1e-10));
    }

    #[test]
    fn eigen_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = a.symmetric_eigen().unwrap();
        assert!(approx(e.values[0], 3.0, 1e-10));
        assert!(approx(e.values[1], 1.0, 1e-10));
        // Eigenvector for eigenvalue 3 is (1,1)/sqrt(2) up to sign.
        let v0 = e.vectors.col(0);
        assert!(approx(v0[0].abs(), 1.0 / 2.0_f64.sqrt(), 1e-10));
        assert!(approx(v0[0], v0[1], 1e-10));
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 5.0],
        ]);
        let e = a.symmetric_eigen().unwrap();
        // A == V diag(w) V^T.
        let n = 3;
        let mut d = Matrix::zeros(n, n);
        for i in 0..n {
            d[(i, i)] = e.values[i];
        }
        let rec = e
            .vectors
            .matmul(&d)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap();
        for r in 0..n {
            for c in 0..n {
                assert!(approx(rec[(r, c)], a[(r, c)], 1e-8));
            }
        }
    }

    #[test]
    fn eigen_empty() {
        let e = Matrix::zeros(0, 0).symmetric_eigen().unwrap();
        assert!(e.values.is_empty());
    }

    #[test]
    fn symmetry_check() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(a.is_symmetric(1e-12));
        let b = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 1.0]]);
        assert!(!b.is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1e-12));
    }

    #[test]
    fn distances() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(manhattan(&[0.0, 0.0], &[3.0, -4.0]), 7.0);
    }

    #[test]
    fn row_col_access() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        a.push_row(&[3.0, 4.0]);
        assert_eq!(a, Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let mut empty = Matrix::zeros(0, 0);
        empty.push_row(&[7.0, 8.0, 9.0]);
        assert_eq!(empty.shape(), (1, 3));
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn push_row_rejects_wrong_width() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        a.push_row(&[3.0]);
    }

    /// Extending the factor of the leading principal submatrix row by row
    /// must reproduce the full factorization bit for bit: the bordered
    /// update performs the same operations in the same order.
    #[test]
    fn cholesky_extend_is_bit_identical_to_refactor() {
        let a = Matrix::from_rows(&[
            vec![6.0, 2.0, 1.0, 0.5],
            vec![2.0, 5.0, 0.3, 0.2],
            vec![1.0, 0.3, 4.0, 0.1],
            vec![0.5, 0.2, 0.1, 3.0],
        ]);
        let full = a.cholesky().unwrap();
        // Start from the 1x1 leading block and border one row at a time.
        let mut grown = Matrix::from_rows(&[vec![a[(0, 0)]]]).cholesky().unwrap();
        for m in 1..4 {
            let cross: Vec<f64> = (0..m).map(|j| a[(m, j)]).collect();
            grown = grown.extend(&cross, a[(m, m)]).unwrap();
        }
        assert_eq!(grown.factor(), full.factor());
    }

    #[test]
    fn cholesky_extend_rejects_bad_input() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let ch = a.cholesky().unwrap();
        assert!(matches!(
            ch.extend(&[1.0], 5.0),
            Err(MlError::ShapeMismatch { .. })
        ));
        // Bordering with a duplicate of row 0 makes A' singular.
        assert_eq!(
            ch.extend(&[4.0, 2.0], 4.0).unwrap_err(),
            MlError::NotPositiveDefinite
        );
    }
}
