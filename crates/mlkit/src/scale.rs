//! Feature scaling: z-score standardization.

use crate::error::{MlError, Result};
use crate::linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Per-column z-score standardizer: `x' = (x - mean) / std`.
///
/// Columns with zero variance are passed through centered but unscaled so
/// the transform never divides by zero.
///
/// # Examples
///
/// ```
/// use mlkit::linalg::Matrix;
/// use mlkit::scale::StandardScaler;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Matrix::from_rows(&[vec![1.0], vec![3.0]]);
/// let scaler = StandardScaler::fit(&x)?;
/// let t = scaler.transform(&x)?;
/// assert!((t[(0, 0)] + 1.0).abs() < 1e-12);
/// assert!((t[(1, 0)] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Learns per-column mean and (population) standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InsufficientData`] if `x` has no rows.
    pub fn fit(x: &Matrix) -> Result<Self> {
        if x.rows() == 0 {
            return Err(MlError::InsufficientData(
                "cannot fit a scaler on zero samples".into(),
            ));
        }
        let n = x.rows() as f64;
        let mut means = vec![0.0; x.cols()];
        for r in 0..x.rows() {
            for (c, m) in means.iter_mut().enumerate() {
                *m += x[(r, c)];
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; x.cols()];
        for r in 0..x.rows() {
            for (c, v) in vars.iter_mut().enumerate() {
                let d = x[(r, c)] - means[c];
                *v += d * d;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Ok(StandardScaler { means, stds })
    }

    /// Per-column means learned by [`StandardScaler::fit`].
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-column standard deviations learned by [`StandardScaler::fit`]
    /// (zero-variance columns report 1.0).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Applies the learned transform.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if the column count differs from
    /// the fitted data.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix> {
        if x.cols() != self.means.len() {
            return Err(MlError::ShapeMismatch {
                left: (x.rows(), x.cols()),
                right: (1, self.means.len()),
                op: "scaler_transform",
            });
        }
        let mut out = x.clone();
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                out[(r, c)] = (out[(r, c)] - self.means[c]) / self.stds[c];
            }
        }
        Ok(out)
    }

    /// Applies the learned transform to a single row vector.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] on length mismatch.
    pub fn transform_row(&self, row: &[f64]) -> Result<Vec<f64>> {
        if row.len() != self.means.len() {
            return Err(MlError::ShapeMismatch {
                left: (1, row.len()),
                right: (1, self.means.len()),
                op: "scaler_transform_row",
            });
        }
        Ok(row
            .iter()
            .enumerate()
            .map(|(c, &v)| (v - self.means[c]) / self.stds[c])
            .collect())
    }

    /// Undoes the transform on a single row.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] on length mismatch.
    pub fn inverse_transform_row(&self, row: &[f64]) -> Result<Vec<f64>> {
        if row.len() != self.means.len() {
            return Err(MlError::ShapeMismatch {
                left: (1, row.len()),
                right: (1, self.means.len()),
                op: "scaler_inverse_transform_row",
            });
        }
        Ok(row
            .iter()
            .enumerate()
            .map(|(c, &v)| v * self.stds[c] + self.means[c])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_scaler_zero_mean_unit_var() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 30.0]]);
        let s = StandardScaler::fit(&x).unwrap();
        let t = s.transform(&x).unwrap();
        for c in 0..2 {
            let mean: f64 = (0..3).map(|r| t[(r, c)]).sum::<f64>() / 3.0;
            let var: f64 = (0..3).map(|r| t[(r, c)].powi(2)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn standard_scaler_constant_column() {
        let x = Matrix::from_rows(&[vec![7.0], vec![7.0]]);
        let s = StandardScaler::fit(&x).unwrap();
        let t = s.transform(&x).unwrap();
        assert_eq!(t[(0, 0)], 0.0);
        assert_eq!(t[(1, 0)], 0.0);
    }

    #[test]
    fn standard_scaler_roundtrip_row() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 8.0]]);
        let s = StandardScaler::fit(&x).unwrap();
        let row = [2.5, 4.0];
        let t = s.transform_row(&row).unwrap();
        let back = s.inverse_transform_row(&t).unwrap();
        assert!((back[0] - 2.5).abs() < 1e-12);
        assert!((back[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn standard_scaler_errors() {
        assert!(StandardScaler::fit(&Matrix::zeros(0, 2)).is_err());
        let s = StandardScaler::fit(&Matrix::zeros(2, 2)).unwrap();
        assert!(s.transform(&Matrix::zeros(1, 3)).is_err());
        assert!(s.transform_row(&[0.0]).is_err());
        assert!(s.inverse_transform_row(&[0.0]).is_err());
    }
}
