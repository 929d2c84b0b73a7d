//! Covariance kernels for Gaussian-process regression.
//!
//! AutoBlox's GPR (§3.4 of the paper) combines a radial-basis-function
//! kernel, a rational-quadratic kernel, and a white-noise kernel; all are
//! provided here along with sum/product composition.

use crate::linalg::{sq_dist, Matrix};
use serde::{Deserialize, Serialize};

/// A stationary positive-semidefinite covariance function over feature
/// vectors: the covariance of two points depends only on their squared
/// Euclidean distance.
pub trait Kernel: std::fmt::Debug + Send + Sync {
    /// Covariance of two distinct points at squared distance `d2` — the one
    /// formula behind both [`Kernel::eval`] and the GPR's batched
    /// prediction, which computes distances for many points at once.
    fn eval_sq_dist(&self, d2: f64) -> f64;

    /// Covariance between two points.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_sq_dist(sq_dist(a, b))
    }

    /// Clones the kernel behind a fresh box, so compositions of trait
    /// objects ([`SumKernel`]) can be duplicated — required by the tuner's
    /// incremental surrogate, which extends a fitted GPR without mutating
    /// the cached copy.
    fn clone_box(&self) -> Box<dyn Kernel>;

    /// Diagonal term `k(x, x)`; kernels with a noise component add it here.
    fn diag(&self, x: &[f64]) -> f64 {
        self.eval(x, x)
    }

    /// Hyperparameters in log-space, for generic tuning.
    fn params(&self) -> Vec<f64>;

    /// Replaces hyperparameters from log-space values.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `p.len()` differs from `params().len()`.
    fn set_params(&mut self, p: &[f64]);

    /// Builds the Gram matrix `K[i][j] = k(x_i, x_j)` for row-sample `x`.
    ///
    /// Only the O(n²/2) upper triangle is evaluated and then mirrored.
    fn gram(&self, x: &Matrix) -> Matrix {
        let n = x.rows();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            k[(i, i)] = self.diag(x.row(i));
            for j in i + 1..n {
                let v = self.eval(x.row(i), x.row(j));
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        k
    }
}

/// Squared-exponential (RBF) kernel
/// `k(a, b) = s² · exp(-‖a-b‖² / (2ℓ²))`.
///
/// # Examples
///
/// ```
/// use mlkit::kernel::{Kernel, Rbf};
/// let k = Rbf::new(1.0, 1.0);
/// assert!((k.eval(&[0.0], &[0.0]) - 1.0).abs() < 1e-12);
/// assert!(k.eval(&[0.0], &[10.0]) < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rbf {
    length_scale: f64,
    variance: f64,
}

impl Rbf {
    /// Creates an RBF kernel with the given length scale and signal variance.
    ///
    /// # Panics
    ///
    /// Panics if either argument is non-positive or non-finite.
    pub fn new(length_scale: f64, variance: f64) -> Self {
        assert!(
            length_scale > 0.0 && length_scale.is_finite(),
            "length_scale must be positive"
        );
        assert!(
            variance > 0.0 && variance.is_finite(),
            "variance must be positive"
        );
        Rbf {
            length_scale,
            variance,
        }
    }

    /// Fitted length scale.
    pub fn length_scale(&self) -> f64 {
        self.length_scale
    }
}

impl Kernel for Rbf {
    fn eval_sq_dist(&self, d2: f64) -> f64 {
        self.variance * (-d2 / (2.0 * self.length_scale * self.length_scale)).exp()
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }

    fn params(&self) -> Vec<f64> {
        vec![self.length_scale.ln(), self.variance.ln()]
    }

    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), 2, "Rbf takes 2 hyperparameters");
        self.length_scale = p[0].exp();
        self.variance = p[1].exp();
    }
}

/// Rational-quadratic kernel
/// `k(a, b) = s² · (1 + ‖a-b‖² / (2αℓ²))^{-α}` — a scale mixture of RBF
/// kernels over length scales.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RationalQuadratic {
    length_scale: f64,
    alpha: f64,
    variance: f64,
}

impl RationalQuadratic {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive or non-finite.
    pub fn new(length_scale: f64, alpha: f64, variance: f64) -> Self {
        assert!(length_scale > 0.0 && length_scale.is_finite());
        assert!(alpha > 0.0 && alpha.is_finite());
        assert!(variance > 0.0 && variance.is_finite());
        RationalQuadratic {
            length_scale,
            alpha,
            variance,
        }
    }
}

impl Kernel for RationalQuadratic {
    fn eval_sq_dist(&self, d2: f64) -> f64 {
        let base = 1.0 + d2 / (2.0 * self.alpha * self.length_scale * self.length_scale);
        self.variance * base.powf(-self.alpha)
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }

    fn params(&self) -> Vec<f64> {
        vec![self.length_scale.ln(), self.alpha.ln(), self.variance.ln()]
    }

    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), 3, "RationalQuadratic takes 3 hyperparameters");
        self.length_scale = p[0].exp();
        self.alpha = p[1].exp();
        self.variance = p[2].exp();
    }
}

/// White-noise kernel: contributes `noise` only on the diagonal
/// (i.e. for identical points), modeling simulator measurement noise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct White {
    noise: f64,
}

impl White {
    /// Creates a white kernel with the given noise variance.
    ///
    /// # Panics
    ///
    /// Panics if `noise` is negative or non-finite.
    pub fn new(noise: f64) -> Self {
        assert!(noise >= 0.0 && noise.is_finite(), "noise must be >= 0");
        White { noise }
    }

    /// The noise variance.
    pub fn noise(&self) -> f64 {
        self.noise
    }
}

impl Kernel for White {
    fn eval_sq_dist(&self, _d2: f64) -> f64 {
        0.0
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }

    fn diag(&self, _x: &[f64]) -> f64 {
        self.noise
    }

    fn params(&self) -> Vec<f64> {
        vec![(self.noise.max(1e-12)).ln()]
    }

    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), 1, "White takes 1 hyperparameter");
        self.noise = p[0].exp();
    }
}

/// Sum of component kernels; AutoBlox uses `Rbf + RationalQuadratic + White`.
#[derive(Debug)]
pub struct SumKernel {
    parts: Vec<Box<dyn Kernel>>,
}

impl Clone for SumKernel {
    fn clone(&self) -> Self {
        SumKernel {
            parts: self.parts.iter().map(|k| k.clone_box()).collect(),
        }
    }
}

impl SumKernel {
    /// Creates a sum kernel from component kernels.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn new(parts: Vec<Box<dyn Kernel>>) -> Self {
        assert!(!parts.is_empty(), "SumKernel needs at least one component");
        SumKernel { parts }
    }

    /// The default AutoBlox regression covariance:
    /// `Rbf(ℓ, 1) + RationalQuadratic(ℓ, 1, 1) + White(noise)`.
    pub fn autoblox_default() -> Self {
        SumKernel::new(vec![
            Box::new(Rbf::new(1.0, 1.0)),
            Box::new(RationalQuadratic::new(1.0, 1.0, 1.0)),
            Box::new(White::new(1e-4)),
        ])
    }

    /// Number of component kernels.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// `true` if there are no components (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl Kernel for SumKernel {
    fn eval_sq_dist(&self, d2: f64) -> f64 {
        self.parts.iter().map(|k| k.eval_sq_dist(d2)).sum()
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }

    fn diag(&self, x: &[f64]) -> f64 {
        self.parts.iter().map(|k| k.diag(x)).sum()
    }

    fn params(&self) -> Vec<f64> {
        self.parts.iter().flat_map(|k| k.params()).collect()
    }

    fn set_params(&mut self, p: &[f64]) {
        let mut offset = 0;
        for k in &mut self.parts {
            let n = k.params().len();
            k.set_params(&p[offset..offset + n]);
            offset += n;
        }
        assert_eq!(offset, p.len(), "hyperparameter count mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rbf_is_one_at_zero_distance() {
        let k = Rbf::new(2.0, 3.0);
        assert!((k.eval(&[1.0, 2.0], &[1.0, 2.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rbf_decays_with_distance() {
        let k = Rbf::new(1.0, 1.0);
        let near = k.eval(&[0.0], &[0.5]);
        let far = k.eval(&[0.0], &[2.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn rq_approaches_rbf_for_large_alpha() {
        let rbf = Rbf::new(1.0, 1.0);
        let rq = RationalQuadratic::new(1.0, 1e6, 1.0);
        let a = [0.3, -0.4];
        let b = [0.9, 0.1];
        assert!((rbf.eval(&a, &b) - rq.eval(&a, &b)).abs() < 1e-4);
    }

    #[test]
    fn white_only_on_diagonal() {
        let k = White::new(0.5);
        assert_eq!(k.eval(&[0.0], &[0.0]), 0.0);
        assert_eq!(k.diag(&[0.0]), 0.5);
    }

    #[test]
    fn sum_kernel_adds_components() {
        let k = SumKernel::new(vec![
            Box::new(Rbf::new(1.0, 1.0)),
            Box::new(White::new(0.25)),
        ]);
        assert!((k.diag(&[0.0]) - 1.25).abs() < 1e-12);
        assert!((k.eval(&[0.0], &[0.0]) - 1.0).abs() < 1e-12);
        assert_eq!(k.len(), 2);
        assert!(!k.is_empty());
    }

    #[test]
    fn param_roundtrip() {
        let mut k = SumKernel::autoblox_default();
        let p = k.params();
        assert_eq!(p.len(), 2 + 3 + 1);
        let mut p2 = p.clone();
        p2[0] = (2.5f64).ln();
        k.set_params(&p2);
        let got = k.params();
        assert!((got[0] - (2.5f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn gram_is_symmetric_psd_diag() {
        let k = SumKernel::autoblox_default();
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 0.5]]);
        let g = k.gram(&x);
        assert!(g.is_symmetric(1e-12));
        for i in 0..3 {
            // Diagonal dominates off-diagonal thanks to the white noise term.
            assert!(g[(i, i)] >= g[(i, (i + 1) % 3)]);
        }
    }

    #[test]
    #[should_panic(expected = "length_scale")]
    fn rbf_rejects_zero_length_scale() {
        let _ = Rbf::new(0.0, 1.0);
    }

    #[test]
    fn sum_kernel_clone_is_independent() {
        let mut k = SumKernel::autoblox_default();
        let copy = k.clone();
        assert_eq!(copy.params(), k.params());
        let mut p = k.params();
        p[0] = (3.0f64).ln();
        k.set_params(&p);
        // The clone must not observe mutations of the original.
        assert!((copy.params()[0] - 0.0).abs() < 1e-12);
        assert!((k.params()[0] - (3.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn gram_matches_naive_double_loop() {
        let k = SumKernel::autoblox_default();
        for n in [1, 31, 32, 33, 128] {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![i as f64 * 0.37, (i as f64 * 0.11).sin()])
                .collect();
            let x = Matrix::from_rows(&rows);
            let mut naive = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    naive[(i, j)] = if i == j {
                        k.diag(x.row(i))
                    } else {
                        k.eval(x.row(i), x.row(j))
                    };
                }
            }
            assert_eq!(k.gram(&x), naive, "n = {n}");
        }
    }
}
