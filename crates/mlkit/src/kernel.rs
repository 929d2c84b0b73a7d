//! The covariance kernel of AutoBlox's Gaussian-process regression (§3.4):
//! a radial-basis-function kernel plus white measurement noise.

use crate::linalg::{sq_dist, Matrix};

/// Squared-exponential (RBF) kernel with a white-noise term on the
/// diagonal: `k(a, b) = s² · exp(-‖a-b‖² / (2ℓ²))` for distinct points and
/// `s² + noise` for a point with itself. The covariance of two points
/// depends only on their squared Euclidean distance.
///
/// # Examples
///
/// ```
/// use mlkit::kernel::Kernel;
/// let k = Kernel::new(1.0, 1.0, 0.0);
/// assert!((k.eval(&[0.0], &[0.0]) - 1.0).abs() < 1e-12);
/// assert!(k.eval(&[0.0], &[10.0]) < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    length_scale: f64,
    variance: f64,
    noise: f64,
}

impl Kernel {
    /// Creates the kernel from its length scale `ℓ`, signal variance `s²`
    /// and noise variance.
    ///
    /// # Panics
    ///
    /// Panics if `length_scale` or `variance` is non-positive or
    /// non-finite, or if `noise` is negative or non-finite.
    pub fn new(length_scale: f64, variance: f64, noise: f64) -> Self {
        assert!(
            length_scale > 0.0 && length_scale.is_finite(),
            "length_scale must be positive"
        );
        assert!(
            variance > 0.0 && variance.is_finite(),
            "variance must be positive"
        );
        assert!(noise >= 0.0 && noise.is_finite(), "noise must be >= 0");
        Kernel {
            length_scale,
            variance,
            noise,
        }
    }

    /// Covariance of two distinct points at squared distance `d2` — the one
    /// formula behind both [`Kernel::eval`] and the GPR's batched
    /// prediction, which computes distances for many points at once.
    pub fn eval_sq_dist(&self, d2: f64) -> f64 {
        self.variance * (-d2 / (2.0 * self.length_scale * self.length_scale)).exp()
    }

    /// Covariance between two points (no noise term).
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_sq_dist(sq_dist(a, b))
    }

    /// Diagonal term `k(x, x)`, the same for every point: signal variance
    /// plus noise.
    pub fn diag(&self) -> f64 {
        self.variance + self.noise
    }

    /// Hyperparameters in log-space: `[ln ℓ, ln s², ln max(noise, 1e-12)]`.
    pub fn params(&self) -> [f64; 3] {
        [
            self.length_scale.ln(),
            self.variance.ln(),
            self.noise.max(1e-12).ln(),
        ]
    }

    /// Replaces the hyperparameters from log-space values in the order of
    /// [`Kernel::params`].
    pub fn set_params(&mut self, p: &[f64; 3]) {
        self.length_scale = p[0].exp();
        self.variance = p[1].exp();
        self.noise = p[2].exp();
    }

    /// Builds the Gram matrix `K[i][j] = k(x_i, x_j)` for row-sample `x`.
    ///
    /// Only the O(n²/2) upper triangle is evaluated and then mirrored.
    pub fn gram(&self, x: &Matrix) -> Matrix {
        let n = x.rows();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            k[(i, i)] = self.diag();
            for j in i + 1..n {
                let v = self.eval(x.row(i), x.row(j));
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rbf_is_one_at_zero_distance() {
        let k = Kernel::new(2.0, 3.0, 0.5);
        assert!((k.eval(&[1.0, 2.0], &[1.0, 2.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rbf_decays_with_distance() {
        let k = Kernel::new(1.0, 1.0, 1e-4);
        let near = k.eval(&[0.0], &[0.5]);
        let far = k.eval(&[0.0], &[2.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn white_only_on_diagonal() {
        let k = Kernel::new(1.0, 1.0, 0.5);
        assert_eq!(k.diag() - k.eval(&[0.0], &[0.0]), 0.5);
        assert_eq!(Kernel::new(1.0, 1.0, 0.0).diag(), 1.0);
    }

    #[test]
    fn param_roundtrip() {
        let mut k = Kernel::new(0.5, 1.0, 1e-4);
        let mut p = k.params();
        assert_eq!(p[1], 0.0);
        p[0] = (2.5f64).ln();
        k.set_params(&p);
        let got = k.params();
        assert!((got[0] - (2.5f64).ln()).abs() < 1e-12);
        assert!((got[2] - (1e-4f64).ln()).abs() < 1e-12);
        // A zero noise reads back as the 1e-12 floor.
        assert_eq!(Kernel::new(1.0, 1.0, 0.0).params()[2], (1e-12f64).ln());
    }

    #[test]
    fn gram_is_symmetric_psd_diag() {
        let k = Kernel::new(0.5, 1.0, 1e-4);
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
        let _ = Kernel::new(0.0, 1.0, 1e-4);
    }

    #[test]
    fn gram_matches_naive_double_loop() {
        let k = Kernel::new(0.5, 1.0, 1e-4);
        for n in [1, 31, 32, 33, 128] {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![i as f64 * 0.37, (i as f64 * 0.11).sin()])
                .collect();
            let x = Matrix::from_rows(&rows);
            let mut naive = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    naive[(i, j)] = if i == j {
                        k.diag()
                    } else {
                        k.eval(x.row(i), x.row(j))
                    };
                }
            }
            assert_eq!(k.gram(&x), naive, "n = {n}");
        }
    }

    /// The concrete kernel computes exactly what the `Rbf + White` sum it
    /// replaced did: `Iterator::sum` started each entry at `-0.0`, and the
    /// white component added `0.0` off the diagonal and `noise` on it.
    #[test]
    fn matches_the_rbf_plus_white_sum_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x6b65726e);
        for _ in 0..400 {
            let p = [
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
            ];
            let mut k = Kernel::new(1.0, 1.0, 0.0);
            k.set_params(&p);
            let (ell, s2, noise) = (p[0].exp(), p[1].exp(), p[2].exp());
            let d2: f64 = match rng.gen_range(0..4) {
                0 => 0.0,
                1 => rng.gen_range(0.0..1e-6),
                _ => rng.gen_range(0.0..60.0),
            };
            let rbf = s2 * (-d2 / (2.0 * ell * ell)).exp();
            let summed = (-0.0 + rbf) + 0.0;
            assert_eq!(k.eval_sq_dist(d2).to_bits(), summed.to_bits(), "d2 {d2}");
            assert_eq!(k.diag().to_bits(), ((-0.0 + s2) + noise).to_bits());
        }
    }
}
