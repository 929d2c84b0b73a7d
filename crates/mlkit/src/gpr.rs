//! Gaussian-process regression with a trainable mean and composite kernel,
//! the grade predictor in AutoBlox's tuning loop (§3.4).
//!
//! Hyperparameters (kernel log-parameters and the constant mean) are tuned by
//! maximizing the log marginal likelihood with a derivative-free coordinate
//! search, which is robust for the small training sets (tens to hundreds of
//! validated configurations) the tuner produces.

use crate::error::{MlError, Result};
use crate::kernel::{Kernel, SumKernel};
use crate::linalg::{Cholesky, Matrix, LANES};

/// What `Iterator::sum::<f64>()` starts from: the per-point accumulators of
/// [`Gpr::predict_batch`] start there too, so each equals the `.sum()` over
/// the same terms.
const SUM_IDENTITY: f64 = -0.0;

/// Prediction from a Gaussian process: posterior mean and variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Posterior mean.
    pub mean: f64,
    /// Posterior variance (>= 0).
    pub variance: f64,
}

impl Prediction {
    /// Floor applied to the variance in [`Prediction::z_score`] and
    /// [`Prediction::nlpd`] so degenerate (zero-variance) predictions keep
    /// both finite.
    pub const VARIANCE_FLOOR: f64 = 1e-12;

    /// Posterior standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }

    /// Upper confidence bound `mean + beta * std_dev`, the acquisition value
    /// used when ranking candidate configurations.
    pub fn ucb(&self, beta: f64) -> f64 {
        self.mean + beta * self.std_dev()
    }

    /// Standardized residual `(observed - mean) / std_dev` of a realized
    /// outcome under this predictive distribution. The variance is floored
    /// at [`Prediction::VARIANCE_FLOOR`] so a (numerically) certain
    /// prediction still yields a finite z-score.
    pub fn z_score(&self, observed: f64) -> f64 {
        let sd = self.variance.max(Self::VARIANCE_FLOOR).sqrt();
        (observed - self.mean) / sd
    }

    /// Negative log predictive density of a realized outcome under this
    /// Gaussian predictive distribution:
    /// `0.5 ln(2 pi sigma^2) + (y - mu)^2 / (2 sigma^2)`, with the variance
    /// floored at [`Prediction::VARIANCE_FLOOR`]. Lower is better; the
    /// standard calibration score for probabilistic regressors.
    pub fn nlpd(&self, observed: f64) -> f64 {
        let var = self.variance.max(Self::VARIANCE_FLOOR);
        let resid = observed - self.mean;
        0.5 * (2.0 * std::f64::consts::PI * var).ln() + resid * resid / (2.0 * var)
    }
}

/// A fitted Gaussian-process regressor.
///
/// # Examples
///
/// ```
/// use mlkit::gpr::GprBuilder;
/// use mlkit::linalg::Matrix;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
/// let y = [0.0, 1.0, 4.0, 9.0];
/// let gp = GprBuilder::new().optimize_rounds(2).fit(&x, &y)?;
/// let p = gp.predict(&[1.0])?;
/// assert!((p.mean - 1.0).abs() < 0.5);
/// // Far from data, uncertainty grows.
/// assert!(gp.predict(&[30.0])?.variance > p.variance);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Gpr {
    kernel: SumKernel,
    train_x: Matrix,
    train_y: Vec<f64>,
    alpha: Vec<f64>,
    chol: Cholesky,
    mean: f64,
    log_marginal_likelihood: f64,
    /// Diagonal jitter the factorization actually used (the builder's value
    /// after any escalation); [`Gpr::extend`] adds the same amount to the
    /// new diagonal entry so the bordered matrix matches a full refit.
    jitter: f64,
}

/// Builder configuring and fitting a [`Gpr`].
#[derive(Debug)]
pub struct GprBuilder {
    kernel: SumKernel,
    jitter: f64,
    optimize_rounds: usize,
}

impl Default for GprBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GprBuilder {
    /// Starts from the AutoBlox default kernel
    /// (`Rbf + RationalQuadratic + White`).
    pub fn new() -> Self {
        GprBuilder {
            kernel: SumKernel::autoblox_default(),
            jitter: 1e-8,
            optimize_rounds: 3,
        }
    }

    /// Replaces the covariance kernel.
    pub fn kernel(mut self, kernel: SumKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the diagonal jitter added for numerical stability.
    pub fn jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the number of coordinate-search rounds for hyperparameter tuning
    /// (0 disables tuning and keeps the initial kernel).
    pub fn optimize_rounds(mut self, rounds: usize) -> Self {
        self.optimize_rounds = rounds;
        self
    }

    /// Fits the Gaussian process on row-samples `x` with targets `y`.
    ///
    /// # Errors
    ///
    /// - [`MlError::InsufficientData`] for an empty training set;
    /// - [`MlError::ShapeMismatch`] if `y.len() != x.rows()`;
    /// - [`MlError::NotPositiveDefinite`] if the kernel matrix cannot be
    ///   factorized even after jitter (pathological hyperparameters).
    pub fn fit(self, x: &Matrix, y: &[f64]) -> Result<Gpr> {
        if x.rows() == 0 {
            return Err(MlError::InsufficientData(
                "GPR needs at least one training sample".into(),
            ));
        }
        if y.len() != x.rows() {
            return Err(MlError::ShapeMismatch {
                left: x.shape(),
                right: (y.len(), 1),
                op: "gpr_fit",
            });
        }
        let mut kernel = self.kernel;
        // Trainable constant mean, initialized to the sample mean.
        let mean = y.iter().sum::<f64>() / y.len() as f64;

        if self.optimize_rounds > 0 && x.rows() >= 3 {
            Self::tune(&mut kernel, x, y, mean, self.jitter, self.optimize_rounds);
        }
        let (chol, alpha, lml, jitter) = Self::factorize(&kernel, x, y, mean, self.jitter)?;
        Ok(Gpr {
            kernel,
            train_x: x.clone(),
            train_y: y.to_vec(),
            alpha,
            chol,
            mean,
            log_marginal_likelihood: lml,
            jitter,
        })
    }

    fn factorize(
        kernel: &SumKernel,
        x: &Matrix,
        y: &[f64],
        mean: f64,
        jitter: f64,
    ) -> Result<(Cholesky, Vec<f64>, f64, f64)> {
        let n = x.rows();
        let mut k = kernel.gram(x);
        let mut j = jitter;
        let chol = loop {
            let mut kj = k.clone();
            for i in 0..n {
                kj[(i, i)] += j;
            }
            match kj.cholesky() {
                Ok(c) => break c,
                Err(_) if j < 1.0 => {
                    j *= 10.0;
                    continue;
                }
                Err(e) => return Err(e),
            }
        };
        // Keep the jittered matrix for consistency in k.
        for i in 0..n {
            k[(i, i)] += j;
        }
        let centered: Vec<f64> = y.iter().map(|v| v - mean).collect();
        let alpha = chol.solve(&centered)?;
        let fit_term: f64 = centered.iter().zip(&alpha).map(|(a, b)| a * b).sum();
        let lml = -0.5 * fit_term
            - 0.5 * chol.log_det()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        Ok((chol, alpha, lml, j))
    }

    /// Derivative-free coordinate search over log hyperparameters.
    fn tune(kernel: &mut SumKernel, x: &Matrix, y: &[f64], mean: f64, jitter: f64, rounds: usize) {
        let mut best_p = kernel.params();
        let mut best_lml = match Self::factorize(kernel, x, y, mean, jitter) {
            Ok((_, _, lml, _)) => lml,
            Err(_) => f64::NEG_INFINITY,
        };
        let mut step = 1.0f64;
        for _ in 0..rounds {
            for i in 0..best_p.len() {
                for dir in [-1.0, 1.0] {
                    let mut cand = best_p.clone();
                    cand[i] += dir * step;
                    // Clamp log-params to a sane window to avoid degenerate
                    // kernels (e.g. zero-length scales).
                    cand[i] = cand[i].clamp(-10.0, 10.0);
                    kernel.set_params(&cand);
                    if let Ok((_, _, lml, _)) = Self::factorize(kernel, x, y, mean, jitter) {
                        if lml > best_lml {
                            best_lml = lml;
                            best_p = cand;
                        }
                    }
                }
            }
            step *= 0.5;
        }
        kernel.set_params(&best_p);
    }
}

impl Gpr {
    /// Posterior prediction at a single point: the one-row case of
    /// [`Gpr::predict_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if the feature dimension differs
    /// from the training data.
    pub fn predict(&self, point: &[f64]) -> Result<Prediction> {
        let batch = self.predict_batch(&Matrix::from_vec(1, point.len(), point.to_vec()))?;
        Ok(batch[0])
    }

    /// Posterior predictions for each row of `x` (none for zero rows).
    ///
    /// Per point the operations and their order are fixed — squared
    /// distance to each training row accumulated in coordinate order, the
    /// kernel of that distance, the mean summed in training-row order, one
    /// Cholesky solve, the variance summed in the same order — so a point's
    /// prediction does not depend on which other rows share its batch, down
    /// to the last bit. Only the loops are arranged across points, which
    /// are independent of each other: eight points at a time go through
    /// every stage with their partial sums in registers, and the remainder
    /// one by one through the same code.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if the feature dimension differs.
    pub fn predict_batch(&self, x: &Matrix) -> Result<Vec<Prediction>> {
        let (m, d) = x.shape();
        if m == 0 {
            return Ok(Vec::new());
        }
        if d != self.train_x.cols() {
            return Err(MlError::ShapeMismatch {
                left: x.shape(),
                right: (1, self.train_x.cols()),
                op: "gpr_predict",
            });
        }
        let xt = x.transpose();
        let mut out = Vec::with_capacity(m);
        let mut scratch = (Vec::new(), Vec::new());
        let full = m - m % LANES;
        for c0 in (0..full).step_by(LANES) {
            self.predict_columns::<LANES>(x, &xt, c0, &mut scratch, &mut out);
        }
        for c0 in full..m {
            self.predict_columns::<1>(x, &xt, c0, &mut scratch, &mut out);
        }
        Ok(out)
    }

    /// [`Gpr::predict_batch`] for the points `c0..c0 + W` (columns of the
    /// transposed batch `xt`), appended to `out`. `scratch` holds their
    /// kernel rows and solves, `n x W` each.
    fn predict_columns<const W: usize>(
        &self,
        x: &Matrix,
        xt: &Matrix,
        c0: usize,
        (k_star, v): &mut (Vec<f64>, Vec<f64>),
        out: &mut Vec<Prediction>,
    ) {
        let n = self.train_x.rows();
        let m = xt.cols();
        // `k_star[i * W + b]` = k(point c0 + b, training row i).
        k_star.clear();
        k_star.resize(n * W, 0.0);
        let mut mean = [SUM_IDENTITY; W];
        for ((i, &a), k_row) in (0..n).zip(&self.alpha).zip(k_star.chunks_exact_mut(W)) {
            let mut d2 = [SUM_IDENTITY; W];
            for (&t, p) in self
                .train_x
                .row(i)
                .iter()
                .zip(xt.as_slice().chunks_exact(m))
            {
                for (acc, &p) in d2.iter_mut().zip(&p[c0..c0 + W]) {
                    *acc += (p - t) * (p - t);
                }
            }
            for ((k, dist), mu) in k_row.iter_mut().zip(d2).zip(&mut mean) {
                *k = self.kernel.eval_sq_dist(dist);
                *mu += *k * a;
            }
        }
        v.clone_from(k_star);
        self.chol.solve_in_place(v, W);
        let mut explained = [SUM_IDENTITY; W];
        for (k_row, v_row) in k_star.chunks_exact(W).zip(v.chunks_exact(W)) {
            for ((acc, k), w) in explained.iter_mut().zip(k_row).zip(v_row) {
                *acc += k * w;
            }
        }
        for (b, (mu, ex)) in mean.into_iter().zip(explained).enumerate() {
            out.push(Prediction {
                mean: self.mean + mu,
                variance: (self.kernel.diag(x.row(c0 + b)) - ex).max(0.0),
            });
        }
    }

    /// Log marginal likelihood of the training data under the fitted model.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.log_marginal_likelihood
    }

    /// The trained constant mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Number of training samples.
    pub fn n_samples(&self) -> usize {
        self.train_x.rows()
    }

    /// The fitted covariance kernel (hyperparameters frozen since the last
    /// full fit). Callers that need an exact from-scratch refit with the
    /// same hyperparameters clone this into a [`GprBuilder`] with
    /// `optimize_rounds(0)`.
    pub fn kernel(&self) -> &SumKernel {
        &self.kernel
    }

    /// Returns a new model trained on the old observations plus
    /// `(x_new, y_new)`, without refitting from scratch.
    ///
    /// Hyperparameters stay frozen; the Cholesky factor grows by one
    /// bordered row ([`Cholesky::extend`], O(n²)) and the constant mean is
    /// updated to the new sample mean with `alpha` re-solved against it.
    /// The result is bit-identical to an `optimize_rounds(0)` refit with
    /// this model's kernel and jitter on the full n+1 samples, because the
    /// bordered update replays the same arithmetic — that exactness is what
    /// lets the tuner's surrogate cache be dropped and rebuilt without
    /// moving the search trajectory.
    ///
    /// # Errors
    ///
    /// - [`MlError::ShapeMismatch`] if the feature dimension differs;
    /// - [`MlError::NotPositiveDefinite`] if the bordered kernel matrix is
    ///   no longer positive definite (e.g. a near-duplicate sample); the
    ///   caller should fall back to a full refit, which re-escalates jitter.
    pub fn extend(&self, x_new: &[f64], y_new: f64) -> Result<Gpr> {
        if x_new.len() != self.train_x.cols() {
            return Err(MlError::ShapeMismatch {
                left: (1, x_new.len()),
                right: (1, self.train_x.cols()),
                op: "gpr_extend",
            });
        }
        let n = self.train_x.rows();
        let cross: Vec<f64> = (0..n)
            .map(|i| self.kernel.eval(x_new, self.train_x.row(i)))
            .collect();
        let diag = self.kernel.diag(x_new) + self.jitter;
        let chol = self.chol.extend(&cross, diag)?;

        let mut train_x = self.train_x.clone();
        train_x.push_row(x_new);
        let mut train_y = self.train_y.clone();
        train_y.push(y_new);
        let m = train_y.len();
        let mean = train_y.iter().sum::<f64>() / m as f64;
        let centered: Vec<f64> = train_y.iter().map(|v| v - mean).collect();
        let alpha = chol.solve(&centered)?;
        let fit_term: f64 = centered.iter().zip(&alpha).map(|(a, b)| a * b).sum();
        let lml = -0.5 * fit_term
            - 0.5 * chol.log_det()
            - 0.5 * m as f64 * (2.0 * std::f64::consts::PI).ln();
        Ok(Gpr {
            kernel: self.kernel.clone(),
            train_x,
            train_y,
            alpha,
            chol,
            mean,
            log_marginal_likelihood: lml,
            jitter: self.jitter,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Rbf, White};
    use crate::linalg::reference_solve;
    use proptest::prelude::*;

    fn toy() -> (Matrix, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.5]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| (r[0]).sin()).collect();
        (Matrix::from_rows(&xs), ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (x, y) = toy();
        let gp = GprBuilder::new()
            .kernel(SumKernel::new(vec![
                Box::new(Rbf::new(1.0, 1.0)),
                Box::new(White::new(1e-6)),
            ]))
            .optimize_rounds(0)
            .fit(&x, &y)
            .unwrap();
        for (i, &yi) in y.iter().enumerate() {
            let p = gp.predict(x.row(i)).unwrap();
            assert!((p.mean - yi).abs() < 0.05, "at {i}: {} vs {}", p.mean, yi);
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let (x, y) = toy();
        let gp = GprBuilder::new().optimize_rounds(0).fit(&x, &y).unwrap();
        let near = gp.predict(&[1.0]).unwrap();
        let far = gp.predict(&[40.0]).unwrap();
        assert!(far.variance > near.variance);
    }

    #[test]
    fn reverts_to_mean_far_away() {
        let (x, y) = toy();
        let gp = GprBuilder::new().optimize_rounds(0).fit(&x, &y).unwrap();
        let far = gp.predict(&[1e3]).unwrap();
        assert!((far.mean - gp.mean()).abs() < 1e-6);
    }

    #[test]
    fn tuning_does_not_hurt_likelihood() {
        let (x, y) = toy();
        let untuned = GprBuilder::new().optimize_rounds(0).fit(&x, &y).unwrap();
        let tuned = GprBuilder::new().optimize_rounds(3).fit(&x, &y).unwrap();
        assert!(tuned.log_marginal_likelihood() >= untuned.log_marginal_likelihood() - 1e-9);
    }

    #[test]
    fn ucb_ordering() {
        let p = Prediction {
            mean: 1.0,
            variance: 4.0,
        };
        assert_eq!(p.std_dev(), 2.0);
        assert_eq!(p.ucb(0.0), 1.0);
        assert_eq!(p.ucb(1.0), 3.0);
    }

    #[test]
    fn calibration_scores_are_finite_and_consistent() {
        let p = Prediction {
            mean: 1.0,
            variance: 4.0,
        };
        // One observed standard deviation above the mean.
        assert!((p.z_score(3.0) - 1.0).abs() < 1e-12);
        assert!((p.z_score(-1.0) + 1.0).abs() < 1e-12);
        // NLPD is minimized at the mean and grows with the residual.
        assert!(p.nlpd(1.0) < p.nlpd(3.0));
        assert!(p.nlpd(3.0) < p.nlpd(9.0));
        // Degenerate variance stays finite thanks to the floor.
        let degenerate = Prediction {
            mean: 0.0,
            variance: 0.0,
        };
        assert!(degenerate.z_score(0.5).is_finite());
        assert!(degenerate.nlpd(0.5).is_finite());
    }

    #[test]
    fn rejects_bad_shapes() {
        let (x, y) = toy();
        assert!(GprBuilder::new().fit(&x, &y[..3]).is_err());
        assert!(GprBuilder::new().fit(&Matrix::zeros(0, 1), &[]).is_err());
        let gp = GprBuilder::new().optimize_rounds(0).fit(&x, &y).unwrap();
        assert!(gp.predict(&[1.0, 2.0]).is_err());
        assert_eq!(gp.n_samples(), 10);
    }

    #[test]
    fn single_point_training() {
        let x = Matrix::from_rows(&[vec![2.0]]);
        let gp = GprBuilder::new().fit(&x, &[5.0]).unwrap();
        let p = gp.predict(&[2.0]).unwrap();
        assert!((p.mean - 5.0).abs() < 0.5);
    }

    #[test]
    fn predict_batch_matches_single() {
        let (x, y) = toy();
        let gp = GprBuilder::new().optimize_rounds(0).fit(&x, &y).unwrap();
        let batch = gp.predict_batch(&x).unwrap();
        for (i, b) in batch.iter().enumerate() {
            let single = gp.predict(x.row(i)).unwrap();
            assert_eq!(*b, single);
        }
    }

    /// The per-point prediction as it stood before batching, scalar
    /// Cholesky solve included: the reference `predict_batch` must equal
    /// bit for bit.
    fn reference_predict(gp: &Gpr, point: &[f64]) -> Prediction {
        let n = gp.train_x.rows();
        let k_star: Vec<f64> = (0..n)
            .map(|i| gp.kernel.eval(point, gp.train_x.row(i)))
            .collect();
        let mean = gp.mean
            + k_star
                .iter()
                .zip(&gp.alpha)
                .map(|(k, a)| k * a)
                .sum::<f64>();
        let v = reference_solve(&gp.chol, &k_star);
        let k_ss = gp.kernel.diag(point);
        let variance = (k_ss - k_star.iter().zip(&v).map(|(k, w)| k * w).sum::<f64>()).max(0.0);
        Prediction { mean, variance }
    }

    fn assert_batch_is_reference(gp: &Gpr, queries: &Matrix) {
        let batch = gp.predict_batch(queries).unwrap();
        assert_eq!(batch.len(), queries.rows());
        for (r, got) in batch.iter().enumerate() {
            let want = reference_predict(gp, queries.row(r));
            assert_eq!(got.mean.to_bits(), want.mean.to_bits(), "mean, row {r}");
            assert_eq!(
                got.variance.to_bits(),
                want.variance.to_bits(),
                "variance, row {r}"
            );
        }
    }

    /// `(n, d, m)` plus unit-cube training rows, grades and query rows.
    type BatchCase = (usize, usize, usize, Vec<f64>, Vec<f64>, Vec<f64>);

    /// Query batches of every width around the register block's multiples
    /// fit in a prefix of the `m >= 4 * LANES - 1` query rows.
    fn arb_batch_case() -> impl Strategy<Value = BatchCase> {
        let n = prop_oneof![Just(1usize), 1usize..80];
        (n, 1usize..60, 4 * LANES - 1..100).prop_flat_map(|(n, d, m)| {
            (
                Just(n),
                Just(d),
                Just(m),
                prop::collection::vec(0.0f64..1.0, n * d),
                prop::collection::vec(-2.0f64..2.0, n),
                prop::collection::vec(0.0f64..1.0, m * d),
            )
        })
    }

    /// The first `m` rows of `queries`.
    fn prefix(queries: &Matrix, m: usize) -> Matrix {
        let d = queries.cols();
        Matrix::from_vec(m, d, queries.as_slice()[..m * d].to_vec())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn predict_batch_is_bit_identical_to_per_point_reference(
            case in arb_batch_case(),
            x_new in prop::collection::vec(0.0f64..1.0, 60),
            y_new in -2.0f64..2.0,
        ) {
            let (n, d, m, x, y, q) = case;
            let x = Matrix::from_vec(n, d, x);
            let queries = Matrix::from_vec(m, d, q);
            let widths = [0, 1, LANES - 1, LANES, LANES + 1, 4 * LANES - 1, m];
            let tuner_kernel = SumKernel::new(vec![
                Box::new(Rbf::new(0.5, 1.0)),
                Box::new(White::new(1e-4)),
            ]);
            for (kernel, rounds) in [(SumKernel::autoblox_default(), 0), (tuner_kernel, 1)] {
                let gp = GprBuilder::new()
                    .kernel(kernel)
                    .optimize_rounds(rounds)
                    .fit(&x, &y)
                    .unwrap();
                // A near-duplicate sample may refuse the bordered update;
                // the model before it was already checked.
                let grown = gp.extend(&x_new[..d], y_new).ok();
                for model in std::iter::once(&gp).chain(&grown) {
                    for w in widths {
                        assert_batch_is_reference(model, &prefix(&queries, w));
                    }
                }
            }
        }
    }

    #[test]
    fn sum_identity_is_the_one_iterators_use() {
        let std_identity: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(SUM_IDENTITY.to_bits(), std_identity.to_bits());
    }

    #[test]
    fn predict_batch_edge_shapes_are_errors_not_panics() {
        let (x, y) = toy();
        let gp = GprBuilder::new().optimize_rounds(0).fit(&x, &y).unwrap();
        // Zero rows score nothing, whatever the column count says.
        assert_eq!(gp.predict_batch(&Matrix::zeros(0, 1)).unwrap(), vec![]);
        assert_eq!(gp.predict_batch(&Matrix::zeros(0, 7)).unwrap(), vec![]);
        // One wrong column count fails the whole batch.
        for cols in [0, 2] {
            assert!(matches!(
                gp.predict_batch(&Matrix::zeros(3, cols)),
                Err(MlError::ShapeMismatch {
                    op: "gpr_predict",
                    ..
                })
            ));
        }
        assert!(gp.predict(&[]).is_err());
    }

    /// `extend` must be bit-identical to a frozen-hyperparameter refit on
    /// the grown training set — the exactness the tuner's resumable
    /// surrogate cache depends on.
    #[test]
    fn extend_is_bit_identical_to_frozen_refit() {
        let (x, y) = toy();
        let base = GprBuilder::new()
            .optimize_rounds(0)
            .fit(&x, &y[..x.rows()])
            .unwrap();
        let extended = base.extend(&[7.25], 0.9).unwrap();

        let mut x2 = x.clone();
        x2.push_row(&[7.25]);
        let mut y2 = y.clone();
        y2.push(0.9);
        let refit = GprBuilder::new()
            .kernel(base.kernel().clone())
            .optimize_rounds(0)
            .fit(&x2, &y2)
            .unwrap();

        assert_eq!(extended.n_samples(), refit.n_samples());
        assert_eq!(extended.mean(), refit.mean());
        assert_eq!(
            extended.log_marginal_likelihood(),
            refit.log_marginal_likelihood()
        );
        for p in 0..30 {
            let at = [p as f64 * 0.3 - 1.0];
            let a = extended.predict(&at).unwrap();
            let b = refit.predict(&at).unwrap();
            assert_eq!(a.mean, b.mean, "at {at:?}");
            assert_eq!(a.variance, b.variance, "at {at:?}");
        }
    }

    #[test]
    fn extend_after_tuned_fit_keeps_hyperparameters() {
        let (x, y) = toy();
        let tuned = GprBuilder::new().optimize_rounds(2).fit(&x, &y).unwrap();
        let params_before = tuned.kernel().params();
        let grown = tuned.extend(&[9.5], -0.2).unwrap();
        assert_eq!(grown.kernel().params(), params_before);
        assert_eq!(grown.n_samples(), tuned.n_samples() + 1);
        // The extended model still interpolates the new observation roughly.
        let p = grown.predict(&[9.5]).unwrap();
        assert!((p.mean - (-0.2)).abs() < 0.5, "mean {}", p.mean);
    }

    #[test]
    fn extend_rejects_wrong_dimension() {
        let (x, y) = toy();
        let gp = GprBuilder::new().optimize_rounds(0).fit(&x, &y).unwrap();
        assert!(gp.extend(&[1.0, 2.0], 0.0).is_err());
    }
}
