//! # mlkit — self-contained statistical learning toolkit
//!
//! The machine-learning substrate of the AutoBlox reproduction. The paper
//! builds on scikit-learn; this crate re-implements exactly the pieces
//! AutoBlox uses, with no external numerical dependencies:
//!
//! - [`linalg`]: dense matrices, Cholesky factorization, symmetric (Jacobi)
//!   eigendecomposition, and distance helpers;
//! - [`scale`]: z-score feature scaling;
//! - [`pca`]: principal component analysis (workload clustering, §3.1);
//! - [`kmeans`]: k-means++ clustering (workload clustering, §3.1);
//! - [`ridge`]: ridge regression (fine-grained parameter pruning, §3.3);
//! - [`kernel`] and [`gpr`]: Gaussian-process regression with an
//!   RBF + white-noise kernel (grade prediction, §3.4);
//! - [`nn`]: a small MLP regressor, the DNN comparison point of §3.2;
//! - [`parallel`]: a persistent worker pool for deterministic data-parallel
//!   fan-out (simulator validation downstream).
//!
//! # Examples
//!
//! Cluster points and predict with a Gaussian process:
//!
//! ```
//! use mlkit::kmeans::KMeans;
//! use mlkit::gpr::GprBuilder;
//! use mlkit::linalg::Matrix;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pts = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![5.0], vec![5.1]]);
//! let km = KMeans::fit(&pts, 2, 0)?;
//! assert_eq!(km.k(), 2);
//!
//! let gp = GprBuilder::new().fit(&pts, &[0.0, 0.1, 5.0, 5.1])?;
//! assert!((gp.predict(&[0.05])?.mean).abs() < 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod gpr;
pub mod kernel;
pub mod kmeans;
pub mod linalg;
pub mod nn;
pub mod parallel;
pub mod pca;
pub mod ridge;
pub mod scale;

pub use error::{MlError, Result};
