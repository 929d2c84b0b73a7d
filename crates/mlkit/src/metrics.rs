//! Clustering quality: the silhouette score.
//!
//! Workload clustering uses it to pick the number of clusters, and tests use
//! it to check that the workload clusters are well separated (Figure 2).

use crate::error::{MlError, Result};
use crate::linalg::{sq_dist, Matrix};

/// Mean silhouette coefficient over all samples, in `[-1, 1]`.
///
/// For each sample, `a` is its mean distance to its own cluster's other
/// members and `b` the smallest mean distance to another cluster; the
/// silhouette is `(b - a) / max(a, b)`. Values near 1 indicate compact,
/// well-separated clusters.
///
/// # Errors
///
/// - [`MlError::ShapeMismatch`] if `labels.len() != x.rows()`;
/// - [`MlError::InsufficientData`] if fewer than 2 clusters are present.
///
/// # Examples
///
/// ```
/// use mlkit::linalg::Matrix;
/// use mlkit::metrics::silhouette_score;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Matrix::from_rows(&[
///     vec![0.0], vec![0.1], vec![10.0], vec![10.1],
/// ]);
/// let s = silhouette_score(&x, &[0, 0, 1, 1])?;
/// assert!(s > 0.9);
/// # Ok(())
/// # }
/// ```
pub fn silhouette_score(x: &Matrix, labels: &[usize]) -> Result<f64> {
    if labels.len() != x.rows() {
        return Err(MlError::ShapeMismatch {
            left: x.shape(),
            right: (labels.len(), 1),
            op: "silhouette_score",
        });
    }
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut counts = vec![0usize; k];
    for &l in labels {
        counts[l] += 1;
    }
    if counts.iter().filter(|&&c| c > 0).count() < 2 {
        return Err(MlError::InsufficientData(
            "silhouette needs at least two non-empty clusters".into(),
        ));
    }
    let n = x.rows();
    let mut total = 0.0;
    let mut scored = 0usize;
    for i in 0..n {
        // Mean distance from i to every cluster.
        let mut sums = vec![0.0; k];
        for j in 0..n {
            if i == j {
                continue;
            }
            sums[labels[j]] += sq_dist(x.row(i), x.row(j)).sqrt();
        }
        let own = labels[i];
        if counts[own] < 2 {
            // Singleton clusters contribute silhouette 0 by convention.
            scored += 1;
            continue;
        }
        let a = sums[own] / (counts[own] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != own && counts[c] > 0)
            .map(|c| sums[c] / counts[c] as f64)
            .fold(f64::INFINITY, f64::min);
        let denom = a.max(b);
        if denom > 0.0 {
            total += (b - a) / denom;
        }
        scored += 1;
    }
    Ok(total / scored.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Matrix, Vec<usize>) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![0.1, 0.2],
            vec![5.0, 5.0],
            vec![5.1, 5.2],
            vec![5.2, 5.1],
        ]);
        (x, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn silhouette_high_for_separated_blobs() {
        let (x, labels) = blobs();
        let s = silhouette_score(&x, &labels).unwrap();
        assert!(s > 0.9, "{s}");
    }

    #[test]
    fn silhouette_low_for_shuffled_labels() {
        let (x, _) = blobs();
        let bad = vec![0, 1, 0, 1, 0, 1];
        let s = silhouette_score(&x, &bad).unwrap();
        assert!(s < 0.2, "{s}");
    }

    #[test]
    fn silhouette_handles_singletons() {
        let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![9.0]]);
        let s = silhouette_score(&x, &[0, 0, 1]).unwrap();
        assert!(s.is_finite());
    }

    #[test]
    fn silhouette_errors() {
        let (x, _) = blobs();
        assert!(silhouette_score(&x, &[0, 0]).is_err());
        assert!(silhouette_score(&x, &[0; 6]).is_err());
    }
}
