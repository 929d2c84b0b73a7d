//! Learning-based workload clustering (§3.1).
//!
//! Block I/O traces are windowed (3,000 entries), each window is reduced to
//! an access-pattern feature vector, features are standardized and projected
//! to 5 dimensions with PCA, and k-means groups the projected windows. A new
//! workload joins the cluster whose centroid is nearest to the mean of its
//! projected windows; if that distance exceeds the new-cluster threshold,
//! the model is retrained with one more cluster — exactly the workflow in
//! the paper.

use iotrace::window::{window_features, WindowOptions};
use iotrace::Trace;
use mlkit::kmeans::KMeans;
use mlkit::linalg::Matrix;
use mlkit::pca::Pca;
use mlkit::scale::StandardScaler;
use mlkit::{MlError, Result};
use serde::{Deserialize, Serialize};

/// PCA output dimensionality (5 in the paper, capturing ~70% of variance).
pub const PCA_DIMS: usize = 5;

/// Outcome of classifying a new workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClusterDecision {
    /// The workload belongs to an existing cluster.
    Existing {
        /// Cluster id.
        cluster: usize,
        /// Euclidean distance from the workload's center to the centroid.
        distance: f64,
    },
    /// The workload is farther than the threshold from every centroid and
    /// should seed a new cluster.
    New {
        /// Nearest existing cluster (for reference).
        nearest: usize,
        /// Distance to that nearest centroid.
        distance: f64,
    },
}

impl ClusterDecision {
    /// The cluster id when the decision is `Existing`.
    pub fn existing(self) -> Option<usize> {
        match self {
            ClusterDecision::Existing { cluster, .. } => Some(cluster),
            ClusterDecision::New { .. } => None,
        }
    }
}

/// A fitted workload clustering model.
#[derive(Debug)]
pub struct WorkloadClusterer {
    scaler: StandardScaler,
    pca: Pca,
    kmeans: KMeans,
    window: WindowOptions,
    threshold: f64,
    training: Matrix,
    seed: u64,
}

impl WorkloadClusterer {
    /// Fits the pipeline on training traces with `k` clusters.
    ///
    /// The new-cluster threshold is derived from the fitted model as the
    /// minimum distance between existing centroids (the paper's rule: "this
    /// threshold corresponds to the minimum distance between existing
    /// clusters").
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InsufficientData`] if the traces yield fewer
    /// windows than `k`, or other `mlkit` errors from the underlying models.
    pub fn fit(traces: &[Trace], k: usize, window: WindowOptions, seed: u64) -> Result<Self> {
        Self::fit_with_dims(traces, k, window, seed, PCA_DIMS)
    }

    /// Like [`WorkloadClusterer::fit`] but with an explicit PCA output
    /// dimensionality (used by the clustering-parameter ablation).
    ///
    /// # Errors
    ///
    /// Same as [`WorkloadClusterer::fit`].
    pub fn fit_with_dims(
        traces: &[Trace],
        k: usize,
        window: WindowOptions,
        seed: u64,
        pca_dims: usize,
    ) -> Result<Self> {
        let _span = telemetry::span::Span::enter_keyed("cluster.fit", k as u64);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for t in traces {
            rows.extend(window_features(t, window));
        }
        if rows.len() < k.max(2) {
            return Err(MlError::InsufficientData(format!(
                "clustering needs at least {} windows, got {}",
                k.max(2),
                rows.len()
            )));
        }
        let raw = Matrix::from_rows(&rows);
        let scaler = StandardScaler::fit(&raw)?;
        let scaled = scaler.transform(&raw)?;
        let dims = pca_dims.clamp(1, scaled.cols());
        let pca = Pca::fit(&scaled, dims)?;
        let projected = pca.transform(&scaled)?;
        let kmeans = KMeans::fit(&projected, k, seed)?;
        let threshold = Self::min_centroid_distance(&kmeans);
        Ok(WorkloadClusterer {
            scaler,
            pca,
            kmeans,
            window,
            threshold,
            training: projected,
            seed,
        })
    }

    fn min_centroid_distance(kmeans: &KMeans) -> f64 {
        let c = kmeans.centroids();
        let mut min = f64::INFINITY;
        for i in 0..c.rows() {
            for j in (i + 1)..c.rows() {
                let d = mlkit::linalg::sq_dist(c.row(i), c.row(j)).sqrt();
                min = min.min(d);
            }
        }
        if min.is_finite() {
            min
        } else {
            // Single cluster: accept anything within a generous radius.
            f64::MAX
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.kmeans.k()
    }

    /// The new-cluster distance threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Overrides the new-cluster threshold.
    pub fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
    }

    /// Fraction of total variance captured by the PCA projection.
    pub fn explained_variance(&self) -> f64 {
        self.pca.explained_variance_ratio().iter().sum()
    }

    /// Projects a trace's windows into PCA space (rows = windows). Used to
    /// regenerate Figure 2.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InsufficientData`] if the trace has fewer events
    /// than one window.
    pub fn project(&self, trace: &Trace) -> Result<Matrix> {
        let rows = window_features(trace, self.window);
        if rows.is_empty() {
            return Err(MlError::InsufficientData(format!(
                "trace {:?} has no complete windows",
                trace.name()
            )));
        }
        let raw = Matrix::from_rows(&rows);
        let scaled = self.scaler.transform(&raw)?;
        self.pca.transform(&scaled)
    }

    /// Mean PCA-space position of a trace (the "center of the examined data
    /// points" of §3.1).
    ///
    /// # Errors
    ///
    /// Propagates [`WorkloadClusterer::project`] errors.
    pub fn center(&self, trace: &Trace) -> Result<Vec<f64>> {
        let p = self.project(trace)?;
        let mut center = vec![0.0; p.cols()];
        for r in 0..p.rows() {
            for (c, v) in center.iter_mut().enumerate() {
                *v += p[(r, c)];
            }
        }
        for v in &mut center {
            *v /= p.rows() as f64;
        }
        Ok(center)
    }

    /// Classifies a new workload: nearest cluster, or `New` when the
    /// distance exceeds the threshold.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkloadClusterer::project`] errors.
    pub fn classify(&self, trace: &Trace) -> Result<ClusterDecision> {
        let _span = telemetry::span::Span::enter_keyed(
            "cluster.classify",
            telemetry::span::key_str(trace.name()),
        );
        let center = self.center(trace)?;
        let cluster = self.kmeans.predict_row(&center)?;
        let distance = self.kmeans.distance_to_nearest(&center)?;
        if distance <= self.threshold {
            Ok(ClusterDecision::Existing { cluster, distance })
        } else {
            Ok(ClusterDecision::New {
                nearest: cluster,
                distance,
            })
        }
    }

    /// Per-window cluster assignments for a trace.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkloadClusterer::project`] errors.
    pub fn classify_windows(&self, trace: &Trace) -> Result<Vec<usize>> {
        let p = self.project(trace)?;
        self.kmeans.predict(&p)
    }

    /// Retrains the k-means stage with one extra cluster, seeding it with
    /// the windows of `trace` — the paper's response to an unmatched
    /// workload.
    ///
    /// Returns the id of the new cluster.
    ///
    /// # Errors
    ///
    /// Propagates fitting errors from the underlying models.
    pub fn learn_new_cluster(&mut self, trace: &Trace) -> Result<usize> {
        let projected_new = self.project(trace)?;
        // Append new windows to the training set and refit k-means with k+1.
        let mut rows: Vec<Vec<f64>> = (0..self.training.rows())
            .map(|r| self.training.row(r).to_vec())
            .collect();
        for r in 0..projected_new.rows() {
            rows.push(projected_new.row(r).to_vec());
        }
        let all = Matrix::from_rows(&rows);
        let k = self.kmeans.k() + 1;
        self.kmeans = KMeans::fit(&all, k, self.seed)?;
        self.training = all;
        self.threshold = Self::min_centroid_distance(&self.kmeans);
        // The new workload's cluster id under the refreshed model.
        let center = self.center(trace)?;
        self.kmeans.predict_row(&center)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace::gen::WorkloadKind;

    fn small_window() -> WindowOptions {
        WindowOptions { window_len: 500 }
    }

    fn train_traces(kinds: &[WorkloadKind], events: usize) -> Vec<Trace> {
        kinds
            .iter()
            .map(|k| k.spec().generate(events, 100))
            .collect()
    }

    #[test]
    fn fit_produces_k_clusters() {
        let kinds = [
            WorkloadKind::WebSearch,
            WorkloadKind::BatchAnalytics,
            WorkloadKind::Fiu,
        ];
        let traces = train_traces(&kinds, 3_000);
        let model = WorkloadClusterer::fit(&traces, 3, small_window(), 1).unwrap();
        assert_eq!(model.k(), 3);
        assert!(model.threshold() > 0.0);
    }

    #[test]
    fn same_kind_maps_to_same_cluster() {
        let kinds = [
            WorkloadKind::WebSearch,
            WorkloadKind::BatchAnalytics,
            WorkloadKind::Fiu,
        ];
        let traces = train_traces(&kinds, 4_000);
        let model = WorkloadClusterer::fit(&traces, 3, small_window(), 1).unwrap();
        // A fresh trace of a studied kind lands in the same cluster as the
        // training trace of that kind.
        for kind in kinds {
            let train_c = model.classify(&kind.spec().generate(2_000, 100)).unwrap();
            let fresh_c = model.classify(&kind.spec().generate(2_000, 777)).unwrap();
            match (train_c, fresh_c) {
                (
                    ClusterDecision::Existing { cluster: a, .. },
                    ClusterDecision::Existing { cluster: b, .. },
                ) => assert_eq!(a, b, "{kind} drifted between clusters"),
                other => panic!("{kind} unexpectedly classified as {other:?}"),
            }
        }
    }

    #[test]
    fn different_kinds_map_to_different_clusters() {
        let kinds = [WorkloadKind::WebSearch, WorkloadKind::Fiu];
        let traces = train_traces(&kinds, 4_000);
        let model = WorkloadClusterer::fit(&traces, 2, small_window(), 3).unwrap();
        let a = model
            .classify(&WorkloadKind::WebSearch.spec().generate(2_000, 55))
            .unwrap()
            .existing()
            .expect("existing");
        let b = model
            .classify(&WorkloadKind::Fiu.spec().generate(2_000, 55))
            .unwrap()
            .existing()
            .expect("existing");
        assert_ne!(a, b);
    }

    #[test]
    fn pca_captures_majority_of_variance() {
        let traces = train_traces(&WorkloadKind::STUDIED, 3_000);
        let model = WorkloadClusterer::fit(&traces, 7, small_window(), 2).unwrap();
        // The paper reports 70.4% for 5 dims on its dataset.
        assert!(
            model.explained_variance() > 0.6,
            "explained variance {}",
            model.explained_variance()
        );
    }

    #[test]
    fn learn_new_cluster_extends_k() {
        let kinds = [WorkloadKind::WebSearch, WorkloadKind::BatchAnalytics];
        let traces = train_traces(&kinds, 3_000);
        let mut model = WorkloadClusterer::fit(&traces, 2, small_window(), 4).unwrap();
        let novel = WorkloadKind::Fiu.spec().generate(3_000, 9);
        let id = model.learn_new_cluster(&novel).unwrap();
        assert_eq!(model.k(), 3);
        assert!(id < 3);
        // The novel workload now classifies into its own cluster.
        let d = model.classify(&novel).unwrap();
        assert_eq!(d.existing(), Some(id));
    }

    #[test]
    fn short_trace_is_an_error() {
        let traces = train_traces(&[WorkloadKind::Vdi, WorkloadKind::Hdfs], 3_000);
        let model = WorkloadClusterer::fit(&traces, 2, small_window(), 5).unwrap();
        let tiny = WorkloadKind::Vdi.spec().generate(100, 1);
        assert!(model.classify(&tiny).is_err());
    }

    #[test]
    fn fit_rejects_insufficient_windows() {
        let traces = vec![WorkloadKind::Vdi.spec().generate(600, 1)];
        assert!(WorkloadClusterer::fit(&traces, 3, small_window(), 0).is_err());
    }

    #[test]
    fn threshold_override() {
        let traces = train_traces(&[WorkloadKind::WebSearch, WorkloadKind::Fiu], 3_000);
        let mut model = WorkloadClusterer::fit(&traces, 2, small_window(), 6).unwrap();
        model.set_threshold(1e-12);
        // With an absurdly tight threshold everything is "new".
        let d = model
            .classify(&WorkloadKind::WebSearch.spec().generate(2_000, 321))
            .unwrap();
        assert!(matches!(d, ClusterDecision::New { .. }));
    }
}
