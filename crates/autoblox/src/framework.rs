//! The AutoBlox framework facade (Figure 3): workload clustering at the
//! front, AutoDB recall in the middle, pruning + automated tuning at the
//! back.

use crate::clustering::{ClusterDecision, WorkloadClusterer};
use crate::constraints::Constraints;
use crate::pruning::{coarse_prune, fine_prune, CoarseReport, FineOptions, FineReport};
use crate::tuner::{Tuner, TunerOptions, TuningOutcome, TuningTarget};
use crate::validator::Validator;
use autodb::Store;
use iotrace::gen::WorkloadKind;
use iotrace::window::WindowOptions;
use iotrace::Trace;
use mlkit::Result as MlResult;
use serde::{Deserialize, Serialize};
use ssdsim::config::SsdConfig;
use std::collections::HashMap;
use std::sync::Arc;

/// A learned configuration as persisted in AutoDB (the JSON value format of
/// §3.5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoredConfig {
    /// The workload the configuration was learned for.
    pub workload: String,
    /// The configuration itself.
    pub config: SsdConfig,
    /// Its Formula-2 grade at learning time.
    pub grade: f64,
}

/// Outcome of asking AutoBlox for a configuration for a new workload.
#[derive(Debug)]
pub enum Recommendation {
    /// A similar workload was found in AutoDB; its stored configuration is
    /// returned directly ("utilize the previously learned experience").
    Recalled {
        /// The matched cluster.
        cluster: usize,
        /// Distance to the cluster centroid.
        distance: f64,
        /// The stored configuration.
        stored: StoredConfig,
    },
    /// No match: a new configuration was learned (and stored).
    Learned {
        /// The cluster the workload was filed under (new or nearest).
        cluster: usize,
        /// Whether a brand-new cluster was created for it.
        new_cluster: bool,
        /// The tuning result.
        outcome: TuningOutcome,
    },
}

impl Recommendation {
    /// The recommended configuration, however it was obtained.
    pub fn config(&self) -> &SsdConfig {
        match self {
            Recommendation::Recalled { stored, .. } => &stored.config,
            Recommendation::Learned { outcome, .. } => &outcome.best.config,
        }
    }
}

/// Options for the framework facade.
#[derive(Debug, Clone)]
pub struct AutoBloxOptions {
    /// Tuning-loop options.
    pub tuner: TunerOptions,
    /// Fine-pruning options.
    pub fine: FineOptions,
    /// Trace windowing options for clustering.
    pub window: WindowOptions,
    /// Number of outlier workloads near the same cluster required before a
    /// new category is created (§3.1: "As AutoBlox receives a certain
    /// number (e.g., 20 by default) of such applications, AutoBlox will
    /// create a new category"). Until then an outlier is served as a member
    /// of its nearest category.
    pub outlier_threshold: usize,
    /// Clustering seed.
    pub seed: u64,
}

impl Default for AutoBloxOptions {
    fn default() -> Self {
        AutoBloxOptions {
            tuner: TunerOptions::default(),
            fine: FineOptions::default(),
            window: WindowOptions::default(),
            outlier_threshold: 1,
            seed: 0xB10C,
        }
    }
}

/// The assembled AutoBlox framework.
#[derive(Debug)]
pub struct AutoBlox<'v> {
    constraints: Constraints,
    validator: &'v Validator,
    db: Arc<Store>,
    clusterer: Option<WorkloadClusterer>,
    outlier_counts: HashMap<usize, usize>,
    opts: AutoBloxOptions,
}

impl<'v> AutoBlox<'v> {
    /// Assembles the framework around a validator and an AutoDB store. The
    /// store also becomes the validator's measurement memo (see
    /// [`Validator::attach_store`]), so a run interrupted at any point and
    /// started again against the same store replays what it already paid
    /// for instead of simulating it.
    pub fn new(
        constraints: Constraints,
        validator: &'v Validator,
        db: Store,
        opts: AutoBloxOptions,
    ) -> Self {
        let db = Arc::new(db);
        validator.attach_store(Arc::clone(&db));
        AutoBlox {
            constraints,
            validator,
            db,
            clusterer: None,
            outlier_counts: HashMap::new(),
            opts,
        }
    }

    /// The AutoDB store.
    pub fn db(&self) -> &Store {
        &self.db
    }

    /// The fitted clustering model, if trained.
    pub fn clusterer(&self) -> Option<&WorkloadClusterer> {
        self.clusterer.as_ref()
    }

    /// Trains the clustering front end on labeled traces with `k` clusters.
    ///
    /// # Errors
    ///
    /// Propagates `mlkit` errors (e.g. too few windows for `k`).
    pub fn train_clustering(&mut self, traces: &[Trace], k: usize) -> MlResult<()> {
        self.clusterer = Some(WorkloadClusterer::fit(
            traces,
            k,
            self.opts.window,
            self.opts.seed,
        )?);
        Ok(())
    }

    /// Runs both pruning stages for a workload category and returns the
    /// coarse report plus the fine report (whose order drives tuning).
    pub fn prune(&self, kind: WorkloadKind, base: &SsdConfig) -> (CoarseReport, FineReport) {
        let sink = crate::telemetry::global();
        let space = crate::params::ParamSpace::new();
        let coarse = sink.phase("coarse_prune", || {
            coarse_prune(&space, base, kind, self.validator)
        });
        let sensitive = coarse.sensitive();
        let fine = sink.phase("fine_prune", || {
            fine_prune(
                &space,
                base,
                kind,
                &sensitive,
                self.validator,
                self.opts.fine,
            )
        });
        (coarse, fine)
    }

    /// Learns (or recalls) an optimized configuration for a workload
    /// category and records it in AutoDB under `category:<name>`.
    pub fn tune_category(
        &self,
        kind: WorkloadKind,
        reference: &SsdConfig,
        tuning_order: Option<&[&str]>,
    ) -> TuningOutcome {
        let initial: Vec<SsdConfig> = self
            .stored_configs(&Self::category_key(kind))
            .iter()
            .map(|s| s.config.clone())
            .collect();
        let outcome = self.run_tuner(kind.into(), reference, &initial, tuning_order);
        self.store(&Self::category_key(kind), kind.name(), &outcome);
        outcome
    }

    /// Runs one tuning pass for `target` under the `tune` phase.
    fn run_tuner(
        &self,
        target: TuningTarget<'_>,
        reference: &SsdConfig,
        initial: &[SsdConfig],
        tuning_order: Option<&[&str]>,
    ) -> TuningOutcome {
        let sink = crate::telemetry::global();
        let tuner = Tuner::new(self.constraints, self.validator, self.opts.tuner.clone());
        sink.phase("tune", || {
            tuner.tune(target, reference, initial, tuning_order)
        })
    }

    /// The full new-workload flow of Figure 3: classify the trace; recall a
    /// stored configuration on a cluster hit, otherwise learn a new
    /// configuration (creating a new cluster when the trace matches none)
    /// and store it for future recalls.
    ///
    /// # Panics
    ///
    /// Panics if [`AutoBlox::train_clustering`] has not been called.
    pub fn recommend(&mut self, trace: &Trace, reference: &SsdConfig) -> Recommendation {
        let clusterer = self
            .clusterer
            .as_ref()
            .expect("train_clustering must run before recommend");
        let decision = clusterer
            .classify(trace)
            .expect("trace must have at least one full window");
        match decision {
            ClusterDecision::Existing { cluster, distance } => {
                let key = Self::cluster_key(cluster);
                if let Some(stored) = self.best_stored(&key) {
                    return Recommendation::Recalled {
                        cluster,
                        distance,
                        stored,
                    };
                }
                // Known cluster but nothing learned yet: learn now.
                let outcome = self.tune_trace(trace, reference);
                self.store(&key, trace.name(), &outcome);
                Recommendation::Learned {
                    cluster,
                    new_cluster: false,
                    outcome,
                }
            }
            ClusterDecision::New { nearest, .. } => {
                // Outlier policy (§3.1): a new category is only created
                // once enough outliers accumulated near the same cluster;
                // until then the workload is served as a member of its
                // nearest category.
                let count = self.outlier_counts.entry(nearest).or_insert(0);
                *count += 1;
                if *count < self.opts.outlier_threshold {
                    let key = Self::cluster_key(nearest);
                    if let Some(stored) = self.best_stored(&key) {
                        return Recommendation::Recalled {
                            cluster: nearest,
                            distance: f64::NAN,
                            stored,
                        };
                    }
                    let outcome = self.tune_trace(trace, reference);
                    self.store(&key, trace.name(), &outcome);
                    return Recommendation::Learned {
                        cluster: nearest,
                        new_cluster: false,
                        outcome,
                    };
                }
                self.outlier_counts.remove(&nearest);
                let cluster = self
                    .clusterer
                    .as_mut()
                    .expect("trained")
                    .learn_new_cluster(trace)
                    .expect("retraining succeeds");
                let outcome = self.tune_trace(trace, reference);
                self.store(&Self::cluster_key(cluster), trace.name(), &outcome);
                Recommendation::Learned {
                    cluster,
                    new_cluster: true,
                    outcome,
                }
            }
        }
    }

    fn tune_trace(&self, trace: &Trace, reference: &SsdConfig) -> TuningOutcome {
        self.run_tuner(TuningTarget::Trace(trace), reference, &[], None)
    }

    fn category_key(kind: WorkloadKind) -> String {
        format!("category:{}", kind.name())
    }

    fn cluster_key(cluster: usize) -> String {
        format!("cluster:{cluster}")
    }

    fn stored_configs(&self, key: &str) -> Vec<StoredConfig> {
        self.db
            .get_record::<Vec<StoredConfig>>(key)
            .ok()
            .flatten()
            .unwrap_or_default()
    }

    fn best_stored(&self, key: &str) -> Option<StoredConfig> {
        self.stored_configs(key)
            .into_iter()
            .max_by(|a, b| a.grade.partial_cmp(&b.grade).expect("finite grades"))
    }

    fn store(&self, key: &str, workload: &str, outcome: &TuningOutcome) {
        let mut configs = self.stored_configs(key);
        configs.push(StoredConfig {
            workload: workload.to_string(),
            config: outcome.best.config.clone(),
            grade: outcome.best.grade,
        });
        // Keep the records bounded: retain the best eight.
        configs.sort_by(|a, b| b.grade.partial_cmp(&a.grade).expect("finite grades"));
        configs.truncate(8);
        let _ = self.db.put_record(key, &configs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::ValidatorOptions;
    use ssdsim::config::presets;

    fn quick_opts() -> AutoBloxOptions {
        AutoBloxOptions {
            tuner: TunerOptions {
                max_iterations: 4,
                sgd_iterations: 2,
                non_target: vec![],
                ..TunerOptions::default()
            },
            window: WindowOptions { window_len: 500 },
            ..Default::default()
        }
    }

    fn quick_framework(v: &Validator) -> AutoBlox<'_> {
        AutoBlox::new(
            Constraints::paper_default(),
            v,
            Store::in_memory(),
            quick_opts(),
        )
    }

    fn validator() -> Validator {
        Validator::new(ValidatorOptions {
            trace_events: 300,
            ..Default::default()
        })
    }

    #[test]
    fn tune_category_stores_result() {
        let v = validator();
        let fw = quick_framework(&v);
        let out = fw.tune_category(WorkloadKind::Database, &presets::intel_750(), None);
        assert!(out.best.grade >= 0.0);
        let stored: Vec<StoredConfig> = fw
            .db()
            .get_record("category:Database")
            .unwrap()
            .expect("stored");
        assert_eq!(stored.len(), 1);
        assert_eq!(stored[0].workload, "Database");
    }

    #[test]
    fn second_category_tuning_reuses_stored_seeds() {
        let v = validator();
        let fw = quick_framework(&v);
        fw.tune_category(WorkloadKind::KvStore, &presets::intel_750(), None);
        let out2 = fw.tune_category(WorkloadKind::KvStore, &presets::intel_750(), None);
        // With a seeded store the second run cannot be worse.
        assert!(out2.best.grade >= 0.0);
        let stored: Vec<StoredConfig> = fw.db().get_record("category:KVStore").unwrap().unwrap();
        assert!(stored.len() >= 2);
    }

    #[test]
    fn recommend_recalls_after_learning() {
        let v = validator();
        let mut fw = quick_framework(&v);
        let kinds = [WorkloadKind::WebSearch, WorkloadKind::Fiu];
        let train: Vec<Trace> = kinds.iter().map(|k| k.spec().generate(3_000, 5)).collect();
        fw.train_clustering(&train, 2).unwrap();

        // First encounter with a WebSearch-like trace: learned.
        let t1 = WorkloadKind::WebSearch.spec().generate(2_000, 99);
        let r1 = fw.recommend(&t1, &presets::intel_750());
        let cluster1 = match &r1 {
            Recommendation::Learned {
                cluster,
                new_cluster,
                ..
            } => {
                assert!(!new_cluster);
                *cluster
            }
            other => panic!("expected Learned, got {other:?}"),
        };

        // Second encounter: recalled from AutoDB, no tuning.
        let runs_before = v.simulator_runs();
        let t2 = WorkloadKind::WebSearch.spec().generate(2_000, 123);
        let r2 = fw.recommend(&t2, &presets::intel_750());
        match &r2 {
            Recommendation::Recalled { cluster, .. } => assert_eq!(*cluster, cluster1),
            other => panic!("expected Recalled, got {other:?}"),
        }
        assert_eq!(
            v.simulator_runs(),
            runs_before,
            "recall must not run the simulator"
        );
    }

    #[test]
    fn recommend_creates_new_cluster_for_novel_workload() {
        let v = validator();
        let mut fw = quick_framework(&v);
        let kinds = [WorkloadKind::WebSearch, WorkloadKind::BatchAnalytics];
        let train: Vec<Trace> = kinds.iter().map(|k| k.spec().generate(3_000, 5)).collect();
        fw.train_clustering(&train, 2).unwrap();
        let k_before = fw.clusterer().unwrap().k();

        // FIU is write-dominated small-random: unlike either cluster.
        let novel = WorkloadKind::Fiu.spec().generate(2_500, 9);
        let r = fw.recommend(&novel, &presets::intel_750());
        match r {
            Recommendation::Learned { new_cluster, .. } => {
                assert!(new_cluster, "FIU should not match read-heavy clusters");
                assert_eq!(fw.clusterer().unwrap().k(), k_before + 1);
            }
            Recommendation::Recalled { .. } => {
                panic!("novel workload cannot be recalled from an empty store")
            }
        }
    }

    #[test]
    fn outlier_threshold_defers_new_clusters() {
        let v = validator();
        let mut fw = quick_framework(&v);
        // Require two outliers before a new category forms.
        fw.opts.outlier_threshold = 2;
        let kinds = [WorkloadKind::WebSearch, WorkloadKind::BatchAnalytics];
        let train: Vec<Trace> = kinds.iter().map(|k| k.spec().generate(3_000, 5)).collect();
        fw.train_clustering(&train, 2).unwrap();
        let k0 = fw.clusterer().unwrap().k();

        // First FIU outlier: served by the nearest category, no new cluster.
        let novel1 = WorkloadKind::Fiu.spec().generate(2_500, 9);
        match fw.recommend(&novel1, &presets::intel_750()) {
            Recommendation::Learned { new_cluster, .. } => assert!(!new_cluster),
            Recommendation::Recalled { .. } => {}
        }
        assert_eq!(fw.clusterer().unwrap().k(), k0);

        // Second FIU outlier near the same cluster: new category created.
        let novel2 = WorkloadKind::Fiu.spec().generate(2_500, 77);
        match fw.recommend(&novel2, &presets::intel_750()) {
            Recommendation::Learned { new_cluster, .. } => assert!(new_cluster),
            other => panic!("expected a learned new cluster, got {other:?}"),
        }
        assert_eq!(fw.clusterer().unwrap().k(), k0 + 1);
    }

    #[test]
    fn replay_from_the_store_matches_uninterrupted_run() {
        let path = std::env::temp_dir().join(format!("abx-fw-replay-{}.db", std::process::id()));
        std::fs::remove_file(&path).ok();
        // Uninterrupted baseline.
        let v1 = validator();
        let full =
            quick_framework(&v1).tune_category(WorkloadKind::Database, &presets::intel_750(), None);

        // A run killed after two of its four iterations: everything it
        // simulated is in the store, its result is not.
        let v2 = validator();
        v2.attach_store(Arc::new(Store::open(&path).unwrap()));
        let opts = TunerOptions {
            max_iterations: 2,
            ..quick_opts().tuner
        };
        Tuner::new(Constraints::paper_default(), &v2, opts).tune(
            WorkloadKind::Database,
            &presets::intel_750(),
            &[],
            None,
        );

        // Running it again replays the paid-for prefix from the store and
        // simulates only the tail.
        let v3 = validator();
        let db = Store::open(&path).unwrap();
        let fw3 = AutoBlox::new(Constraints::paper_default(), &v3, db, quick_opts());
        let mut resumed = fw3.tune_category(WorkloadKind::Database, &presets::intel_750(), None);
        assert_eq!(v3.memo_hits(), v2.simulator_runs());
        assert_eq!(
            v3.simulator_runs(),
            v1.simulator_runs() - v2.simulator_runs()
        );
        // Only the per-process simulation counts differ.
        resumed.validations = full.validations;
        for (r, f) in resumed
            .iteration_records
            .iter_mut()
            .zip(&full.iteration_records)
        {
            r.validations = f.validations;
        }
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            serde_json::to_string(&full).unwrap(),
            "the replayed run must reproduce the uninterrupted outcome bit-identically"
        );
        std::fs::remove_file(&path).ok();
    }

    /// AutoDB stores outlive the build that wrote them: a learned config
    /// from before the device family existed, in a log line from before
    /// tombstones, is recalled as the homogeneous device it described.
    #[test]
    fn a_pre_family_store_recalls_a_homogeneous_config() {
        use serde_json::Value;
        let mut stored = serde_json::to_value(StoredConfig {
            workload: "pre-family".to_string(),
            config: presets::intel_750(),
            grade: 0.5,
        })
        .unwrap();
        let Value::Object(members) = &mut stored else {
            panic!("a stored config is an object")
        };
        let Some(Value::Object(config)) = members.get_mut("config") else {
            panic!("its config is an object")
        };
        config.remove("device_family").expect("member exists");
        let line = serde_json::json!({"key": "category:Database", "value": [stored]});
        let path = std::env::temp_dir().join(format!("abx-pre-family-{}.db", std::process::id()));
        std::fs::write(&path, serde_json::to_string(&line).unwrap() + "\n").unwrap();

        let v = validator();
        let fw = AutoBlox::new(
            Constraints::paper_default(),
            &v,
            Store::open(&path).unwrap(),
            quick_opts(),
        );
        fw.tune_category(WorkloadKind::Database, &presets::intel_750(), None);
        let stored: Vec<StoredConfig> = fw.db().get_record("category:Database").unwrap().unwrap();
        assert_eq!(stored.len(), 2, "the old config was recalled and kept");
        let old = stored
            .iter()
            .find(|s| s.workload == "pre-family")
            .expect("recalled");
        assert_eq!(
            old.config.device_family,
            ssdsim::config::DeviceFamily::Homogeneous
        );
        assert_eq!(old.config, presets::intel_750());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "train_clustering")]
    fn recommend_requires_training() {
        let v = validator();
        let mut fw = quick_framework(&v);
        let t = WorkloadKind::Vdi.spec().generate(1_000, 1);
        let _ = fw.recommend(&t, &presets::intel_750());
    }
}
