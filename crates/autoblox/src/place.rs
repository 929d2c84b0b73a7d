//! Fleet placement: consolidate N tenant workloads onto M virtual devices.
//!
//! The paper tunes one configuration per workload cluster; a fleet operator
//! has the dual problem — given a *set* of tenant traces and a bounded pool
//! of devices, which tenants should share a device, and under which of the
//! learned configurations? This module follows the Serifos blueprint
//! (workload consolidation and load balancing for SSD-backed cloud storage)
//! built from the pieces that already exist here:
//!
//! 1. **Classify** — each tenant trace is classified against the studied
//!    clusters ([`crate::clustering`]) and its learned configuration is
//!    fetched from AutoDB (`category:<owner>` / `cluster:<id>` records,
//!    restricted to the fleet's device-family kind), falling back to a
//!    constraint-matched preset.
//! 2. **Score** — a candidate device (a subset of tenants plus one
//!    compromise configuration) is scored by co-simulating the tenants'
//!    merged, LBA-partitioned trace ([`iotrace::mix::merge_partitioned`])
//!    through the shared [`Validator`] and comparing it against the
//!    tenants' *entitled* blend — the latency/throughput they measure when
//!    run solo under their own configurations. The interference cost is the
//!    negated Formula-1 performance of merged-vs-entitled, so a tenant
//!    alone on its own configuration costs exactly zero.
//! 3. **Search** — assignments are searched with greedy seeding (tenants
//!    by descending footprint, each placed on the device with the smallest
//!    marginal cost) followed by local-search rounds of single-tenant moves
//!    and pairwise swaps. Candidate scoring fans out through
//!    [`mlkit::parallel`]; every selection ties break on the lowest index,
//!    so the result is bit-identical at any thread count.
//! 4. **Attribute** — the winning assignment is replayed once per device
//!    with per-tenant lane accounting ([`ssdsim::TenantLanes`]) armed,
//!    yielding each device's bottleneck attribution and each tenant's
//!    co-located latency, from which the per-tenant degradation versus the
//!    solo run is reported.
//!
//! The result is a [`PlacementReport`] (`autoblox.place.v1`), the JSON
//! contract the CLI contract's `place_is_identical_at_every_width` row
//! (`crates/autoblox/tests/cli_contract.rs`) pins byte-identical across
//! thread counts.

use crate::clustering::{ClusterDecision, WorkloadClusterer};
use crate::framework::StoredConfig;
use crate::journal::{JournalLine, PlacementLine};
use crate::metrics::{performance, Measurement, DEFAULT_ALPHA};
use crate::validator::Validator;
use autodb::Store;
use iotrace::gen::WorkloadKind;
use iotrace::mix::merge_partitioned;
use iotrace::window::WindowOptions;
use iotrace::Trace;
use mlkit::parallel::parallel_map;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use ssdsim::config::{DeviceFamily, SsdConfig};
use ssdsim::{BottleneckReport, Simulator};
use std::collections::HashMap;
use std::sync::Arc;

/// Schema tag of [`PlacementReport`].
pub const PLACE_SCHEMA: &str = "autoblox.place.v1";

/// Knobs for a placement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementOptions {
    /// Device budget M (must be at least 1).
    pub devices: usize,
    /// Formula-1 latency/throughput blend used by the interference score.
    pub alpha: f64,
    /// Upper bound on local-search rounds after greedy seeding.
    pub max_rounds: usize,
    /// Classify tenants against the studied clusters before looking up
    /// learned configurations. Disable to place every tenant under the
    /// fallback configuration (fast; used by tests).
    pub classify: bool,
    /// Events per studied-category training trace for the clustering
    /// front end.
    pub train_events: usize,
    /// Generator seed for the training traces.
    pub train_seed: u64,
    /// Feature-window length for the clustering front end; tenants shorter
    /// than one window are placed under the fallback configuration.
    pub window_len: usize,
}

impl Default for PlacementOptions {
    fn default() -> Self {
        PlacementOptions {
            devices: 2,
            alpha: DEFAULT_ALPHA,
            max_rounds: 16,
            classify: true,
            train_events: 6_000,
            train_seed: 42,
            window_len: 1_000,
        }
    }
}

/// One tenant's row in the placement report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant name (unique within the mix).
    pub name: String,
    /// Studied category owning the tenant's cluster, when classified.
    pub workload: Option<String>,
    /// Cluster id the tenant matched, when classification found one.
    pub cluster: Option<u64>,
    /// Where the tenant's candidate configuration came from
    /// (`db:category:<owner>`, `db:cluster:<id>`, or `preset`).
    pub config_source: String,
    /// Device the tenant was assigned to.
    pub device: u64,
    /// Requests in the tenant's trace.
    pub requests: u64,
    /// Host bytes moved by the tenant's trace.
    pub bytes: u64,
    /// Mean latency of the tenant run solo under its own configuration, ns.
    pub solo_latency_ns: f64,
    /// Mean latency of the tenant's requests in the co-located replay, ns.
    pub co_latency_ns: f64,
    /// Fractional latency degradation of co-location versus the solo run
    /// (clamped to be finite and non-negative; 0 for an idle lane).
    pub degradation_frac: f64,
}

/// One device's row in the placement report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Device index in `0..M`.
    pub device: u64,
    /// Names of the tenants sharing the device, in tenant-index order.
    pub tenants: Vec<String>,
    /// Source of the compromise configuration the device runs
    /// (`idle` for a device with no tenants).
    pub config_source: String,
    /// The device's interference cost (0 for an idle device).
    pub cost: f64,
    /// Name of the merged trace the device replays (empty when idle).
    pub merged_trace: String,
    /// End-of-run bottleneck attribution of the co-located replay.
    pub bottleneck: BottleneckReport,
}

/// Outcome of one placement run (`autoblox.place.v1`).
///
/// Deliberately excludes wall-clock times and thread counts: the report is
/// a pure function of (tenants, options, stored configs), which is what
/// lets the CI gate `cmp` reports from different thread counts
/// byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementReport {
    /// Schema tag ([`PLACE_SCHEMA`]).
    pub schema: String,
    /// Device budget M.
    pub devices: u64,
    /// Formula-1 blend used by the interference score.
    pub alpha: f64,
    /// Total cost of the greedy seed assignment.
    pub greedy_cost: f64,
    /// Total cost after local search (never exceeds `greedy_cost`).
    pub final_cost: f64,
    /// Local-search rounds executed (including the final round that found
    /// no improvement).
    pub search_rounds: u64,
    /// Accepted local-search improvements.
    pub moves_applied: u64,
    /// The validator's cumulative simulator-run counter after the search —
    /// exact and thread-count-independent.
    pub simulator_runs: u64,
    /// Per-tenant rows, in tenant-index order.
    pub tenants: Vec<TenantReport>,
    /// Per-device rows, in device order.
    pub device_reports: Vec<DeviceReport>,
}

/// Fractional degradation of a co-located mean latency versus the solo
/// mean, clamped finite and non-negative. Idle lanes (zero or non-finite
/// inputs) degrade by 0.
pub fn degradation_frac(co_latency_ns: f64, solo_latency_ns: f64) -> f64 {
    if !co_latency_ns.is_finite() || co_latency_ns <= 0.0 {
        return 0.0;
    }
    if !solo_latency_ns.is_finite() || solo_latency_ns <= 0.0 {
        return 0.0;
    }
    let frac = co_latency_ns / solo_latency_ns - 1.0;
    if frac.is_finite() {
        frac.max(0.0)
    } else {
        0.0
    }
}

/// A tenant's resolved candidate configuration and its provenance.
#[derive(Debug, Clone)]
struct TenantConfig {
    cfg_idx: usize,
    source: String,
    workload: Option<String>,
    cluster: Option<u64>,
}

/// Classification + config resolution for every tenant.
struct Resolution {
    /// Deduplicated candidate configurations (device compromise choices).
    cfgs: Vec<SsdConfig>,
    /// Per-candidate provenance strings, parallel to `cfgs`.
    sources: Vec<String>,
    /// Per-tenant resolution, parallel to the tenant slice.
    tenants: Vec<TenantConfig>,
}

fn best_stored(db: &Store, key: &str, family: DeviceFamily) -> Option<StoredConfig> {
    let stored: Vec<StoredConfig> = db.get_record(key).ok().flatten()?;
    stored
        .into_iter()
        .filter(|s| s.config.device_family.is_hybrid() == family.is_hybrid())
        .max_by(|a, b| a.grade.total_cmp(&b.grade))
}

/// Looks up a tenant's learned configuration in AutoDB: the category record
/// of the cluster's owner first, then the raw cluster record. Recall is
/// family-local — only records of the fleet's device-family kind are
/// considered, so a hybrid-tuned configuration is never recalled onto a
/// homogeneous fleet (or vice versa).
fn lookup_config(
    db: Option<&Store>,
    owner: Option<&str>,
    cluster: Option<u64>,
    family: DeviceFamily,
) -> Option<(SsdConfig, String)> {
    let db = db?;
    if let Some(owner) = owner {
        let key = format!("category:{owner}");
        if let Some(best) = best_stored(db, &key, family) {
            return Some((best.config, format!("db:{key}")));
        }
    }
    if let Some(cluster) = cluster {
        let key = format!("cluster:{cluster}");
        if let Some(best) = best_stored(db, &key, family) {
            return Some((best.config, format!("db:{key}")));
        }
    }
    None
}

/// Classifies every tenant and resolves its candidate configuration,
/// deduplicating identical configurations into one candidate index.
fn resolve_configs(
    tenants: &[Arc<Trace>],
    fallback: &SsdConfig,
    db: Option<&Store>,
    opts: &PlacementOptions,
) -> Result<Resolution, String> {
    let model = if opts.classify {
        let window = WindowOptions {
            window_len: opts.window_len,
        };
        let train: Vec<Trace> = WorkloadKind::STUDIED
            .iter()
            .map(|k| k.spec().generate(opts.train_events, opts.train_seed))
            .collect();
        let model = WorkloadClusterer::fit(&train, WorkloadKind::STUDIED.len(), window, 7)
            .map_err(|e| format!("clustering failed: {e}"))?;
        let mut owners = vec![String::from("?"); model.k()];
        for (kind, t) in WorkloadKind::STUDIED.iter().zip(&train) {
            if let Ok(ClusterDecision::Existing { cluster, .. }) = model.classify(t) {
                owners[cluster] = kind.name().to_string();
            }
        }
        Some((model, owners))
    } else {
        None
    };

    let mut cfgs: Vec<SsdConfig> = Vec::new();
    let mut sources: Vec<String> = Vec::new();
    let mut dedup: HashMap<String, usize> = HashMap::new();
    let mut out = Vec::with_capacity(tenants.len());
    for trace in tenants {
        let (workload, cluster) = match &model {
            Some((model, owners)) => match model.classify(trace) {
                Ok(ClusterDecision::Existing { cluster, .. }) => {
                    (Some(owners[cluster].clone()), Some(cluster as u64))
                }
                // A new workload has no learned config to fetch; a trace
                // too short to window cannot be classified at all.
                Ok(ClusterDecision::New { .. }) | Err(_) => (None, None),
            },
            None => (None, None),
        };
        let (cfg, source) = lookup_config(db, workload.as_deref(), cluster, fallback.device_family)
            .unwrap_or_else(|| (fallback.clone(), String::from("preset")));
        let fingerprint = serde_json::to_string(&cfg).map_err(|e| e.to_string())?;
        let cfg_idx = *dedup.entry(fingerprint).or_insert_with(|| {
            cfgs.push(cfg);
            sources.push(source.clone());
            cfgs.len() - 1
        });
        out.push(TenantConfig {
            cfg_idx,
            source,
            workload,
            cluster,
        });
    }
    Ok(Resolution {
        cfgs,
        sources,
        tenants: out,
    })
}

/// A merged device trace plus its per-tenant lane start offsets.
struct MergedDevice {
    trace: Arc<Trace>,
    lane_starts: Vec<u64>,
}

/// The assignment-search engine: owns the per-subset merged-trace cache and
/// scores candidate devices through the shared validator.
struct Placer<'a> {
    validator: &'a Validator,
    tenants: &'a [Arc<Trace>],
    cfgs: &'a [SsdConfig],
    tenant_cfg: Vec<usize>,
    /// Per-tenant solo measurement under the tenant's own configuration.
    entitled: Vec<Measurement>,
    alpha: f64,
    merged: Mutex<HashMap<Vec<usize>, Arc<MergedDevice>>>,
}

/// One local-search proposal, enumerated in a fixed deterministic order.
#[derive(Debug, Clone, Copy)]
enum Proposal {
    /// Move tenant `t` from its device to device `to`.
    Move { t: usize, to: usize },
    /// Swap the devices of tenants `a` and `b`.
    Swap { a: usize, b: usize },
}

/// The searched assignment: per-tenant device plus per-device bookkeeping.
struct Assignment {
    /// Tenant index → device index.
    device_of: Vec<usize>,
    /// Device index → sorted tenant indices.
    members: Vec<Vec<usize>>,
    /// Device index → interference cost.
    cost: Vec<f64>,
    /// Device index → chosen candidate configuration (usize::MAX = idle).
    cfg_of: Vec<usize>,
    greedy_cost: f64,
    final_cost: f64,
    search_rounds: u64,
    moves_applied: u64,
}

impl<'a> Placer<'a> {
    fn new(
        validator: &'a Validator,
        tenants: &'a [Arc<Trace>],
        cfgs: &'a [SsdConfig],
        tenant_cfg: Vec<usize>,
        alpha: f64,
    ) -> Self {
        // Entitled baseline: each tenant solo under its own configuration.
        // Evaluated through the validator so the measurements (and their
        // simulator runs) are shared with singleton-device scoring.
        let entitled = parallel_map((0..tenants.len()).collect(), |i| {
            validator.evaluate_trace(&cfgs[tenant_cfg[i]], &tenants[i])
        });
        Placer {
            validator,
            tenants,
            cfgs,
            tenant_cfg,
            entitled,
            alpha,
            merged: Mutex::new(HashMap::new()),
        }
    }

    /// The merged trace for a sorted tenant subset, built on first use. A
    /// singleton subset reuses the tenant's own trace (and therefore the
    /// validator's cached solo measurement).
    fn merged_for(&self, subset: &[usize]) -> Arc<MergedDevice> {
        if let Some(hit) = self.merged.lock().get(subset) {
            return Arc::clone(hit);
        }
        let built = if subset.len() == 1 {
            Arc::new(MergedDevice {
                trace: Arc::clone(&self.tenants[subset[0]]),
                lane_starts: vec![0],
            })
        } else {
            let parts: Vec<&Trace> = subset.iter().map(|&i| &*self.tenants[i]).collect();
            let label: Vec<String> = subset.iter().map(|i| i.to_string()).collect();
            let name = format!("mix[{}]", label.join("+"));
            let (trace, lane_starts) = merge_partitioned(name, &parts);
            Arc::new(MergedDevice {
                trace: Arc::new(trace),
                lane_starts,
            })
        };
        let mut cache = self.merged.lock();
        Arc::clone(cache.entry(subset.to_vec()).or_insert(built))
    }

    /// The entitled blend a subset is compared against: request-weighted
    /// mean latency and *summed* throughput (aggregate demand).
    fn entitled_blend(&self, subset: &[usize]) -> Measurement {
        let mut requests = 0.0;
        let mut lat = 0.0;
        let mut tp = 0.0;
        for &i in subset {
            let n = self.tenants[i].len() as f64;
            requests += n;
            lat += n * self.entitled[i].latency_ns;
            tp += self.entitled[i].throughput_bps;
        }
        Measurement {
            latency_ns: (lat / requests.max(1.0)).max(1.0),
            throughput_bps: tp.max(1.0),
            power_w: 0.0,
            energy_mj: 0.0,
        }
    }

    /// Scores a sorted tenant subset: the best (lowest) interference cost
    /// over the subset's candidate compromise configurations, and the
    /// chosen candidate. An empty subset costs 0.
    fn subset_cost(&self, subset: &[usize]) -> (f64, usize) {
        if subset.is_empty() {
            return (0.0, usize::MAX);
        }
        let blend = self.entitled_blend(subset);
        let merged = self.merged_for(subset);
        // Candidate compromise configs: the distinct configurations of the
        // subset's members, in member order (deterministic tie-break).
        let mut candidates: Vec<usize> = Vec::new();
        for &i in subset {
            let c = self.tenant_cfg[i];
            if !candidates.contains(&c) {
                candidates.push(c);
            }
        }
        let mut best = (f64::INFINITY, usize::MAX);
        for &c in &candidates {
            let m = self.validator.evaluate_trace(&self.cfgs[c], &merged.trace);
            let cost = -performance(&m, &blend, self.alpha);
            if cost < best.0 {
                best = (cost, c);
            }
        }
        best
    }

    /// Greedy seeding followed by bounded local search. Deterministic: all
    /// parallel fan-outs preserve input order and every tie breaks on the
    /// lowest index.
    fn search(&self, devices: usize, max_rounds: usize) -> Assignment {
        let n = self.tenants.len();
        // Seed order: heaviest tenants first (footprint = total bytes),
        // ties on tenant index.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.tenants[i].total_bytes()), i));

        let mut members: Vec<Vec<usize>> = vec![Vec::new(); devices];
        let mut cost = vec![0.0f64; devices];
        let mut cfg_of = vec![usize::MAX; devices];
        for &t in &order {
            let scored = parallel_map((0..devices).collect(), |d| {
                let mut s = members[d].clone();
                s.push(t);
                s.sort_unstable();
                self.subset_cost(&s)
            });
            let mut best_d = 0;
            let mut best_delta = f64::INFINITY;
            for (d, &(c, _)) in scored.iter().enumerate() {
                let delta = c - cost[d];
                if delta < best_delta {
                    best_delta = delta;
                    best_d = d;
                }
            }
            members[best_d].push(t);
            members[best_d].sort_unstable();
            cost[best_d] = scored[best_d].0;
            cfg_of[best_d] = scored[best_d].1;
        }
        let greedy_cost: f64 = cost.iter().sum();

        let mut device_of = vec![0usize; n];
        for (d, m) in members.iter().enumerate() {
            for &t in m {
                device_of[t] = d;
            }
        }

        // Local search: single-tenant moves and pairwise swaps, best strict
        // improvement per round, until a round finds nothing or the bound
        // is hit.
        let mut total = greedy_cost;
        let mut search_rounds = 0u64;
        let mut moves_applied = 0u64;
        while (search_rounds as usize) < max_rounds {
            search_rounds += 1;
            let mut proposals: Vec<Proposal> = Vec::new();
            for (t, &cur) in device_of.iter().enumerate() {
                for to in (0..devices).filter(|&to| to != cur) {
                    proposals.push(Proposal::Move { t, to });
                }
            }
            for a in 0..n {
                for b in (a + 1)..n {
                    if device_of[a] != device_of[b] {
                        proposals.push(Proposal::Swap { a, b });
                    }
                }
            }
            if proposals.is_empty() {
                break;
            }
            let totals = parallel_map(proposals.clone(), |p| {
                let (x, y) = match p {
                    Proposal::Move { t, to } => (device_of[t], to),
                    Proposal::Swap { a, b } => (device_of[a], device_of[b]),
                };
                let (sx, sy) = apply(&members[x], &members[y], p);
                total - cost[x] - cost[y] + self.subset_cost(&sx).0 + self.subset_cost(&sy).0
            });
            let mut best = (f64::INFINITY, usize::MAX);
            for (i, &t) in totals.iter().enumerate() {
                if t < best.0 {
                    best = (t, i);
                }
            }
            if best.0 >= total {
                break;
            }
            let p = proposals[best.1];
            let (x, y) = match p {
                Proposal::Move { t, to } => (device_of[t], to),
                Proposal::Swap { a, b } => (device_of[a], device_of[b]),
            };
            let (sx, sy) = apply(&members[x], &members[y], p);
            let (cx, kx) = self.subset_cost(&sx);
            let (cy, ky) = self.subset_cost(&sy);
            members[x] = sx;
            members[y] = sy;
            cost[x] = cx;
            cost[y] = cy;
            cfg_of[x] = kx;
            cfg_of[y] = ky;
            for (d, m) in [(x, &members[x]), (y, &members[y])] {
                for &t in m.iter() {
                    device_of[t] = d;
                }
            }
            total = best.0;
            moves_applied += 1;
        }

        Assignment {
            device_of,
            members,
            cost,
            cfg_of,
            greedy_cost,
            final_cost: total,
            search_rounds,
            moves_applied,
        }
    }
}

/// The member sets of the two affected devices after applying `p`: `mx` is
/// the device of the moved tenant (or of `a` for a swap), `my` the target
/// device (or the device of `b`). Both come back sorted.
fn apply(mx: &[usize], my: &[usize], p: Proposal) -> (Vec<usize>, Vec<usize>) {
    let mut sx = mx.to_vec();
    let mut sy = my.to_vec();
    match p {
        Proposal::Move { t, .. } => {
            sx.retain(|&i| i != t);
            sy.push(t);
        }
        Proposal::Swap { a, b } => {
            sx.retain(|&i| i != a);
            sx.push(b);
            sy.retain(|&i| i != b);
            sy.push(a);
        }
    }
    sx.sort_unstable();
    sy.sort_unstable();
    (sx, sy)
}

/// Runs the full placement pipeline and builds the report.
///
/// `tenants` must carry unique names (downstream caches key traces by
/// name); `fallback` is the configuration used for tenants without a
/// learned config in `db`. The validator is shared — repeated placements
/// of the same mix hit its cache and add zero simulator runs.
///
/// # Errors
///
/// Returns an error when `opts.devices` is 0, `tenants` is empty, tenant
/// names collide, or the clustering front end fails to train.
pub fn place(
    tenants: &[Arc<Trace>],
    fallback: &SsdConfig,
    db: Option<&Store>,
    validator: &Validator,
    opts: &PlacementOptions,
) -> Result<PlacementReport, String> {
    if opts.devices == 0 {
        return Err(String::from("device budget must be at least 1"));
    }
    if tenants.is_empty() {
        return Err(String::from("placement needs at least one tenant"));
    }
    {
        let mut names: Vec<&str> = tenants.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != tenants.len() {
            return Err(String::from("tenant names must be unique"));
        }
    }
    let sink = crate::telemetry::global();

    let resolution = sink.phase("place.classify", || {
        resolve_configs(tenants, fallback, db, opts)
    })?;
    let tenant_cfg: Vec<usize> = resolution.tenants.iter().map(|t| t.cfg_idx).collect();
    let placer = Placer::new(validator, tenants, &resolution.cfgs, tenant_cfg, opts.alpha);
    let assignment = sink.phase("place.search", || {
        placer.search(opts.devices, opts.max_rounds)
    });

    // Attribution: replay each occupied device once with lane accounting
    // armed. Sequential over devices — the replay itself is the work, and a
    // fixed order keeps journal output stable.
    let attributed = sink.phase("place.attribute", || {
        let mut device_reports = Vec::with_capacity(opts.devices);
        let mut co_latency = vec![0.0f64; tenants.len()];
        for (d, subset) in assignment.members.iter().enumerate() {
            if subset.is_empty() {
                device_reports.push(DeviceReport {
                    device: d as u64,
                    tenants: Vec::new(),
                    config_source: String::from("idle"),
                    cost: 0.0,
                    merged_trace: String::new(),
                    bottleneck: BottleneckReport::default(),
                });
                continue;
            }
            let merged = placer.merged_for(subset);
            let cfg = &resolution.cfgs[assignment.cfg_of[d]];
            let mut sim = Simulator::new(cfg.clone());
            sim.warm_up(validator.options().warm_fill);
            sim.set_lanes(&merged.lane_starts);
            let report = sim.run(&merged.trace);
            let lanes = sim.take_lanes().expect("lanes were armed");
            for (lane, &t) in lanes.reports().iter().zip(subset.iter()) {
                co_latency[t] = lane.mean_latency_ns;
            }
            let source = resolution.sources[assignment.cfg_of[d]].clone();
            let names: Vec<String> = subset
                .iter()
                .map(|&t| tenants[t].name().to_string())
                .collect();
            sink.record_device(merged.trace.name(), "placement", &report);
            sink.journal(|| {
                JournalLine::Placement(PlacementLine {
                    device: d as u64,
                    tenants: names.clone(),
                    cost: assignment.cost[d],
                    config_source: source.clone(),
                })
            });
            device_reports.push(DeviceReport {
                device: d as u64,
                tenants: names,
                config_source: source,
                cost: assignment.cost[d],
                merged_trace: merged.trace.name().to_string(),
                bottleneck: report.bottleneck,
            });
        }
        (device_reports, co_latency)
    });
    let (device_reports, co_latency) = attributed;

    let tenant_reports: Vec<TenantReport> = tenants
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let resolved = &resolution.tenants[i];
            let solo = placer.entitled[i].latency_ns;
            TenantReport {
                name: trace.name().to_string(),
                workload: resolved.workload.clone(),
                cluster: resolved.cluster,
                config_source: resolved.source.clone(),
                device: assignment.device_of[i] as u64,
                requests: trace.len() as u64,
                bytes: trace.total_bytes(),
                solo_latency_ns: solo,
                co_latency_ns: co_latency[i],
                degradation_frac: degradation_frac(co_latency[i], solo),
            }
        })
        .collect();

    Ok(PlacementReport {
        schema: String::from(PLACE_SCHEMA),
        devices: opts.devices as u64,
        alpha: opts.alpha,
        greedy_cost: assignment.greedy_cost,
        final_cost: assignment.final_cost,
        search_rounds: assignment.search_rounds,
        moves_applied: assignment.moves_applied,
        simulator_runs: validator.simulator_runs(),
        tenants: tenant_reports,
        device_reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_is_clamped() {
        assert_eq!(degradation_frac(0.0, 100.0), 0.0);
        assert_eq!(degradation_frac(100.0, 0.0), 0.0);
        assert_eq!(degradation_frac(f64::NAN, 100.0), 0.0);
        assert_eq!(degradation_frac(100.0, f64::INFINITY), 0.0);
        assert_eq!(degradation_frac(50.0, 100.0), 0.0, "speedup clamps to 0");
        assert!((degradation_frac(150.0, 100.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        use crate::validator::{Validator, ValidatorOptions};
        let v = Validator::new(ValidatorOptions {
            trace_events: 100,
            ..Default::default()
        });
        let cfg = ssdsim::config::presets::intel_750();
        let t = Arc::new(WorkloadKind::Database.spec().generate(50, 1));
        let opts = PlacementOptions {
            devices: 0,
            classify: false,
            ..Default::default()
        };
        assert!(place(&[Arc::clone(&t)], &cfg, None, &v, &opts).is_err());
        let opts = PlacementOptions {
            devices: 1,
            classify: false,
            ..Default::default()
        };
        assert!(place(&[], &cfg, None, &v, &opts).is_err());
        // Duplicate tenant names are rejected.
        assert!(place(&[Arc::clone(&t), t], &cfg, None, &v, &opts).is_err());
    }

    /// Recall is family-local: a higher-graded hybrid record must never be
    /// recalled onto a homogeneous fleet, and vice versa; with no record of
    /// the matching kind the lookup falls through entirely.
    #[test]
    fn recall_never_crosses_device_families() {
        let db = Store::in_memory();
        let homogeneous = StoredConfig {
            workload: "Database".to_string(),
            config: ssdsim::config::presets::intel_750(),
            grade: 0.1,
        };
        let hybrid = StoredConfig {
            workload: "Database".to_string(),
            config: ssdsim::config::presets::hybrid_slc_qlc(),
            grade: 0.9,
        };
        db.put_record("category:Database", &vec![homogeneous, hybrid])
            .expect("records stored");

        let homo_fleet = DeviceFamily::Homogeneous;
        let hybrid_fleet = ssdsim::config::presets::hybrid_slc_qlc().device_family;
        let (cfg, source) =
            lookup_config(Some(&db), Some("Database"), None, homo_fleet).expect("recalls");
        assert!(!cfg.device_family.is_hybrid(), "0.9-graded hybrid skipped");
        assert_eq!(source, "db:category:Database");
        let (cfg, _) =
            lookup_config(Some(&db), Some("Database"), None, hybrid_fleet).expect("recalls");
        assert!(cfg.device_family.is_hybrid());

        // A store holding only the other kind yields nothing at all.
        let db = Store::in_memory();
        db.put_record(
            "category:Database",
            &vec![StoredConfig {
                workload: "Database".to_string(),
                config: ssdsim::config::presets::hybrid_slc_qlc(),
                grade: 0.9,
            }],
        )
        .expect("record stored");
        assert!(lookup_config(Some(&db), Some("Database"), None, homo_fleet).is_none());
    }
}
