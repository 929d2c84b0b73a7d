//! Efficiency validation (§3.4): running candidate configurations on the
//! SSD simulator and caching the measurements.
//!
//! The validator is `Sync`: the trace cache and the sharded measurement
//! cache sit behind `parking_lot::RwLock`s, the run counter is atomic, and
//! in-flight evaluations are deduplicated per key with `OnceLock`, so any
//! number of threads can share one validator and the simulator-run count
//! stays exactly what a sequential execution would produce.
//!
//! With an AutoDB store attached ([`Validator::attach_store`]) the
//! in-process cache is backed by a persistent measurement memo: every
//! charged measurement is appended to the store, and a miss asks the store
//! before simulating. Re-running a tune against the same store therefore
//! replays its trajectory bit for bit while simulating only what was never
//! paid for.

use crate::metrics::Measurement;
use autodb::Store;
use iotrace::gen::WorkloadKind;
use iotrace::Trace;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use ssdsim::config::SsdConfig;
use ssdsim::report::{LatencyBuckets, SimReport};
use ssdsim::{BottleneckReport, Simulator};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use telemetry::Counter;

/// Options controlling validation runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidatorOptions {
    /// Events per generated validation trace.
    pub trace_events: usize,
    /// Flash occupancy established before measuring (paper: >= 50%).
    pub warm_fill: f64,
    /// Seed for the deterministic validation traces.
    pub seed: u64,
}

impl Default for ValidatorOptions {
    fn default() -> Self {
        ValidatorOptions {
            trace_events: 3_000,
            warm_fill: 0.5,
            seed: 0xB10C5,
        }
    }
}

/// Compact memoization key for one [`SsdConfig`].
///
/// 128 bits of FNV-1a over [`SsdConfig::canonical_words`] — two independent
/// 64-bit streams — replacing the seed's `serde_json::to_string(cfg)` key,
/// which serialized ~50 fields to a heap string on every cache probe.
/// Hashing actual field values (not parameter-grid indices) keeps off-grid
/// configurations such as presets collision-distinct too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigKey([u64; 2]);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over whole words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

impl ConfigKey {
    /// Fingerprints a configuration.
    pub fn of(cfg: &SsdConfig) -> Self {
        let words = cfg.canonical_words();
        let mut h0 = FNV_OFFSET;
        // Second stream: offset basis perturbed so the two hashes are
        // independent even over identical input words.
        let mut h1 = FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15;
        for (i, &w) in words.iter().enumerate() {
            h0 = (h0 ^ w).wrapping_mul(FNV_PRIME);
            h1 = (h1 ^ w.rotate_left((i % 63) as u32 + 1)).wrapping_mul(FNV_PRIME);
        }
        ConfigKey([h0, h1])
    }

    fn shard(&self) -> usize {
        (self.0[0] >> 59) as usize % CACHE_SHARDS
    }
}

const CACHE_SHARDS: usize = 16;

type CacheKey = (ConfigKey, String);
type Shard = RwLock<HashMap<CacheKey, Arc<OnceLock<Measurement>>>>;

/// Simulator activity summed over every uncached evaluation (both the timed
/// and the saturated replay), collected only while telemetry is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SimAggregate {
    /// Simulator runs absorbed into this aggregate.
    pub runs: u64,
    /// Flash page reads (host data + mapping + migrations).
    pub flash_reads: u64,
    /// Flash page programs, including GC/wear-leveling migrations.
    pub flash_programs: u64,
    /// Block erases.
    pub flash_erases: u64,
    /// Garbage-collection invocations.
    pub gc_invocations: u64,
    /// Static wear-leveling swaps.
    pub wearleveling_swaps: u64,
    /// Data-cache evictions across all runs.
    pub data_cache_evictions: u64,
    /// Mapping-table evictions across all runs.
    pub cmt_evictions: u64,
    /// Simulated-time request-latency histogram summed over all runs.
    pub latency_buckets: LatencyBuckets,
    /// Simulated ns requests spent waiting on busy channels (reads+writes).
    pub channel_wait_ns: u64,
    /// Simulated ns requests spent waiting on busy dies/planes.
    pub plane_wait_ns: u64,
    /// Simulated ns of die time consumed by GC/wear-leveling cycles.
    pub gc_stall_ns: u64,
    /// Simulated ns requests waited for admission into the device queue.
    pub queue_wait_ns: u64,
    /// Simulated ns of flash service caused by cache/CMT misses.
    pub cache_miss_ns: u64,
    /// Simulated ns of die time consumed by SLC-cache fold migrations.
    pub slc_migration_ns: u64,
    /// Total arrival-to-completion simulated ns over all requests.
    pub total_latency_ns: u64,
}

impl SimAggregate {
    /// Adds one simulator run's report to the aggregate.
    pub fn absorb(&mut self, r: &SimReport) {
        self.runs += 1;
        self.flash_reads += r.read_breakdown.flash_reads;
        self.flash_programs += r.flash.programs + r.flash.migrated_pages;
        self.flash_erases += r.flash.erases;
        self.gc_invocations += r.flash.gc_invocations;
        self.wearleveling_swaps += r.flash.wearleveling_swaps;
        self.data_cache_evictions += r.data_cache_evictions;
        self.cmt_evictions += r.cmt_evictions;
        for (dst, src) in self
            .latency_buckets
            .counts
            .iter_mut()
            .zip(r.latency_buckets.counts.iter())
        {
            *dst += src;
        }
        self.channel_wait_ns += r.bottleneck.channel_wait_ns;
        self.plane_wait_ns += r.bottleneck.plane_wait_ns;
        self.gc_stall_ns += r.bottleneck.gc_stall_ns;
        self.queue_wait_ns += r.bottleneck.queue_wait_ns;
        self.cache_miss_ns += r.bottleneck.cache_miss_ns;
        self.slc_migration_ns += r.bottleneck.slc_migration_ns;
        self.total_latency_ns += r.bottleneck.total_latency_ns;
    }

    /// Bottleneck attribution over everything absorbed so far.
    pub fn bottleneck(&self) -> BottleneckReport {
        BottleneckReport::from_totals(
            self.total_latency_ns,
            self.channel_wait_ns,
            self.plane_wait_ns,
            self.gc_stall_ns,
            self.cache_miss_ns,
            self.queue_wait_ns,
            self.slc_migration_ns,
        )
    }

    /// Bottleneck attribution over the work absorbed since `earlier` was
    /// snapshotted (used for per-iteration fingerprints in the tuner).
    pub fn bottleneck_delta(&self, earlier: &SimAggregate) -> BottleneckReport {
        BottleneckReport::from_totals(
            self.total_latency_ns
                .saturating_sub(earlier.total_latency_ns),
            self.channel_wait_ns.saturating_sub(earlier.channel_wait_ns),
            self.plane_wait_ns.saturating_sub(earlier.plane_wait_ns),
            self.gc_stall_ns.saturating_sub(earlier.gc_stall_ns),
            self.cache_miss_ns.saturating_sub(earlier.cache_miss_ns),
            self.queue_wait_ns.saturating_sub(earlier.queue_wait_ns),
            self.slc_migration_ns
                .saturating_sub(earlier.slc_migration_ns),
        )
    }
}

/// Snapshot of one validator's cache and simulator activity.
///
/// `simulator_runs` and `shard_entries` are always exact; the remaining
/// counters accumulate only while telemetry is enabled (see the `telemetry`
/// crate) and read zero otherwise. Cache misses are deterministic for a
/// given evaluation set; under concurrency the split between `cache_hits`
/// and `dedup_waits` depends on timing, but their sum is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ValidatorStats {
    /// Actual (non-cached) simulator evaluations performed.
    pub simulator_runs: u64,
    /// Probes answered from a completed cache entry.
    pub cache_hits: u64,
    /// Probes that simulated because no entry existed.
    pub cache_misses: u64,
    /// Probes that blocked on another thread's in-flight evaluation.
    pub dedup_waits: u64,
    /// Validation traces generated (not served from the trace cache).
    pub trace_builds: u64,
    /// Time spent generating validation traces, ns.
    pub trace_build_ns: u64,
    /// Time spent inside uncached simulator evaluations, ns.
    pub simulate_ns: u64,
    /// Cache probes per shard (contention/distribution diagnostic).
    pub shard_probes: [u64; CACHE_SHARDS],
    /// Memoized entries currently resident per shard.
    pub shard_entries: [u64; CACHE_SHARDS],
    /// Inert, always 0; kept until a `benchmark` PR retires it (ROADMAP 7(d)).
    pub speculative_runs: u64,
    /// Inert, always 0; kept until a `benchmark` PR retires it (ROADMAP 7(d)).
    pub speculative_hits: u64,
    /// Inert, always 0; kept until a `benchmark` PR retires it (ROADMAP 7(d)).
    pub speculative_wasted: u64,
    /// Simulator activity summed over the uncached evaluations.
    pub sim: SimAggregate,
}

/// Telemetry counters owned by one [`Validator`]; bumped only while the
/// process-wide telemetry switch is on.
#[derive(Debug, Default)]
struct ValidatorCounters {
    hits: Counter,
    misses: Counter,
    dedup_waits: Counter,
    trace_builds: Counter,
    trace_build_ns: Counter,
    simulate_ns: Counter,
    shard_probes: [Counter; CACHE_SHARDS],
    sim_agg: Mutex<SimAggregate>,
}

/// Runs configurations against the simulator, memoizing results.
///
/// Each evaluation performs two simulator runs: a **timed replay** (trace
/// timestamps preserved) that yields the latency distribution, power, and
/// energy, and a **saturated replay** (timestamps compressed to zero, so the
/// queue depth drives submission) that yields the device's throughput
/// capability — the same methodology MQSim-based studies use for bandwidth.
///
/// The cache key is the exact configuration plus the workload name, so the
/// tuner never pays twice for the same (configuration, workload) pair — the
/// dominant cost in the paper's Table 6. Concurrent callers asking for the
/// same pair block on a per-key `OnceLock` instead of duplicating simulator
/// work, so [`Validator::simulator_runs`] is identical under any thread
/// count.
///
/// # Examples
///
/// ```
/// use autoblox::validator::{Validator, ValidatorOptions};
/// use iotrace::gen::WorkloadKind;
/// use ssdsim::config::SsdConfig;
///
/// let validator = Validator::new(ValidatorOptions { trace_events: 500, ..Default::default() });
/// let m = validator.evaluate(&SsdConfig::default(), WorkloadKind::Database);
/// assert!(m.latency_ns > 0.0);
/// ```
#[derive(Debug)]
pub struct Validator {
    opts: ValidatorOptions,
    traces: RwLock<HashMap<String, Arc<Trace>>>,
    /// Saturated (timestamps-compressed) variants of the validation traces,
    /// keyed by trace name like `traces` — built once per trace instead of
    /// re-cloning every event on every evaluation.
    sat_traces: RwLock<HashMap<String, Arc<Trace>>>,
    shards: [Shard; CACHE_SHARDS],
    runs: AtomicU64,
    counters: ValidatorCounters,
    /// The measurement memo, if a store is attached.
    memo: RwLock<Option<Arc<Store>>>,
    /// Memo key prefix per trace name, computed once: `SIM_MODEL`, then
    /// hashes of the options and of the trace's events.
    memo_prefixes: RwLock<HashMap<String, Arc<str>>>,
    memo_hits: AtomicU64,
}

impl Validator {
    /// Creates a validator.
    pub fn new(opts: ValidatorOptions) -> Self {
        Validator {
            opts,
            traces: RwLock::new(HashMap::new()),
            sat_traces: RwLock::new(HashMap::new()),
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            runs: AtomicU64::new(0),
            counters: ValidatorCounters::default(),
            memo: RwLock::new(None),
            memo_prefixes: RwLock::new(HashMap::new()),
            memo_hits: AtomicU64::new(0),
        }
    }

    /// Makes `store` this validator's measurement memo, replacing any
    /// earlier one. Each charged measurement is appended under
    /// `memo:<SIM_MODEL>:<options hash>:<trace-content hash>:<ConfigKey>`
    /// (every word in hex), and a miss reads the store before simulating.
    pub fn attach_store(&self, store: Arc<Store>) {
        *self.memo.write() = Some(store);
    }

    /// The options in effect.
    pub fn options(&self) -> ValidatorOptions {
        self.opts
    }

    /// Number of actual (non-cached) simulator runs performed.
    pub fn simulator_runs(&self) -> u64 {
        self.runs.load(Ordering::SeqCst)
    }

    /// Measurements the attached store answered instead of the simulator.
    /// They count toward neither [`Validator::simulator_runs`] nor the
    /// cache hit/miss counters.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(Ordering::SeqCst)
    }

    /// The attached store and the key `(cfg, trace)` is memoized under;
    /// `None` without a store.
    fn memo_slot(&self, cfg: ConfigKey, trace: &Trace) -> Option<(Arc<Store>, String)> {
        let store = self.memo.read().clone()?;
        let cached = self.memo_prefixes.read().get(trace.name()).cloned();
        let prefix = cached.unwrap_or_else(|| {
            let o = self.opts;
            let opts = fnv([o.trace_events as u64, o.warm_fill.to_bits(), o.seed]);
            let events = fnv(trace
                .events()
                .iter()
                .flat_map(|e| [e.timestamp_ns, e.lba, u64::from(e.size_bytes), e.op as u64]));
            let prefix: Arc<str> =
                format!("memo:{}:{opts:016x}:{events:016x}:", ssdsim::SIM_MODEL).into();
            let mut prefixes = self.memo_prefixes.write();
            Arc::clone(prefixes.entry(trace.name().to_string()).or_insert(prefix))
        });
        Some((store, format!("{prefix}{:016x}{:016x}", cfg.0[0], cfg.0[1])))
    }

    /// What the store holds in a memo slot. An undecodable record reads as
    /// absent, so it is simulated (and rewritten) instead.
    fn recall(slot: &Option<(Arc<Store>, String)>) -> Option<Measurement> {
        let (store, key) = slot.as_ref()?;
        store.get_record(key).ok().flatten()
    }

    /// The (cached) validation trace for a workload category, shared
    /// allocation-free via `Arc`.
    pub fn trace_for(&self, kind: WorkloadKind) -> Arc<Trace> {
        if let Some(t) = self.traces.read().get(kind.name()) {
            return Arc::clone(t);
        }
        // Generation is deterministic per (kind, seed), so a racing thread
        // building the same trace is wasted work at worst, never divergence;
        // `entry` keeps exactly one copy. The span is keyed by the workload
        // name, so a racing duplicate build collapses to the same identity
        // in the canonical span tree.
        let _span = telemetry::span::Span::enter_keyed(
            "validator.trace_build",
            telemetry::span::key_str(kind.name()),
        );
        let built = telemetry::start();
        let fresh = Arc::new(kind.spec().generate(self.opts.trace_events, self.opts.seed));
        if telemetry::enabled() {
            self.counters.trace_builds.inc();
            self.counters
                .trace_build_ns
                .add(telemetry::elapsed_ns(built));
        }
        let mut traces = self.traces.write();
        Arc::clone(traces.entry(kind.name().to_string()).or_insert(fresh))
    }

    /// Evaluates a configuration on a named workload category, generating
    /// (and caching) the validation trace for the category.
    pub fn evaluate(&self, cfg: &SsdConfig, kind: WorkloadKind) -> Measurement {
        let trace = self.trace_for(kind);
        self.evaluate_trace(cfg, &trace)
    }

    /// Evaluates a configuration on a caller-provided trace.
    pub fn evaluate_trace(&self, cfg: &SsdConfig, trace: &Trace) -> Measurement {
        let instrument = telemetry::enabled();
        let key = (ConfigKey::of(cfg), trace.name().to_string());
        let shard_idx = key.0.shard();
        let shard = &self.shards[shard_idx];
        if instrument {
            self.counters.shard_probes[shard_idx].inc();
        }
        if let Some(cell) = shard.read().get(&key) {
            if let Some(m) = cell.get() {
                if instrument {
                    self.counters.hits.inc();
                }
                return *m;
            }
        }
        let cell = {
            let mut map = shard.write();
            Arc::clone(map.entry(key.clone()).or_default())
        };
        // First caller simulates; concurrent callers for the same key block
        // here and reuse the result, keeping the run count sequential-exact.
        // A measurement the store already holds is recalled, uncharged.
        let (mut ran, mut recalled) = (false, false);
        let m = *cell.get_or_init(|| {
            let memo = self.memo_slot(key.0, trace);
            if let Some(m) = Self::recall(&memo) {
                recalled = true;
                self.memo_hits.fetch_add(1, Ordering::SeqCst);
                return m;
            }
            ran = true;
            let m = self.simulate(cfg, trace);
            self.runs.fetch_add(1, Ordering::SeqCst);
            // Best effort: a failed append costs one re-simulation later.
            if let Some((db, k)) = &memo {
                let _ = db.put_record(k, &m);
            }
            m
        });
        if instrument {
            if ran {
                self.counters.misses.inc();
            } else if !recalled {
                self.counters.dedup_waits.inc();
            }
        }
        m
    }

    /// The two uncached simulator runs behind one measurement: the timed and
    /// the saturated replay of `(cfg, trace)`. While telemetry is enabled
    /// both reports are absorbed into the simulator aggregate. The run
    /// counter is the caller's.
    fn simulate(&self, cfg: &SsdConfig, trace: &Trace) -> Measurement {
        // Keyed by (configuration, trace) content, so the span id does not
        // depend on which thread won the `OnceLock` race to simulate.
        let _span = telemetry::span::Span::enter_keyed(
            "validator.simulate",
            if telemetry::span::tracing_enabled() {
                ConfigKey::of(cfg).0[0] ^ telemetry::span::key_str(trace.name())
            } else {
                0
            },
        );
        let sim_start = telemetry::start();
        // Timed replay: latency, power, energy.
        //
        // Known scale limitation: a validation trace of tens of thousands
        // of events moves hundreds of MB, so multi-GB DRAM-cache capacities
        // cannot express their real reuse benefit here (the paper's
        // 15-240 h traces move TBs). The DRAM capacity parameters are
        // therefore near-insensitive at this scale; see DESIGN.md §9.
        // Per-thread scratch: the latency vectors and the outstanding heap
        // grow once per thread and are reused by every replay after that,
        // on pool helpers too, because the pool parks its helpers between
        // batches instead of letting them exit (reports are pure functions
        // of config + trace; the scratch only carries capacity).
        thread_local! {
            static SCRATCH: std::cell::RefCell<ssdsim::RunScratch> =
                std::cell::RefCell::new(ssdsim::RunScratch::default());
        }
        let mut sim = Simulator::new(cfg.clone());
        sim.warm_up(self.opts.warm_fill);
        // Both replays start from the same warmed device: build and warm it
        // once, and hand the saturated replay a copy.
        let sat_sim = sim.clone();
        let saturated = self.saturated_for(trace);
        // Saturated replay: throughput capability. Its drain — sustained
        // throughput includes emptying the write-back cache — is the second
        // value; the timed replay has none. Each replay gets a keyed span so
        // both keep one identity whichever thread runs them.
        let replay = |(mut sim, sat): (Simulator, bool)| -> (SimReport, u64) {
            let (name, events) = if sat {
                ("validator.saturated", &*saturated)
            } else {
                ("validator.timed", trace)
            };
            let _span = telemetry::span::Span::enter_keyed(name, 0);
            let report = SCRATCH.with(|s| sim.run_scratch(events, &mut s.borrow_mut()));
            let drained_ns = if sat {
                sim.drain(report.makespan_ns).max(1)
            } else {
                0
            };
            (report, drained_ns)
        };
        // The two replays run side by side on the pool: the search waits on
        // this validation, so the second thread shortens it directly. Under
        // a fan-out (pruning, non-target batches) the call is nested and
        // runs inline. At one thread `parallel_map` would run the two
        // replays inline too; the branch exists only so that a one-thread
        // run's inline pool counters, pinned by the `pool` block of
        // `scripts/golden/telemetry-database.json`, do not move.
        let replays = vec![(sim, false), (sat_sim, true)];
        let mut done = if mlkit::parallel::max_threads() > 1 {
            mlkit::parallel::parallel_map(replays, replay)
        } else {
            replays.into_iter().map(replay).collect()
        };
        let (sat_report, drained_ns) = done.pop().expect("saturated replay");
        let (report, _) = done.pop().expect("timed replay");
        let mut m = Measurement::from_report(&report);
        m.throughput_bps = (sat_report.host_bytes as f64 / (drained_ns as f64 / 1e9)).max(1.0);
        if telemetry::enabled() {
            self.counters
                .simulate_ns
                .add(telemetry::elapsed_ns(sim_start));
            let mut agg = self.counters.sim_agg.lock();
            agg.absorb(&report);
            agg.absorb(&sat_report);
        }
        m
    }

    /// The cached saturated (timestamps-compressed) variant of `trace`.
    ///
    /// Keyed by trace name, the same identity assumption the measurement
    /// cache already makes: one validator treats a trace name as naming one
    /// immutable event stream.
    fn saturated_for(&self, trace: &Trace) -> Arc<Trace> {
        if let Some(t) = self.sat_traces.read().get(trace.name()) {
            return Arc::clone(t);
        }
        let fresh = Arc::new(Trace::from_events(
            trace.name(),
            trace
                .events()
                .iter()
                .map(|e| iotrace::TraceEvent::new(0, e.lba, e.size_bytes, e.op))
                .collect(),
        ));
        let mut map = self.sat_traces.write();
        Arc::clone(map.entry(trace.name().to_string()).or_insert(fresh))
    }

    /// Snapshot of the simulator activity aggregate (zero unless telemetry
    /// was enabled while the validator ran).
    pub fn sim_aggregate(&self) -> SimAggregate {
        *self.counters.sim_agg.lock()
    }

    /// Drops all in-process measurements (used between experiments that
    /// reset the model, e.g. the α/β sweeps of §4.6). An attached store
    /// keeps its records.
    pub fn clear_cache(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    /// Snapshot of this validator's cache and simulator activity.
    ///
    /// `simulator_runs` and `shard_entries` are exact regardless of the
    /// telemetry switch; the remaining counters are zero unless telemetry
    /// was enabled while the validator ran.
    pub fn stats(&self) -> ValidatorStats {
        let mut shard_probes = [0u64; CACHE_SHARDS];
        let mut shard_entries = [0u64; CACHE_SHARDS];
        for i in 0..CACHE_SHARDS {
            shard_probes[i] = self.counters.shard_probes[i].get();
            shard_entries[i] = self.shards[i].read().len() as u64;
        }
        ValidatorStats {
            simulator_runs: self.simulator_runs(),
            cache_hits: self.counters.hits.get(),
            cache_misses: self.counters.misses.get(),
            dedup_waits: self.counters.dedup_waits.get(),
            trace_builds: self.counters.trace_builds.get(),
            trace_build_ns: self.counters.trace_build_ns.get(),
            simulate_ns: self.counters.simulate_ns.get(),
            shard_probes,
            shard_entries,
            sim: *self.counters.sim_agg.lock(),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Validator {
        Validator::new(ValidatorOptions {
            trace_events: 400,
            ..Default::default()
        })
    }

    /// What `simulate` did before it warmed one device and cloned it:
    /// two simulators, each built and warmed on its own.
    fn two_simulator_reference(v: &Validator, cfg: &SsdConfig, trace: &Trace) -> Measurement {
        let mut sim = Simulator::new(cfg.clone());
        sim.warm_up(v.opts.warm_fill);
        let mut m = Measurement::from_report(&sim.run(trace));
        let mut sat_sim = Simulator::new(cfg.clone());
        sat_sim.warm_up(v.opts.warm_fill);
        let sat = sat_sim.run(&v.saturated_for(trace));
        let drained_ns = sat_sim.drain(sat.makespan_ns).max(1);
        m.throughput_bps = (sat.host_bytes as f64 / (drained_ns as f64 / 1e9)).max(1.0);
        m
    }

    /// The telemetry-on half (both `SimReport`s absorbed) is
    /// `warm_once_reports_match_independent_simulators` in
    /// `tests/telemetry.rs`: unit tests never flip the process-wide switch.
    #[test]
    fn warm_once_clone_matches_two_independent_simulators() {
        use ssdsim::config::presets;
        let v = quick();
        for cfg in [presets::intel_750(), presets::hybrid_slc_qlc()] {
            // FIU is write-heavy, so the hybrid cache tier and the final
            // drain both have work to do.
            for kind in [WorkloadKind::Database, WorkloadKind::Fiu] {
                let trace = v.trace_for(kind);
                let m = v.simulate(&cfg, &trace);
                assert_eq!(m, two_simulator_reference(&v, &cfg, &trace), "{kind:?}");
            }
        }
    }

    #[test]
    fn evaluation_is_cached() {
        let v = quick();
        let cfg = SsdConfig::default();
        let a = v.evaluate(&cfg, WorkloadKind::Database);
        assert_eq!(v.simulator_runs(), 1);
        let b = v.evaluate(&cfg, WorkloadKind::Database);
        assert_eq!(v.simulator_runs(), 1, "second call must hit the cache");
        assert_eq!(a, b);
    }

    #[test]
    fn different_configs_rerun() {
        let v = quick();
        v.evaluate(&SsdConfig::default(), WorkloadKind::Database);
        let other = SsdConfig {
            channel_count: 4,
            ..SsdConfig::default()
        };
        v.evaluate(&other, WorkloadKind::Database);
        assert_eq!(v.simulator_runs(), 2);
    }

    #[test]
    fn different_workloads_rerun() {
        let v = quick();
        let cfg = SsdConfig::default();
        v.evaluate(&cfg, WorkloadKind::Database);
        v.evaluate(&cfg, WorkloadKind::WebSearch);
        assert_eq!(v.simulator_runs(), 2);
    }

    #[test]
    fn clear_cache_forces_rerun() {
        let v = quick();
        let cfg = SsdConfig::default();
        v.evaluate(&cfg, WorkloadKind::Fiu);
        v.clear_cache();
        v.evaluate(&cfg, WorkloadKind::Fiu);
        assert_eq!(v.simulator_runs(), 2);
    }

    #[test]
    fn measurements_are_physical() {
        let v = quick();
        let m = v.evaluate(&SsdConfig::default(), WorkloadKind::KvStore);
        assert!(m.latency_ns > 100.0);
        assert!(m.throughput_bps > 1e3);
        assert!(m.power_w > 0.0);
        assert!(m.energy_mj > 0.0);
    }

    #[test]
    fn config_keys_distinguish_configs() {
        let base = SsdConfig::default();
        let a = ConfigKey::of(&base);
        assert_eq!(a, ConfigKey::of(&base.clone()));
        let mut tweaked = base.clone();
        tweaked.gc_threshold += 1e-9;
        assert_ne!(a, ConfigKey::of(&tweaked));
        let mut flipped = base;
        flipped.preemptible_gc = !flipped.preemptible_gc;
        assert_ne!(a, ConfigKey::of(&flipped));
    }

    #[test]
    fn validator_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Validator>();
    }

    fn memo_records(store: &Store) -> usize {
        store.keys_with_prefix("memo:").len()
    }

    #[test]
    fn stored_measurements_give_run_count_parity() {
        let store = Arc::new(Store::in_memory());
        let v = quick();
        v.attach_store(Arc::clone(&store));
        let base = SsdConfig::default();
        let other = SsdConfig {
            channel_count: 4,
            ..SsdConfig::default()
        };
        let a = v.evaluate(&base, WorkloadKind::Database);
        let b = v.evaluate(&other, WorkloadKind::Database);
        assert_eq!(v.simulator_runs(), 2);
        assert_eq!(memo_records(&store), 2);
        assert_eq!(v.memo_hits(), 0, "the first validator paid for both");

        // A fresh validator on the same store answers the same evaluations
        // without a single simulator run, and writes nothing new.
        let w = quick();
        w.attach_store(Arc::clone(&store));
        let trace = w.trace_for(WorkloadKind::Database);
        assert_eq!(w.evaluate_trace(&base, &trace), a);
        assert_eq!(w.memo_hits(), 1, "the store answered the first probe");
        assert_eq!(w.evaluate(&other, WorkloadKind::Database), b);
        assert_eq!(w.evaluate(&other, WorkloadKind::Database), b);
        assert_eq!(w.simulator_runs(), 0, "stored measurements are not charged");
        assert_eq!(w.memo_hits(), 2, "the in-process cache answers repeats");
        assert_eq!(store.log_records(), 2);

        // Another trace is another key.
        w.evaluate(&base, WorkloadKind::WebSearch);
        assert_eq!(w.simulator_runs(), 1);
        assert_eq!(memo_records(&store), 3);
    }

    #[test]
    fn undecodable_memo_records_are_misses() {
        let store = Arc::new(Store::in_memory());
        let v = quick();
        v.attach_store(Arc::clone(&store));
        let cfg = SsdConfig::default();
        let m = v.evaluate(&cfg, WorkloadKind::Database);
        let key = store.keys_with_prefix("memo:").pop().expect("one record");
        assert!(key
            .split(':')
            .skip(2)
            .all(|w| w.chars().all(|c| c.is_ascii_hexdigit())));
        store
            .put(&key, &serde_json::json!("not a measurement"))
            .unwrap();

        let w = quick();
        w.attach_store(Arc::clone(&store));
        assert_eq!(w.evaluate(&cfg, WorkloadKind::Database), m);
        assert_eq!((w.simulator_runs(), w.memo_hits()), (1, 0));
        assert_eq!(store.get_record::<Measurement>(&key).unwrap(), Some(m));
    }
}
