//! The event-driven SSD simulator.
//!
//! Requests from a block I/O trace flow through: host interface (queue
//! depth, protocol overhead, link bandwidth) → FTL (cached mapping table,
//! data cache) → flash back end (channel buses, plane busy times, GC and
//! wear-leveling background work). Timing uses per-resource availability
//! timelines, which is equivalent to a discrete-event simulation with
//! implicit FIFO queues per resource — the abstraction level of MQSim.

use crate::config::{CacheMode, FlashTechnology, SsdConfig};
use crate::flash::{splitmix64, BackgroundOp, FlashArray};
use crate::lru::LruCache;
use crate::observe::BottleneckReport;
use crate::power::{compute_energy, ActivityCounters};
use crate::report::{LatencyBuckets, LatencySummary, ReadBreakdown, SimReport, WriteBreakdown};
use iotrace::{OpKind, Trace};
use lpn_map::{LpnMap, MappedPage};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

mod lpn_map;

/// Maximum pages a single host request may span (guards degenerate traces).
const MAX_PAGES_PER_REQUEST: u64 = 2048;

/// DRAM access cost for a whole page, derived per config at construction.
#[derive(Debug, Clone, Copy)]
struct Timing {
    read_ns: u64,
    program_ns: u64,
    erase_ns: u64,
    transfer_ns: u64,
    dram_page_ns: u64,
    dram_entry_ns: u64,
    protocol_ns: u64,
    link_bytes_per_ns: f64,
    suspend_program_ns: u64,
    /// SLC-mode cell timings for the hybrid cache tier (base SLC figures,
    /// independent of the capacity technology's tuned latencies).
    slc_read_ns: u64,
    slc_program_ns: u64,
    slc_erase_ns: u64,
}

impl Timing {
    fn from_config(cfg: &SsdConfig) -> Self {
        let dram_bytes_per_ns = f64::from(cfg.dram_data_rate_mts.max(200)) * 1e6 * 8.0 / 1e9;
        Timing {
            read_ns: cfg.read_latency_ns,
            program_ns: cfg.program_latency_ns,
            erase_ns: cfg.erase_latency_ns,
            transfer_ns: cfg.channel_transfer_ns(),
            dram_page_ns: (f64::from(cfg.page_size_bytes) / dram_bytes_per_ns) as u64 + 30,
            dram_entry_ns: 60,
            protocol_ns: cfg.protocol_overhead_ns(),
            link_bytes_per_ns: cfg.link_bandwidth_bps() / 1e9,
            suspend_program_ns: cfg.suspend_program_ns,
            slc_read_ns: FlashTechnology::Slc.base_read_ns(),
            slc_program_ns: FlashTechnology::Slc.base_program_ns(),
            slc_erase_ns: FlashTechnology::Slc.base_erase_ns(),
        }
    }
}

/// Block sentinel for "page folded into the capacity tier, exact block
/// unknown". Reads to such pages pay capacity-technology latency;
/// overwrites invalidate a hashed capacity block (the same approximation
/// used for warm-up resident data). Never collides with a real cache block
/// and, combined with any valid plane index, never encodes to the mapping
/// table's unmapped sentinel.
const CAPACITY_RESIDENT: u32 = u32::MAX - 1;

/// Reusable per-run state: the latency vectors and the outstanding-request
/// heap [`Simulator::run`] needs, and the sizes a simulator's hash tables
/// reached (the data cache's and the cached mapping table's slot tables and
/// the mapping table's directory).
///
/// A validator evaluating thousands of candidate configurations re-runs
/// the simulator constantly. Passing one scratch per worker thread to
/// [`Simulator::run_scratch`] reuses the buffers across runs, and a
/// simulator handed back with [`Simulator::recycle`] records its table
/// sizes here: the next simulator that thread runs allocates its tables at
/// the largest size the thread has seen instead of regrowing them from
/// empty, rehash by rehash. Only sizes are kept, not the tables: parking
/// them between runs would hold their memory while the rest of the search
/// runs, where pre-sizing reuses what the allocator got back from the
/// previous replay. The scratch only carries capacity: a report is the
/// same whichever scratch, if any, its run was given.
#[derive(Debug, Default)]
pub struct RunScratch {
    latencies: Vec<u64>,
    read_lat: Vec<u64>,
    write_lat: Vec<u64>,
    outstanding: BinaryHeap<Reverse<u64>>,
    data_cache_slots: usize,
    cmt_slots: usize,
    mapping_slots: usize,
}

/// The SSD simulator.
///
/// # Examples
///
/// ```
/// use iotrace::gen::WorkloadKind;
/// use ssdsim::config::SsdConfig;
/// use ssdsim::sim::Simulator;
///
/// let trace = WorkloadKind::Database.spec().generate(2_000, 1);
/// let mut sim = Simulator::new(SsdConfig::default());
/// sim.warm_up(0.5);
/// let report = sim.run(&trace);
/// assert!(report.latency.mean_ns > 0.0);
/// assert!(report.throughput_bps > 0.0);
/// ```
///
/// A simulator is `Clone`: a caller that replays several traces from the
/// same starting state builds and warms one device and clones it.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: SsdConfig,
    timing: Timing,
    flash: FlashArray,
    mapping: LpnMap,
    data_cache: LruCache,
    cmt: LruCache,
    channel_free: Vec<u64>,
    die_free: Vec<u64>,
    /// End of the currently executing multiplane program window per die.
    mp_window_end: Vec<u64>,
    /// Planes already participating in the current window per die.
    mp_used: Vec<u32>,
    /// Die that received the most recently issued program (multiplane
    /// merging requires consecutively issued same-die programs).
    last_program_die: Option<usize>,
    link_tx_free: u64,
    link_rx_free: u64,
    counters: ActivityCounters,
    dirty_fifo: VecDeque<(u64, u64)>,
    dirty_window: usize,
    cache_read_hits: u64,
    cache_read_misses: u64,
    cmt_hits: u64,
    cmt_misses: u64,
    data_cache_evictions: u64,
    cmt_evictions: u64,
    host_page_writes: u64,
    planes_per_channel: u32,
    planes_per_die: u32,
    logical_pages: u64,
    entries_per_tp: u64,
    /// Diagnostic: total ns reads spent waiting for busy planes.
    pub diag_plane_wait_ns: u64,
    /// Diagnostic: total ns reads spent waiting for busy channels.
    pub diag_channel_wait_ns: u64,
    /// Diagnostic: flash reads issued.
    pub diag_flash_reads: u64,
    /// Diagnostic: translation-page flash reads.
    pub diag_tp_reads: u64,
    /// Diagnostic: flash programs issued (host destages + metadata).
    pub diag_flash_programs: u64,
    /// Diagnostic: total ns programs spent waiting for busy dies.
    pub diag_write_plane_wait_ns: u64,
    /// Diagnostic: total ns program data transfers waited for channels.
    pub diag_write_channel_wait_ns: u64,
    /// Diagnostic: die time consumed by GC / wear-leveling migrations, ns.
    pub diag_gc_stall_ns: u64,
    /// Diagnostic: flash service time paid on cache misses, ns.
    pub diag_cache_miss_ns: u64,
    /// Diagnostic: die time consumed folding SLC-cache blocks into the
    /// capacity tier, ns (hybrid families only).
    pub diag_slc_migration_ns: u64,
    /// Diagnostic: host-side time requests waited for queue admission, ns.
    pub diag_queue_wait_ns: u64,
    /// Diagnostic: total end-to-end request time (arrival → completion), ns.
    pub diag_total_latency_ns: u64,
    /// SLC-cache blocks per plane (0 = homogeneous device family).
    slc_cache_blocks: u32,
    /// Hybrid only: logical pages currently mapped into each cache block
    /// (`block * total_planes + plane`, so the vector grows with the cache
    /// blocks a run has written, not with the configured cache size).
    /// Drained when the block folds so reads afterwards pay capacity-tier
    /// latency; entries whose mapping has moved on are skipped at drain time.
    slc_resident: Vec<Vec<u64>>,
}

impl Simulator {
    /// Creates a simulator for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SsdConfig::validate`].
    pub fn new(cfg: SsdConfig) -> Self {
        // Validates `cfg` (and panics) before anything below divides by it.
        let flash = FlashArray::new(&cfg);
        let data_cache_pages =
            (u64::from(cfg.data_cache_mb) << 20) / u64::from(cfg.page_size_bytes);
        let cmt_tps = (u64::from(cfg.cmt_capacity_mb) << 20) / u64::from(cfg.page_size_bytes);
        let entries_per_tp = u64::from(cfg.page_size_bytes) / u64::from(cfg.cmt_entry_bytes.max(1));
        let timing = Timing::from_config(&cfg);
        let planes_per_channel = cfg.chips_per_channel * cfg.dies_per_chip * cfg.planes_per_die;
        let slc_cache_blocks = cfg.slc_cache_blocks_per_plane();
        Simulator {
            timing,
            mapping: LpnMap::default(),
            data_cache: LruCache::new(data_cache_pages.min(1 << 24) as usize),
            cmt: LruCache::new(cmt_tps.min(1 << 22) as usize),
            channel_free: vec![0; cfg.channel_count as usize],
            die_free: vec![0; cfg.total_dies() as usize],
            mp_window_end: vec![0; cfg.total_dies() as usize],
            mp_used: vec![0; cfg.total_dies() as usize],
            last_program_die: None,
            link_tx_free: 0,
            link_rx_free: 0,
            counters: ActivityCounters::default(),
            dirty_fifo: VecDeque::new(),
            // Durability bound: at most this many acknowledged-but-unflushed
            // pages may sit in the write-back cache before destaging kicks
            // in (a quarter of the cache, capped at 64k pages).
            dirty_window: ((data_cache_pages / 4).clamp(64, 65_536)) as usize,
            cache_read_hits: 0,
            cache_read_misses: 0,
            cmt_hits: 0,
            cmt_misses: 0,
            data_cache_evictions: 0,
            cmt_evictions: 0,
            host_page_writes: 0,
            planes_per_channel,
            planes_per_die: cfg.planes_per_die,
            logical_pages: cfg.logical_pages().max(1),
            entries_per_tp: entries_per_tp.max(1),
            diag_plane_wait_ns: 0,
            diag_channel_wait_ns: 0,
            diag_flash_reads: 0,
            diag_tp_reads: 0,
            diag_flash_programs: 0,
            diag_write_plane_wait_ns: 0,
            diag_write_channel_wait_ns: 0,
            diag_gc_stall_ns: 0,
            diag_slc_migration_ns: 0,
            diag_cache_miss_ns: 0,
            diag_queue_wait_ns: 0,
            diag_total_latency_ns: 0,
            slc_cache_blocks,
            slc_resident: Vec::new(),
            flash,
            cfg,
        }
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Pre-fills the flash array to `fill_fraction` occupancy, modeling the
    /// paper's warm-up phase (§4.2: "occupy at least 50% of the capacity").
    ///
    /// The warm state is a function of the layout: on a device nothing has
    /// written yet this stores no block (see [`FlashArray::warm_up`]), so a
    /// warmed simulator clones at the cost of its per-plane state.
    pub fn warm_up(&mut self, fill_fraction: f64) {
        let _span = telemetry::span::Span::enter("sim.warm_up");
        self.flash.warm_up(fill_fraction);
    }

    /// Flushes every acknowledged-but-unwritten page to flash and returns
    /// the time at which the device is fully quiescent (all dirty data
    /// durable, all channels and dies idle), starting no earlier than
    /// `from_ns`. This is the device-level equivalent of an `fsync` at the
    /// end of a run: sustained write throughput must include it, otherwise
    /// a large write-back cache makes bandwidth look DRAM-bound.
    pub fn drain(&mut self, from_ns: u64) -> u64 {
        let _span = telemetry::span::Span::enter("sim.drain");
        let mut done = from_ns;
        while let Some((lpn, _)) = self.dirty_fifo.pop_front() {
            if self.data_cache.is_dirty(lpn) {
                self.data_cache.mark_clean(lpn);
                done = done.max(self.program_lpn(lpn, from_ns));
            }
        }
        let resources_idle = self
            .die_free
            .iter()
            .chain(self.channel_free.iter())
            .copied()
            .max()
            .unwrap_or(0);
        done.max(resources_idle)
    }

    /// Simulates the whole trace and returns the report.
    ///
    /// Running consumes accumulated state (caches and flash occupancy
    /// persist across calls, so back-to-back runs model a continuously
    /// operating device).
    pub fn run(&mut self, trace: &Trace) -> SimReport {
        let mut scratch = RunScratch::default();
        self.run_scratch(trace, &mut scratch)
    }

    /// [`Simulator::run`] with caller-provided scratch buffers, for callers
    /// that replay many traces back to back (the validator's hot path).
    /// The scratch is cleared on entry; its grown capacity is what carries
    /// over between runs. A table nothing has been inserted into yet is
    /// allocated at the size the scratch recorded (see
    /// [`Simulator::recycle`]); one with entries keeps its own, so
    /// back-to-back runs on one simulator still model a continuously
    /// operating device.
    pub fn run_scratch(&mut self, trace: &Trace, scratch: &mut RunScratch) -> SimReport {
        let _span = telemetry::span::Span::enter("sim.run");
        self.data_cache.presize_slots(scratch.data_cache_slots);
        self.cmt.presize_slots(scratch.cmt_slots);
        self.mapping.presize_slots(scratch.mapping_slots);
        scratch.latencies.clear();
        scratch.latencies.reserve(trace.len());
        scratch.read_lat.clear();
        scratch.write_lat.clear();
        scratch.outstanding.clear();
        let RunScratch {
            latencies,
            read_lat,
            write_lat,
            outstanding,
            ..
        } = scratch;
        let mut latency_buckets = LatencyBuckets::default();
        let qd = self.cfg.effective_queue_depth() as usize;
        let mut host_bytes: u64 = 0;
        let mut first_arrival = None;
        let mut last_completion: u64 = 0;
        // Controller-activity tracking: the storage processor spends CPU
        // cycles on every outstanding request (submission handling, DMA
        // setup, polling, completion). Engagement is modeled as a fixed
        // fraction of aggregate device response time, so configurations
        // that finish requests faster save controller cycles — the paper's
        // explanation for the energy savings of learned configurations.
        let mut outstanding_time_ns: u128 = 0;

        for event in trace {
            let arrival = event.timestamp_ns;
            first_arrival.get_or_insert(arrival);

            // Queue admission: drain completions that happened before now.
            while let Some(&Reverse(t)) = outstanding.peek() {
                if t <= arrival {
                    outstanding.pop();
                } else {
                    break;
                }
            }
            let mut admit = arrival;
            while outstanding.len() >= qd {
                let Reverse(t) = outstanding.pop().expect("nonempty when full");
                admit = admit.max(t);
            }

            let start = admit + self.timing.protocol_ns;
            self.destage_aged(start);

            // Logical page span.
            let byte_start = event.lba * 512;
            let byte_end = byte_start + u64::from(event.size_bytes);
            let first_lpn = byte_start / u64::from(self.cfg.page_size_bytes);
            let last_lpn = (byte_end.saturating_sub(1)) / u64::from(self.cfg.page_size_bytes);
            let n_pages = (last_lpn - first_lpn + 1).min(MAX_PAGES_PER_REQUEST);

            let completion = match event.op {
                OpKind::Read => {
                    let mut flash_done = start;
                    for i in 0..n_pages {
                        let lpn = (first_lpn + i) % self.logical_pages;
                        let done = self.service_read(lpn, start);
                        flash_done = flash_done.max(done);
                    }
                    // Return data to the host over the link.
                    self.link_rx_transfer(flash_done, u64::from(event.size_bytes))
                }
                OpKind::Write => {
                    // Data must cross the link before it can be buffered.
                    let data_at = self.link_tx_transfer(start, u64::from(event.size_bytes));
                    let mut done = data_at;
                    let page = u64::from(self.cfg.page_size_bytes);
                    for i in 0..n_pages {
                        let lpn = (first_lpn + i) % self.logical_pages;
                        // Sub-page writes require read-modify-write: the
                        // untouched remainder of the page must be fetched
                        // before the page can be rewritten (unless it is
                        // already buffered). This is what keeps huge flash
                        // pages from being a free lunch for small writes.
                        let covers_whole_page = byte_start <= (first_lpn + i) * page
                            && byte_end >= (first_lpn + i + 1) * page;
                        let t_ready = if covers_whole_page || self.data_cache.contains(lpn) {
                            data_at
                        } else {
                            self.service_read(lpn, data_at)
                        };
                        let d = self.service_write(lpn, t_ready);
                        done = done.max(d);
                    }
                    self.host_page_writes += n_pages;
                    done
                }
            };

            // Device response time: measured from entry into the device
            // queue (MQSim semantics). Host-side stall while the queue is
            // full dilates the makespan (throughput) but is not part of a
            // request's latency.
            let latency = completion.saturating_sub(admit);
            // Bottleneck attribution denominators: host-side admission wait
            // plus the in-device time, i.e. the full arrival → completion
            // interval the host experienced.
            let queue_wait = admit.saturating_sub(arrival);
            self.diag_queue_wait_ns += queue_wait;
            self.diag_total_latency_ns += latency + queue_wait;
            latencies.push(latency);
            latency_buckets.observe(latency);
            match event.op {
                OpKind::Read => read_lat.push(latency),
                OpKind::Write => write_lat.push(latency),
            }
            outstanding.push(Reverse(completion));
            last_completion = last_completion.max(completion);
            host_bytes += u64::from(event.size_bytes);
            outstanding_time_ns += u128::from(latency);
        }

        let makespan = last_completion
            .saturating_sub(first_arrival.unwrap_or(0))
            .max(1);
        self.counters.elapsed_ns = makespan;
        // ~6% of each request's in-device time costs controller cycles,
        // bounded by wall-clock (the processor cannot be more than busy).
        self.counters.controller_busy_ns += ((outstanding_time_ns * 6 / 100) as u64).min(makespan);
        let flash_stats = self.flash.stats();
        self.counters.flash_programs =
            flash_stats.programs + flash_stats.migrated_pages + flash_stats.slc_migrated_pages;
        self.counters.flash_erases = flash_stats.erases;
        let energy = compute_energy(&self.cfg, &self.counters);

        let denom_reads = self.cache_read_hits + self.cache_read_misses;
        let denom_cmt = self.cmt_hits + self.cmt_misses;
        SimReport {
            latency: LatencySummary::from_latencies(latencies),
            read_latency: LatencySummary::from_latencies(read_lat),
            write_latency: LatencySummary::from_latencies(write_lat),
            throughput_bps: host_bytes as f64 / (makespan as f64 / 1e9),
            makespan_ns: makespan,
            host_bytes,
            read_cache_hit_rate: if denom_reads > 0 {
                self.cache_read_hits as f64 / denom_reads as f64
            } else {
                0.0
            },
            cmt_hit_rate: if denom_cmt > 0 {
                self.cmt_hits as f64 / denom_cmt as f64
            } else {
                0.0
            },
            data_cache_evictions: self.data_cache_evictions,
            cmt_evictions: self.cmt_evictions,
            histogram_percentiles: latency_buckets.percentiles(),
            latency_buckets,
            flash: flash_stats,
            read_breakdown: ReadBreakdown {
                flash_reads: self.diag_flash_reads,
                mapping_reads: self.diag_tp_reads,
                mean_die_wait_ns: if self.diag_flash_reads > 0 {
                    self.diag_plane_wait_ns as f64 / self.diag_flash_reads as f64
                } else {
                    0.0
                },
                mean_channel_wait_ns: if self.diag_flash_reads > 0 {
                    self.diag_channel_wait_ns as f64 / self.diag_flash_reads as f64
                } else {
                    0.0
                },
            },
            write_breakdown: WriteBreakdown {
                flash_programs: self.diag_flash_programs,
                mean_die_wait_ns: if self.diag_flash_programs > 0 {
                    self.diag_write_plane_wait_ns as f64 / self.diag_flash_programs as f64
                } else {
                    0.0
                },
                mean_channel_wait_ns: if self.diag_flash_programs > 0 {
                    self.diag_write_channel_wait_ns as f64 / self.diag_flash_programs as f64
                } else {
                    0.0
                },
            },
            bottleneck: BottleneckReport::from_totals(
                self.diag_total_latency_ns,
                self.diag_channel_wait_ns + self.diag_write_channel_wait_ns,
                self.diag_plane_wait_ns + self.diag_write_plane_wait_ns,
                self.diag_gc_stall_ns,
                self.diag_cache_miss_ns,
                self.diag_queue_wait_ns,
                self.diag_slc_migration_ns,
            ),
            write_amplification: if self.host_page_writes > 0 {
                (flash_stats.programs + flash_stats.migrated_pages + flash_stats.slc_migrated_pages)
                    as f64
                    / self.host_page_writes as f64
            } else {
                0.0
            },
            average_power_w: energy.average_power_w(makespan),
            energy,
        }
    }

    /// Ends this simulator, recording in `scratch` the sizes the hash
    /// tables of its data cache, cached mapping table and mapping table
    /// grew to, so the next simulator run with that scratch starts at
    /// them. Each recorded size is the largest the scratch was handed.
    pub fn recycle(self, scratch: &mut RunScratch) {
        let grown = |kept: &mut usize, size: usize| *kept = (*kept).max(size);
        grown(&mut scratch.data_cache_slots, self.data_cache.slot_count());
        grown(&mut scratch.cmt_slots, self.cmt.slot_count());
        grown(&mut scratch.mapping_slots, self.mapping.slot_count());
    }

    // ---- internal helpers ------------------------------------------------

    /// Consumes one page-transfer of channel capacity, starting no earlier
    /// than `earliest`. The channel pointer tracks consumed capacity from
    /// `now` onward instead of reserving the idle gap before a future
    /// `earliest`, so one plane-blocked transfer cannot poison the channel
    /// for unrelated requests.
    fn channel_use(&mut self, ch: usize, earliest: u64, now: u64) -> u64 {
        let capacity = self.channel_free[ch].max(now);
        let start = earliest.max(capacity);
        self.channel_free[ch] = capacity + self.timing.transfer_ns;
        start + self.timing.transfer_ns
    }

    /// Maximum age of an acknowledged-but-unflushed write before the
    /// destager pushes it to flash (5 ms), bounding data loss on power
    /// failure like a real controller's flush policy.
    const DIRTY_AGE_LIMIT_NS: u64 = 5_000_000;

    /// Flushes dirty cache entries older than the age limit. At most a
    /// handful of pages are destaged per call: real controllers pace
    /// destaging so background programs trickle out instead of storming
    /// every plane at once.
    fn destage_aged(&mut self, now: u64) {
        let mut budget = 4;
        while budget > 0 {
            let Some(&(lpn, dirtied_at)) = self.dirty_fifo.front() else {
                break;
            };
            if now.saturating_sub(dirtied_at) < Self::DIRTY_AGE_LIMIT_NS {
                break;
            }
            self.dirty_fifo.pop_front();
            if self.data_cache.is_dirty(lpn) {
                self.data_cache.mark_clean(lpn);
                self.program_lpn(lpn, now);
                budget -= 1;
            }
        }
    }

    fn channel_of_plane(&self, plane: u32) -> usize {
        (plane / self.planes_per_channel) as usize
    }

    fn die_of_plane(&self, plane: u32) -> usize {
        (plane / self.planes_per_die) as usize
    }

    /// Serializes `bytes` over the host link's device-to-host direction
    /// (read returns) starting no earlier than `t`. The link is full duplex:
    /// read returns and write submissions use independent timelines.
    fn link_rx_transfer(&mut self, t: u64, bytes: u64) -> u64 {
        let dur = (bytes as f64 / self.timing.link_bytes_per_ns) as u64 + 1;
        let start = t.max(self.link_rx_free);
        self.link_rx_free = start + dur;
        self.link_rx_free
    }

    /// Serializes `bytes` over the host-to-device direction (write data).
    fn link_tx_transfer(&mut self, t: u64, bytes: u64) -> u64 {
        let dur = (bytes as f64 / self.timing.link_bytes_per_ns) as u64 + 1;
        let start = t.max(self.link_tx_free);
        self.link_tx_free = start + dur;
        self.link_tx_free
    }

    /// Address translation through the cached mapping table. Returns the
    /// time at which the translation is available.
    fn translate(&mut self, lpn: u64, t: u64) -> u64 {
        let tpn = lpn / self.entries_per_tp;
        self.counters.dram_bytes += u64::from(self.cfg.cmt_entry_bytes);
        if self.cmt.touch(tpn) {
            self.cmt_hits += 1;
            return t + self.timing.dram_entry_ns;
        }
        self.cmt_misses += 1;
        // Fetch the translation page from flash (DFTL-style).
        let plane = self.flash.pseudo_plane(tpn ^ 0x5EED_7AB1E);
        self.diag_tp_reads += 1;
        let done = self.flash_read_at(plane, t);
        if let Some((evicted, dirty)) = self.cmt.insert(tpn, false) {
            if evicted != tpn {
                self.cmt_evictions += 1;
            }
            if dirty {
                // Write back the evicted dirty translation page.
                self.internal_program(done);
            }
        }
        done + self.timing.dram_entry_ns
    }

    /// Raw flash page read on `plane` starting no earlier than `t`, at the
    /// capacity technology's sense latency.
    fn flash_read_at(&mut self, plane: u32, t: u64) -> u64 {
        self.flash_read_at_ns(plane, t, self.timing.read_ns)
    }

    /// Raw flash page read on `plane` starting no earlier than `t` with an
    /// explicit sense latency (`read_ns`), so SLC-cache-resident pages on
    /// hybrid devices sense at SLC speed. The die is the execution unit: a
    /// read waits for whatever its die is doing (unless suspension lets it
    /// preempt an in-flight program).
    fn flash_read_at_ns(&mut self, plane: u32, t: u64, read_ns: u64) -> u64 {
        let didx = self.die_of_plane(plane);
        let sense_start = if self.cfg.program_suspension_enabled && self.die_free[didx] > t {
            // Suspend the in-flight operation. NAND programs can only pause
            // at phase boundaries, so the read still waits for a quarter of
            // the remaining busy time plus the suspension overhead; the
            // suspended operation is pushed back by the intrusion.
            let remaining = self.die_free[didx] - t;
            let wait = self.timing.suspend_program_ns + remaining / 2;
            self.die_free[didx] += read_ns + self.timing.suspend_program_ns;
            t + wait
        } else {
            let s = t.max(self.die_free[didx]);
            self.die_free[didx] = s + read_ns;
            s
        };
        self.diag_plane_wait_ns += sense_start.saturating_sub(t);
        self.diag_flash_reads += 1;
        // Every flash read exists because some cache (data cache or CMT)
        // missed; its raw service time is the cache-miss component of the
        // bottleneck attribution.
        self.diag_cache_miss_ns += read_ns + self.timing.transfer_ns;
        let sense_end = sense_start + read_ns;
        let ch = self.channel_of_plane(plane);
        let done = self.channel_use(ch, sense_end, t);
        self.diag_channel_wait_ns += done.saturating_sub(sense_end + self.timing.transfer_ns);
        self.counters.flash_reads += 1;
        done
    }

    fn slc_resident_index(&self, plane: u32, block: u32) -> usize {
        block as usize * self.flash.plane_count() + plane as usize
    }

    /// Sense latency for a mapped block: SLC speed while the page sits in
    /// the cache tier of a hybrid device, capacity speed otherwise.
    fn read_ns_for_block(&self, block: u32) -> u64 {
        if block < self.slc_cache_blocks {
            self.timing.slc_read_ns
        } else {
            self.timing.read_ns
        }
    }

    /// Services one logical-page read; returns its completion time.
    fn service_read(&mut self, lpn: u64, t: u64) -> u64 {
        let t = self.translate(lpn, t);
        if self.data_cache.touch(lpn) {
            self.cache_read_hits += 1;
            self.counters.dram_bytes += u64::from(self.cfg.page_size_bytes);
            return t + self.timing.dram_page_ns;
        }
        self.cache_read_misses += 1;
        let (plane, read_ns) = match self.mapping.get(lpn) {
            Some(m) => (m.plane, self.read_ns_for_block(m.block)),
            None => (self.flash.pseudo_plane(lpn), self.timing.read_ns),
        };
        let done = self.flash_read_at_ns(plane, t, read_ns);
        // Fill the cache with the clean page.
        if let Some((evicted, dirty)) = self.data_cache.insert(lpn, false) {
            if evicted != lpn {
                self.data_cache_evictions += 1;
                if dirty {
                    self.program_lpn(evicted, done);
                }
            }
        }
        done
    }

    /// Services one logical-page write; returns its host-visible completion.
    fn service_write(&mut self, lpn: u64, t: u64) -> u64 {
        self.counters.dram_bytes += u64::from(self.cfg.page_size_bytes);
        match self.cfg.cache_mode {
            CacheMode::WriteBack => {
                let was_dirty = self.data_cache.is_dirty(lpn);
                let done = match self.data_cache.insert(lpn, true) {
                    // Cache bypass (zero capacity): synchronous program.
                    Some((evicted, dirty)) if evicted == lpn => {
                        let _ = dirty;
                        return self.program_lpn(lpn, t);
                    }
                    Some((evicted, dirty)) => {
                        self.data_cache_evictions += 1;
                        if dirty {
                            // Background flush of the evicted victim.
                            self.program_lpn(evicted, t);
                        }
                        t + self.timing.dram_page_ns
                    }
                    None => t + self.timing.dram_page_ns,
                };
                if !was_dirty {
                    self.dirty_fifo.push_back((lpn, t));
                }
                // Background destaging: bound the acknowledged-but-unflushed
                // window for durability. Overwrites within the window
                // coalesce (they re-dirty an entry already queued).
                while self.data_cache.dirty_len() > self.dirty_window {
                    match self.dirty_fifo.pop_front() {
                        Some((victim, _)) => {
                            if self.data_cache.is_dirty(victim) {
                                self.data_cache.mark_clean(victim);
                                self.program_lpn(victim, t);
                            }
                        }
                        None => break,
                    }
                }
                done
            }
            CacheMode::WriteThrough => {
                let done = self.program_lpn(lpn, t);
                if let Some((evicted, _)) = self.data_cache.insert(lpn, false) {
                    if evicted != lpn {
                        self.data_cache_evictions += 1;
                    }
                }
                done
            }
        }
    }

    /// Programs the current contents of `lpn` to flash: invalidates the old
    /// copy, allocates a striped location, charges timing, and handles any
    /// GC/wear-leveling fallout. Returns the program completion time.
    fn program_lpn(&mut self, lpn: u64, t: u64) -> u64 {
        // Invalidate the previous physical copy.
        match self.mapping.get(lpn) {
            Some(old) if old.block == CAPACITY_RESIDENT => {
                // Folded into the capacity tier; the exact block is unknown.
                self.flash.invalidate_somewhere(old.plane, splitmix64(lpn));
            }
            Some(old) => {
                let (plane, block) = (old.plane, old.block);
                self.flash.invalidate(plane, block);
            }
            None => {
                let plane = self.flash.pseudo_plane(lpn);
                self.flash.invalidate_somewhere(plane, splitmix64(lpn));
            }
        }

        let plane = self.flash.next_write_plane();
        let (block, _page, bg_ops) = self.flash.program_page(plane);
        self.mapping.insert(lpn, MappedPage { plane, block });
        if block < self.slc_cache_blocks {
            let idx = self.slc_resident_index(plane, block);
            if idx >= self.slc_resident.len() {
                self.slc_resident.resize_with(idx + 1, Vec::new);
            }
            self.slc_resident[idx].push(lpn);
        }

        // Update the translation entry (dirty in the CMT).
        let tpn = lpn / self.entries_per_tp;
        if !self.cmt.mark_dirty(tpn) {
            if let Some((evicted, dirty)) = self.cmt.insert(tpn, true) {
                if evicted != tpn {
                    self.cmt_evictions += 1;
                }
                if dirty {
                    self.internal_program(t);
                }
            }
        }

        let done = self.internal_program_on(plane, t);
        for op in bg_ops {
            self.charge_background(op, done);
        }
        done
    }

    /// A program whose target plane is chosen by striping (used for
    /// metadata writes where the destination does not matter).
    fn internal_program(&mut self, t: u64) -> u64 {
        let plane = self.flash.next_write_plane();
        let (_block, _page, bg_ops) = self.flash.program_page(plane);
        let done = self.internal_program_on(plane, t);
        for op in bg_ops {
            self.charge_background(op, done);
        }
        done
    }

    /// Charges channel + die time for one page program on `plane`.
    ///
    /// Dies execute one operation at a time, but programs issued while a
    /// program window is already executing on the same die join it as a
    /// multiplane operation (up to `planes_per_die` pages per window).
    /// Plane-first allocation schemes therefore multiply effective program
    /// bandwidth, while channel-first schemes trade that for read
    /// parallelism — the core tension behind the paper's Table 5.
    fn internal_program_on(&mut self, plane: u32, t: u64) -> u64 {
        // On hybrid families every foreground program lands in the SLC
        // cache tier and completes at SLC program speed — the whole point
        // of fronting dense flash with a cache.
        let program_ns = if self.slc_cache_blocks > 0 {
            self.timing.slc_program_ns
        } else {
            self.timing.program_ns
        };
        let ch = self.channel_of_plane(plane);
        let data_in = self.channel_use(ch, t, t);
        let didx = self.die_of_plane(plane);
        self.diag_flash_programs += 1;
        self.diag_write_channel_wait_ns += data_in.saturating_sub(t + self.timing.transfer_ns);

        // Join the in-flight multiplane window when possible: the
        // transaction scheduler batches programs that arrive while a
        // program window is still executing on the die, up to one per
        // plane. This is what makes planes multiply write bandwidth.
        if self.mp_used[didx] < self.cfg.planes_per_die && self.mp_window_end[didx] > data_in {
            self.mp_used[didx] += 1;
            return self.mp_window_end[didx];
        }
        self.last_program_die = Some(didx);
        // Open a new program window on the die (capacity-pointer model: a
        // program waiting on its data transfer does not reserve the gap).
        let die_capacity = self.die_free[didx].max(t);
        let prog_start = data_in.max(die_capacity);
        let done = prog_start + program_ns;
        self.diag_write_plane_wait_ns += prog_start.saturating_sub(data_in);
        self.die_free[didx] = die_capacity + program_ns;
        self.mp_window_end[didx] = done;
        self.mp_used[didx] = 1;
        done
    }

    /// Charges the resource cost of background flash work (GC cycles,
    /// wear-leveling swaps, and SLC-cache folds).
    fn charge_background(&mut self, op: BackgroundOp, t: u64) {
        let (plane, pages) = match op {
            BackgroundOp::GcCycle { plane, pages } => (plane, pages),
            BackgroundOp::WearLevelSwap { plane, pages } => (plane, pages),
            BackgroundOp::SlcMigration {
                plane,
                block,
                pages,
            } => {
                self.charge_slc_migration(plane, block, pages, t);
                return;
            }
        };
        let per_page = self.timing.read_ns + self.timing.program_ns + 2 * self.timing.transfer_ns;
        let mut total = u64::from(pages) * per_page;
        if !self.cfg.erase_suspension_enabled {
            total += self.timing.erase_ns;
        }
        self.counters.flash_reads += u64::from(pages);

        let didx = self.die_of_plane(plane);
        let die_add = if self.cfg.preemptible_gc {
            // Migrations yield to host I/O: only half the GC time blocks
            // the die's timeline; the rest hides in idle gaps.
            total / 2
        } else {
            // The die stalls for the whole GC cycle.
            total
        };
        self.die_free[didx] = self.die_free[didx].max(t) + die_add;
        self.diag_gc_stall_ns += die_add;
        // Channel time for the migrated pages' transfers.
        let ch_add = u64::from(pages) * 2 * self.timing.transfer_ns / 4;
        let ch = self.channel_of_plane(plane);
        self.channel_free[ch] = self.channel_free[ch].max(t) + ch_add;
    }

    /// Charges one SLC-cache fold (`pages` SLC reads + capacity programs,
    /// then an SLC-mode erase) and relocates the folded pages' mappings to
    /// the capacity tier so later reads pay capacity latency.
    fn charge_slc_migration(&mut self, plane: u32, block: u32, pages: u32, t: u64) {
        // Relocate mappings first: anything still pointing at the folded
        // cache block now lives in the capacity tier (block unknown).
        let idx = self.slc_resident_index(plane, block);
        let lpns = self
            .slc_resident
            .get_mut(idx)
            .map(std::mem::take)
            .unwrap_or_default();
        for lpn in lpns {
            if let Some(m) = self.mapping.get(lpn) {
                if m.plane == plane && m.block == block {
                    self.mapping.insert(
                        lpn,
                        MappedPage {
                            plane,
                            block: CAPACITY_RESIDENT,
                        },
                    );
                }
            }
        }

        let per_page =
            self.timing.slc_read_ns + self.timing.program_ns + 2 * self.timing.transfer_ns;
        let mut total = u64::from(pages) * per_page;
        if !self.cfg.erase_suspension_enabled {
            total += self.timing.slc_erase_ns;
        }
        self.counters.flash_reads += u64::from(pages);

        let didx = self.die_of_plane(plane);
        // Folds pace themselves like preemptible GC when the device is
        // configured for it: half the work hides in idle die time.
        let die_add = if self.cfg.preemptible_gc {
            total / 2
        } else {
            total
        };
        self.die_free[didx] = self.die_free[didx].max(t) + die_add;
        self.diag_slc_migration_ns += die_add;
        let ch_add = u64::from(pages) * 2 * self.timing.transfer_ns / 4;
        let ch = self.channel_of_plane(plane);
        self.channel_free[ch] = self.channel_free[ch].max(t) + ch_add;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FlashTechnology, Interface};
    use iotrace::gen::WorkloadKind;
    use iotrace::TraceEvent;

    fn run_with(cfg: SsdConfig, kind: WorkloadKind, n: usize) -> SimReport {
        let trace = kind.spec().generate(n, 42);
        let mut sim = Simulator::new(cfg);
        sim.warm_up(0.5);
        sim.run(&trace)
    }

    #[test]
    fn produces_sane_report() {
        let r = run_with(SsdConfig::default(), WorkloadKind::Database, 2_000);
        assert!(r.latency.mean_ns > 1_000.0, "{}", r.latency.mean_ns);
        assert!(r.latency.p99_ns >= r.latency.p50_ns);
        assert!(r.throughput_bps > 0.0);
        assert!(r.energy.total_mj() > 0.0);
        assert_eq!(r.latency.count, 2_000);
    }

    #[test]
    fn more_channels_improve_intensive_workload() {
        let narrow = SsdConfig {
            channel_count: 2,
            ..SsdConfig::default()
        };
        let wide = SsdConfig {
            channel_count: 32,
            ..SsdConfig::default()
        };
        let rn = run_with(narrow, WorkloadKind::CloudStorage, 3_000);
        let rw = run_with(wide, WorkloadKind::CloudStorage, 3_000);
        assert!(
            rw.latency.mean_ns < rn.latency.mean_ns,
            "wide {} vs narrow {}",
            rw.latency.mean_ns,
            rn.latency.mean_ns
        );
    }

    #[test]
    fn slc_beats_tlc_on_latency() {
        let slc = SsdConfig {
            flash_technology: FlashTechnology::Slc,
            read_latency_ns: FlashTechnology::Slc.base_read_ns(),
            program_latency_ns: FlashTechnology::Slc.base_program_ns(),
            erase_latency_ns: FlashTechnology::Slc.base_erase_ns(),
            ..SsdConfig::default()
        };
        let tlc = SsdConfig {
            flash_technology: FlashTechnology::Tlc,
            read_latency_ns: FlashTechnology::Tlc.base_read_ns(),
            program_latency_ns: FlashTechnology::Tlc.base_program_ns(),
            erase_latency_ns: FlashTechnology::Tlc.base_erase_ns(),
            ..SsdConfig::default()
        };
        let rs = run_with(slc, WorkloadKind::WebSearch, 2_000);
        let rt = run_with(tlc, WorkloadKind::WebSearch, 2_000);
        assert!(rs.latency.mean_ns < rt.latency.mean_ns);
    }

    #[test]
    fn bigger_data_cache_raises_hit_rate() {
        let small = SsdConfig {
            data_cache_mb: 16,
            ..SsdConfig::default()
        };
        let big = SsdConfig {
            data_cache_mb: 2048,
            ..SsdConfig::default()
        };
        let rs = run_with(small, WorkloadKind::Recomm, 4_000);
        let rb = run_with(big, WorkloadKind::Recomm, 4_000);
        assert!(rb.read_cache_hit_rate >= rs.read_cache_hit_rate);
    }

    #[test]
    fn sata_slower_than_nvme_for_throughput_workload() {
        let nvme = SsdConfig::default();
        let sata = SsdConfig {
            interface: Interface::Sata,
            ..SsdConfig::default()
        };
        let rn = run_with(nvme, WorkloadKind::BatchAnalytics, 2_000);
        let rs = run_with(sata, WorkloadKind::BatchAnalytics, 2_000);
        assert!(rn.throughput_bps > rs.throughput_bps);
    }

    #[test]
    fn write_back_hides_program_latency() {
        let wb = SsdConfig {
            cache_mode: CacheMode::WriteBack,
            ..SsdConfig::default()
        };
        let wt = SsdConfig {
            cache_mode: CacheMode::WriteThrough,
            ..SsdConfig::default()
        };
        let rb = run_with(wb, WorkloadKind::Fiu, 2_000);
        let rt = run_with(wt, WorkloadKind::Fiu, 2_000);
        assert!(rb.write_latency.mean_ns < rt.write_latency.mean_ns);
    }

    #[test]
    fn writes_generate_programs_and_wa() {
        let r = run_with(SsdConfig::default(), WorkloadKind::Fiu, 3_000);
        assert!(r.flash.programs > 0);
        assert!(r.write_amplification >= 0.0);
    }

    #[test]
    fn deterministic_runs() {
        let a = run_with(SsdConfig::default(), WorkloadKind::KvStore, 1_000);
        let b = run_with(SsdConfig::default(), WorkloadKind::KvStore, 1_000);
        assert_eq!(a, b);
    }

    /// Per plane: free capacity pages, free cache pages, valid pages; then
    /// the device's erase spread.
    type FlashState = (Vec<(u64, u64, u64)>, u32);

    fn flash_state(flash: &FlashArray) -> FlashState {
        let planes = (0..flash.plane_count() as u32)
            .map(|p| {
                (
                    flash.free_pages(p),
                    flash.cache_free_pages(p),
                    flash.valid_pages(p),
                )
            })
            .collect();
        (planes, flash.erase_spread())
    }

    /// The timed report, the saturated report and the drain time of a
    /// validation-shaped run (warm once, clone for the saturated replay)
    /// on `flash`, and the flash state each replay left behind.
    fn validate_on(
        cfg: &SsdConfig,
        flash: FlashArray,
        trace: &Trace,
        saturated: &Trace,
    ) -> (SimReport, SimReport, u64, FlashState, FlashState) {
        let mut sim = Simulator::new(cfg.clone());
        sim.flash = flash;
        sim.warm_up(0.5);
        let mut sat_sim = sim.clone();
        let report = sim.run(trace);
        let sat_report = sat_sim.run(saturated);
        let drained_ns = sat_sim.drain(sat_report.makespan_ns);
        let (timed_state, sat_state) = (flash_state(&sim.flash), flash_state(&sat_sim.flash));
        (report, sat_report, drained_ns, timed_state, sat_state)
    }

    #[test]
    fn lazy_block_table_runs_equal_the_eager_arrays() {
        let trace = WorkloadKind::Fiu.spec().generate(2_000, 42);
        let zeroed = trace
            .events()
            .iter()
            .map(|e| TraceEvent::new(0, e.lba, e.size_bytes, e.op))
            .collect();
        let saturated = Trace::from_events(trace.name(), zeroed);
        for base in [
            crate::config::presets::intel_750(),
            crate::config::presets::hybrid_slc_qlc(),
        ] {
            // The widest geometry coarse pruning sweeps.
            let cfg = SsdConfig {
                blocks_per_plane: base.blocks_per_plane * 16,
                ..base
            };
            let lazy = validate_on(&cfg, FlashArray::new(&cfg), &trace, &saturated);
            let eager = validate_on(&cfg, FlashArray::eager(&cfg), &trace, &saturated);
            assert!(lazy.0.flash.programs > 0, "the trace must write");
            assert_eq!(lazy, eager, "{:?}", cfg.device_family);
        }
    }

    /// The timed report, the saturated report and the drain time of a
    /// validation-shaped run of `trace` on `cfg`, each replay through
    /// `scratch` and handed back to it, as a validator runs them.
    fn validate_recycled(
        cfg: &SsdConfig,
        trace: &Trace,
        scratch: &mut RunScratch,
    ) -> (SimReport, SimReport, u64) {
        let mut sim = Simulator::new(cfg.clone());
        sim.warm_up(0.5);
        let mut sat_sim = sim.clone();
        let report = sim.run_scratch(trace, scratch);
        sim.recycle(scratch);
        let sat_report = sat_sim.run_scratch(&saturated(trace), scratch);
        let drained_ns = sat_sim.drain(sat_report.makespan_ns);
        sat_sim.recycle(scratch);
        (report, sat_report, drained_ns)
    }

    /// The same, each replay on a fresh simulator through [`Simulator::run`].
    fn validate_fresh(cfg: &SsdConfig, trace: &Trace) -> (SimReport, SimReport, u64) {
        let mut sim = Simulator::new(cfg.clone());
        sim.warm_up(0.5);
        let mut sat_sim = sim.clone();
        let report = sim.run(trace);
        let sat_report = sat_sim.run(&saturated(trace));
        let drained_ns = sat_sim.drain(sat_report.makespan_ns);
        (report, sat_report, drained_ns)
    }

    fn saturated(trace: &Trace) -> Trace {
        let events = trace
            .events()
            .iter()
            .map(|e| TraceEvent::new(0, e.lba, e.size_bytes, e.op))
            .collect();
        Trace::from_events(trace.name(), events)
    }

    /// One scratch carried through replays whose tables grow, then shrink,
    /// across both device families, a read-heavy and a write-heavy trace
    /// and a bypassed (zero-capacity) data cache: every report and drain
    /// time equals a fresh simulator's, bit for bit, although later replays
    /// start from tables sized by earlier ones.
    #[test]
    fn recycled_tables_replay_like_fresh_ones() {
        let homog = crate::config::presets::intel_750();
        let hybrid = crate::config::presets::hybrid_slc_qlc();
        let bypass = SsdConfig {
            data_cache_mb: 0,
            ..homog.clone()
        };
        let tiny_cache = SsdConfig {
            data_cache_mb: 1,
            cmt_capacity_mb: 1,
            ..hybrid.clone()
        };
        let cells = [
            (&homog, WorkloadKind::WebSearch, 500),
            (&homog, WorkloadKind::WebSearch, 4_000),
            (&hybrid, WorkloadKind::Fiu, 3_000),
            (&bypass, WorkloadKind::Fiu, 2_000),
            (&tiny_cache, WorkloadKind::WebSearch, 1_500),
            (&hybrid, WorkloadKind::Fiu, 400),
            (&homog, WorkloadKind::WebSearch, 200),
        ];
        let mut scratch = RunScratch::default();
        for (cfg, kind, events) in cells {
            let trace = kind.spec().generate(events, 42);
            let recycled = validate_recycled(cfg, &trace, &mut scratch);
            assert_eq!(recycled, validate_fresh(cfg, &trace), "{kind:?} x {events}");
        }
        let sizes = [
            scratch.data_cache_slots,
            scratch.cmt_slots,
            scratch.mapping_slots,
        ];
        assert!(
            sizes.iter().all(|&n| n > 0),
            "every table size was recorded"
        );
    }

    /// Caches persist across runs on one simulator, so a second
    /// `run_scratch` must keep the tables the first one filled, not start
    /// new ones at the recorded sizes: two runs through one scratch equal
    /// two runs through fresh scratches.
    #[test]
    fn back_to_back_runs_keep_their_tables() {
        let mut scratch = RunScratch::default();
        let warm_trace = WorkloadKind::WebSearch.spec().generate(3_000, 1);
        validate_recycled(&SsdConfig::default(), &warm_trace, &mut scratch);
        let recorded = scratch.data_cache_slots;
        assert!(recorded > 0);

        let (first, second) = (
            WorkloadKind::Fiu.spec().generate(1_500, 2),
            WorkloadKind::WebSearch.spec().generate(1_500, 3),
        );
        let mut fresh = Simulator::new(SsdConfig::default());
        fresh.warm_up(0.5);
        let mut recycled = fresh.clone();
        let expected = (fresh.run(&first), fresh.run(&second));
        let got = recycled.run_scratch(&first, &mut scratch);
        assert_eq!(recycled.data_cache.slot_count(), recorded, "pre-sized");
        assert_eq!(got, expected.0);
        assert_eq!(recycled.run_scratch(&second, &mut scratch), expected.1);
        assert_eq!(
            recycled.drain(expected.1.makespan_ns),
            fresh.drain(expected.1.makespan_ns)
        );
        recycled.recycle(&mut scratch);
        assert!(scratch.data_cache_slots >= recorded);
    }

    #[test]
    fn hybrid_attributes_slc_migration() {
        // Small geometry so a short write-heavy trace cycles the cache tier.
        let cfg = SsdConfig {
            channel_count: 2,
            chips_per_channel: 1,
            dies_per_chip: 1,
            planes_per_die: 1,
            blocks_per_plane: 32,
            pages_per_block: 32,
            ..crate::config::presets::hybrid_slc_qlc()
        };
        let r = run_with(cfg, WorkloadKind::Fiu, 3_000);
        assert!(
            r.flash.slc_migrated_pages > 0,
            "write-heavy trace must fold"
        );
        assert!(
            r.bottleneck.slc_migration_ns > 0,
            "migration stalls must be attributed"
        );
        assert!((0.0..=1.0).contains(&r.bottleneck.slc_migration_frac));
    }

    #[test]
    fn hybrid_runs_deterministic() {
        let a = run_with(
            crate::config::presets::hybrid_slc_qlc(),
            WorkloadKind::Fiu,
            1_500,
        );
        let b = run_with(
            crate::config::presets::hybrid_slc_qlc(),
            WorkloadKind::Fiu,
            1_500,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn hybrid_absorbs_writes_at_slc_latency() {
        // With write-through exposing program latency, the SLC cache tier
        // must beat a homogeneous QLC device on write latency.
        let qlc = SsdConfig {
            flash_technology: FlashTechnology::Qlc,
            read_latency_ns: FlashTechnology::Qlc.base_read_ns(),
            program_latency_ns: FlashTechnology::Qlc.base_program_ns(),
            erase_latency_ns: FlashTechnology::Qlc.base_erase_ns(),
            cache_mode: CacheMode::WriteThrough,
            ..SsdConfig::default()
        };
        let hybrid = SsdConfig {
            cache_mode: CacheMode::WriteThrough,
            ..crate::config::presets::hybrid_slc_qlc()
        };
        let rq = run_with(qlc, WorkloadKind::Fiu, 2_000);
        let rh = run_with(hybrid, WorkloadKind::Fiu, 2_000);
        assert!(
            rh.write_latency.mean_ns < rq.write_latency.mean_ns,
            "hybrid {} vs qlc {}",
            rh.write_latency.mean_ns,
            rq.write_latency.mean_ns
        );
    }

    #[test]
    fn empty_trace_yields_default_report() {
        let mut sim = Simulator::new(SsdConfig::default());
        let r = sim.run(&Trace::new("empty"));
        assert_eq!(r.latency.count, 0);
        assert_eq!(r.host_bytes, 0);
    }

    #[test]
    fn queue_depth_one_serializes() {
        let deep = SsdConfig {
            io_queue_depth: 64,
            queue_count: 8,
            ..SsdConfig::default()
        };
        let shallow = SsdConfig {
            io_queue_depth: 1,
            queue_count: 1,
            ..SsdConfig::default()
        };
        let rd = run_with(deep, WorkloadKind::Database, 2_000);
        let rs = run_with(shallow, WorkloadKind::Database, 2_000);
        // A shallow queue throttles admission: per-request latency drops
        // (no in-device queueing) but throughput collapses.
        assert!(rs.throughput_bps < rd.throughput_bps);
    }

    #[test]
    fn eviction_counters_and_histogram_populate() {
        let tight = SsdConfig {
            data_cache_mb: 1,
            cmt_capacity_mb: 1,
            ..SsdConfig::default()
        };
        let r = run_with(tight, WorkloadKind::CloudStorage, 4_000);
        assert_eq!(r.latency_buckets.total(), 4_000);
        assert!(
            r.data_cache_evictions > 0,
            "a 1 MiB data cache must evict under 4k requests"
        );
        // Evictions cannot outnumber insertions (misses fill the cache).
        assert!(r.data_cache_evictions <= r.latency.count * MAX_PAGES_PER_REQUEST);
    }

    #[test]
    fn single_large_request_spans_pages() {
        let mut sim = Simulator::new(SsdConfig::default());
        let mut t = Trace::new("one");
        t.push(TraceEvent::new(0, 0, 1 << 20, OpKind::Read)); // 1 MiB read
        let r = sim.run(&t);
        assert_eq!(r.latency.count, 1);
        assert!(r.flash.programs == 0);
        assert!(r.host_bytes == 1 << 20);
    }
}
