//! SSD hardware configuration: every tunable parameter AutoBlox explores.
//!
//! The field set is transcribed from MQSim's SSD/flash configuration files
//! (the simulator the paper extends) plus the parameters named in the paper's
//! Tables 5 and 7 and Figures 4 and 5. A handful of parameters are
//! performance-inert by design (they exist in real SSD configs but do not
//! influence the modeled datapath); the paper's coarse-grained pruning stage
//! is expected to discover exactly those.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// NAND flash cell technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlashTechnology {
    /// Single-level cell: fastest, most durable.
    Slc,
    /// Multi-level cell (2 bits/cell).
    Mlc,
    /// Triple-level cell (3 bits/cell).
    Tlc,
    /// Quad-level cell (4 bits/cell): densest, slowest. Latencies follow the
    /// device-level optimization survey (arXiv:2507.10573): reads in the
    /// 100-200 µs band, programs in the low milliseconds, erases the
    /// slowest of any technology.
    Qlc,
}

impl FlashTechnology {
    /// Baseline page-read latency in nanoseconds for this technology.
    pub fn base_read_ns(self) -> u64 {
        match self {
            FlashTechnology::Slc => 3_000,
            FlashTechnology::Mlc => 83_000,
            FlashTechnology::Tlc => 110_000,
            FlashTechnology::Qlc => 145_000,
        }
    }

    /// Baseline page-program latency in nanoseconds.
    pub fn base_program_ns(self) -> u64 {
        match self {
            FlashTechnology::Slc => 100_000,
            FlashTechnology::Mlc => 1_166_000,
            FlashTechnology::Tlc => 2_300_000,
            FlashTechnology::Qlc => 3_400_000,
        }
    }

    /// Baseline block-erase latency in nanoseconds.
    pub fn base_erase_ns(self) -> u64 {
        match self {
            FlashTechnology::Slc => 1_500_000,
            FlashTechnology::Mlc => 3_800_000,
            FlashTechnology::Tlc => 5_000_000,
            FlashTechnology::Qlc => 6_500_000,
        }
    }

    /// Bits stored per cell (1 for SLC through 4 for QLC).
    pub fn bits_per_cell(self) -> u32 {
        match self {
            FlashTechnology::Slc => 1,
            FlashTechnology::Mlc => 2,
            FlashTechnology::Tlc => 3,
            FlashTechnology::Qlc => 4,
        }
    }
}

impl fmt::Display for FlashTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashTechnology::Slc => write!(f, "SLC"),
            FlashTechnology::Mlc => write!(f, "MLC"),
            FlashTechnology::Tlc => write!(f, "TLC"),
            FlashTechnology::Qlc => write!(f, "QLC"),
        }
    }
}

/// When the hybrid SLC cache folds cold pages into the capacity tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MigrationPolicy {
    /// Trickle migration: whenever a sealed cache block exists, fold one
    /// block per host program — a deterministic proxy for migrating during
    /// idle windows.
    Idle,
    /// Burst migration: leave the cache alone until its free space drops
    /// below the watermark, then fold blocks until it recovers.
    Watermark,
}

impl MigrationPolicy {
    /// Both policies, index-stable for categorical encoding.
    pub const ALL: [MigrationPolicy; 2] = [MigrationPolicy::Idle, MigrationPolicy::Watermark];

    /// Index of this policy within [`MigrationPolicy::ALL`].
    pub fn index(self) -> usize {
        match self {
            MigrationPolicy::Idle => 0,
            MigrationPolicy::Watermark => 1,
        }
    }
}

impl fmt::Display for MigrationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationPolicy::Idle => write!(f, "idle"),
            MigrationPolicy::Watermark => write!(f, "watermark"),
        }
    }
}

/// Device family: how block modes are organised across the device.
///
/// `Homogeneous` is the classic single-technology device every preset
/// before this abstraction modeled; `HybridSlcCache` reserves a fraction of
/// each plane's blocks as an SLC-mode write cache in front of the dense
/// capacity technology (`SsdConfig::flash_technology`, typically QLC), as
/// in arXiv:2503.13105. Cache blocks store one bit per cell, so usable
/// capacity shrinks as the cache grows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum DeviceFamily {
    /// Every block runs the device's single `flash_technology`.
    #[default]
    Homogeneous,
    /// An SLC-mode write cache in front of the capacity technology.
    HybridSlcCache {
        /// Percent of each plane's blocks reserved as SLC cache, `(0, 50]`.
        cache_blocks_pct: f64,
        /// When cold pages are folded into the capacity tier.
        migration_policy: MigrationPolicy,
        /// Watermark: migrate when cache free pages fall below this percent
        /// of cache capacity, `(0, 90]`. Ignored by [`MigrationPolicy::Idle`].
        migration_threshold_pct: f64,
    },
}

impl DeviceFamily {
    /// Whether this family runs an SLC cache tier.
    pub fn is_hybrid(self) -> bool {
        matches!(self, DeviceFamily::HybridSlcCache { .. })
    }

    /// Canonical four-word encoding (discriminant, cache pct bits, policy,
    /// threshold bits); the tail of [`SsdConfig::canonical_words`].
    pub fn canonical_words(self) -> [u64; 4] {
        match self {
            DeviceFamily::Homogeneous => [0, 0, 0, 0],
            DeviceFamily::HybridSlcCache {
                cache_blocks_pct,
                migration_policy,
                migration_threshold_pct,
            } => [
                1,
                cache_blocks_pct.to_bits(),
                migration_policy.index() as u64,
                migration_threshold_pct.to_bits(),
            ],
        }
    }
}

impl fmt::Display for DeviceFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceFamily::Homogeneous => write!(f, "homogeneous"),
            DeviceFamily::HybridSlcCache {
                cache_blocks_pct,
                migration_policy,
                migration_threshold_pct,
            } => write!(
                f,
                "hybrid-slc-cache({cache_blocks_pct:.0}% cache, {migration_policy} @ \
                 {migration_threshold_pct:.0}%)"
            ),
        }
    }
}

/// Host interface protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Interface {
    /// NVMe over PCIe: multi-queue, deep queues, low protocol overhead.
    Nvme,
    /// SATA: single queue (NCQ), 6 Gb/s link, higher protocol overhead.
    Sata,
}

impl fmt::Display for Interface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interface::Nvme => write!(f, "NVMe"),
            Interface::Sata => write!(f, "SATA"),
        }
    }
}

/// Order in which write pages are striped across the flash hierarchy.
///
/// The four letters are Channel, Way (chip), Die, Plane; the first resource
/// in the ordering varies fastest. MQSim defines all 16 non-degenerate
/// orderings that keep Channel or Way first-or-second; here all 24/… are
/// collapsed to the 16 the paper counts ("16 possible values for the plane
/// allocation scheme").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum PlaneAllocationScheme {
    Cwdp,
    Cwpd,
    Cdwp,
    Cdpw,
    Cpwd,
    Cpdw,
    Wcdp,
    Wcpd,
    Wdcp,
    Wdpc,
    Wpcd,
    Wpdc,
    Dcwp,
    Dcpw,
    Pcwd,
    Pcdw,
}

impl PlaneAllocationScheme {
    /// All 16 schemes, index-stable for categorical encoding.
    pub const ALL: [PlaneAllocationScheme; 16] = [
        PlaneAllocationScheme::Cwdp,
        PlaneAllocationScheme::Cwpd,
        PlaneAllocationScheme::Cdwp,
        PlaneAllocationScheme::Cdpw,
        PlaneAllocationScheme::Cpwd,
        PlaneAllocationScheme::Cpdw,
        PlaneAllocationScheme::Wcdp,
        PlaneAllocationScheme::Wcpd,
        PlaneAllocationScheme::Wdcp,
        PlaneAllocationScheme::Wdpc,
        PlaneAllocationScheme::Wpcd,
        PlaneAllocationScheme::Wpdc,
        PlaneAllocationScheme::Dcwp,
        PlaneAllocationScheme::Dcpw,
        PlaneAllocationScheme::Pcwd,
        PlaneAllocationScheme::Pcdw,
    ];

    /// Resource priority order as indices into `[channel, way, die, plane]`,
    /// fastest-varying first.
    pub fn order(self) -> [usize; 4] {
        // 0 = channel, 1 = way/chip, 2 = die, 3 = plane.
        match self {
            PlaneAllocationScheme::Cwdp => [0, 1, 2, 3],
            PlaneAllocationScheme::Cwpd => [0, 1, 3, 2],
            PlaneAllocationScheme::Cdwp => [0, 2, 1, 3],
            PlaneAllocationScheme::Cdpw => [0, 2, 3, 1],
            PlaneAllocationScheme::Cpwd => [0, 3, 1, 2],
            PlaneAllocationScheme::Cpdw => [0, 3, 2, 1],
            PlaneAllocationScheme::Wcdp => [1, 0, 2, 3],
            PlaneAllocationScheme::Wcpd => [1, 0, 3, 2],
            PlaneAllocationScheme::Wdcp => [1, 2, 0, 3],
            PlaneAllocationScheme::Wdpc => [1, 2, 3, 0],
            PlaneAllocationScheme::Wpcd => [1, 3, 0, 2],
            PlaneAllocationScheme::Wpdc => [1, 3, 2, 0],
            PlaneAllocationScheme::Dcwp => [2, 0, 1, 3],
            PlaneAllocationScheme::Dcpw => [2, 0, 3, 1],
            PlaneAllocationScheme::Pcwd => [3, 0, 1, 2],
            PlaneAllocationScheme::Pcdw => [3, 0, 2, 1],
        }
    }

    /// Index of this scheme within [`PlaneAllocationScheme::ALL`].
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&s| s == self)
            .expect("scheme is in ALL")
    }
}

/// Data-cache write policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CacheMode {
    /// Writes are absorbed in DRAM and flushed on eviction.
    WriteBack,
    /// Writes go straight to flash; the cache only serves reads.
    WriteThrough,
}

/// Garbage-collection victim-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GcPolicy {
    /// Pick the block with the fewest valid pages (lowest migration cost).
    Greedy,
    /// Pick a random used block.
    Random,
}

/// Complete SSD hardware configuration.
///
/// This is a passive, public-field struct in the C spirit: the tuner mutates
/// fields directly and calls [`SsdConfig::validate`] before simulating.
///
/// # Examples
///
/// ```
/// use ssdsim::config::SsdConfig;
/// let cfg = SsdConfig::default();
/// cfg.validate().expect("default config is valid");
/// assert!(cfg.physical_capacity_bytes() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    // ---- Flash layout -------------------------------------------------
    /// Number of independent flash channels.
    pub channel_count: u32,
    /// Flash chips (ways) sharing each channel.
    pub chips_per_channel: u32,
    /// Dies per chip; dies execute commands independently.
    pub dies_per_chip: u32,
    /// Planes per die; planes allow multiplane operations.
    pub planes_per_die: u32,
    /// Flash blocks per plane (erase unit count).
    pub blocks_per_plane: u32,
    /// Pages per block.
    pub pages_per_block: u32,
    /// Flash page size in bytes.
    pub page_size_bytes: u32,

    // ---- Flash timing -------------------------------------------------
    /// NAND cell technology (drives baseline latencies and energy).
    pub flash_technology: FlashTechnology,
    /// Device family: homogeneous or hybrid SLC-cache block organisation.
    /// Defaults to [`DeviceFamily::Homogeneous`] so configurations
    /// serialized before the abstraction existed still parse.
    #[serde(default)]
    pub device_family: DeviceFamily,
    /// Page read latency in nanoseconds.
    pub read_latency_ns: u64,
    /// Page program latency in nanoseconds.
    pub program_latency_ns: u64,
    /// Block erase latency in nanoseconds.
    pub erase_latency_ns: u64,
    /// ONFI channel transfer rate in mega-transfers per second.
    pub channel_transfer_rate_mts: u32,
    /// Channel data width in bits.
    pub channel_width_bits: u32,
    /// Command/address cycle overhead per flash command, nanoseconds.
    pub flash_cmd_overhead_ns: u64,
    /// Time to suspend an in-flight program (used only when
    /// `program_suspension_enabled`), nanoseconds.
    pub suspend_program_ns: u64,
    /// Time to suspend an in-flight erase (used only when
    /// `erase_suspension_enabled`), nanoseconds.
    pub suspend_erase_ns: u64,
    /// Whether reads may suspend in-flight programs.
    pub program_suspension_enabled: bool,
    /// Whether reads may suspend in-flight erases.
    pub erase_suspension_enabled: bool,

    // ---- Controller DRAM ----------------------------------------------
    /// Data (read/write) cache capacity in mebibytes.
    pub data_cache_mb: u32,
    /// Cached mapping table capacity in mebibytes (DFTL-style CMT).
    pub cmt_capacity_mb: u32,
    /// DRAM data rate in mega-transfers per second.
    pub dram_data_rate_mts: u32,
    /// DRAM burst size in bytes.
    pub dram_burst_bytes: u32,
    /// Bytes per cached mapping entry.
    pub cmt_entry_bytes: u32,
    /// Data-cache write policy.
    pub cache_mode: CacheMode,

    // ---- FTL / GC / wear leveling --------------------------------------
    /// Over-provisioning ratio in `[0, 0.5]` (spare physical capacity).
    pub overprovisioning_ratio: f64,
    /// Free-page fraction below which GC starts.
    pub gc_threshold: f64,
    /// Free-page fraction below which GC becomes urgent (blocks host I/O).
    pub gc_hard_threshold: f64,
    /// Victim-selection policy.
    pub gc_policy: GcPolicy,
    /// Whether host reads may preempt GC migrations.
    pub preemptible_gc: bool,
    /// Enables periodic static wear leveling.
    pub static_wearleveling_enabled: bool,
    /// Erase-count spread that triggers a static wear-leveling swap.
    pub static_wearleveling_threshold: u32,
    /// Page-allocation striping order across the hierarchy.
    pub plane_allocation_scheme: PlaneAllocationScheme,

    // ---- Host interface -------------------------------------------------
    /// Protocol between host and device.
    pub interface: Interface,
    /// Per-queue depth of outstanding commands.
    pub io_queue_depth: u32,
    /// Number of host submission queues (NVMe; SATA forces 1).
    pub queue_count: u32,
    /// PCIe lanes (NVMe only).
    pub pcie_lane_count: u32,
    /// Per-lane PCIe bandwidth in giga-transfers per second (e.g. 8 = Gen3).
    pub pcie_lane_gtps: u32,
    /// Fixed protocol processing overhead per command, nanoseconds.
    pub host_cmd_overhead_ns: u64,

    // ---- Performance-inert parameters ----------------------------------
    // These exist in real SSD configuration files but do not influence the
    // modeled datapath; the paper's coarse pruning (Figure 4) identifies
    // them as insensitive. `SsdConfig::sim_words` leaves them out.
    /// Per-page metadata (OOB) capacity in bytes.
    pub page_metadata_bytes: u32,
    /// Number of ECC engines in the controller.
    pub ecc_engine_count: u32,
    /// Read-retry attempts before reporting an uncorrectable error.
    pub read_retry_limit: u32,
    /// Background media-scan interval in milliseconds.
    pub background_scan_interval_ms: u32,
    /// Device initialization (boot) delay in microseconds.
    pub init_delay_us: u32,
    /// Firmware scratchpad SRAM in kibibytes.
    pub firmware_sram_kb: u32,
    /// Temperature-throttle threshold in degrees Celsius.
    pub thermal_throttle_c: u32,
    /// Capacitor-backed flush energy budget in microjoules.
    pub pfail_flush_budget_uj: u32,
    /// Controller DRAM refresh interval in microseconds.
    pub dram_refresh_interval_us: u32,
    /// NAND core supply voltage in millivolts.
    pub nand_vcc_mv: u32,
}

impl Default for SsdConfig {
    /// A mid-range NVMe MLC device loosely modeled on the Intel 750
    /// (the paper's primary reference configuration).
    fn default() -> Self {
        SsdConfig {
            channel_count: 12,
            chips_per_channel: 5,
            dies_per_chip: 8,
            planes_per_die: 1,
            blocks_per_plane: 512,
            pages_per_block: 512,
            page_size_bytes: 4096,
            flash_technology: FlashTechnology::Mlc,
            device_family: DeviceFamily::Homogeneous,
            read_latency_ns: 83_000,
            program_latency_ns: 1_166_000,
            erase_latency_ns: 3_800_000,
            channel_transfer_rate_mts: 333,
            channel_width_bits: 8,
            flash_cmd_overhead_ns: 500,
            suspend_program_ns: 5_000,
            suspend_erase_ns: 10_000,
            program_suspension_enabled: false,
            erase_suspension_enabled: false,
            data_cache_mb: 800,
            cmt_capacity_mb: 256,
            dram_data_rate_mts: 1600,
            dram_burst_bytes: 64,
            cmt_entry_bytes: 8,
            cache_mode: CacheMode::WriteBack,
            overprovisioning_ratio: 0.07,
            gc_threshold: 0.05,
            gc_hard_threshold: 0.005,
            gc_policy: GcPolicy::Greedy,
            preemptible_gc: true,
            static_wearleveling_enabled: true,
            static_wearleveling_threshold: 100,
            plane_allocation_scheme: PlaneAllocationScheme::Cwdp,
            interface: Interface::Nvme,
            io_queue_depth: 32,
            queue_count: 8,
            pcie_lane_count: 4,
            pcie_lane_gtps: 8,
            host_cmd_overhead_ns: 3_000,
            page_metadata_bytes: 448,
            ecc_engine_count: 8,
            read_retry_limit: 3,
            background_scan_interval_ms: 1000,
            init_delay_us: 500,
            firmware_sram_kb: 512,
            thermal_throttle_c: 70,
            pfail_flush_budget_uj: 4000,
            dram_refresh_interval_us: 64,
            nand_vcc_mv: 3300,
        }
    }
}

/// Error returned when a configuration is structurally invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfigError(String);

impl fmt::Display for InvalidConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid SSD configuration: {}", self.0)
    }
}

impl Error for InvalidConfigError {}

/// Number of `u64` words in [`SsdConfig::canonical_words`].
pub const CONFIG_WORDS: usize = 52;

/// Number of `u64` words in [`SsdConfig::sim_words`]: [`CONFIG_WORDS`]
/// less the twelve fields the simulator never reads.
pub const SIM_WORDS: usize = 40;

/// Largest `pages_per_block` the flash array can track: per-block valid-page
/// counts are 16-bit.
pub const MAX_PAGES_PER_BLOCK: u32 = u16::MAX as u32;

impl SsdConfig {
    /// Encodes every field as one `u64` word, in declaration order.
    ///
    /// Two configurations produce the same words iff they are field-for-field
    /// identical (floats are compared by bit pattern), so the encoding
    /// identifies a configuration — unlike grid indices, it also
    /// distinguishes off-grid configurations such as presets. Measurements
    /// are keyed by [`SsdConfig::sim_words`] instead, which leaves out what
    /// the simulator cannot observe. Keep this in sync when adding fields:
    /// the array length is a compile-time check.
    pub fn canonical_words(&self) -> [u64; CONFIG_WORDS] {
        let family = self.device_family.canonical_words();
        [
            u64::from(self.channel_count),
            u64::from(self.chips_per_channel),
            u64::from(self.dies_per_chip),
            u64::from(self.planes_per_die),
            u64::from(self.blocks_per_plane),
            u64::from(self.pages_per_block),
            u64::from(self.page_size_bytes),
            self.flash_technology as u64,
            family[0],
            family[1],
            family[2],
            family[3],
            self.read_latency_ns,
            self.program_latency_ns,
            self.erase_latency_ns,
            u64::from(self.channel_transfer_rate_mts),
            u64::from(self.channel_width_bits),
            self.flash_cmd_overhead_ns,
            self.suspend_program_ns,
            self.suspend_erase_ns,
            u64::from(self.program_suspension_enabled),
            u64::from(self.erase_suspension_enabled),
            u64::from(self.data_cache_mb),
            u64::from(self.cmt_capacity_mb),
            u64::from(self.dram_data_rate_mts),
            u64::from(self.dram_burst_bytes),
            u64::from(self.cmt_entry_bytes),
            self.cache_mode as u64,
            self.overprovisioning_ratio.to_bits(),
            self.gc_threshold.to_bits(),
            self.gc_hard_threshold.to_bits(),
            self.gc_policy as u64,
            u64::from(self.preemptible_gc),
            u64::from(self.static_wearleveling_enabled),
            u64::from(self.static_wearleveling_threshold),
            self.plane_allocation_scheme as u64,
            self.interface as u64,
            u64::from(self.io_queue_depth),
            u64::from(self.queue_count),
            u64::from(self.pcie_lane_count),
            u64::from(self.pcie_lane_gtps),
            self.host_cmd_overhead_ns,
            u64::from(self.page_metadata_bytes),
            u64::from(self.ecc_engine_count),
            u64::from(self.read_retry_limit),
            u64::from(self.background_scan_interval_ms),
            u64::from(self.init_delay_us),
            u64::from(self.firmware_sram_kb),
            u64::from(self.thermal_throttle_c),
            u64::from(self.pfail_flush_budget_uj),
            u64::from(self.dram_refresh_interval_us),
            u64::from(self.nand_vcc_mv),
        ]
    }

    /// Encodes the device the simulator models: the fields that
    /// [`crate::Simulator::new`], a replay, [`crate::Simulator::drain`] and
    /// [`crate::power::compute_energy`] can observe, in declaration order.
    ///
    /// Two configurations with equal words produce identical
    /// [`crate::SimReport`]s for every trace, so the encoding is the sound
    /// basis for memoizing measurements. It differs from
    /// [`SsdConfig::canonical_words`] in three ways:
    /// - the twelve catalog knobs no simulator code reads are left out:
    ///   `suspend_erase_ns`, `dram_burst_bytes` and the ten
    ///   performance-inert parameters;
    /// - `suspend_program_ns` reads 0 unless `program_suspension_enabled`;
    /// - `static_wearleveling_threshold` reads 0 unless
    ///   `static_wearleveling_enabled`.
    ///
    /// The destructuring below names every field, so a new field does not
    /// compile until it is classified here.
    pub fn sim_words(&self) -> [u64; SIM_WORDS] {
        let SsdConfig {
            channel_count,
            chips_per_channel,
            dies_per_chip,
            planes_per_die,
            blocks_per_plane,
            pages_per_block,
            page_size_bytes,
            flash_technology,
            device_family,
            read_latency_ns,
            program_latency_ns,
            erase_latency_ns,
            channel_transfer_rate_mts,
            channel_width_bits,
            flash_cmd_overhead_ns,
            suspend_program_ns,
            suspend_erase_ns: _,
            program_suspension_enabled,
            erase_suspension_enabled,
            data_cache_mb,
            cmt_capacity_mb,
            dram_data_rate_mts,
            dram_burst_bytes: _,
            cmt_entry_bytes,
            cache_mode,
            overprovisioning_ratio,
            gc_threshold,
            gc_hard_threshold,
            gc_policy,
            preemptible_gc,
            static_wearleveling_enabled,
            static_wearleveling_threshold,
            plane_allocation_scheme,
            interface,
            io_queue_depth,
            queue_count,
            pcie_lane_count,
            pcie_lane_gtps,
            host_cmd_overhead_ns,
            page_metadata_bytes: _,
            ecc_engine_count: _,
            read_retry_limit: _,
            background_scan_interval_ms: _,
            init_delay_us: _,
            firmware_sram_kb: _,
            thermal_throttle_c: _,
            pfail_flush_budget_uj: _,
            dram_refresh_interval_us: _,
            nand_vcc_mv: _,
        } = *self;
        let family = device_family.canonical_words();
        let gated = |enabled: bool, word: u64| if enabled { word } else { 0 };
        [
            u64::from(channel_count),
            u64::from(chips_per_channel),
            u64::from(dies_per_chip),
            u64::from(planes_per_die),
            u64::from(blocks_per_plane),
            u64::from(pages_per_block),
            u64::from(page_size_bytes),
            flash_technology as u64,
            family[0],
            family[1],
            family[2],
            family[3],
            read_latency_ns,
            program_latency_ns,
            erase_latency_ns,
            u64::from(channel_transfer_rate_mts),
            u64::from(channel_width_bits),
            flash_cmd_overhead_ns,
            gated(program_suspension_enabled, suspend_program_ns),
            u64::from(program_suspension_enabled),
            u64::from(erase_suspension_enabled),
            u64::from(data_cache_mb),
            u64::from(cmt_capacity_mb),
            u64::from(dram_data_rate_mts),
            u64::from(cmt_entry_bytes),
            cache_mode as u64,
            overprovisioning_ratio.to_bits(),
            gc_threshold.to_bits(),
            gc_hard_threshold.to_bits(),
            gc_policy as u64,
            u64::from(preemptible_gc),
            u64::from(static_wearleveling_enabled),
            gated(
                static_wearleveling_enabled,
                u64::from(static_wearleveling_threshold),
            ),
            plane_allocation_scheme as u64,
            interface as u64,
            u64::from(io_queue_depth),
            u64::from(queue_count),
            u64::from(pcie_lane_count),
            u64::from(pcie_lane_gtps),
            host_cmd_overhead_ns,
        ]
    }

    /// Total raw flash capacity in bytes.
    pub fn physical_capacity_bytes(&self) -> u64 {
        u64::from(self.channel_count)
            * u64::from(self.chips_per_channel)
            * u64::from(self.dies_per_chip)
            * u64::from(self.planes_per_die)
            * u64::from(self.blocks_per_plane)
            * u64::from(self.pages_per_block)
            * u64::from(self.page_size_bytes)
    }

    /// SLC-cache blocks per plane for hybrid families (0 when homogeneous).
    ///
    /// At least one block when any cache is requested, and always at least
    /// two non-cache blocks per plane so the capacity tier keeps an active
    /// block plus GC headroom.
    pub fn slc_cache_blocks_per_plane(&self) -> u32 {
        let DeviceFamily::HybridSlcCache {
            cache_blocks_pct, ..
        } = self.device_family
        else {
            return 0;
        };
        let want = (f64::from(self.blocks_per_plane) * cache_blocks_pct / 100.0).ceil() as u32;
        want.clamp(1, self.blocks_per_plane.saturating_sub(2).max(1))
    }

    /// Usable flash capacity in bytes: physical capacity minus what the
    /// SLC cache gives up by storing one bit per cell. Equal to
    /// [`SsdConfig::physical_capacity_bytes`] for homogeneous devices.
    pub fn effective_capacity_bytes(&self) -> u64 {
        let physical = self.physical_capacity_bytes();
        let cache_blocks = u64::from(self.slc_cache_blocks_per_plane());
        if cache_blocks == 0 {
            return physical;
        }
        let bits = u64::from(self.flash_technology.bits_per_cell());
        let cache_bytes = self.total_planes()
            * cache_blocks
            * u64::from(self.pages_per_block)
            * u64::from(self.page_size_bytes);
        // A cache block keeps 1/bits of its dense capacity.
        physical - cache_bytes * (bits - 1) / bits
    }

    /// Host-visible capacity after over-provisioning, in bytes.
    pub fn logical_capacity_bytes(&self) -> u64 {
        (self.effective_capacity_bytes() as f64 * (1.0 - self.overprovisioning_ratio)) as u64
    }

    /// Host-visible capacity in logical pages.
    pub fn logical_pages(&self) -> u64 {
        self.logical_capacity_bytes() / u64::from(self.page_size_bytes)
    }

    /// Total number of dies.
    pub fn total_dies(&self) -> u64 {
        u64::from(self.channel_count)
            * u64::from(self.chips_per_channel)
            * u64::from(self.dies_per_chip)
    }

    /// Total number of planes.
    pub fn total_planes(&self) -> u64 {
        self.total_dies() * u64::from(self.planes_per_die)
    }

    /// Pages per plane.
    pub fn pages_per_plane(&self) -> u64 {
        u64::from(self.blocks_per_plane) * u64::from(self.pages_per_block)
    }

    /// Time to move one page over a flash channel, in nanoseconds.
    pub fn channel_transfer_ns(&self) -> u64 {
        let bytes_per_sec =
            f64::from(self.channel_transfer_rate_mts) * 1e6 * f64::from(self.channel_width_bits)
                / 8.0;
        let payload = f64::from(self.page_size_bytes);
        ((payload / bytes_per_sec) * 1e9) as u64 + self.flash_cmd_overhead_ns
    }

    /// Host link bandwidth in bytes per second.
    pub fn link_bandwidth_bps(&self) -> f64 {
        match self.interface {
            // PCIe: lanes x GT/s x 128b/130b encoding / 8 bits.
            Interface::Nvme => {
                f64::from(self.pcie_lane_count)
                    * f64::from(self.pcie_lane_gtps)
                    * 1e9
                    * (128.0 / 130.0)
                    / 8.0
            }
            // SATA III: 6 Gb/s with 8b/10b encoding = 600 MB/s.
            Interface::Sata => 600e6,
        }
    }

    /// Effective number of host queues (SATA collapses to one).
    pub fn effective_queue_count(&self) -> u32 {
        match self.interface {
            Interface::Nvme => self.queue_count.max(1),
            Interface::Sata => 1,
        }
    }

    /// Effective aggregate queue depth.
    pub fn effective_queue_depth(&self) -> u32 {
        let per_queue = match self.interface {
            Interface::Nvme => self.io_queue_depth.max(1),
            // SATA NCQ caps at 32 outstanding commands.
            Interface::Sata => self.io_queue_depth.clamp(1, 32),
        };
        per_queue * self.effective_queue_count()
    }

    /// Protocol overhead per command in nanoseconds.
    pub fn protocol_overhead_ns(&self) -> u64 {
        match self.interface {
            Interface::Nvme => self.host_cmd_overhead_ns,
            // SATA command processing is substantially heavier.
            Interface::Sata => self.host_cmd_overhead_ns + 25_000,
        }
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfigError`] naming the first violated invariant:
    /// zero-sized layout dimensions, more than `u32::MAX` planes or blocks
    /// in total, non-power-of-two page size, more than
    /// [`MAX_PAGES_PER_BLOCK`] pages per block, ratios outside `[0, 0.5]`,
    /// or an empty queue setup.
    pub fn validate(&self) -> Result<(), InvalidConfigError> {
        let positive = [
            ("channel_count", u64::from(self.channel_count)),
            ("chips_per_channel", u64::from(self.chips_per_channel)),
            ("dies_per_chip", u64::from(self.dies_per_chip)),
            ("planes_per_die", u64::from(self.planes_per_die)),
            ("blocks_per_plane", u64::from(self.blocks_per_plane)),
            ("pages_per_block", u64::from(self.pages_per_block)),
            ("page_size_bytes", u64::from(self.page_size_bytes)),
            (
                "channel_transfer_rate_mts",
                u64::from(self.channel_transfer_rate_mts),
            ),
            ("channel_width_bits", u64::from(self.channel_width_bits)),
            ("io_queue_depth", u64::from(self.io_queue_depth)),
            ("read_latency_ns", self.read_latency_ns),
            ("program_latency_ns", self.program_latency_ns),
            ("erase_latency_ns", self.erase_latency_ns),
        ];
        for (name, v) in positive {
            if v == 0 {
                return Err(InvalidConfigError(format!("{name} must be positive")));
            }
        }
        // Flat plane and block indices are `u32` throughout the simulator.
        let Some(planes) = [
            self.chips_per_channel,
            self.dies_per_chip,
            self.planes_per_die,
        ]
        .into_iter()
        .try_fold(self.channel_count, u32::checked_mul) else {
            return Err(InvalidConfigError(format!(
                "total planes must not exceed {}",
                u32::MAX
            )));
        };
        if planes.checked_mul(self.blocks_per_plane).is_none() {
            return Err(InvalidConfigError(format!(
                "total blocks must not exceed {}",
                u32::MAX
            )));
        }
        if !self.page_size_bytes.is_power_of_two() {
            return Err(InvalidConfigError(
                "page_size_bytes must be a power of two".into(),
            ));
        }
        if self.pages_per_block > MAX_PAGES_PER_BLOCK {
            return Err(InvalidConfigError(format!(
                "pages_per_block must not exceed {MAX_PAGES_PER_BLOCK}"
            )));
        }
        if !(0.0..=0.5).contains(&self.overprovisioning_ratio) {
            return Err(InvalidConfigError(
                "overprovisioning_ratio must be within [0, 0.5]".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.gc_threshold) {
            return Err(InvalidConfigError(
                "gc_threshold must be within [0, 1)".into(),
            ));
        }
        if self.gc_hard_threshold > self.gc_threshold {
            return Err(InvalidConfigError(
                "gc_hard_threshold must not exceed gc_threshold".into(),
            ));
        }
        if self.interface == Interface::Nvme && self.pcie_lane_count == 0 {
            return Err(InvalidConfigError(
                "NVMe devices need at least one PCIe lane".into(),
            ));
        }
        if let DeviceFamily::HybridSlcCache {
            cache_blocks_pct,
            migration_threshold_pct,
            ..
        } = self.device_family
        {
            if !(cache_blocks_pct > 0.0 && cache_blocks_pct <= 50.0) {
                return Err(InvalidConfigError(
                    "hybrid cache_blocks_pct must be within (0, 50]".into(),
                ));
            }
            if !(migration_threshold_pct > 0.0 && migration_threshold_pct <= 90.0) {
                return Err(InvalidConfigError(
                    "hybrid migration_threshold_pct must be within (0, 90]".into(),
                ));
            }
            if self.flash_technology.bits_per_cell() < 2 {
                return Err(InvalidConfigError(
                    "hybrid SLC cache requires a multi-bit capacity technology".into(),
                ));
            }
            if self.blocks_per_plane < 3 {
                return Err(InvalidConfigError(
                    "hybrid devices need at least 3 blocks per plane".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Reference configurations of the commodity SSDs the paper compares against.
pub mod presets {
    use super::*;

    /// Intel 750 (NVMe, MLC): the paper's primary baseline.
    pub fn intel_750() -> SsdConfig {
        SsdConfig::default()
    }

    /// Samsung 850 PRO (SATA, MLC): the SATA baseline of Table 9.
    pub fn samsung_850_pro() -> SsdConfig {
        SsdConfig {
            interface: Interface::Sata,
            io_queue_depth: 32,
            queue_count: 1,
            channel_count: 8,
            chips_per_channel: 4,
            dies_per_chip: 4,
            planes_per_die: 2,
            blocks_per_plane: 1024,
            pages_per_block: 256,
            page_size_bytes: 8192,
            data_cache_mb: 512,
            cmt_capacity_mb: 128,
            channel_transfer_rate_mts: 266,
            pcie_lane_count: 0,
            pcie_lane_gtps: 0,
            host_cmd_overhead_ns: 5_000,
            ..SsdConfig::default()
        }
    }

    /// Samsung Z-SSD (NVMe, SLC-like Z-NAND): the SLC baseline of Table 8.
    pub fn samsung_z_ssd() -> SsdConfig {
        SsdConfig {
            flash_technology: FlashTechnology::Slc,
            read_latency_ns: 3_000,
            program_latency_ns: 100_000,
            erase_latency_ns: 1_500_000,
            channel_count: 16,
            chips_per_channel: 4,
            dies_per_chip: 4,
            planes_per_die: 2,
            blocks_per_plane: 512,
            pages_per_block: 512,
            page_size_bytes: 2048,
            data_cache_mb: 512,
            cmt_capacity_mb: 192,
            channel_transfer_rate_mts: 667,
            io_queue_depth: 64,
            queue_count: 8,
            ..SsdConfig::default()
        }
    }

    /// Hybrid SLC/QLC device: a small SLC write cache in front of dense QLC
    /// capacity flash, with watermark-triggered background migration.
    pub fn hybrid_slc_qlc() -> SsdConfig {
        SsdConfig {
            flash_technology: FlashTechnology::Qlc,
            read_latency_ns: FlashTechnology::Qlc.base_read_ns(),
            program_latency_ns: FlashTechnology::Qlc.base_program_ns(),
            erase_latency_ns: FlashTechnology::Qlc.base_erase_ns(),
            device_family: DeviceFamily::HybridSlcCache {
                cache_blocks_pct: 10.0,
                migration_policy: MigrationPolicy::Watermark,
                migration_threshold_pct: 25.0,
            },
            ..SsdConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SsdConfig::default().validate().unwrap();
        presets::intel_750().validate().unwrap();
        presets::samsung_850_pro().validate().unwrap();
        presets::samsung_z_ssd().validate().unwrap();
        presets::hybrid_slc_qlc().validate().unwrap();
    }

    #[test]
    fn capacity_math() {
        let cfg = SsdConfig {
            channel_count: 2,
            chips_per_channel: 2,
            dies_per_chip: 1,
            planes_per_die: 1,
            blocks_per_plane: 4,
            pages_per_block: 8,
            page_size_bytes: 4096,
            overprovisioning_ratio: 0.25,
            ..SsdConfig::default()
        };
        assert_eq!(cfg.physical_capacity_bytes(), 2 * 2 * 4 * 8 * 4096);
        assert_eq!(
            cfg.logical_capacity_bytes(),
            (cfg.physical_capacity_bytes() as f64 * 0.75) as u64
        );
        assert_eq!(cfg.total_dies(), 4);
        assert_eq!(cfg.total_planes(), 4);
        assert_eq!(cfg.pages_per_plane(), 32);
    }

    #[test]
    fn transfer_time_scales_with_rate() {
        let slow = SsdConfig {
            channel_transfer_rate_mts: 100,
            ..SsdConfig::default()
        };
        let fast = SsdConfig {
            channel_transfer_rate_mts: 800,
            ..SsdConfig::default()
        };
        assert!(slow.channel_transfer_ns() > 4 * fast.channel_transfer_ns());
    }

    #[test]
    fn sata_queue_and_link_limits() {
        let sata = presets::samsung_850_pro();
        assert_eq!(sata.effective_queue_count(), 1);
        assert!(sata.effective_queue_depth() <= 32);
        assert!(sata.link_bandwidth_bps() < 1e9);
        let nvme = presets::intel_750();
        assert!(nvme.link_bandwidth_bps() > 3e9);
        assert!(nvme.protocol_overhead_ns() < sata.protocol_overhead_ns());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let c = SsdConfig {
            channel_count: 0,
            ..SsdConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SsdConfig {
            page_size_bytes: 5000,
            ..SsdConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SsdConfig {
            overprovisioning_ratio: 0.9,
            ..SsdConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = SsdConfig::default();
        c.gc_hard_threshold = c.gc_threshold + 0.1;
        assert!(c.validate().is_err());

        let c = SsdConfig {
            pcie_lane_count: 0,
            ..SsdConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_bounds_pages_per_block_to_the_valid_counter() {
        let at_limit = SsdConfig {
            pages_per_block: MAX_PAGES_PER_BLOCK,
            ..SsdConfig::default()
        };
        at_limit.validate().unwrap();
        let over = SsdConfig {
            pages_per_block: MAX_PAGES_PER_BLOCK + 1,
            ..SsdConfig::default()
        };
        assert_eq!(
            over.validate().unwrap_err().to_string(),
            "invalid SSD configuration: pages_per_block must not exceed 65535"
        );
    }

    #[test]
    fn validation_bounds_total_planes_and_blocks_to_u32() {
        let layout = |channel_count, planes_per_die, blocks_per_plane| SsdConfig {
            channel_count,
            chips_per_channel: 1,
            dies_per_chip: 1,
            planes_per_die,
            blocks_per_plane,
            ..SsdConfig::default()
        };
        let error = |cfg: SsdConfig| cfg.validate().unwrap_err().to_string();
        // 65,535 × 65,537 = u32::MAX exactly.
        layout(65_535, 1, 65_537).validate().unwrap();
        assert_eq!(
            error(layout(65_536, 1, 65_537)),
            "invalid SSD configuration: total blocks must not exceed 4294967295"
        );
        layout(65_535, 65_537, 1).validate().unwrap();
        assert_eq!(
            error(layout(65_536, 65_537, 1)),
            "invalid SSD configuration: total planes must not exceed 4294967295"
        );
        // Each factor fits; only the product wraps in `total_planes()`.
        let all = SsdConfig {
            chips_per_channel: 4_000_000_000,
            dies_per_chip: 4_000_000_000,
            ..layout(4_000_000_000, 4_000_000_000, 4_000_000_000)
        };
        assert!(error(all).contains("total planes"));
    }

    #[test]
    fn allocation_schemes_are_distinct_permutations() {
        for s in PlaneAllocationScheme::ALL {
            let mut o = s.order();
            o.sort_unstable();
            assert_eq!(o, [0, 1, 2, 3], "{s:?} is not a permutation");
            assert_eq!(PlaneAllocationScheme::ALL[s.index()], s);
        }
        // All orders are unique.
        let orders: std::collections::HashSet<[usize; 4]> = PlaneAllocationScheme::ALL
            .iter()
            .map(|s| s.order())
            .collect();
        assert_eq!(orders.len(), 16);
    }

    #[test]
    fn technology_latency_ordering() {
        assert!(FlashTechnology::Slc.base_read_ns() < FlashTechnology::Mlc.base_read_ns());
        assert!(FlashTechnology::Mlc.base_program_ns() < FlashTechnology::Tlc.base_program_ns());
        assert!(FlashTechnology::Tlc.base_read_ns() < FlashTechnology::Qlc.base_read_ns());
        assert!(FlashTechnology::Tlc.base_program_ns() < FlashTechnology::Qlc.base_program_ns());
        assert!(FlashTechnology::Tlc.base_erase_ns() < FlashTechnology::Qlc.base_erase_ns());
        assert_eq!(FlashTechnology::Slc.to_string(), "SLC");
    }

    #[test]
    fn qlc_latencies_are_pinned() {
        // Survey-grade QLC figures (arXiv:2507.10573): keep these stable so
        // every consumer (presets, energy model, goldens) agrees.
        assert_eq!(FlashTechnology::Qlc.base_read_ns(), 145_000);
        assert_eq!(FlashTechnology::Qlc.base_program_ns(), 3_400_000);
        assert_eq!(FlashTechnology::Qlc.base_erase_ns(), 6_500_000);
        assert_eq!(FlashTechnology::Qlc.bits_per_cell(), 4);
        assert_eq!(FlashTechnology::Qlc.to_string(), "QLC");
    }

    #[test]
    fn hybrid_cache_shrinks_effective_capacity() {
        let homogeneous = presets::intel_750();
        assert_eq!(
            homogeneous.effective_capacity_bytes(),
            homogeneous.physical_capacity_bytes()
        );
        assert_eq!(homogeneous.slc_cache_blocks_per_plane(), 0);

        let hybrid = presets::hybrid_slc_qlc();
        let cache_blocks = hybrid.slc_cache_blocks_per_plane();
        assert!(cache_blocks >= 1);
        assert!(cache_blocks <= hybrid.blocks_per_plane - 2);
        assert!(hybrid.effective_capacity_bytes() < hybrid.physical_capacity_bytes());
        // QLC cells in SLC mode keep 1/4 of their density: the loss is
        // cache_bytes * 3/4 exactly.
        let cache_bytes = hybrid.total_planes()
            * u64::from(cache_blocks)
            * u64::from(hybrid.pages_per_block)
            * u64::from(hybrid.page_size_bytes);
        assert_eq!(
            hybrid.physical_capacity_bytes() - hybrid.effective_capacity_bytes(),
            cache_bytes * 3 / 4
        );
        assert!(hybrid.logical_capacity_bytes() < hybrid.effective_capacity_bytes());
    }

    #[test]
    fn family_canonical_words_distinguish_configs() {
        let base = presets::hybrid_slc_qlc();
        let mut other = base.clone();
        other.device_family = DeviceFamily::HybridSlcCache {
            cache_blocks_pct: 20.0,
            migration_policy: MigrationPolicy::Idle,
            migration_threshold_pct: 25.0,
        };
        assert_ne!(base.canonical_words(), other.canonical_words());
        let mut homogeneous = base.clone();
        homogeneous.device_family = DeviceFamily::Homogeneous;
        assert_ne!(base.canonical_words(), homogeneous.canonical_words());
        assert_eq!(base.canonical_words().len(), CONFIG_WORDS);
    }

    /// Every field `sim_words` keeps moves the words when it changes: the
    /// encoding collapses only what the simulator cannot observe. The
    /// gated fields are changed with their gates on.
    #[test]
    fn sim_words_see_every_observable_field() {
        type Change = fn(&mut SsdConfig);
        let changes: [(&str, Change); SIM_WORDS] = [
            ("channel_count", |c| c.channel_count += 1),
            ("chips_per_channel", |c| c.chips_per_channel += 1),
            ("dies_per_chip", |c| c.dies_per_chip += 1),
            ("planes_per_die", |c| c.planes_per_die += 1),
            ("blocks_per_plane", |c| c.blocks_per_plane += 1),
            ("pages_per_block", |c| c.pages_per_block += 1),
            ("page_size_bytes", |c| c.page_size_bytes *= 2),
            ("flash_technology", |c| {
                c.flash_technology = FlashTechnology::Tlc
            }),
            ("device_family", |c| {
                c.device_family = if c.device_family.is_hybrid() {
                    DeviceFamily::Homogeneous
                } else {
                    presets::hybrid_slc_qlc().device_family
                }
            }),
            ("cache_blocks_pct", |c| {
                c.device_family = DeviceFamily::HybridSlcCache {
                    cache_blocks_pct: 20.0,
                    migration_policy: MigrationPolicy::Watermark,
                    migration_threshold_pct: 25.0,
                }
            }),
            ("migration_policy", |c| {
                c.device_family = DeviceFamily::HybridSlcCache {
                    cache_blocks_pct: 10.0,
                    migration_policy: MigrationPolicy::Idle,
                    migration_threshold_pct: 25.0,
                }
            }),
            ("migration_threshold_pct", |c| {
                c.device_family = DeviceFamily::HybridSlcCache {
                    cache_blocks_pct: 10.0,
                    migration_policy: MigrationPolicy::Watermark,
                    migration_threshold_pct: 30.0,
                }
            }),
            ("read_latency_ns", |c| c.read_latency_ns += 1),
            ("program_latency_ns", |c| c.program_latency_ns += 1),
            ("erase_latency_ns", |c| c.erase_latency_ns += 1),
            ("channel_transfer_rate_mts", |c| {
                c.channel_transfer_rate_mts += 1
            }),
            ("channel_width_bits", |c| c.channel_width_bits *= 2),
            ("flash_cmd_overhead_ns", |c| c.flash_cmd_overhead_ns += 1),
            ("suspend_program_ns", |c| {
                c.program_suspension_enabled = true;
                c.suspend_program_ns += 1;
            }),
            ("program_suspension_enabled", |c| {
                c.program_suspension_enabled ^= true
            }),
            ("erase_suspension_enabled", |c| {
                c.erase_suspension_enabled ^= true
            }),
            ("data_cache_mb", |c| c.data_cache_mb += 1),
            ("cmt_capacity_mb", |c| c.cmt_capacity_mb += 1),
            ("dram_data_rate_mts", |c| c.dram_data_rate_mts += 1),
            ("cmt_entry_bytes", |c| c.cmt_entry_bytes += 1),
            ("cache_mode", |c| c.cache_mode = CacheMode::WriteThrough),
            ("overprovisioning_ratio", |c| {
                c.overprovisioning_ratio += 0.01
            }),
            ("gc_threshold", |c| c.gc_threshold += 0.01),
            ("gc_hard_threshold", |c| c.gc_hard_threshold += 0.001),
            ("gc_policy", |c| c.gc_policy = GcPolicy::Random),
            ("preemptible_gc", |c| c.preemptible_gc ^= true),
            ("static_wearleveling_enabled", |c| {
                c.static_wearleveling_enabled ^= true
            }),
            ("static_wearleveling_threshold", |c| {
                c.static_wearleveling_enabled = true;
                c.static_wearleveling_threshold += 1;
            }),
            ("plane_allocation_scheme", |c| {
                c.plane_allocation_scheme = PlaneAllocationScheme::Pcdw
            }),
            ("interface", |c| c.interface = Interface::Sata),
            ("io_queue_depth", |c| c.io_queue_depth += 1),
            ("queue_count", |c| c.queue_count += 1),
            ("pcie_lane_count", |c| c.pcie_lane_count += 1),
            ("pcie_lane_gtps", |c| c.pcie_lane_gtps += 1),
            ("host_cmd_overhead_ns", |c| c.host_cmd_overhead_ns += 1),
        ];
        // Suspension off and wear leveling on by default: the gates are
        // exercised in both states.
        for base in [
            presets::intel_750(),
            SsdConfig {
                static_wearleveling_enabled: false,
                program_suspension_enabled: true,
                ..presets::hybrid_slc_qlc()
            },
        ] {
            let mut seen = std::collections::HashSet::new();
            assert!(seen.insert(base.sim_words()));
            for (name, change) in changes {
                let mut changed = base.clone();
                change(&mut changed);
                assert!(seen.insert(changed.sim_words()), "{name}");
                // Every kept field is also a canonical field.
                assert_ne!(changed.canonical_words(), base.canonical_words());
            }
        }
    }

    #[test]
    fn hybrid_validation_rules() {
        let mut c = presets::hybrid_slc_qlc();
        c.device_family = DeviceFamily::HybridSlcCache {
            cache_blocks_pct: 0.0,
            migration_policy: MigrationPolicy::Watermark,
            migration_threshold_pct: 25.0,
        };
        assert!(c.validate().is_err());
        c.device_family = DeviceFamily::HybridSlcCache {
            cache_blocks_pct: 10.0,
            migration_policy: MigrationPolicy::Watermark,
            migration_threshold_pct: 95.0,
        };
        assert!(c.validate().is_err());
        // SLC capacity flash cannot host an SLC cache tier.
        let mut slc = presets::samsung_z_ssd();
        slc.device_family = DeviceFamily::HybridSlcCache {
            cache_blocks_pct: 10.0,
            migration_policy: MigrationPolicy::Idle,
            migration_threshold_pct: 25.0,
        };
        assert!(slc.validate().is_err());
    }

    #[test]
    fn hybrid_serde_roundtrip_and_legacy_default() {
        let hybrid = presets::hybrid_slc_qlc();
        let json = serde_json::to_string(&hybrid).unwrap();
        let back: SsdConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.canonical_words(), hybrid.canonical_words());
        // Old documents without a device_family field deserialize homogeneous.
        let mut doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        if let serde_json::Value::Object(map) = &mut doc {
            map.remove("device_family");
        }
        let legacy: SsdConfig = serde_json::from_value(doc).unwrap();
        assert_eq!(legacy.device_family, DeviceFamily::Homogeneous);
    }
}
