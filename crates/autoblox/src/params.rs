//! The tunable SSD parameter space (§3.2 of the paper).
//!
//! Every hardware parameter is formulated as one of four ML parameter kinds
//! — *continuous* (a range divided into N endpoints), *discrete* (an explicit
//! value list), *boolean*, or *categorical* — and a configuration is
//! vectorized as one grid index per parameter. The catalog below covers the
//! 48 device specifications the paper's model tunes — plus the three
//! device-family knobs of the hybrid SLC/QLC mode (51 total) — including the
//! deliberately performance-inert ones its coarse pruning discovers.

use serde::{Deserialize, Serialize};
use ssdsim::config::{
    CacheMode, DeviceFamily, FlashTechnology, GcPolicy, Interface, MigrationPolicy,
    PlaneAllocationScheme, SsdConfig,
};
use std::fmt;

/// The four ML parameter kinds of §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParamKind {
    /// A numeric range divided uniformly into endpoints.
    Continuous,
    /// An explicit list of legal numeric values (e.g. PCIe widths).
    Discrete,
    /// An on/off feature flag.
    Boolean,
    /// An unordered choice (e.g. the plane-allocation scheme).
    Categorical,
}

/// Definition of one tunable parameter.
pub struct ParamDef {
    /// Stable snake_case name (used in reports and Figures 4/5).
    pub name: &'static str,
    /// ML kind.
    pub kind: ParamKind,
    /// The value grid as display numbers (grid index -> value). Booleans use
    /// `[0, 1]`; categoricals use `0..k`.
    pub grid: Vec<f64>,
    /// [`ParamDef::get`] given `grid`.
    read: fn(&[f64], &SsdConfig) -> usize,
    /// [`ParamDef::set`] given `grid`.
    write: fn(&[f64], &mut SsdConfig, usize),
}

impl fmt::Debug for ParamDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParamDef")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("grid_len", &self.grid.len())
            .finish()
    }
}

impl ParamDef {
    /// Number of grid points.
    pub fn cardinality(&self) -> usize {
        self.grid.len()
    }

    /// Nearest grid index for a raw value (the lower index on a tie).
    pub fn nearest_index(&self, value: f64) -> usize {
        nearest(&self.grid, value)
    }

    /// This parameter's term of the Manhattan distance between two grid
    /// vectors: index steps apart, or 0/1 for a categorical mismatch.
    pub fn distance(&self, x: usize, y: usize) -> u64 {
        match self.kind {
            ParamKind::Categorical => u64::from(x != y),
            _ => (x as i64 - y as i64).unsigned_abs(),
        }
    }

    /// Reads the current grid index out of a configuration.
    pub fn get(&self, cfg: &SsdConfig) -> usize {
        (self.read)(&self.grid, cfg)
    }

    /// Writes the value at a grid index (clamped to the grid) into a
    /// configuration.
    pub fn set(&self, cfg: &mut SsdConfig, index: usize) {
        (self.write)(&self.grid, cfg, index)
    }
}

macro_rules! numeric_param {
    ($name:literal, $kind:expr, $field:ident, $ty:ty) => {
        ParamDef {
            name: $name,
            kind: $kind,
            grid: param_grid($name),
            read: |grid, c| nearest(grid, c.$field as f64),
            write: |grid, c, i| c.$field = clamped(grid, i) as $ty,
        }
    };
}

/// The grid value at `index`, or the last one past the end.
fn clamped(grid: &[f64], index: usize) -> f64 {
    grid[index.min(grid.len() - 1)]
}

/// The grid index nearest `value`, the lower one on a tie.
///
/// Every grid is strictly ascending, so a value that is exactly a grid
/// point (what `set` writes, hence every vectorized candidate) is found by
/// binary search: it is the only index at distance 0, and the scan below
/// would return it too.
fn nearest(grid: &[f64], value: f64) -> usize {
    let hit = grid.partition_point(|&g| g < value);
    if grid.get(hit) == Some(&value) {
        return hit;
    }
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, &g) in grid.iter().enumerate() {
        let d = (g - value).abs();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

fn lin_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2);
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// The value grid for a named parameter (panics on unknown names).
///
/// # Panics
///
/// Panics if `name` is not in the catalog.
pub fn param_grid(name: &str) -> Vec<f64> {
    match name {
        "channel_count" => vec![1., 2., 4., 6., 8., 10., 12., 16., 20., 24., 32., 48., 64.],
        "chip_no_per_channel" => vec![1., 2., 3., 4., 5., 6., 8., 10., 12., 16., 24., 32., 64.],
        "die_no_per_chip" => vec![1., 2., 4., 8., 16.],
        "plane_no_per_die" => vec![1., 2., 3., 4., 8., 16.],
        "block_no_per_plane" => vec![128., 256., 512., 1024., 2048., 4096.],
        "page_no_per_block" => vec![128., 256., 384., 512., 768., 1024.],
        "page_capacity" => vec![2048., 4096., 8192., 16384.],
        // Flash timing parameters are expressed as factors of the flash
        // technology's baseline latency (Table 7 bounds e.g. MLC reads to
        // 41-83 us, i.e. factors ~0.5-1.0 of the 83 us baseline).
        "read_latency" => lin_grid(0.5, 1.0, 43),
        "program_latency" => lin_grid(0.5, 1.0, 40),
        "erase_latency" => lin_grid(0.5, 1.0, 17),
        "channel_transfer_rate" => {
            vec![
                67., 100., 133., 166., 200., 266., 333., 400., 533., 667., 800., 1066., 1200.,
            ]
        }
        "channel_width" => vec![8., 16., 32.],
        "flash_cmd_overhead" => lin_grid(100., 2_000., 20),
        "suspend_program_time" => lin_grid(1_000., 20_000., 20),
        "suspend_erase_time" => lin_grid(2_000., 40_000., 20),
        "data_cache_size" => lin_grid(64., 2048., 32),
        "cmt_capacity" => lin_grid(64., 2048., 32),
        "dram_data_rate" => vec![800., 1066., 1333., 1600., 1866., 2133., 2400.],
        "dram_burst_size" => vec![16., 32., 64., 128.],
        "cmt_entry_size" => vec![4., 8., 16.],
        "overprovisioning_ratio" => lin_grid(0.03, 0.40, 20),
        "gc_threshold" => lin_grid(0.01, 0.30, 20),
        "gc_hard_threshold" => lin_grid(0.001, 0.01, 10),
        "static_wearleveling_threshold" => lin_grid(10., 2_000., 20),
        "io_queue_depth" => vec![1., 2., 4., 8., 16., 32., 64., 128., 256.],
        "queue_count" => vec![1., 2., 4., 8., 16.],
        "pcie_lane_count" => vec![1., 2., 4., 8., 16.],
        "pcie_lane_bandwidth" => vec![2., 5., 8., 16., 32.],
        "host_cmd_overhead" => lin_grid(500., 20_000., 20),
        "page_metadata_capacity" => lin_grid(64., 2048., 16),
        "ecc_engine_count" => vec![1., 2., 4., 8., 16., 32.],
        "read_retry_limit" => lin_grid(1., 16., 16),
        "background_scan_interval" => lin_grid(100., 10_000., 16),
        "init_delay" => lin_grid(100., 5_000., 16),
        "firmware_sram_size" => vec![128., 256., 512., 1024., 2048.],
        "thermal_throttle_threshold" => lin_grid(50., 110., 13),
        "pfail_flush_budget" => lin_grid(500., 10_000., 16),
        "dram_refresh_interval" => vec![16., 32., 64., 128., 256.],
        "nand_vcc" => lin_grid(2500., 3600., 12),
        "slc_cache_pct" => lin_grid(5., 50., 10),
        "slc_migration_threshold_pct" => lin_grid(10., 80., 8),
        other => panic!("unknown parameter {other:?}"),
    }
}

/// Builds the full 51-parameter catalog.
pub fn catalog() -> Vec<ParamDef> {
    use ParamKind::*;
    let mut params = vec![
        // ---- Layout (7) ----
        numeric_param!("channel_count", Discrete, channel_count, u32),
        numeric_param!("chip_no_per_channel", Discrete, chips_per_channel, u32),
        numeric_param!("die_no_per_chip", Discrete, dies_per_chip, u32),
        numeric_param!("plane_no_per_die", Discrete, planes_per_die, u32),
        numeric_param!("block_no_per_plane", Discrete, blocks_per_plane, u32),
        numeric_param!("page_no_per_block", Discrete, pages_per_block, u32),
        numeric_param!("page_capacity", Discrete, page_size_bytes, u32),
        // ---- Flash timing (factors of the technology baseline) ----
        ParamDef {
            name: "read_latency",
            kind: Continuous,
            grid: param_grid("read_latency"),
            read: |grid, c| {
                let base = c.flash_technology.base_read_ns() as f64;
                nearest(grid, c.read_latency_ns as f64 / base)
            },
            write: |grid, c, i| {
                let base = c.flash_technology.base_read_ns() as f64;
                c.read_latency_ns = (clamped(grid, i) * base) as u64;
            },
        },
        ParamDef {
            name: "program_latency",
            kind: Continuous,
            grid: param_grid("program_latency"),
            read: |grid, c| {
                let base = c.flash_technology.base_program_ns() as f64;
                nearest(grid, c.program_latency_ns as f64 / base)
            },
            write: |grid, c, i| {
                let base = c.flash_technology.base_program_ns() as f64;
                c.program_latency_ns = (clamped(grid, i) * base) as u64;
            },
        },
        ParamDef {
            name: "erase_latency",
            kind: Continuous,
            grid: param_grid("erase_latency"),
            read: |grid, c| {
                let base = c.flash_technology.base_erase_ns() as f64;
                nearest(grid, c.erase_latency_ns as f64 / base)
            },
            write: |grid, c, i| {
                let base = c.flash_technology.base_erase_ns() as f64;
                c.erase_latency_ns = (clamped(grid, i) * base) as u64;
            },
        },
        numeric_param!(
            "channel_transfer_rate",
            Discrete,
            channel_transfer_rate_mts,
            u32
        ),
        numeric_param!("channel_width", Discrete, channel_width_bits, u32),
        numeric_param!("flash_cmd_overhead", Continuous, flash_cmd_overhead_ns, u64),
        numeric_param!("suspend_program_time", Continuous, suspend_program_ns, u64),
        numeric_param!("suspend_erase_time", Continuous, suspend_erase_ns, u64),
        // ---- Controller DRAM ----
        numeric_param!("data_cache_size", Continuous, data_cache_mb, u32),
        numeric_param!("cmt_capacity", Continuous, cmt_capacity_mb, u32),
        numeric_param!("dram_data_rate", Discrete, dram_data_rate_mts, u32),
        numeric_param!("dram_burst_size", Discrete, dram_burst_bytes, u32),
        numeric_param!("cmt_entry_size", Discrete, cmt_entry_bytes, u32),
        // ---- FTL / GC ----
        numeric_param!(
            "overprovisioning_ratio",
            Continuous,
            overprovisioning_ratio,
            f64
        ),
        ParamDef {
            name: "gc_threshold",
            kind: Continuous,
            grid: param_grid("gc_threshold"),
            read: |grid, c| nearest(grid, c.gc_threshold),
            write: |grid, c, i| {
                c.gc_threshold = clamped(grid, i);
                // Maintain the validation invariant.
                c.gc_hard_threshold = c.gc_hard_threshold.min(c.gc_threshold);
            },
        },
        ParamDef {
            name: "gc_hard_threshold",
            kind: Continuous,
            grid: param_grid("gc_hard_threshold"),
            read: |grid, c| nearest(grid, c.gc_hard_threshold),
            write: |grid, c, i| {
                c.gc_hard_threshold = clamped(grid, i).min(c.gc_threshold);
            },
        },
        numeric_param!(
            "static_wearleveling_threshold",
            Continuous,
            static_wearleveling_threshold,
            u32
        ),
        // ---- Host interface ----
        numeric_param!("io_queue_depth", Discrete, io_queue_depth, u32),
        numeric_param!("queue_count", Discrete, queue_count, u32),
        numeric_param!("pcie_lane_count", Discrete, pcie_lane_count, u32),
        numeric_param!("pcie_lane_bandwidth", Discrete, pcie_lane_gtps, u32),
        numeric_param!("host_cmd_overhead", Continuous, host_cmd_overhead_ns, u64),
        // ---- Performance-inert numerics ----
        numeric_param!(
            "page_metadata_capacity",
            Continuous,
            page_metadata_bytes,
            u32
        ),
        numeric_param!("ecc_engine_count", Discrete, ecc_engine_count, u32),
        numeric_param!("read_retry_limit", Continuous, read_retry_limit, u32),
        numeric_param!(
            "background_scan_interval",
            Continuous,
            background_scan_interval_ms,
            u32
        ),
        numeric_param!("init_delay", Continuous, init_delay_us, u32),
        numeric_param!("firmware_sram_size", Discrete, firmware_sram_kb, u32),
        numeric_param!(
            "thermal_throttle_threshold",
            Continuous,
            thermal_throttle_c,
            u32
        ),
        numeric_param!("pfail_flush_budget", Continuous, pfail_flush_budget_uj, u32),
        numeric_param!(
            "dram_refresh_interval",
            Discrete,
            dram_refresh_interval_us,
            u32
        ),
        numeric_param!("nand_vcc", Continuous, nand_vcc_mv, u32),
    ];

    // ---- Booleans (5) ----
    params.push(ParamDef {
        name: "greedy_gc",
        kind: Boolean,
        grid: vec![0., 1.],
        read: |_, c| (c.gc_policy == GcPolicy::Greedy) as usize,
        write: |_, c, i| {
            c.gc_policy = if i > 0 {
                GcPolicy::Greedy
            } else {
                GcPolicy::Random
            };
        },
    });
    params.push(ParamDef {
        name: "preemptible_gc",
        kind: Boolean,
        grid: vec![0., 1.],
        read: |_, c| c.preemptible_gc as usize,
        write: |_, c, i| c.preemptible_gc = i > 0,
    });
    params.push(ParamDef {
        name: "static_wearleveling",
        kind: Boolean,
        grid: vec![0., 1.],
        read: |_, c| c.static_wearleveling_enabled as usize,
        write: |_, c, i| c.static_wearleveling_enabled = i > 0,
    });
    params.push(ParamDef {
        name: "program_suspension",
        kind: Boolean,
        grid: vec![0., 1.],
        read: |_, c| c.program_suspension_enabled as usize,
        write: |_, c, i| c.program_suspension_enabled = i > 0,
    });
    params.push(ParamDef {
        name: "erase_suspension",
        kind: Boolean,
        grid: vec![0., 1.],
        read: |_, c| c.erase_suspension_enabled as usize,
        write: |_, c, i| c.erase_suspension_enabled = i > 0,
    });

    // ---- Categoricals ----
    params.push(ParamDef {
        name: "plane_allocation_scheme",
        kind: Categorical,
        grid: (0..16).map(|i| i as f64).collect(),
        read: |_, c| c.plane_allocation_scheme.index(),
        write: |_, c, i| c.plane_allocation_scheme = PlaneAllocationScheme::ALL[i.min(15)],
    });
    params.push(ParamDef {
        name: "write_back_cache",
        kind: Boolean,
        grid: vec![0., 1.],
        read: |_, c| (c.cache_mode == CacheMode::WriteBack) as usize,
        write: |_, c, i| {
            c.cache_mode = if i > 0 {
                CacheMode::WriteBack
            } else {
                CacheMode::WriteThrough
            };
        },
    });
    params.push(ParamDef {
        name: "flash_technology",
        kind: Categorical,
        grid: vec![0., 1., 2., 3.],
        read: |_, c| match c.flash_technology {
            FlashTechnology::Slc => 0,
            FlashTechnology::Mlc => 1,
            FlashTechnology::Tlc => 2,
            FlashTechnology::Qlc => 3,
        },
        write: |_, c, i| {
            c.flash_technology = match i {
                0 => FlashTechnology::Slc,
                1 => FlashTechnology::Mlc,
                2 => FlashTechnology::Tlc,
                _ => FlashTechnology::Qlc,
            };
        },
    });
    params.push(ParamDef {
        name: "interface",
        kind: Categorical,
        grid: vec![0., 1.],
        read: |_, c| match c.interface {
            Interface::Nvme => 0,
            Interface::Sata => 1,
        },
        write: |_, c, i| {
            c.interface = if i == 0 {
                Interface::Nvme
            } else {
                Interface::Sata
            };
        },
    });

    // ---- Device family (hybrid SLC cache) ----
    // These knobs only act on hybrid configurations: on a homogeneous
    // device `get` reads index 0 and `set` is a no-op, so the enlarged
    // space never flips a family mid-search (the family is pinned by the
    // constraints, not tuned).
    params.push(ParamDef {
        name: "slc_cache_pct",
        kind: Continuous,
        grid: param_grid("slc_cache_pct"),
        read: |grid, c| match c.device_family {
            DeviceFamily::HybridSlcCache {
                cache_blocks_pct, ..
            } => nearest(grid, cache_blocks_pct),
            DeviceFamily::Homogeneous => 0,
        },
        write: |grid, c, i| {
            if let DeviceFamily::HybridSlcCache {
                cache_blocks_pct, ..
            } = &mut c.device_family
            {
                *cache_blocks_pct = clamped(grid, i);
            }
        },
    });
    params.push(ParamDef {
        name: "slc_migration_threshold_pct",
        kind: Continuous,
        grid: param_grid("slc_migration_threshold_pct"),
        read: |grid, c| match c.device_family {
            DeviceFamily::HybridSlcCache {
                migration_threshold_pct,
                ..
            } => nearest(grid, migration_threshold_pct),
            DeviceFamily::Homogeneous => 0,
        },
        write: |grid, c, i| {
            if let DeviceFamily::HybridSlcCache {
                migration_threshold_pct,
                ..
            } = &mut c.device_family
            {
                *migration_threshold_pct = clamped(grid, i);
            }
        },
    });
    params.push(ParamDef {
        name: "slc_migration_policy",
        kind: Categorical,
        grid: vec![0., 1.],
        read: |_, c| match c.device_family {
            DeviceFamily::HybridSlcCache {
                migration_policy, ..
            } => migration_policy.index(),
            DeviceFamily::Homogeneous => 0,
        },
        write: |_, c, i| {
            if let DeviceFamily::HybridSlcCache {
                migration_policy, ..
            } = &mut c.device_family
            {
                *migration_policy = MigrationPolicy::ALL[i.min(1)];
            }
        },
    });
    params
}

/// The parameter space: the catalog plus vectorization and neighbor moves.
#[derive(Debug)]
pub struct ParamSpace {
    params: Vec<ParamDef>,
}

impl Default for ParamSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl ParamSpace {
    /// Builds the full catalog.
    pub fn new() -> Self {
        ParamSpace { params: catalog() }
    }

    /// Builds a space restricted to the named parameters (used after
    /// pruning). Unknown names are ignored.
    pub fn with_params(names: &[&str]) -> Self {
        let params = catalog()
            .into_iter()
            .filter(|p| names.contains(&p.name))
            .collect();
        ParamSpace { params }
    }

    /// All parameter definitions.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` for an empty space.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Looks up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&ParamDef> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Index of a parameter by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name == name)
    }

    /// Vectorizes a configuration as one grid index per parameter.
    pub fn vectorize(&self, cfg: &SsdConfig) -> Vec<usize> {
        let mut out = vec![0; self.params.len()];
        self.vectorize_into(cfg, &mut out);
        out
    }

    /// [`ParamSpace::vectorize`] into a caller-owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the parameter count.
    pub fn vectorize_into(&self, cfg: &SsdConfig, out: &mut [usize]) {
        assert_eq!(out.len(), self.params.len(), "vector length mismatch");
        for (slot, p) in out.iter_mut().zip(&self.params) {
            *slot = p.get(cfg);
        }
    }

    /// Normalizes a grid-index vector to floats in `[0, 1]` per parameter
    /// (`index / (cardinality - 1)`): the GPR feature space.
    ///
    /// # Panics
    ///
    /// Panics if `vec.len()` differs from the parameter count.
    pub fn normalize(&self, vec: &[usize]) -> Vec<f64> {
        self.normalized(vec).collect()
    }

    /// [`ParamSpace::normalize`] as an iterator, for callers that append
    /// many vectors to one buffer.
    ///
    /// # Panics
    ///
    /// Panics if `vec.len()` differs from the parameter count.
    pub fn normalized<'s>(&'s self, vec: &'s [usize]) -> impl Iterator<Item = f64> + 's {
        assert_eq!(vec.len(), self.params.len(), "vector length mismatch");
        self.params.iter().zip(vec).map(|(p, &idx)| {
            if p.cardinality() > 1 {
                idx as f64 / (p.cardinality() - 1) as f64
            } else {
                0.0
            }
        })
    }

    /// Vectorizes as normalized floats in `[0, 1]` (GPR feature space).
    pub fn vectorize_normalized(&self, cfg: &SsdConfig) -> Vec<f64> {
        self.normalize(&self.vectorize(cfg))
    }

    /// Applies a grid-index vector onto a base configuration.
    ///
    /// # Panics
    ///
    /// Panics if `vec.len()` differs from the parameter count.
    pub fn apply(&self, base: &SsdConfig, vec: &[usize]) -> SsdConfig {
        assert_eq!(vec.len(), self.params.len(), "vector length mismatch");
        let mut cfg = base.clone();
        for (p, &idx) in self.params.iter().zip(vec) {
            p.set(&mut cfg, idx);
        }
        cfg
    }

    /// Manhattan distance between two grid-index vectors (the exploration
    /// bound of §3.4). Categorical mismatches count 1.
    ///
    /// # Panics
    ///
    /// Panics if the vectors' lengths differ from the parameter count.
    pub fn manhattan(&self, a: &[usize], b: &[usize]) -> u64 {
        assert_eq!(a.len(), self.params.len());
        assert_eq!(b.len(), self.params.len());
        self.params
            .iter()
            .zip(a.iter().zip(b))
            .map(|(p, (&x, &y))| p.distance(x, y))
            .sum()
    }

    /// Enumerates the single-step neighbor moves of `vec` for parameter
    /// `param_idx`: ±1 for ordered kinds, every other category for
    /// categoricals. Returns full neighbor vectors.
    pub fn neighbors_of_param(&self, vec: &[usize], param_idx: usize) -> Vec<Vec<usize>> {
        self.neighbor_indices(vec, param_idx)
            .map(|alt| {
                let mut v = vec.to_vec();
                v[param_idx] = alt;
                v
            })
            .collect()
    }

    /// The grid indices [`ParamSpace::neighbors_of_param`] moves parameter
    /// `param_idx` to, in the same order: `+1` then `-1` for ordered kinds,
    /// every other category ascending for categoricals.
    pub fn neighbor_indices(&self, vec: &[usize], param_idx: usize) -> impl Iterator<Item = usize> {
        let card = self.params[param_idx].cardinality();
        let cur = vec[param_idx];
        let (others, steps) = match self.params[param_idx].kind {
            ParamKind::Categorical => (0..card, [None, None]),
            _ => (
                0..0,
                [(cur + 1 < card).then_some(cur + 1), cur.checked_sub(1)],
            ),
        };
        others
            .filter(move |&alt| alt != cur)
            .chain(steps.into_iter().flatten())
    }

    /// Total size of the search space (product of cardinalities), saturating.
    pub fn search_space_size(&self) -> f64 {
        self.params.iter().map(|p| p.cardinality() as f64).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_51_parameters() {
        let space = ParamSpace::new();
        assert_eq!(
            space.len(),
            51,
            "paper models 48 device specifications; the hybrid SLC/QLC mode adds 3"
        );
        assert!(!space.is_empty());
    }

    #[test]
    fn names_are_unique() {
        let space = ParamSpace::new();
        let mut names: Vec<_> = space.params().iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), space.len());
    }

    #[test]
    fn vectorize_apply_roundtrip() {
        let space = ParamSpace::new();
        let cfg = SsdConfig::default();
        let vec = space.vectorize(&cfg);
        let cfg2 = space.apply(&cfg, &vec);
        let vec2 = space.vectorize(&cfg2);
        assert_eq!(vec, vec2, "apply(vectorize(c)) must be a fixed point");
    }

    #[test]
    fn apply_changes_fields() {
        let space = ParamSpace::new();
        let cfg = SsdConfig::default();
        let mut vec = space.vectorize(&cfg);
        let ch = space.index_of("channel_count").unwrap();
        vec[ch] = 0; // 1 channel
        let cfg2 = space.apply(&cfg, &vec);
        assert_eq!(cfg2.channel_count, 1);
    }

    #[test]
    fn normalized_vector_in_unit_cube() {
        let space = ParamSpace::new();
        let v = space.vectorize_normalized(&SsdConfig::default());
        assert_eq!(v.len(), space.len());
        assert!(v.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn manhattan_distance_counts_steps() {
        let space = ParamSpace::new();
        let cfg = SsdConfig::default();
        let a = space.vectorize(&cfg);
        let mut b = a.clone();
        let qd = space.index_of("io_queue_depth").unwrap();
        b[qd] = a[qd] + 2;
        assert_eq!(space.manhattan(&a, &b), 2);
        // Categorical counts 1 regardless of index distance.
        let pas = space.index_of("plane_allocation_scheme").unwrap();
        b[pas] = (a[pas] + 7) % 16;
        assert_eq!(space.manhattan(&a, &b), 3);
    }

    #[test]
    fn neighbors_respect_bounds() {
        let space = ParamSpace::new();
        let cfg = SsdConfig::default();
        let mut vec = space.vectorize(&cfg);
        let qd = space.index_of("io_queue_depth").unwrap();
        vec[qd] = 0;
        let ns = space.neighbors_of_param(&vec, qd);
        assert_eq!(ns.len(), 1); // only +1 possible at the lower edge
        assert_eq!(ns[0][qd], 1);
    }

    #[test]
    fn categorical_neighbors_enumerate_all_alternatives() {
        let space = ParamSpace::new();
        let vec = space.vectorize(&SsdConfig::default());
        let pas = space.index_of("plane_allocation_scheme").unwrap();
        let ns = space.neighbors_of_param(&vec, pas);
        assert_eq!(ns.len(), 15);
    }

    #[test]
    fn search_space_is_astronomical() {
        let space = ParamSpace::new();
        // The paper reports "a search space of billions of possible
        // configurations" — ours is much larger before pruning.
        assert!(space.search_space_size() > 1e9);
    }

    #[test]
    fn restricted_space() {
        let space = ParamSpace::with_params(&["channel_count", "data_cache_size", "bogus"]);
        assert_eq!(space.len(), 2);
        assert!(space.param("channel_count").is_some());
        assert!(space.param("bogus").is_none());
    }

    #[test]
    fn setting_gc_threshold_maintains_invariant() {
        let space = ParamSpace::new();
        let mut cfg = SsdConfig::default();
        let p = space.param("gc_threshold").unwrap();
        p.set(&mut cfg, 0); // smallest threshold
        assert!(cfg.gc_hard_threshold <= cfg.gc_threshold);
        cfg.validate().unwrap();
    }

    /// One numeric parameter's accessors as they stood when every call
    /// rebuilt the grid by name.
    struct Twin {
        name: &'static str,
        get: fn(&SsdConfig) -> usize,
        set: fn(&mut SsdConfig, usize),
    }

    macro_rules! twin {
        ($name:literal, $field:ident, $ty:ty) => {
            Twin {
                name: $name,
                get: |c| nearest(&param_grid($name), c.$field as f64),
                set: |c, i| {
                    let grid = param_grid($name);
                    c.$field = grid[i.min(grid.len() - 1)] as $ty;
                },
            }
        };
    }

    macro_rules! timing_twin {
        ($name:literal, $field:ident, $base:ident) => {
            Twin {
                name: $name,
                get: |c| {
                    let base = c.flash_technology.$base() as f64;
                    nearest(&param_grid($name), c.$field as f64 / base)
                },
                set: |c, i| {
                    let g = param_grid($name);
                    let base = c.flash_technology.$base() as f64;
                    c.$field = (g[i.min(g.len() - 1)] * base) as u64;
                },
            }
        };
    }

    fn twins() -> Vec<Twin> {
        vec![
            twin!("channel_count", channel_count, u32),
            twin!("chip_no_per_channel", chips_per_channel, u32),
            twin!("die_no_per_chip", dies_per_chip, u32),
            twin!("plane_no_per_die", planes_per_die, u32),
            twin!("block_no_per_plane", blocks_per_plane, u32),
            twin!("page_no_per_block", pages_per_block, u32),
            twin!("page_capacity", page_size_bytes, u32),
            timing_twin!("read_latency", read_latency_ns, base_read_ns),
            timing_twin!("program_latency", program_latency_ns, base_program_ns),
            timing_twin!("erase_latency", erase_latency_ns, base_erase_ns),
            twin!("channel_transfer_rate", channel_transfer_rate_mts, u32),
            twin!("channel_width", channel_width_bits, u32),
            twin!("flash_cmd_overhead", flash_cmd_overhead_ns, u64),
            twin!("suspend_program_time", suspend_program_ns, u64),
            twin!("suspend_erase_time", suspend_erase_ns, u64),
            twin!("data_cache_size", data_cache_mb, u32),
            twin!("cmt_capacity", cmt_capacity_mb, u32),
            twin!("dram_data_rate", dram_data_rate_mts, u32),
            twin!("dram_burst_size", dram_burst_bytes, u32),
            twin!("cmt_entry_size", cmt_entry_bytes, u32),
            twin!("overprovisioning_ratio", overprovisioning_ratio, f64),
            Twin {
                name: "gc_threshold",
                get: |c| nearest(&param_grid("gc_threshold"), c.gc_threshold),
                set: |c, i| {
                    let g = param_grid("gc_threshold");
                    c.gc_threshold = g[i.min(g.len() - 1)];
                    c.gc_hard_threshold = c.gc_hard_threshold.min(c.gc_threshold);
                },
            },
            Twin {
                name: "gc_hard_threshold",
                get: |c| nearest(&param_grid("gc_hard_threshold"), c.gc_hard_threshold),
                set: |c, i| {
                    let g = param_grid("gc_hard_threshold");
                    c.gc_hard_threshold = g[i.min(g.len() - 1)].min(c.gc_threshold);
                },
            },
            twin!(
                "static_wearleveling_threshold",
                static_wearleveling_threshold,
                u32
            ),
            twin!("io_queue_depth", io_queue_depth, u32),
            twin!("queue_count", queue_count, u32),
            twin!("pcie_lane_count", pcie_lane_count, u32),
            twin!("pcie_lane_bandwidth", pcie_lane_gtps, u32),
            twin!("host_cmd_overhead", host_cmd_overhead_ns, u64),
            twin!("page_metadata_capacity", page_metadata_bytes, u32),
            twin!("ecc_engine_count", ecc_engine_count, u32),
            twin!("read_retry_limit", read_retry_limit, u32),
            twin!("background_scan_interval", background_scan_interval_ms, u32),
            twin!("init_delay", init_delay_us, u32),
            twin!("firmware_sram_size", firmware_sram_kb, u32),
            twin!("thermal_throttle_threshold", thermal_throttle_c, u32),
            twin!("pfail_flush_budget", pfail_flush_budget_uj, u32),
            twin!("dram_refresh_interval", dram_refresh_interval_us, u32),
            twin!("nand_vcc", nand_vcc_mv, u32),
            Twin {
                name: "slc_cache_pct",
                get: |c| match c.device_family {
                    DeviceFamily::HybridSlcCache {
                        cache_blocks_pct, ..
                    } => nearest(&param_grid("slc_cache_pct"), cache_blocks_pct),
                    DeviceFamily::Homogeneous => 0,
                },
                set: |c, i| {
                    if let DeviceFamily::HybridSlcCache {
                        cache_blocks_pct, ..
                    } = &mut c.device_family
                    {
                        let g = param_grid("slc_cache_pct");
                        *cache_blocks_pct = g[i.min(g.len() - 1)];
                    }
                },
            },
            Twin {
                name: "slc_migration_threshold_pct",
                get: |c| match c.device_family {
                    DeviceFamily::HybridSlcCache {
                        migration_threshold_pct,
                        ..
                    } => nearest(
                        &param_grid("slc_migration_threshold_pct"),
                        migration_threshold_pct,
                    ),
                    DeviceFamily::Homogeneous => 0,
                },
                set: |c, i| {
                    if let DeviceFamily::HybridSlcCache {
                        migration_threshold_pct,
                        ..
                    } = &mut c.device_family
                    {
                        let g = param_grid("slc_migration_threshold_pct");
                        *migration_threshold_pct = g[i.min(g.len() - 1)];
                    }
                },
            },
        ]
    }

    fn bases() -> [SsdConfig; 3] {
        use ssdsim::config::presets;
        [
            SsdConfig::default(),
            presets::intel_750(),
            presets::hybrid_slc_qlc(),
        ]
    }

    #[test]
    fn every_numeric_parameter_has_a_twin() {
        let twins = twins();
        for p in catalog() {
            let numeric = matches!(p.kind, ParamKind::Continuous | ParamKind::Discrete);
            assert_eq!(
                twins.iter().filter(|t| t.name == p.name).count(),
                usize::from(numeric),
                "{}",
                p.name
            );
        }
    }

    /// `set` then `get` through the grid the `ParamDef` owns must match the
    /// by-name twin at every grid index (and past the end, where `set`
    /// clamps), on both device families.
    #[test]
    fn accessors_match_the_by_name_twin_at_every_index() {
        let space = ParamSpace::new();
        for base in bases() {
            for twin in twins() {
                let p = space.param(twin.name).expect("twin names a catalog entry");
                assert_eq!(p.get(&base), (twin.get)(&base), "{} get", p.name);
                for i in 0..p.cardinality() + 2 {
                    let (mut ours, mut theirs) = (base.clone(), base.clone());
                    p.set(&mut ours, i);
                    (twin.set)(&mut theirs, i);
                    assert_eq!(ours, theirs, "{} set {i}", p.name);
                    assert_eq!(p.get(&ours), (twin.get)(&theirs), "{} get {i}", p.name);
                }
            }
            // The grid-free kinds round-trip every index.
            for p in space.params() {
                if matches!(p.kind, ParamKind::Boolean | ParamKind::Categorical)
                    && !(p.name.starts_with("slc_")
                        && base.device_family == DeviceFamily::Homogeneous)
                {
                    for i in 0..p.cardinality() {
                        let mut cfg = base.clone();
                        p.set(&mut cfg, i);
                        assert_eq!(p.get(&cfg), i, "{}", p.name);
                    }
                }
            }
        }
    }

    /// `vectorize(apply(v))` over random grid vectors matches the same
    /// round trip made with the by-name twins in catalog order (the order
    /// matters: `gc_threshold` clamps `gc_hard_threshold` and vice versa).
    #[test]
    fn vectorize_of_apply_matches_the_by_name_twin() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let space = ParamSpace::new();
        let twins = twins();
        let twin_of = |name: &str| twins.iter().find(|t| t.name == name);
        let mut rng = StdRng::seed_from_u64(0x9a2a);
        for base in bases() {
            for _ in 0..200 {
                let v: Vec<usize> = space
                    .params()
                    .iter()
                    .map(|p| rng.gen_range(0..p.cardinality()))
                    .collect();
                let ours = space.apply(&base, &v);
                let mut theirs = base.clone();
                for (p, &i) in space.params().iter().zip(&v) {
                    match twin_of(p.name) {
                        Some(t) => (t.set)(&mut theirs, i),
                        None => p.set(&mut theirs, i),
                    }
                }
                assert_eq!(ours, theirs);
                let twin_vec: Vec<usize> = space
                    .params()
                    .iter()
                    .map(|p| twin_of(p.name).map_or_else(|| p.get(&theirs), |t| (t.get)(&theirs)))
                    .collect();
                assert_eq!(space.vectorize(&ours), twin_vec);
            }
        }
    }

    /// `nearest`'s binary-searched exact hit equals its scan only on a
    /// strictly ascending grid.
    #[test]
    fn every_grid_is_strictly_ascending() {
        for p in catalog() {
            assert!(p.grid.windows(2).all(|w| w[0] < w[1]), "{}", p.name);
        }
    }

    /// The exact-hit shortcut returns what the scan alone returns: on grid
    /// points, between them, at their integer truncations, at random
    /// values, and at the non-finite and far-off values where rounding
    /// ties the distances and the scan keeps the first.
    #[test]
    fn nearest_matches_the_scan_alone() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x6e61);
        let scan = |grid: &[f64], value: f64| {
            let mut best = (0, f64::INFINITY);
            for (i, &g) in grid.iter().enumerate() {
                if (g - value).abs() < best.1 {
                    best = (i, (g - value).abs());
                }
            }
            best.0
        };
        for p in catalog() {
            let g = &p.grid;
            let mut values = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300];
            let (lo, hi) = (g[0], g[g.len() - 1]);
            let span = hi - lo;
            values.extend((0..200).map(|_| rng.gen_range(lo - span..hi + span)));
            values.extend([1e17, -1e17, hi * 1e16, f64::MAX, f64::MIN_POSITIVE]);
            for (i, &x) in g.iter().enumerate() {
                values.extend([x, x.trunc(), -x, x * 1.5]);
                if let Some(&next) = g.get(i + 1) {
                    values.extend([(x + next) / 2.0, x + (next - x) / 3.0]);
                }
            }
            for v in values {
                assert_eq!(nearest(g, v), scan(g, v), "{} at {v}", p.name);
            }
        }
    }

    /// Reading back what `set` wrote gives the index that was set, for every
    /// parameter and index, on both families and both interfaces. The
    /// hybrid knobs are inert on a homogeneous device and read 0 there.
    #[test]
    fn get_reads_back_every_index_set() {
        use ssdsim::config::presets;
        let space = ParamSpace::new();
        for base in [
            presets::intel_750(),
            presets::samsung_850_pro(),
            presets::hybrid_slc_qlc(),
        ] {
            let inert = base.device_family == DeviceFamily::Homogeneous;
            for p in space.params() {
                for i in 0..p.cardinality() {
                    let mut cfg = base.clone();
                    p.set(&mut cfg, i);
                    let want = if inert && p.name.starts_with("slc_") {
                        0
                    } else {
                        i
                    };
                    assert_eq!(p.get(&cfg), want, "{} index {i}", p.name);
                }
            }
        }
    }

    #[test]
    fn nearest_keeps_the_lower_index_on_a_tie() {
        assert_eq!(nearest(&[1.0, 3.0], 2.0), 0);
        assert_eq!(nearest(&[1.0, 3.0, 5.0], 4.0), 1);
        assert_eq!(nearest(&[1.0, 3.0], f64::NAN), 0);
        let p = ParamSpace::new();
        let qd = p.param("io_queue_depth").unwrap();
        // 3 is equidistant from 2 and 4.
        assert_eq!(qd.grid[qd.nearest_index(3.0)], 2.0);
        let mut cfg = SsdConfig {
            io_queue_depth: 3,
            ..SsdConfig::default()
        };
        assert_eq!(qd.grid[qd.get(&cfg)], 2.0);
        qd.set(&mut cfg, usize::MAX);
        assert_eq!(cfg.io_queue_depth, 256);
    }

    #[test]
    fn normalize_divides_by_the_last_index() {
        let space = ParamSpace::new();
        for cfg in bases() {
            let v = space.vectorize(&cfg);
            let n = space.normalize(&v);
            for ((p, &i), &x) in space.params().iter().zip(&v).zip(&n) {
                assert_eq!(x, i as f64 / (p.cardinality() - 1) as f64, "{}", p.name);
            }
            assert_eq!(space.vectorize_normalized(&cfg), n);
        }
    }

    #[test]
    fn nearest_index_snaps() {
        let space = ParamSpace::new();
        let p = space.param("channel_count").unwrap();
        assert_eq!(p.grid[p.nearest_index(13.0)], 12.0);
        assert_eq!(p.grid[p.nearest_index(0.0)], 1.0);
        assert_eq!(p.grid[p.nearest_index(1e9)], 64.0);
    }
}
