//! User-specified configuration constraints (§3.2): SSD capacity, host
//! interface, flash type, and power budget — the `set_cons(capacity,
//! interface, flash_type, power_budget)` interface of §3.5.

use crate::params::ParamSpace;
use serde::{Deserialize, Serialize};
use ssdsim::config::{DeviceFamily, FlashTechnology, Interface, SsdConfig};

/// Minimum capacity of a single flash die in bytes (1 GiB): NAND dies are
/// physical parts with multi-gigabit densities, so a configuration cannot
/// conjure thousands of tiny dies to multiply parallelism for free.
pub const MIN_DIE_CAPACITY_BYTES: u64 = 1 << 30;

/// Relative tolerance on the capacity constraint: discrete layout grids
/// cannot hit an exact byte count, so configurations within ±25% of the
/// target capacity are accepted (the repair step narrows most of them much
/// closer).
pub const CAPACITY_TOLERANCE: f64 = 0.25;

/// Constraints bounding the optimization space.
///
/// # Examples
///
/// ```
/// use autoblox::constraints::Constraints;
/// use ssdsim::config::{DeviceFamily, FlashTechnology, Interface, SsdConfig};
///
/// let cons = Constraints::new(512, Interface::Nvme, FlashTechnology::Mlc, 25.0);
/// assert!(cons.check_structural(&SsdConfig::default()).is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Constraints {
    /// Target device capacity in bytes (physical).
    pub capacity_bytes: u64,
    /// Required host interface.
    pub interface: Interface,
    /// Required flash technology.
    pub flash_type: FlashTechnology,
    /// Maximum average power draw in watts.
    pub power_budget_w: f64,
    /// Minimum per-die capacity in bytes. Defaults to
    /// [`MIN_DIE_CAPACITY_BYTES`]; the what-if analysis (§4.5) relaxes it,
    /// since its expanded bounds "may not be realistic today".
    pub min_die_capacity_bytes: u64,
    /// Required device family. Candidates of the other family kind are
    /// rejected structurally; for hybrid families the knob *values*
    /// (cache share, policy, threshold) stay tunable — only the kind is
    /// pinned.
    pub family: DeviceFamily,
}

/// A constraint violation, reported by [`Constraints::check_structural`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Violation {
    /// Physical capacity outside the tolerance band.
    Capacity {
        /// Capacity of the checked configuration, bytes.
        actual: u64,
        /// Target capacity, bytes.
        target: u64,
    },
    /// A die smaller than manufacturable NAND densities.
    DieTooSmall {
        /// Per-die capacity of the checked configuration, bytes.
        actual: u64,
    },
    /// Wrong host interface.
    Interface,
    /// Wrong flash technology.
    FlashType,
    /// Wrong device family (homogeneous where hybrid is required, or the
    /// reverse).
    Family,
    /// The configuration is structurally invalid (failed validation).
    Invalid(String),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Capacity { actual, target } => write!(
                f,
                "capacity {actual} B is outside ±{}% of the {target} B target",
                CAPACITY_TOLERANCE * 100.0
            ),
            Violation::DieTooSmall { actual } => {
                write!(f, "a die of {actual} B is below the manufacturable floor")
            }
            Violation::Interface => f.write_str("wrong host interface"),
            Violation::FlashType => f.write_str("wrong flash technology"),
            Violation::Family => f.write_str("wrong device family"),
            Violation::Invalid(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl Constraints {
    /// Creates constraints; capacity is in gibibytes, mirroring the paper's
    /// `set_cons(capacity, interface, flash_type, power_budget)` API. A
    /// capacity whose byte count exceeds `u64` saturates, so no
    /// configuration meets it (it never wraps to a small one).
    pub fn new(
        capacity_gib: u64,
        interface: Interface,
        flash_type: FlashTechnology,
        power_budget_w: f64,
    ) -> Self {
        Constraints {
            capacity_bytes: capacity_gib.saturating_mul(1 << 30),
            interface,
            flash_type,
            power_budget_w,
            min_die_capacity_bytes: MIN_DIE_CAPACITY_BYTES,
            family: DeviceFamily::Homogeneous,
        }
    }

    /// The same constraints restricted to `family` configurations.
    #[must_use]
    pub fn with_family(mut self, family: DeviceFamily) -> Self {
        self.family = family;
        self
    }

    /// The paper's default evaluation constraints: 512 GiB, NVMe, MLC
    /// (§4.2), with a generous 25 W budget.
    pub fn paper_default() -> Self {
        Constraints::new(512, Interface::Nvme, FlashTechnology::Mlc, 25.0)
    }

    /// Checks the statically checkable constraints (capacity band,
    /// interface, flash type, structural validity). The power budget is
    /// enforced later, at efficiency-validation time.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] found.
    pub fn check_structural(&self, cfg: &SsdConfig) -> Result<(), Violation> {
        if let Err(e) = cfg.validate() {
            return Err(Violation::Invalid(e.to_string()));
        }
        if cfg.interface != self.interface {
            return Err(Violation::Interface);
        }
        if cfg.flash_technology != self.flash_type {
            return Err(Violation::FlashType);
        }
        if cfg.device_family.is_hybrid() != self.family.is_hybrid() {
            return Err(Violation::Family);
        }
        let die_capacity = cfg.physical_capacity_bytes() / cfg.total_dies().max(1);
        if die_capacity < self.min_die_capacity_bytes {
            return Err(Violation::DieTooSmall {
                actual: die_capacity,
            });
        }
        // The user buys usable bytes: hybrid SLC cache blocks store one
        // bit per cell, so the band is judged on the effective capacity
        // (identical to physical for homogeneous devices).
        let actual = cfg.effective_capacity_bytes();
        let lo = (self.capacity_bytes as f64 * (1.0 - CAPACITY_TOLERANCE)) as u64;
        let hi = (self.capacity_bytes as f64 * (1.0 + CAPACITY_TOLERANCE)) as u64;
        if actual < lo || actual > hi {
            return Err(Violation::Capacity {
                actual,
                target: self.capacity_bytes,
            });
        }
        Ok(())
    }

    /// `true` if a measured average power satisfies the budget.
    pub fn check_power(&self, average_power_w: f64) -> bool {
        average_power_w <= self.power_budget_w
    }

    /// Forces the constrained categorical parameters (interface, flash
    /// type, and technology-matched latencies) onto a configuration.
    pub fn pin(&self, cfg: &mut SsdConfig) {
        cfg.interface = self.interface;
        // Pin the family *kind* only: overwriting an already-hybrid
        // candidate would clobber its tuned cache/policy/threshold knobs.
        if cfg.device_family.is_hybrid() != self.family.is_hybrid() {
            cfg.device_family = self.family;
        }
        if cfg.flash_technology != self.flash_type {
            cfg.flash_technology = self.flash_type;
            cfg.read_latency_ns = self.flash_type.base_read_ns();
            cfg.program_latency_ns = self.flash_type.base_program_ns();
            cfg.erase_latency_ns = self.flash_type.base_erase_ns();
        }
    }

    /// Repairs a configuration whose capacity drifted out of band by
    /// re-scaling the dependent layout parameters — the "adjust the values
    /// of other parameters" step of §3.4. Returns `false` if no grid
    /// assignment can reach the band.
    pub fn repair_capacity(&self, space: &ParamSpace, cfg: &mut SsdConfig) -> bool {
        if self.capacity_ok(cfg) {
            return true;
        }
        // Adjust blocks_per_plane first (pure capacity knob), then
        // pages_per_block: pick the grid values closest to the target that
        // keep the die above the manufacturable floor.
        for knob in ["block_no_per_plane", "page_no_per_block"] {
            let Some(p) = space.param(knob) else { continue };
            let mut best: Option<(f64, usize)> = None;
            for idx in 0..p.cardinality() {
                let mut trial = cfg.clone();
                p.set(&mut trial, idx);
                let die_cap = trial.physical_capacity_bytes() / trial.total_dies().max(1);
                let die_penalty = if die_cap < self.min_die_capacity_bytes {
                    // Strongly discourage sub-floor dies, but still pick the
                    // least-bad index when none is feasible.
                    (self.min_die_capacity_bytes - die_cap) as f64 * 1e3
                } else {
                    0.0
                };
                let err = (trial.effective_capacity_bytes() as f64 - self.capacity_bytes as f64)
                    .abs()
                    + die_penalty;
                if best.is_none_or(|(e, _)| err < e) {
                    best = Some((err, idx));
                }
            }
            if let Some((_, idx)) = best {
                p.set(cfg, idx);
            }
            if self.check_structural_layout(cfg) {
                return true;
            }
        }
        self.check_structural_layout(cfg)
    }

    fn capacity_ok(&self, cfg: &SsdConfig) -> bool {
        let actual = cfg.effective_capacity_bytes() as f64;
        let target = self.capacity_bytes as f64;
        actual >= target * (1.0 - CAPACITY_TOLERANCE)
            && actual <= target * (1.0 + CAPACITY_TOLERANCE)
    }

    fn check_structural_layout(&self, cfg: &SsdConfig) -> bool {
        self.capacity_ok(cfg)
            && cfg.physical_capacity_bytes() / cfg.total_dies().max(1)
                >= self.min_die_capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cons_for_default() -> Constraints {
        // Intel 750-like default: 12*5*8*1*512*512*4096 = ~480 GiB.
        let cap_gib = SsdConfig::default().physical_capacity_bytes() >> 30;
        Constraints::new(cap_gib, Interface::Nvme, FlashTechnology::Mlc, 25.0)
    }

    #[test]
    fn default_config_satisfies_matching_constraints() {
        let cons = cons_for_default();
        assert_eq!(cons.check_structural(&SsdConfig::default()), Ok(()));
    }

    #[test]
    fn interface_and_flash_type_enforced() {
        let cons = cons_for_default();
        let sata = SsdConfig {
            interface: Interface::Sata,
            ..SsdConfig::default()
        };
        assert_eq!(cons.check_structural(&sata), Err(Violation::Interface));
        let tlc = SsdConfig {
            flash_technology: FlashTechnology::Tlc,
            ..SsdConfig::default()
        };
        assert_eq!(cons.check_structural(&tlc), Err(Violation::FlashType));
    }

    #[test]
    fn capacity_violation_detected() {
        let cons = cons_for_default();
        let double = SsdConfig {
            channel_count: 24,
            ..SsdConfig::default()
        };
        assert!(matches!(
            cons.check_structural(&double),
            Err(Violation::Capacity { .. })
        ));
    }

    #[test]
    fn invalid_config_reported() {
        let cons = cons_for_default();
        let broken = SsdConfig {
            channel_count: 0,
            ..SsdConfig::default()
        };
        assert!(matches!(
            cons.check_structural(&broken),
            Err(Violation::Invalid(_))
        ));
    }

    #[test]
    fn repair_restores_capacity_after_layout_change() {
        let cons = cons_for_default();
        let space = ParamSpace::new();
        // Doubling pages doubles capacity; repair should re-shrink another
        // knob while honoring the die-capacity floor.
        let mut cfg = SsdConfig {
            pages_per_block: 1024,
            ..SsdConfig::default()
        };
        assert!(cons.repair_capacity(&space, &mut cfg));
        assert_eq!(cons.check_structural(&cfg), Ok(()));
        assert_eq!(cfg.pages_per_block, 1024, "repair must keep the tuned knob");
    }

    #[test]
    fn die_floor_rejects_dust_dies() {
        let cons = cons_for_default();
        // 2560 dies of 64 MiB each: valid capacity math, absurd hardware.
        let cfg = SsdConfig {
            channel_count: 32,
            chips_per_channel: 5,
            dies_per_chip: 16,
            blocks_per_plane: 128,
            pages_per_block: 128,
            page_size_bytes: 16384,
            ..SsdConfig::default()
        };
        assert!(matches!(
            cons.check_structural(&cfg),
            Err(Violation::DieTooSmall { .. })
        ));
    }

    #[test]
    fn repair_cannot_exceed_die_count_physics() {
        let cons = cons_for_default();
        let space = ParamSpace::new();
        // 960 dies x >= 1 GiB > 625 GiB band: genuinely infeasible.
        let mut cfg = SsdConfig {
            channel_count: 24,
            dies_per_chip: 16,
            ..SsdConfig::default()
        };
        assert!(!cons.repair_capacity(&space, &mut cfg));
    }

    #[test]
    fn repair_fails_for_unreachable_capacity() {
        let cons = Constraints::new(4, Interface::Nvme, FlashTechnology::Mlc, 25.0);
        let space = ParamSpace::new();
        let mut cfg = SsdConfig {
            channel_count: 64,
            chips_per_channel: 64,
            ..SsdConfig::default()
        };
        assert!(!cons.repair_capacity(&space, &mut cfg));
    }

    #[test]
    fn power_check() {
        let cons = cons_for_default();
        assert!(cons.check_power(10.0));
        assert!(!cons.check_power(30.0));
    }

    #[test]
    fn family_kind_enforced_and_pinned() {
        use ssdsim::config::MigrationPolicy;
        let hybrid_family = DeviceFamily::HybridSlcCache {
            cache_blocks_pct: 10.0,
            migration_policy: MigrationPolicy::Watermark,
            migration_threshold_pct: 25.0,
        };
        let cons = cons_for_default().with_family(hybrid_family);
        assert_eq!(
            cons.check_structural(&SsdConfig::default()),
            Err(Violation::Family),
            "hybrid constraints must reject homogeneous candidates"
        );
        let hybrid_cfg = SsdConfig {
            device_family: hybrid_family,
            ..SsdConfig::default()
        };
        assert_eq!(
            cons_for_default().check_structural(&hybrid_cfg),
            Err(Violation::Family),
            "homogeneous constraints must reject hybrid candidates"
        );
        // Pinning converts the family *kind* but must not clobber the
        // tuned knob values of an already-hybrid candidate.
        let tuned = DeviceFamily::HybridSlcCache {
            cache_blocks_pct: 30.0,
            migration_policy: MigrationPolicy::Idle,
            migration_threshold_pct: 60.0,
        };
        let mut cfg = SsdConfig {
            device_family: tuned,
            ..SsdConfig::default()
        };
        cons.pin(&mut cfg);
        assert_eq!(cfg.device_family, tuned);
        let mut homo = SsdConfig::default();
        cons.pin(&mut homo);
        assert_eq!(homo.device_family, hybrid_family);
    }

    #[test]
    fn hybrid_capacity_judged_on_effective_bytes() {
        use ssdsim::config::MigrationPolicy;
        // QLC with half the blocks in SLC mode loses 3/8 of the physical
        // bytes: effective capacity 0.625x falls out of the +/-25% band
        // even though the physical capacity is exactly on target.
        let cap_gib = SsdConfig::default().physical_capacity_bytes() >> 30;
        let family = |pct| DeviceFamily::HybridSlcCache {
            cache_blocks_pct: pct,
            migration_policy: MigrationPolicy::Watermark,
            migration_threshold_pct: 25.0,
        };
        let cons = Constraints::new(cap_gib, Interface::Nvme, FlashTechnology::Qlc, 25.0)
            .with_family(family(50.0));
        let big_cache = SsdConfig {
            flash_technology: FlashTechnology::Qlc,
            device_family: family(50.0),
            ..SsdConfig::default()
        };
        assert!(matches!(
            cons.check_structural(&big_cache),
            Err(Violation::Capacity { .. })
        ));
        // A modest cache keeps the effective capacity in band.
        let small_cache = SsdConfig {
            device_family: family(5.0),
            ..big_cache
        };
        assert_eq!(
            cons.with_family(family(5.0)).check_structural(&small_cache),
            Ok(())
        );
    }

    #[test]
    fn pin_sets_technology_latencies() {
        let cons = Constraints::new(512, Interface::Sata, FlashTechnology::Slc, 10.0);
        let mut cfg = SsdConfig::default();
        cons.pin(&mut cfg);
        assert_eq!(cfg.interface, Interface::Sata);
        assert_eq!(cfg.flash_technology, FlashTechnology::Slc);
        assert_eq!(cfg.read_latency_ns, FlashTechnology::Slc.base_read_ns());
    }
}
