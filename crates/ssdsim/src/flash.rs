//! Physical flash state: planes, blocks, page allocation, garbage
//! collection bookkeeping, and the write-striping allocator.

use crate::config::{GcPolicy, MigrationPolicy, SsdConfig};
use blocks::{BlockState, BlockTable};
use serde::{Deserialize, Serialize};

mod blocks;

/// Location of a physical flash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PhysicalLocation {
    /// Channel index.
    pub channel: u32,
    /// Chip (way) index within the channel.
    pub chip: u32,
    /// Die index within the chip.
    pub die: u32,
    /// Plane index within the die.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl PhysicalLocation {
    /// Flat plane index within the whole device.
    pub fn plane_index(&self, cfg: &SsdConfig) -> u32 {
        ((self.channel * cfg.chips_per_channel + self.chip) * cfg.dies_per_chip + self.die)
            * cfg.planes_per_die
            + self.plane
    }
}

/// Per-plane flash bookkeeping: write pointers and free-page counts (the
/// plane's blocks live in [`FlashArray::blocks`]'s table).
///
/// On hybrid devices the first `slc_cache_blocks` blocks form the SLC-mode
/// cache tier with its own active block and write pointer; `active`,
/// `write_ptr`, and `free_pages` always describe the capacity tier (which
/// is the whole plane on homogeneous devices).
#[derive(Debug, Clone)]
struct Plane {
    active: u32,
    write_ptr: u32,
    free_pages: u64,
    /// Pages migrated into the active block by GC (valid on arrival).
    gc_pressure: bool,
    /// Active block of the SLC cache tier (hybrid only).
    cache_active: u32,
    /// Write pointer within the cache active block (hybrid only).
    cache_write_ptr: u32,
    /// Free pages remaining in the SLC cache tier (hybrid only).
    cache_free_pages: u64,
    /// Sealed (`Full`) cache-tier blocks, so a fold looks for a victim only
    /// when there is one (hybrid only).
    sealed_cache_blocks: u32,
    /// Wear spread of the capacity tier, maintained by `erase_block` so the
    /// per-program wear-leveling check reads it instead of walking the plane.
    wear: WearSpread,
}

/// Erase-count extremes over one plane's capacity-tier blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WearSpread {
    min_erases: u16,
    max_erases: u16,
    /// Blocks whose erase count equals `min_erases`; the minimum can only
    /// move when this reaches zero.
    blocks_at_min: u32,
}

/// Statistics accumulated by the flash array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashStats {
    /// Host + internal page programs.
    pub programs: u64,
    /// Programs caused by GC migrations or wear-leveling swaps.
    pub migrated_pages: u64,
    /// Block erases performed.
    pub erases: u64,
    /// GC invocations.
    pub gc_invocations: u64,
    /// Static wear-leveling swaps performed.
    pub wearleveling_swaps: u64,
    /// Pages folded from the SLC cache tier into capacity flash (hybrid
    /// devices only; always zero for homogeneous families).
    #[serde(default)]
    pub slc_migrated_pages: u64,
}

/// One unit of work the flash array asks the timing layer to charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackgroundOp {
    /// Read+program of `pages` valid pages within `plane`, then one erase.
    GcCycle {
        /// Flat plane index.
        plane: u32,
        /// Valid pages migrated.
        pages: u32,
    },
    /// Wear-leveling swap: migrate a whole block and erase two blocks.
    WearLevelSwap {
        /// Flat plane index.
        plane: u32,
        /// Pages moved.
        pages: u32,
    },
    /// SLC-cache fold: read `pages` valid pages out of cache block `block`
    /// at SLC latency, program them into the capacity tier, erase the cache
    /// block. The block index lets the mapping layer relocate folded pages.
    SlcMigration {
        /// Flat plane index.
        plane: u32,
        /// Cache block (within the plane) that was folded.
        block: u32,
        /// Valid pages migrated into the capacity tier.
        pages: u32,
    },
}

/// The device's physical flash array.
///
/// Tracks per-block valid-page counts and erase counts exactly; this is the
/// state garbage collection and wear leveling operate on. Timing is *not*
/// modeled here — the array returns [`BackgroundOp`]s that the simulator
/// charges to its resource timelines.
///
/// A block is stored only once something writes it: until then its state
/// follows from the layout and the warm-up fill, so building, warming and
/// cloning an array cost its per-plane state plus a chunk index of one
/// `u32` per 64 blocks, not one entry per block.
#[derive(Debug, Clone)]
pub struct FlashArray {
    planes: Vec<Plane>,
    /// Every block of every plane; an entry is stored only once something
    /// has written it (see [`blocks`]).
    blocks: BlockTable,
    pages_per_block: u32,
    blocks_per_plane: u32,
    gc_threshold_pages: u64,
    gc_policy: GcPolicy,
    wl_enabled: bool,
    wl_threshold: u32,
    stats: FlashStats,
    stripe: u64,
    dims: [u64; 4],
    order: [usize; 4],
    /// SLC-cache blocks at the start of every plane (0 = homogeneous).
    slc_cache_blocks: u32,
    /// How folded pages leave the cache tier (hybrid only).
    migration_policy: Option<MigrationPolicy>,
    /// Watermark: fold whenever cache free pages drop below this.
    migration_low_pages: u64,
    /// `pseudo_location(cfg, lpn).plane_index(cfg)` for every value of
    /// `splitmix64(lpn) % total_planes`. The four placement digits depend on
    /// the hash only through that remainder, so a lookup pays one 64-bit
    /// division where deriving the digits pays four.
    pseudo_planes: Vec<u32>,
    /// Walks over a plane's capacity-tier blocks so far; the guard against a
    /// per-program walk coming back.
    #[cfg(test)]
    capacity_walks: u64,
    /// Makes the wear-leveling decision from a full scan, as it was before
    /// the spread was tracked: the reference the tracked decision is tested
    /// against.
    #[cfg(test)]
    scan_wear_decision: bool,
}

impl FlashArray {
    /// Builds an empty (fully erased) flash array for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SsdConfig::validate`].
    pub fn new(cfg: &SsdConfig) -> Self {
        cfg.validate().expect("valid configuration");
        let n_planes = cfg.total_planes() as usize;
        let slc_cache_blocks = cfg.slc_cache_blocks_per_plane();
        let cache_pages = u64::from(slc_cache_blocks) * u64::from(cfg.pages_per_block);
        let capacity_pages = cfg.pages_per_plane() - cache_pages;
        let plane = Plane {
            active: slc_cache_blocks,
            write_ptr: 0,
            free_pages: capacity_pages,
            gc_pressure: false,
            cache_active: 0,
            cache_write_ptr: 0,
            cache_free_pages: cache_pages,
            sealed_cache_blocks: 0,
            wear: WearSpread {
                min_erases: 0,
                max_erases: 0,
                blocks_at_min: cfg.blocks_per_plane - slc_cache_blocks,
            },
        };
        let gc_threshold_pages = (capacity_pages as f64 * cfg.gc_threshold).ceil() as u64;
        let migration_policy = match cfg.device_family {
            crate::config::DeviceFamily::Homogeneous => None,
            crate::config::DeviceFamily::HybridSlcCache {
                migration_policy, ..
            } => Some(migration_policy),
        };
        let migration_low_pages = match cfg.device_family {
            crate::config::DeviceFamily::HybridSlcCache {
                migration_threshold_pct,
                ..
            } => (cache_pages as f64 * migration_threshold_pct / 100.0).ceil() as u64,
            crate::config::DeviceFamily::Homogeneous => 0,
        };
        let dims = [
            u64::from(cfg.channel_count),
            u64::from(cfg.chips_per_channel),
            u64::from(cfg.dies_per_chip),
            u64::from(cfg.planes_per_die),
        ];
        let [channels, chips, dies, planes_per_die] = dims.map(|dim| dim as usize);
        let mut pseudo_planes = vec![0u32; n_planes];
        let mut plane_index = 0;
        for channel in 0..channels {
            for chip in 0..chips {
                for die in 0..dies {
                    for plane in 0..planes_per_die {
                        // The remainder whose mixed-radix digits, least
                        // significant first, are (channel, chip, die, plane).
                        let remainder = channel + channels * (chip + chips * (die + dies * plane));
                        pseudo_planes[remainder] = plane_index;
                        plane_index += 1;
                    }
                }
            }
        }
        FlashArray {
            pseudo_planes,
            planes: vec![plane; n_planes],
            blocks: BlockTable::new(
                n_planes,
                cfg.blocks_per_plane,
                slc_cache_blocks,
                cfg.pages_per_block,
            ),
            pages_per_block: cfg.pages_per_block,
            blocks_per_plane: cfg.blocks_per_plane,
            gc_threshold_pages,
            gc_policy: cfg.gc_policy,
            wl_enabled: cfg.static_wearleveling_enabled,
            wl_threshold: cfg.static_wearleveling_threshold.max(1),
            stats: FlashStats::default(),
            stripe: 0,
            dims,
            order: cfg.plane_allocation_scheme.order(),
            slc_cache_blocks,
            migration_policy,
            migration_low_pages,
            #[cfg(test)]
            capacity_walks: 0,
            #[cfg(test)]
            scan_wear_decision: false,
        }
    }

    /// The array as it was before its block table could leave an entry
    /// implicit: every block stored from the start, so warm-up writes each
    /// one. The reference the lazy table is tested against.
    #[cfg(test)]
    pub(crate) fn eager(cfg: &SsdConfig) -> Self {
        let mut fa = Self::new(cfg);
        fa.blocks.store_all();
        fa
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FlashStats {
        self.stats
    }

    /// Number of planes.
    pub fn plane_count(&self) -> usize {
        self.planes.len()
    }

    /// Flat plane index of [`pseudo_location`] for `lpn`: where a logical
    /// page that was never written during simulation is taken to reside.
    #[inline]
    pub fn pseudo_plane(&self, lpn: u64) -> u32 {
        self.pseudo_planes[(splitmix64(lpn) % self.pseudo_planes.len() as u64) as usize]
    }

    /// Free pages remaining in a plane's capacity tier (the whole plane on
    /// homogeneous devices).
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub fn free_pages(&self, plane: u32) -> u64 {
        self.planes[plane as usize].free_pages
    }

    /// Free pages remaining in a plane's SLC cache tier (0 when homogeneous).
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub fn cache_free_pages(&self, plane: u32) -> u64 {
        self.planes[plane as usize].cache_free_pages
    }

    /// SLC-cache blocks per plane (0 when homogeneous).
    pub fn slc_cache_blocks(&self) -> u32 {
        self.slc_cache_blocks
    }

    /// Indices of a plane's capacity-tier blocks.
    fn capacity_tier(&self) -> std::ops::Range<usize> {
        self.slc_cache_blocks as usize..self.blocks_per_plane as usize
    }

    /// The first of the `Full` blocks of `range` in `pidx` with the fewest
    /// valid pages: the greedy GC victim and the fold victim. A plain loop:
    /// `min_by_key` over the table's chunked walk measured 2–4× slower on
    /// the small GC and fold devices, where this runs every few programs.
    fn emptiest_full_block(&mut self, pidx: usize, range: std::ops::Range<usize>) -> Option<usize> {
        let mut emptiest: Option<(u16, usize)> = None;
        for (i, b) in self.blocks.walk(pidx, range) {
            if b.state == BlockState::Full && emptiest.is_none_or(|(valid, _)| b.valid < valid) {
                emptiest = Some((b.valid, i));
            }
        }
        emptiest.map(|(_, i)| i)
    }

    /// Marks one walk over a plane's capacity-tier blocks (counted in unit
    /// tests only).
    #[inline]
    fn note_capacity_walk(&mut self) {
        #[cfg(test)]
        {
            self.capacity_walks += 1;
        }
    }

    /// Valid pages currently stored in a plane, both tiers.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub fn valid_pages(&self, plane: u32) -> u64 {
        (0..self.blocks_per_plane as usize)
            .map(|b| u64::from(self.blocks.get(plane as usize, b).valid))
            .sum()
    }

    /// Pre-fills the array so that only `1 - fill_fraction` of each plane's
    /// pages remain free, modeling the paper's warm-up ("occupy at least 50%
    /// of the storage capacity"): every `Free` block among the first
    /// `floor(fill × capacity-tier blocks)` of a plane's capacity tier
    /// becomes `Full`. Valid densities vary deterministically per block so
    /// greedy GC has meaningful choices.
    ///
    /// The warm state is a function of the layout, so on an array nothing
    /// has written this stores no block and costs O(planes + chunk index);
    /// blocks the run has already written are filled one by one, with the
    /// same result.
    pub fn warm_up(&mut self, fill_fraction: f64) {
        let fill = fill_fraction.clamp(0.0, 0.95);
        let ppb = u64::from(self.pages_per_block);
        // Warm-up data is cold by definition: it lives in the capacity tier.
        let tier_blocks = self.blocks_per_plane - self.slc_cache_blocks;
        let target_blocks = (fill * f64::from(tier_blocks)).floor() as usize;
        let planes = &mut self.planes;
        self.blocks.warm_up(target_blocks, |pidx, filled| {
            let plane = &mut planes[pidx];
            plane.free_pages = plane.free_pages.saturating_sub(filled * ppb);
        });
    }

    /// Chooses the plane the next host write stripes to, per the
    /// plane-allocation scheme, and advances the stripe pointer.
    pub fn next_write_plane(&mut self) -> u32 {
        let k = self.stripe;
        self.stripe = self.stripe.wrapping_add(1);
        let mut coords = [0u64; 4]; // channel, way, die, plane
        let mut rem = k;
        for &dim in &self.order {
            coords[dim] = rem % self.dims[dim];
            rem /= self.dims[dim];
        }
        // Wrap the slowest dimension.
        let slowest = self.order[3];
        coords[slowest] %= self.dims[slowest];
        let (c, w, d, p) = (coords[0], coords[1], coords[2], coords[3]);
        (((c * self.dims[1] + w) * self.dims[2] + d) * self.dims[3] + p) as u32
    }

    /// Programs one page into `plane`, returning the block and page indices
    /// plus any background work that became necessary (GC, wear leveling,
    /// SLC-cache folds).
    ///
    /// On homogeneous devices the page lands in the plane's active block;
    /// on hybrid devices every host/foreground program lands in the SLC
    /// cache tier and the configured migration policy decides when sealed
    /// cache blocks fold into capacity flash.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub fn program_page(&mut self, plane: u32) -> (u32, u32, Vec<BackgroundOp>) {
        if self.slc_cache_blocks > 0 {
            self.program_cache_page(plane)
        } else {
            self.program_capacity_page(plane)
        }
    }

    /// Programs one page into the SLC cache tier and runs migration policy.
    fn program_cache_page(&mut self, plane: u32) -> (u32, u32, Vec<BackgroundOp>) {
        let mut ops = Vec::new();
        let ppb = self.pages_per_block;
        let pidx = plane as usize;

        if self.planes[pidx].cache_write_ptr >= ppb {
            self.seal_cache_active(pidx);
            if !self.open_new_cache_active(pidx) {
                // Every cache block is sealed: fold one now to make room.
                self.fold_cache_block(plane, &mut ops);
                let opened = self.open_new_cache_active(pidx);
                debug_assert!(opened, "fold must free a cache block");
            }
        }

        let plane_ref = &mut self.planes[pidx];
        let block = plane_ref.cache_active;
        let page = plane_ref.cache_write_ptr;
        plane_ref.cache_write_ptr += 1;
        plane_ref.cache_free_pages = plane_ref.cache_free_pages.saturating_sub(1);
        self.blocks.get_mut(pidx, block as usize).valid += 1;
        self.stats.programs += 1;

        match self.migration_policy {
            // Trickle: fold one sealed block per host program when one
            // exists (deterministic stand-in for idle-window migration).
            Some(MigrationPolicy::Idle) => {
                self.fold_cache_block(plane, &mut ops);
            }
            // Burst: fold only once the cache runs low, until it recovers.
            Some(MigrationPolicy::Watermark) => {
                while self.planes[pidx].cache_free_pages < self.migration_low_pages {
                    if !self.fold_cache_block(plane, &mut ops) {
                        break;
                    }
                }
            }
            None => {}
        }
        if self.wl_enabled {
            if let Some(op) = self.maybe_wear_level(plane) {
                ops.push(op);
            }
        }
        (block, page, ops)
    }

    /// Folds the fullest-invalid sealed cache block of `plane` into the
    /// capacity tier: programs its valid pages there (triggering capacity
    /// GC if needed), erases the cache block, and records the op. Returns
    /// `false` when no sealed cache block exists.
    fn fold_cache_block(&mut self, plane: u32, ops: &mut Vec<BackgroundOp>) -> bool {
        let pidx = plane as usize;
        if self.planes[pidx].sealed_cache_blocks == 0 {
            return false;
        }
        let cache = self.slc_cache_blocks as usize;
        let victim = self
            .emptiest_full_block(pidx, 0..cache)
            .expect("a sealed cache block is full");
        let valid = self.blocks.get(pidx, victim).valid;
        // Program the folded pages into the capacity tier.
        let mut moved = 0u16;
        while moved < valid {
            if self.planes[pidx].write_ptr >= self.pages_per_block {
                self.reopen_active(plane, ops);
            }
            moved += self.land_in_open_block(pidx, valid - moved);
        }
        // Erase the folded cache block.
        self.erase_block(pidx, victim);
        self.planes[pidx].sealed_cache_blocks -= 1;
        self.planes[pidx].cache_free_pages += u64::from(self.pages_per_block);
        self.stats.slc_migrated_pages += u64::from(moved);
        ops.push(BackgroundOp::SlcMigration {
            plane,
            block: victim as u32,
            pages: u32::from(moved),
        });
        // Folding consumed capacity pages; keep the capacity tier's GC honest.
        if self.planes[pidx].free_pages < self.gc_threshold_pages {
            if let Some(op) = self.collect_garbage(plane) {
                ops.push(op);
            }
        }
        true
    }

    fn seal_cache_active(&mut self, pidx: usize) {
        let active = self.planes[pidx].cache_active as usize;
        self.blocks.get_mut(pidx, active).state = BlockState::Full;
        self.planes[pidx].sealed_cache_blocks += 1;
    }

    fn open_new_cache_active(&mut self, pidx: usize) -> bool {
        let cache = self.slc_cache_blocks as usize;
        if let Some(idx) = self.blocks.first_free(pidx, 0..cache) {
            self.blocks.get_mut(pidx, idx).state = BlockState::Active;
            let plane = &mut self.planes[pidx];
            plane.cache_active = idx as u32;
            plane.cache_write_ptr = 0;
            true
        } else {
            false
        }
    }

    /// Programs one page into `plane`'s capacity-tier active block.
    fn program_capacity_page(&mut self, plane: u32) -> (u32, u32, Vec<BackgroundOp>) {
        let mut ops = Vec::new();
        let ppb = self.pages_per_block;
        let pidx = plane as usize;

        // Ensure the active block has room.
        if self.planes[pidx].write_ptr >= ppb {
            self.reopen_active(plane, &mut ops);
        }

        let block = self.planes[pidx].active;
        let page = self.planes[pidx].write_ptr;
        self.land_pages_in_active(pidx, 1);
        self.stats.programs += 1;

        // Trigger GC when the plane dips below the threshold.
        if self.planes[pidx].free_pages < self.gc_threshold_pages && !self.planes[pidx].gc_pressure
        {
            self.planes[pidx].gc_pressure = true;
            if let Some(op) = self.collect_garbage(plane) {
                ops.push(op);
            }
            self.planes[pidx].gc_pressure = false;
        }
        if self.wl_enabled {
            if let Some(op) = self.maybe_wear_level(plane) {
                ops.push(op);
            }
        }
        (block, page, ops)
    }

    /// Invalidates one previously valid page in `plane`/`block` (the old
    /// copy of an overwritten logical page).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn invalidate(&mut self, plane: u32, block: u32) {
        let b = self.blocks.get_mut(plane as usize, block as usize);
        if b.valid > 0 {
            b.valid -= 1;
        }
    }

    /// Invalidates one page "somewhere" in the plane: used when the old
    /// copy's exact block is unknown (warm-up resident data). Prefers the
    /// fullest block so overwrite-heavy workloads create cheap GC victims.
    pub fn invalidate_somewhere(&mut self, plane: u32, hint: u64) {
        let pidx = plane as usize;
        // Resident-but-untracked data is cold: it lives in the capacity tier.
        let tier = self.capacity_tier();
        let n = tier.len();
        // Probe a few hashed positions, decrement the first full block.
        for probe in 0..8 {
            let idx = tier.start + (splitmix64(hint.wrapping_add(probe)) % n as u64) as usize;
            if self.blocks.invalidate_if_full(pidx, idx) {
                return;
            }
        }
    }

    /// Seals `plane`'s full capacity-tier active block and opens a fresh
    /// one, running a GC cycle first when no block is free. That cycle
    /// always frees one: it erases its victim, and the block just sealed is
    /// a candidate.
    fn reopen_active(&mut self, plane: u32, ops: &mut Vec<BackgroundOp>) {
        let pidx = plane as usize;
        self.seal_active(pidx);
        if !self.open_new_active(pidx) {
            let op = self
                .collect_garbage(plane)
                .expect("the block just sealed is a GC candidate");
            ops.push(op);
            let opened = self.open_new_active(pidx);
            debug_assert!(opened, "a GC cycle erases its victim");
        }
    }

    fn seal_active(&mut self, pidx: usize) {
        let active = self.planes[pidx].active as usize;
        self.blocks.get_mut(pidx, active).state = BlockState::Full;
    }

    fn open_new_active(&mut self, pidx: usize) -> bool {
        self.note_capacity_walk();
        if let Some(free_idx) = self.blocks.first_free(pidx, self.capacity_tier()) {
            self.blocks.get_mut(pidx, free_idx).state = BlockState::Active;
            let plane = &mut self.planes[pidx];
            plane.active = free_idx as u32;
            plane.write_ptr = 0;
            true
        } else {
            false
        }
    }

    /// Accounts for `pages` pages landing in `pidx`'s capacity-tier active
    /// block.
    fn land_pages_in_active(&mut self, pidx: usize, pages: u16) {
        let plane = &mut self.planes[pidx];
        let active = plane.active as usize;
        plane.write_ptr += u32::from(pages);
        plane.free_pages = plane.free_pages.saturating_sub(u64::from(pages));
        self.blocks.get_mut(pidx, active).valid += pages;
    }

    /// Lands as many of `pages` migrated pages as `pidx`'s active block,
    /// which has room, can take, and returns how many: a migration lands a
    /// block's worth per step, not one page per step.
    fn land_in_open_block(&mut self, pidx: usize, pages: u16) -> u16 {
        let room = self.pages_per_block - self.planes[pidx].write_ptr;
        // `room <= pages_per_block <= u16::MAX`.
        let landed = u32::from(pages).min(room) as u16;
        self.land_pages_in_active(pidx, landed);
        landed
    }

    /// Erases one block: no valid data, one more erase cycle, free again.
    fn erase_block(&mut self, pidx: usize, block: usize) {
        let b = self.blocks.get_mut(pidx, block);
        let before = b.erases;
        let after = before.saturating_add(1);
        b.valid = 0;
        b.erases = after;
        b.state = BlockState::Free;
        self.stats.erases += 1;
        if block >= self.slc_cache_blocks as usize && after != before {
            self.track_capacity_erase(pidx, before, after);
        }
    }

    /// Keeps `Plane::wear` equal to what a scan of the capacity tier would
    /// find after one of its blocks went from `before` to `after` erases.
    fn track_capacity_erase(&mut self, pidx: usize, before: u16, after: u16) {
        let wear = &mut self.planes[pidx].wear;
        wear.max_erases = wear.max_erases.max(after);
        if before == wear.min_erases {
            wear.blocks_at_min -= 1;
            if wear.blocks_at_min == 0 {
                // The last block at the minimum left it: only now can the
                // minimum have moved, and only a walk finds its new count.
                self.note_capacity_walk();
                self.planes[pidx].wear = self.scan_wear_spread(pidx);
            }
        }
        debug_assert_eq!(self.planes[pidx].wear, self.scan_wear_spread(pidx));
    }

    /// Erase-count extremes of `pidx`'s capacity tier by walking it.
    fn scan_wear_spread(&self, pidx: usize) -> WearSpread {
        let mut spread = WearSpread {
            min_erases: u16::MAX,
            max_erases: 0,
            blocks_at_min: 0,
        };
        for b in self.capacity_tier().map(|b| self.blocks.get(pidx, b)) {
            spread.max_erases = spread.max_erases.max(b.erases);
            if b.erases < spread.min_erases {
                spread.min_erases = b.erases;
                spread.blocks_at_min = 0;
            }
            if b.erases == spread.min_erases {
                spread.blocks_at_min += 1;
            }
        }
        spread
    }

    /// Runs one GC cycle on `plane`: select a victim, account for the
    /// migration of its valid pages into the active block, erase it.
    fn collect_garbage(&mut self, plane: u32) -> Option<BackgroundOp> {
        self.note_capacity_walk();
        let pidx = plane as usize;
        let tier = self.capacity_tier();
        let victim = match self.gc_policy {
            GcPolicy::Greedy => self.emptiest_full_block(pidx, tier),
            GcPolicy::Random => {
                let candidates: Vec<usize> = self
                    .blocks
                    .walk(pidx, tier)
                    .filter(|(_, b)| b.state == BlockState::Full)
                    .map(|(i, _)| i)
                    .collect();
                if candidates.is_empty() {
                    None
                } else {
                    let h = splitmix64(self.stats.gc_invocations ^ u64::from(plane));
                    Some(candidates[(h % candidates.len() as u64) as usize])
                }
            }
        }?;
        let valid = self.blocks.get(pidx, victim).valid;
        // Migrate valid pages: program them into the active block.
        let mut moved = 0u16;
        while moved < valid {
            // Migration consumes free pages in the same plane; we inline a
            // simplified program that cannot recursively trigger GC.
            if self.planes[pidx].write_ptr >= self.pages_per_block {
                self.seal_active(pidx);
                if !self.open_new_active(pidx) {
                    break;
                }
            }
            moved += self.land_in_open_block(pidx, valid - moved);
        }
        // Erase the victim.
        self.erase_block(pidx, victim);
        self.planes[pidx].free_pages += u64::from(self.pages_per_block);
        self.stats.gc_invocations += 1;
        self.stats.migrated_pages += u64::from(moved);
        Some(BackgroundOp::GcCycle {
            plane,
            pages: u32::from(moved),
        })
    }

    fn maybe_wear_level(&mut self, plane: u32) -> Option<BackgroundOp> {
        let pidx = plane as usize;
        // Wear leveling balances the capacity tier only: cache blocks cycle
        // orders of magnitude faster by design (and SLC endures it).
        let wear = self.wear_spread(pidx);
        if u32::from(wear.max_erases.saturating_sub(wear.min_erases)) <= self.wl_threshold {
            return None;
        }
        // Swap: migrate the coldest (min-erase) block's data and erase it so
        // future hot writes land there.
        self.note_capacity_walk();
        let tier = self.capacity_tier();
        let (cold, pages) = self
            .blocks
            .walk(pidx, tier)
            .find(|(_, b)| b.erases == wear.min_erases && b.state == BlockState::Full)
            .map(|(i, b)| (i, b.valid))?;
        self.erase_block(pidx, cold);
        self.planes[pidx].free_pages += u64::from(self.pages_per_block);
        self.stats.wearleveling_swaps += 1;
        self.stats.migrated_pages += u64::from(pages);
        Some(BackgroundOp::WearLevelSwap {
            plane,
            pages: u32::from(pages),
        })
    }

    /// The capacity-tier wear spread the wear-leveling decision reads.
    #[inline]
    fn wear_spread(&self, pidx: usize) -> WearSpread {
        #[cfg(test)]
        if self.scan_wear_decision {
            return self.scan_wear_spread(pidx);
        }
        self.planes[pidx].wear
    }

    /// Spread between the most- and least-erased block across the device.
    pub fn erase_spread(&self) -> u32 {
        let mut min_e = u16::MAX;
        let mut max_e = 0u16;
        for pidx in 0..self.planes.len() {
            for b in (0..self.blocks_per_plane as usize).map(|b| self.blocks.get(pidx, b)) {
                min_e = min_e.min(b.erases);
                max_e = max_e.max(b.erases);
            }
        }
        if min_e == u16::MAX {
            0
        } else {
            u32::from(max_e - min_e)
        }
    }
}

/// Deterministic 64-bit mixer (SplitMix64) for pseudo-placement decisions.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Computes a deterministic pseudo physical location for a logical page
/// that has never been written during simulation (warm-up resident data).
pub fn pseudo_location(cfg: &SsdConfig, lpn: u64) -> PhysicalLocation {
    let h = splitmix64(lpn);
    let channel = (h % u64::from(cfg.channel_count)) as u32;
    let h = h / u64::from(cfg.channel_count);
    let chip = (h % u64::from(cfg.chips_per_channel)) as u32;
    let h = h / u64::from(cfg.chips_per_channel);
    let die = (h % u64::from(cfg.dies_per_chip)) as u32;
    let h = h / u64::from(cfg.dies_per_chip);
    let plane = (h % u64::from(cfg.planes_per_die)) as u32;
    let h2 = splitmix64(lpn ^ 0xABCD_EF01);
    PhysicalLocation {
        channel,
        chip,
        die,
        plane,
        block: (h2 % u64::from(cfg.blocks_per_plane)) as u32,
        page: ((h2 >> 32) % u64::from(cfg.pages_per_block)) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SsdConfig {
        SsdConfig {
            channel_count: 2,
            chips_per_channel: 2,
            dies_per_chip: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 16,
            gc_threshold: 0.2,
            gc_hard_threshold: 0.05,
            static_wearleveling_threshold: 4,
            ..SsdConfig::default()
        }
    }

    #[test]
    fn striping_cwdp_rotates_channels_first() {
        let mut fa = FlashArray::new(&tiny_cfg());
        // CWDP: channel varies fastest. Plane layout: ((c*2+w)*1+d)*1+p.
        let p0 = fa.next_write_plane();
        let p1 = fa.next_write_plane();
        // Consecutive writes land on different channels.
        let cfg = tiny_cfg();
        let ch0 = p0 / (cfg.chips_per_channel * cfg.dies_per_chip * cfg.planes_per_die);
        let ch1 = p1 / (cfg.chips_per_channel * cfg.dies_per_chip * cfg.planes_per_die);
        assert_ne!(ch0, ch1);
    }

    #[test]
    fn striping_visits_all_planes() {
        let cfg = tiny_cfg();
        let mut fa = FlashArray::new(&cfg);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..cfg.total_planes() {
            seen.insert(fa.next_write_plane());
        }
        assert_eq!(seen.len() as u64, cfg.total_planes());
    }

    #[test]
    fn program_decrements_free_pages() {
        let cfg = tiny_cfg();
        let mut fa = FlashArray::new(&cfg);
        let before = fa.free_pages(0);
        let (_, _, ops) = fa.program_page(0);
        assert!(ops.is_empty());
        assert_eq!(fa.free_pages(0), before - 1);
        assert_eq!(fa.stats().programs, 1);
    }

    #[test]
    fn filling_plane_triggers_gc() {
        let cfg = tiny_cfg();
        let mut fa = FlashArray::new(&cfg);
        let total = cfg.pages_per_plane();
        let mut saw_gc = false;
        for i in 0..(total * 2) {
            let (block, _, ops) = fa.program_page(0);
            // Immediately invalidate what we wrote so GC victims are cheap.
            fa.invalidate(0, block);
            if ops
                .iter()
                .any(|op| matches!(op, BackgroundOp::GcCycle { .. }))
            {
                saw_gc = true;
            }
            if i > total && saw_gc {
                break;
            }
        }
        assert!(saw_gc, "GC should trigger under sustained overwrites");
        assert!(fa.stats().erases > 0);
    }

    #[test]
    fn greedy_gc_prefers_invalid_blocks() {
        let cfg = SsdConfig {
            gc_policy: GcPolicy::Greedy,
            ..tiny_cfg()
        };
        let mut fa = FlashArray::new(&cfg);
        // Fill the plane with alternating fully-valid and fully-invalid blocks.
        let total = cfg.pages_per_plane();
        for i in 0..total {
            let (block, _, _) = fa.program_page(0);
            if (i / u64::from(cfg.pages_per_block)) % 2 == 0 {
                fa.invalidate(0, block);
            }
        }
        let migrated_before = fa.stats().migrated_pages;
        // Next program must trigger GC on a cheap (half-invalid) victim.
        let (_, _, _ops) = fa.program_page(0);
        let migrated = fa.stats().migrated_pages - migrated_before;
        // Greedy victim has at most half its pages valid.
        assert!(
            migrated <= u64::from(cfg.pages_per_block),
            "greedy GC migrated {migrated} pages"
        );
    }

    #[test]
    fn warm_up_reduces_free_pages() {
        let cfg = tiny_cfg();
        let mut fa = FlashArray::new(&cfg);
        fa.warm_up(0.5);
        let pp = cfg.pages_per_plane();
        for p in 0..cfg.total_planes() as u32 {
            assert!(fa.free_pages(p) < pp);
            assert!(fa.free_pages(p) >= pp / 4);
        }
    }

    #[test]
    fn invalidate_somewhere_targets_full_blocks() {
        let cfg = tiny_cfg();
        let mut fa = FlashArray::new(&cfg);
        fa.warm_up(0.6);
        // Must not panic and should not change free pages.
        let before = fa.free_pages(0);
        fa.invalidate_somewhere(0, 42);
        assert_eq!(fa.free_pages(0), before);
    }

    #[test]
    fn pseudo_location_is_deterministic_and_in_range() {
        let cfg = tiny_cfg();
        for lpn in 0..1000 {
            let a = pseudo_location(&cfg, lpn);
            let b = pseudo_location(&cfg, lpn);
            assert_eq!(a, b);
            assert!(a.channel < cfg.channel_count);
            assert!(a.chip < cfg.chips_per_channel);
            assert!(a.die < cfg.dies_per_chip);
            assert!(a.plane < cfg.planes_per_die);
            assert!(a.block < cfg.blocks_per_plane);
            assert!(a.page < cfg.pages_per_block);
            assert!(a.plane_index(&cfg) < cfg.total_planes() as u32);
        }
    }

    #[test]
    fn pseudo_plane_table_matches_pseudo_location() {
        let cfg = SsdConfig {
            chips_per_channel: 3,
            dies_per_chip: 2,
            planes_per_die: 4,
            ..tiny_cfg()
        };
        let fa = FlashArray::new(&cfg);
        for lpn in (0..5_000).chain(u64::MAX - 5_000..=u64::MAX) {
            assert_eq!(
                fa.pseudo_plane(lpn),
                pseudo_location(&cfg, lpn).plane_index(&cfg),
                "lpn {lpn}"
            );
        }
    }

    #[test]
    fn pseudo_location_spreads_across_channels() {
        let cfg = tiny_cfg();
        let mut seen = std::collections::HashSet::new();
        for lpn in 0..64 {
            seen.insert(pseudo_location(&cfg, lpn).channel);
        }
        assert_eq!(seen.len() as u32, cfg.channel_count);
    }

    #[test]
    fn wear_leveling_triggers_on_spread() {
        let cfg = SsdConfig {
            static_wearleveling_enabled: true,
            static_wearleveling_threshold: 2,
            gc_threshold: 0.3,
            ..tiny_cfg()
        };
        let mut fa = FlashArray::new(&cfg);
        // Hammer one plane with overwrites to build up erase spread.
        for _ in 0..(cfg.pages_per_plane() * 6) {
            let (block, _, _) = fa.program_page(0);
            fa.invalidate(0, block);
        }
        assert!(
            fa.stats().wearleveling_swaps > 0 || fa.erase_spread() <= 2,
            "wear leveling should bound the erase spread"
        );
    }

    #[test]
    fn hybrid_programs_land_in_cache_and_fold() {
        use crate::config::{DeviceFamily, MigrationPolicy};
        let cfg = SsdConfig {
            device_family: DeviceFamily::HybridSlcCache {
                cache_blocks_pct: 20.0,
                migration_policy: MigrationPolicy::Idle,
                migration_threshold_pct: 25.0,
            },
            ..tiny_cfg()
        };
        let mut fa = FlashArray::new(&cfg);
        let cache = fa.slc_cache_blocks();
        assert!(cache >= 1);
        assert_eq!(
            fa.cache_free_pages(0),
            u64::from(cache * cfg.pages_per_block)
        );
        let mut folded = false;
        for _ in 0..(cfg.pages_per_plane() * 2) {
            let (block, _page, ops) = fa.program_page(0);
            // Host writes always land in the SLC cache tier.
            assert!(block < cache, "host program hit capacity block {block}");
            if ops
                .iter()
                .any(|op| matches!(op, BackgroundOp::SlcMigration { .. }))
            {
                folded = true;
            }
        }
        assert!(folded, "idle policy must fold sealed cache blocks");
        assert!(fa.stats().slc_migrated_pages > 0);
    }

    #[test]
    fn hybrid_watermark_defers_folds_until_low() {
        use crate::config::{DeviceFamily, MigrationPolicy};
        let cfg = SsdConfig {
            device_family: DeviceFamily::HybridSlcCache {
                cache_blocks_pct: 40.0,
                migration_policy: MigrationPolicy::Watermark,
                migration_threshold_pct: 30.0,
            },
            ..tiny_cfg()
        };
        let mut fa = FlashArray::new(&cfg);
        let cache_pages = u64::from(fa.slc_cache_blocks()) * u64::from(cfg.pages_per_block);
        // Writing a fraction of the cache stays above the watermark: no fold.
        for _ in 0..(cache_pages / 2) {
            let (_, _, ops) = fa.program_page(0);
            assert!(
                !ops.iter()
                    .any(|op| matches!(op, BackgroundOp::SlcMigration { .. })),
                "watermark policy folded while the cache was still high"
            );
        }
        // Filling past the watermark must eventually fold.
        for _ in 0..cache_pages {
            let _ = fa.program_page(0);
        }
        assert!(fa.stats().slc_migrated_pages > 0);
    }

    /// One array and its two references, driven in lock step: `scanned`
    /// decides wear leveling by walking the plane on every program, and
    /// `eager` stores every block from the start, as the array did before
    /// its table could leave an entry implicit.
    struct Twins {
        tracked: FlashArray,
        scanned: FlashArray,
        eager: FlashArray,
        written: Vec<(u32, u32)>,
    }

    impl Twins {
        fn new(cfg: &SsdConfig) -> Self {
            let tracked = FlashArray::new(cfg);
            let mut scanned = tracked.clone();
            scanned.scan_wear_decision = true;
            Twins {
                tracked,
                scanned,
                eager: FlashArray::eager(cfg),
                written: Vec::new(),
            }
        }

        fn warm_up(&mut self, fill: f64) {
            for fa in [&mut self.tracked, &mut self.scanned, &mut self.eager] {
                fa.warm_up(fill);
            }
            self.check(&format!("warm-up to {fill}"));
        }

        /// One operation picked by `word`: program, invalidate a page
        /// written earlier, or invalidate a page of warm-up data.
        fn step(&mut self, word: u64, at: &str) {
            let plane = (word % self.tracked.plane_count() as u64) as u32;
            let pick = word >> 8;
            match (word >> 4) % 8 {
                6 if !self.written.is_empty() => {
                    let n = self.written.len() as u64;
                    let (plane, block) = self.written.swap_remove((pick % n) as usize);
                    for fa in [&mut self.tracked, &mut self.scanned, &mut self.eager] {
                        fa.invalidate(plane, block);
                    }
                }
                7 => {
                    for fa in [&mut self.tracked, &mut self.scanned, &mut self.eager] {
                        fa.invalidate_somewhere(plane, pick);
                    }
                }
                _ => {
                    let got = self.tracked.program_page(plane);
                    assert_eq!(got, self.scanned.program_page(plane), "{at}");
                    assert_eq!(got, self.eager.program_page(plane), "{at}");
                    self.written.push((plane, got.0));
                }
            }
            self.check(at);
        }

        /// Every plane's tracked wear spread equals a walk over its blocks,
        /// and every public reading of the array equals both references'.
        fn check(&self, at: &str) {
            let fa = &self.tracked;
            assert_eq!(fa.stats(), self.scanned.stats(), "{at}");
            assert_eq!(fa.stats(), self.eager.stats(), "{at}");
            assert_eq!(fa.erase_spread(), self.eager.erase_spread(), "{at}");
            for pidx in 0..fa.plane_count() {
                let p = pidx as u32;
                assert_eq!(fa.planes[pidx].wear, fa.scan_wear_spread(pidx), "{at}");
                let sealed = (0..fa.slc_cache_blocks as usize)
                    .filter(|&b| fa.blocks.get(pidx, b).state == BlockState::Full)
                    .count();
                assert_eq!(fa.planes[pidx].sealed_cache_blocks as usize, sealed, "{at}");
                for reference in [&self.scanned, &self.eager] {
                    assert_eq!(fa.free_pages(p), reference.free_pages(p), "{at}");
                    assert_eq!(fa.cache_free_pages(p), reference.cache_free_pages(p));
                    assert_eq!(fa.valid_pages(p), reference.valid_pages(p), "{at}");
                }
            }
        }
    }

    /// Drives one array through `steps` (each word picks an operation and its
    /// operands) and checks after every step that every plane's tracked wear
    /// spread equals a walk over its blocks, and that the array behaves — in
    /// returned locations, background ops, statistics, free and valid pages
    /// and erase spread — exactly like a twin whose wear-leveling decision
    /// walks the plane on every program and like a twin that stores every
    /// block. Returns the final statistics, which say what the sequence
    /// exercised.
    fn check_wear_bookkeeping(cfg: &SsdConfig, fill: f64, steps: &[u64]) -> FlashStats {
        let mut twins = Twins::new(cfg);
        twins.warm_up(fill);
        for (i, &word) in steps.iter().enumerate() {
            twins.step(word, &format!("step {i}"));
        }
        twins.tracked.stats()
    }

    /// A tiny device of one of the three data paths (`family` 0 =
    /// homogeneous, 1 = hybrid/Idle, 2 = hybrid/Watermark) whose wear
    /// leveling fires at a spread of `wl_threshold`.
    fn wear_cfg(family: u8, planes: u32, blocks: u32, pages: u32, wl_threshold: u32) -> SsdConfig {
        use crate::config::{DeviceFamily, FlashTechnology, MigrationPolicy};
        let hybrid = |migration_policy| DeviceFamily::HybridSlcCache {
            cache_blocks_pct: 25.0,
            migration_policy,
            migration_threshold_pct: 30.0,
        };
        SsdConfig {
            channel_count: planes,
            chips_per_channel: 1,
            blocks_per_plane: blocks,
            pages_per_block: pages,
            flash_technology: FlashTechnology::Qlc,
            device_family: match family {
                0 => DeviceFamily::Homogeneous,
                1 => hybrid(MigrationPolicy::Idle),
                _ => hybrid(MigrationPolicy::Watermark),
            },
            static_wearleveling_threshold: wl_threshold,
            ..tiny_cfg()
        }
    }

    #[test]
    fn wear_bookkeeping_cases_reach_swaps_gc_and_folds() {
        // The generator region of the proptest below, walked deterministically
        // so the paths it is meant to cover are shown to be covered.
        let (mut gc_cycles, mut swaps, mut folded_pages) = (0, 0, 0);
        for family in 0..3u8 {
            for fill in [0.0, 0.5, 0.9] {
                for gc_policy in [GcPolicy::Greedy, GcPolicy::Random] {
                    let cfg = SsdConfig {
                        gc_policy,
                        ..wear_cfg(family, 2, 8, 4, 1 + u32::from(family))
                    };
                    let steps: Vec<u64> = (0..1_500u64)
                        .map(|i| splitmix64(i ^ u64::from(family) << 32))
                        .collect();
                    let stats = check_wear_bookkeeping(&cfg, fill, &steps);
                    gc_cycles += stats.gc_invocations;
                    swaps += stats.wearleveling_swaps;
                    folded_pages += stats.slc_migrated_pages;
                }
            }
        }
        assert!(gc_cycles > 0 && swaps > 0 && folded_pages > 0);
    }

    /// Planes of three chunks, the last one partial, so the table's
    /// chunk boundaries, its untouched chunks and the cache/capacity split
    /// inside one chunk are all walked.
    fn multi_chunk_cfg(family: u8, gc_policy: GcPolicy) -> SsdConfig {
        SsdConfig {
            gc_policy,
            ..wear_cfg(family, 2, 150, 4, 2)
        }
    }

    #[test]
    fn lazy_table_matches_the_eager_array_across_chunks() {
        let mut gc_cycles = 0;
        for family in 0..3u8 {
            for fill in [0.0, 0.5, 0.9] {
                for gc_policy in [GcPolicy::Greedy, GcPolicy::Random] {
                    let steps: Vec<u64> = (0..2_000u64)
                        .map(|i| splitmix64(i ^ 0xC4 << 40 ^ u64::from(family) << 32))
                        .collect();
                    let cfg = multi_chunk_cfg(family, gc_policy);
                    gc_cycles += check_wear_bookkeeping(&cfg, fill, &steps).gc_invocations;
                }
            }
        }
        assert!(gc_cycles > 0);
    }

    #[test]
    fn warm_up_twice_and_after_programs_matches_the_eager_array() {
        for family in 0..3u8 {
            for gc_policy in [GcPolicy::Greedy, GcPolicy::Random] {
                let mut twins = Twins::new(&multi_chunk_cfg(family, gc_policy));
                // Twice at one fill, then lower (a no-op), then higher.
                for fill in [0.5, 0.5, 0.3, 0.7] {
                    twins.warm_up(fill);
                }
                let mut steps = (0..2_400u64).map(|i| splitmix64(i ^ u64::from(family) << 32));
                for (i, word) in steps.by_ref().take(1_200).enumerate() {
                    twins.step(word, &format!("step {i}"));
                }
                // After programs: the blocks the run erased or never
                // reached fill up again, stored and untouched alike.
                twins.warm_up(0.9);
                for (i, word) in steps.enumerate() {
                    twins.step(
                        word,
                        &format!("step {} after the second warm-up", i + 1_200),
                    );
                }
                twins.warm_up(0.9);
                assert!(twins.tracked.stats().erases > 0);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn tracked_wear_spread_equals_a_scan_and_decides_alike(
            family in 0u8..3,
            planes in 1u32..=2,
            blocks in proptest::prop::sample::select(vec![6u32, 8, 12, 70]),
            pages in proptest::prop::sample::select(vec![4u32, 8]),
            wl_threshold in 1u32..=3,
            greedy in proptest::prop::bool::ANY,
            fill in proptest::prop::sample::select(vec![0.0f64, 0.5, 0.9]),
            steps in proptest::prop::collection::vec(proptest::prelude::any::<u64>(), 200..1_200),
        ) {
            let cfg = SsdConfig {
                gc_policy: if greedy { GcPolicy::Greedy } else { GcPolicy::Random },
                ..wear_cfg(family, planes, blocks, pages, wl_threshold)
            };
            check_wear_bookkeeping(&cfg, fill, &steps);
        }
    }

    #[test]
    fn programs_walk_a_plane_only_to_open_a_block() {
        let cfg = SsdConfig::default();
        let mut fa = FlashArray::new(&cfg);
        fa.warm_up(0.5);
        let mut opened = 0;
        for i in 0..4 * cfg.pages_per_block + 7 {
            let (_, page, ops) = fa.program_page(0);
            assert!(ops.is_empty(), "a half-full plane needs no background work");
            if page == 0 && i > 0 {
                opened += 1;
            }
        }
        assert_eq!(opened, 4);
        assert!(
            fa.capacity_walks <= opened,
            "{} walks over the plane for {opened} opened blocks",
            fa.capacity_walks
        );
    }

    #[test]
    fn device_survives_saturation() {
        // Writing far beyond capacity without invalidations must not panic:
        // each full active block is replaced after a GC cycle, whose victim
        // may be the block just sealed.
        let cfg = SsdConfig {
            blocks_per_plane: 4,
            pages_per_block: 8,
            channel_count: 1,
            chips_per_channel: 1,
            dies_per_chip: 1,
            planes_per_die: 1,
            ..tiny_cfg()
        };
        let mut fa = FlashArray::new(&cfg);
        for _ in 0..200 {
            let _ = fa.program_page(0);
        }
        assert!(fa.stats().erases > 0);
    }
}
