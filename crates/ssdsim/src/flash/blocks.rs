//! The flash array's block table: one entry per physical block, of which
//! only those something has changed are stored.
//!
//! Before the first write, a device is a function of its layout. On every
//! plane the cache-tier block 0 and the first capacity block are open
//! (`Active`). After a warm-up to `warm_blocks` capacity blocks, the next
//! `warm_blocks - 1` capacity blocks are `Full`, each with a valid-page
//! count hashed from `(plane, block)`. Every other block is erased. An
//! entry nothing has written reads as that rule says, so building, warming
//! and cloning a device cost O(planes + chunk index), not O(blocks).
//!
//! Stored entries live in chunks of [`CHUNK`] consecutive blocks of one
//! plane. The first mutation of a block allocates its chunk with every
//! entry [`BlockState::Untouched`]: a fill, nothing computed. An untouched
//! entry is decoded by the rule on every read, and written back when its
//! own block is mutated or when a walk (GC, fold, wear leveling) covers its
//! chunk, so repeated walks read stored entries. Computing a chunk's warm
//! state when it is allocated was measured slower: overwrites of
//! never-written pages land on random blocks, so most chunks are touched
//! once.

use super::splitmix64;
use std::ops::Range;

/// Lifecycle state of a flash block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum BlockState {
    Free,
    Active,
    Full,
    /// A stored entry nothing has written yet: it reads as the layout rule
    /// says. The table's readers never return it.
    Untouched,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Block {
    pub(super) valid: u16,
    pub(super) erases: u16,
    pub(super) state: BlockState,
}

/// Blocks per stored chunk.
const CHUNK: usize = 64;

/// `slots` entry of a chunk nothing has written to.
const NO_CHUNK: u32 = u32::MAX;

const UNTOUCHED: Block = Block {
    valid: 0,
    erases: 0,
    state: BlockState::Untouched,
};

/// [`CHUNK`] consecutive blocks of one plane.
#[derive(Debug, Clone)]
struct Chunk {
    blocks: [Block; CHUNK],
    /// No entry is untouched: a walk reads the chunk as it is.
    decoded: bool,
}

/// Every block of every plane; see the module documentation.
#[derive(Debug, Clone)]
pub(super) struct BlockTable {
    /// `slots[plane * chunks_per_plane + block / CHUNK]`: that chunk's
    /// index in `chunks`, or [`NO_CHUNK`].
    slots: Vec<u32>,
    chunks: Vec<Chunk>,
    chunks_per_plane: usize,
    /// SLC-cache blocks at the start of every plane (0 = homogeneous).
    cache_blocks: usize,
    pages_per_block: u32,
    /// Warm-up target in capacity-tier blocks: untouched blocks
    /// `cache_blocks + 1 .. cache_blocks + warm_blocks` are `Full`.
    warm_blocks: usize,
}

impl BlockTable {
    pub(super) fn new(
        planes: usize,
        blocks_per_plane: u32,
        cache_blocks: u32,
        pages_per_block: u32,
    ) -> Self {
        let chunks_per_plane = (blocks_per_plane as usize).div_ceil(CHUNK);
        BlockTable {
            slots: vec![NO_CHUNK; planes * chunks_per_plane],
            chunks: Vec::new(),
            chunks_per_plane,
            cache_blocks: cache_blocks as usize,
            pages_per_block,
            warm_blocks: 0,
        }
    }

    /// State of a block nothing has written, by the layout rule.
    #[inline]
    fn untouched_state(&self, b: usize) -> BlockState {
        let cache = self.cache_blocks;
        if b == 0 || b == cache {
            BlockState::Active
        } else if b > cache && b < cache + self.warm_blocks {
            BlockState::Full
        } else {
            BlockState::Free
        }
    }

    /// Block `b` of plane `pidx` as nothing has written it. Out of line:
    /// a block is decoded once, but it is read on every access.
    #[inline(never)]
    fn untouched(&self, pidx: usize, b: usize) -> Block {
        let state = self.untouched_state(b);
        let valid = if state == BlockState::Full {
            warm_valid(pidx, b, self.pages_per_block)
        } else {
            0
        };
        Block {
            valid,
            erases: 0,
            state,
        }
    }

    /// The smallest block `>= from` whose untouched state is `Free` (may be
    /// past the end of the plane).
    fn first_untouched_free(&self, from: usize) -> usize {
        let cache = self.cache_blocks;
        if from < cache {
            let b = from.max(1);
            if b < cache {
                return b;
            }
        }
        from.max(cache + self.warm_blocks.max(1))
    }

    #[inline]
    fn chunk(&self, pidx: usize, b: usize) -> Option<&[Block; CHUNK]> {
        match self.slots[pidx * self.chunks_per_plane + b / CHUNK] {
            NO_CHUNK => None,
            s => Some(&self.chunks[s as usize].blocks),
        }
    }

    /// Block `b` of plane `pidx`.
    #[inline]
    pub(super) fn get(&self, pidx: usize, b: usize) -> Block {
        match self.chunk(pidx, b) {
            Some(c) if c[b % CHUNK].state != BlockState::Untouched => c[b % CHUNK],
            _ => self.untouched(pidx, b),
        }
    }

    /// Index in `chunks` of chunk `ci` of plane `pidx`, allocated (every
    /// entry untouched) if nothing has written the chunk yet.
    #[inline]
    fn stored_chunk(&mut self, pidx: usize, ci: usize) -> usize {
        let slot = pidx * self.chunks_per_plane + ci;
        match self.slots[slot] {
            NO_CHUNK => self.allocate_chunk(slot),
            s => s as usize,
        }
    }

    #[inline(never)]
    fn allocate_chunk(&mut self, slot: usize) -> usize {
        // At most total blocks / CHUNK chunks, and `SsdConfig::validate`
        // bounds total blocks by `u32::MAX`.
        self.slots[slot] = self.chunks.len() as u32;
        self.chunks.push(Chunk {
            blocks: [UNTOUCHED; CHUNK],
            decoded: false,
        });
        self.chunks.len() - 1
    }

    /// Block `b` of plane `pidx`, stored from now on.
    #[inline]
    pub(super) fn get_mut(&mut self, pidx: usize, b: usize) -> &mut Block {
        let s = self.stored_chunk(pidx, b / CHUNK);
        if self.chunks[s].blocks[b % CHUNK].state == BlockState::Untouched {
            self.chunks[s].blocks[b % CHUNK] = self.untouched(pidx, b);
        }
        &mut self.chunks[s].blocks[b % CHUNK]
    }

    /// Takes one valid page from block `b` of plane `pidx` if it is `Full`
    /// and has one, and says whether it did. A block that does not
    /// qualify is left as it was and not stored.
    #[inline]
    pub(super) fn invalidate_if_full(&mut self, pidx: usize, b: usize) -> bool {
        let slot = pidx * self.chunks_per_plane + b / CHUNK;
        if self.slots[slot] != NO_CHUNK {
            let e = &mut self.chunks[self.slots[slot] as usize].blocks[b % CHUNK];
            if e.state != BlockState::Untouched {
                let qualifies = e.state == BlockState::Full && e.valid > 0;
                if qualifies {
                    e.valid -= 1;
                }
                return qualifies;
            }
        }
        if self.untouched_state(b) != BlockState::Full {
            return false;
        }
        let valid = warm_valid(pidx, b, self.pages_per_block);
        if valid == 0 {
            return false;
        }
        let s = self.stored_chunk(pidx, b / CHUNK);
        self.chunks[s].blocks[b % CHUNK] = Block {
            valid: valid - 1,
            erases: 0,
            state: BlockState::Full,
        };
        true
    }

    /// Blocks `range` of plane `pidx` in index order, as `(block, entry)`.
    ///
    /// Stores them first, decoding each untouched entry once, so a walk
    /// the simulator repeats (garbage collection's victim search, the
    /// cache tier's fold search) reads stored entries like a slice.
    pub(super) fn walk(
        &mut self,
        pidx: usize,
        range: Range<usize>,
    ) -> impl Iterator<Item = (usize, &Block)> + '_ {
        let Range { start, end } = range;
        // (chunk, the range's entries within it)
        let runs = (start / CHUNK..end.div_ceil(CHUNK)).map(move |ci| {
            let first = ci * CHUNK;
            (ci, start.max(first) - first..end.min(first + CHUNK) - first)
        });
        for (ci, _) in runs.clone() {
            let s = self.stored_chunk(pidx, ci);
            if !self.chunks[s].decoded {
                for i in 0..CHUNK {
                    if self.chunks[s].blocks[i].state == BlockState::Untouched {
                        self.chunks[s].blocks[i] = self.untouched(pidx, ci * CHUNK + i);
                    }
                }
                self.chunks[s].decoded = true;
            }
        }
        let this = &*self;
        runs.flat_map(move |(ci, run)| {
            let s = this.slots[pidx * this.chunks_per_plane + ci] as usize;
            (ci * CHUNK + run.start..).zip(&this.chunks[s].blocks[run])
        })
    }

    /// The first `Free` block of plane `pidx` within `range`. A chunk
    /// nothing has written is answered by the layout rule, not walked.
    pub(super) fn first_free(&self, pidx: usize, range: Range<usize>) -> Option<usize> {
        let mut b = range.start;
        while b < range.end {
            let chunk_end = ((b / CHUNK + 1) * CHUNK).min(range.end);
            let found = match self.chunk(pidx, b) {
                None => Some(self.first_untouched_free(b)).filter(|&f| f < chunk_end),
                Some(c) => (b..chunk_end).find(|&i| match c[i % CHUNK].state {
                    BlockState::Untouched => self.untouched_state(i) == BlockState::Free,
                    s => s == BlockState::Free,
                }),
            };
            if found.is_some() {
                return found;
            }
            b = chunk_end;
        }
        None
    }

    /// Fills every plane's `Free` capacity blocks among the first `target`
    /// as `FlashArray::warm_up` describes, and calls `filled(plane, n)`
    /// with the number of blocks it filled there. Untouched entries are
    /// filled by raising the table's warm target; only stored `Free`
    /// entries are written. On a table nothing has written this is
    /// O(planes + chunk index).
    pub(super) fn warm_up(&mut self, target: usize, mut filled: impl FnMut(usize, u64)) {
        let cache = self.cache_blocks;
        let end = cache + target;
        // The first capacity block an untouched entry reads as `Free`.
        let free_from = self.first_untouched_free(cache);
        for (pidx, slots) in self.slots.chunks_exact(self.chunks_per_plane).enumerate() {
            let mut n = 0u64;
            for (ci, &slot) in slots
                .iter()
                .enumerate()
                .take(end.div_ceil(CHUNK))
                .skip(cache / CHUNK)
            {
                let (lo, hi) = (cache.max(ci * CHUNK), end.min(ci * CHUNK + CHUNK));
                if slot == NO_CHUNK {
                    n += hi.saturating_sub(lo.max(free_from)) as u64;
                    continue;
                }
                let entries = &mut self.chunks[slot as usize].blocks[lo % CHUNK..];
                for (b, e) in (lo..hi).zip(entries) {
                    match e.state {
                        BlockState::Untouched if b >= free_from => n += 1,
                        BlockState::Free => {
                            e.valid = warm_valid(pidx, b, self.pages_per_block);
                            e.state = BlockState::Full;
                            n += 1;
                        }
                        _ => {}
                    }
                }
            }
            filled(pidx, n);
        }
        self.warm_blocks = self.warm_blocks.max(target);
    }

    /// Stores every entry, as the array did before an entry could be
    /// implicit: the reference the table is tested against.
    #[cfg(test)]
    pub(super) fn store_all(&mut self) {
        for slot in 0..self.slots.len() {
            let pidx = slot / self.chunks_per_plane;
            let first = slot % self.chunks_per_plane * CHUNK;
            for b in first..first + CHUNK {
                self.get_mut(pidx, b);
            }
        }
    }
}

/// Valid pages of warm block `b` of plane `pidx`: a deterministic
/// pseudo-random density in [0.70, 1.0], so greedy GC has choices.
fn warm_valid(pidx: usize, b: usize, pages_per_block: u32) -> u16 {
    let h = splitmix64((pidx as u64) << 32 | b as u64);
    let density = 0.70 + 0.30 * ((h % 1000) as f64 / 1000.0);
    (f64::from(pages_per_block) * density) as u16
}
