//! The simulator's logical-to-physical mapping table: an entry for every
//! logical page a replay has programmed, and nothing for the pages it has
//! not.
//!
//! Entries live in chunks of [`CHUNK`] consecutive logical pages (512 B),
//! appended to an arena in the order a replay first writes them. The arena
//! is reached through an open-addressed directory of `(chunk id, arena
//! index)` pairs keyed by `lpn / CHUNK`: a multiplicative hash picks the
//! home slot from the top bits, collisions probe linearly, and the
//! directory doubles before it is half full. Nothing is ever removed, so
//! probing needs no tombstones. Memory is the chunks a trace writes plus a
//! directory of at most four slots per chunk, whatever the highest page
//! written: a write at the last page of a 1.87 G-page device costs one
//! chunk, not an index sized by its page number.
//!
//! A simulator that replays trace after trace sizes the directory up front
//! to the largest one its thread has grown ([`LpnMap::presize_slots`]), so
//! it grows with the largest map the thread has seen, not from empty on
//! every replay.
//!
//! The table only answers where a logical page lives; a probe's cost is
//! the only thing its layout can change.

use crate::lru::HASH_MULTIPLIER;

/// Logical pages per chunk.
const CHUNK: usize = 64;

/// Sentinel for "logical page never mapped" (a real entry would need plane
/// and block both at `u32::MAX`, far beyond any valid geometry).
const LPN_EMPTY: u64 = u64::MAX;

/// Chunk id of a vacant directory slot. Chunk ids are `lpn / CHUNK`, at
/// most `u64::MAX / 64`.
const VACANT: u64 = u64::MAX;

/// Smallest directory allocated (on the first insert).
const MIN_SLOTS: usize = 16;

/// A mapped physical page: flat plane index plus block within the plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct MappedPage {
    pub(super) plane: u32,
    pub(super) block: u32,
}

/// Logical-to-physical mapping table; see the module documentation.
#[derive(Debug, Clone, Default)]
pub(super) struct LpnMap {
    /// `(chunk id, index in chunks)` per slot, [`VACANT`] ids when empty.
    /// Length is zero or a power of two, and at most half the slots are
    /// occupied.
    slots: Vec<(u64, u32)>,
    /// `64 - log2(slots.len())`: a chunk id's home slot is the top bits of
    /// its hash. Meaningless while `slots` is empty.
    shift: u32,
    chunks: Vec<[u64; CHUNK]>,
}

impl LpnMap {
    /// Where `lpn` lives, if it was ever inserted.
    #[inline]
    pub(super) fn get(&self, lpn: u64) -> Option<MappedPage> {
        let chunk = self.find(lpn / CHUNK as u64)?;
        let v = self.chunks[chunk][lpn as usize % CHUNK];
        (v != LPN_EMPTY).then_some(MappedPage {
            plane: (v >> 32) as u32,
            block: v as u32,
        })
    }

    /// Maps `lpn` to `m`, replacing any earlier entry.
    #[inline]
    pub(super) fn insert(&mut self, lpn: u64, m: MappedPage) {
        let id = lpn / CHUNK as u64;
        let chunk = match self.find(id) {
            Some(c) => c,
            None => self.allocate_chunk(id),
        };
        self.chunks[chunk][lpn as usize % CHUNK] = (u64::from(m.plane) << 32) | u64::from(m.block);
    }

    /// Allocates a directory of `slots` entries (a power of two) if
    /// nothing was ever inserted into this map; does nothing otherwise.
    pub(super) fn presize_slots(&mut self, slots: usize) {
        if !self.slots.is_empty() || slots == 0 {
            return;
        }
        self.slots = vec![(VACANT, 0); slots];
        self.shift = 64 - slots.trailing_zeros();
    }

    /// Length of the directory (zero before the first insert).
    pub(super) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn home_slot(&self, id: u64) -> usize {
        (id.wrapping_mul(HASH_MULTIPLIER) >> self.shift) as usize
    }

    /// Index in `chunks` of chunk `id`.
    #[inline]
    fn find(&self, id: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.home_slot(id);
        loop {
            match self.slots[slot] {
                (k, chunk) if k == id => return Some(chunk as usize),
                (VACANT, _) => return None,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The first vacant slot on `id`'s probe sequence. The directory is
    /// never more than half full, so one exists.
    fn vacant_slot(&self, id: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = self.home_slot(id);
        while self.slots[slot].0 != VACANT {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Appends chunk `id` with every entry unmapped and returns its index.
    #[inline(never)]
    fn allocate_chunk(&mut self, id: u64) -> usize {
        if (self.chunks.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let chunk = self.chunks.len();
        let index = u32::try_from(chunk).expect("LpnMap is limited to u32::MAX chunks");
        self.chunks.push([LPN_EMPTY; CHUNK]);
        let slot = self.vacant_slot(id);
        self.slots[slot] = (id, index);
        chunk
    }

    /// Doubles the directory (or allocates the first one) and re-seats
    /// every occupied slot.
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![(VACANT, 0); new_len]);
        self.shift = 64 - new_len.trailing_zeros();
        for (id, chunk) in old {
            if id != VACANT {
                let slot = self.vacant_slot(id);
                self.slots[slot] = (id, chunk);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::HASH_INVERSE;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The `i`-th chunk id below `u64::MAX / 64` whose hash has all-ones
    /// top 16 bits: every such id has the last slot as its home at every
    /// directory size up to 2^16 slots, so they pile into one cluster that
    /// wraps around the end of the directory across every doubling.
    fn colliding_id(i: usize) -> u64 {
        (0u64..)
            .map(|low| (0xFFFF << 48 | low).wrapping_mul(HASH_INVERSE))
            .filter(|&id| id <= u64::MAX / CHUNK as u64)
            .nth(i)
            .expect("one hash in 64 maps below the bound")
    }

    /// One operation: a `get` (`op == 0`) or an `insert` of `lpn`.
    type Op = (u8, u64, MappedPage);

    fn page() -> impl Strategy<Value = MappedPage> {
        (any::<u32>(), 0..u32::MAX - 1).prop_map(|(plane, block)| MappedPage { plane, block })
    }

    /// LPNs of three shapes: pages either side of a chunk boundary (offsets
    /// 61..68 from a chunk's start), sparse pages up to 2^40, and pages of
    /// chunks that share one probe cluster.
    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let colliding: Vec<u64> = (0..48).map(colliding_id).collect();
        let lpn = prop_oneof![
            (0u64..1 << 14, 61u64..68).prop_map(|(c, o)| c * CHUNK as u64 + o),
            0u64..1 << 40,
            (0..colliding.len(), 0..CHUNK as u64)
                .prop_map(move |(i, o)| colliding[i] * CHUNK as u64 + o),
        ];
        prop::collection::vec((0u8..3, lpn, page()), 200..1_200)
    }

    fn apply(map: &mut LpnMap, model: &mut HashMap<u64, MappedPage>, (op, lpn, m): Op) {
        if op == 0 {
            assert_eq!(map.get(lpn), model.get(&lpn).copied(), "get({lpn})");
        } else {
            map.insert(lpn, m);
            model.insert(lpn, m);
        }
    }

    fn assert_matches(map: &LpnMap, model: &HashMap<u64, MappedPage>, probes: &[Op]) {
        for (&lpn, &m) in model {
            assert_eq!(map.get(lpn), Some(m), "get({lpn})");
        }
        for &(_, lpn, _) in probes {
            assert_eq!(map.get(lpn), model.get(&lpn).copied(), "get({lpn})");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Differential test against a `HashMap`, with a clone taken
        /// mid-sequence that then takes writes of its own.
        #[test]
        fn matches_a_hash_map(ops in ops(), split in 0.0..1.0f64) {
            let (head, tail) = ops.split_at((ops.len() as f64 * split) as usize);
            let mut map = LpnMap::default();
            let mut model = HashMap::new();
            for &op in head {
                apply(&mut map, &mut model, op);
            }
            let mut copy = map.clone();
            let mut copy_model = model.clone();
            for &(op, lpn, m) in tail {
                apply(&mut map, &mut model, (op, lpn, m));
                let other = MappedPage { plane: m.plane ^ 1, block: m.block };
                apply(&mut copy, &mut copy_model, (op ^ 1, lpn ^ 1, other));
            }
            assert_matches(&map, &model, &ops);
            assert_matches(&copy, &copy_model, &ops);
            // At least three doublings past the first directory.
            prop_assert!(map.slots.len() >= MIN_SLOTS << 3, "{} slots", map.slots.len());
        }
    }

    #[test]
    fn colliding_ids_share_the_last_home_slot() {
        let at = |i: usize| MappedPage {
            plane: 1,
            block: i as u32,
        };
        let mut map = LpnMap::default();
        for i in 0..40 {
            map.insert(colliding_id(i) * CHUNK as u64, at(i));
            assert_eq!(map.home_slot(colliding_id(i)), map.slots.len() - 1);
        }
        for i in 0..40 {
            assert_eq!(map.get(colliding_id(i) * CHUNK as u64), Some(at(i)));
        }
    }
}
