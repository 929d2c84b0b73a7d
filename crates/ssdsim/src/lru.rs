//! A compact O(1) LRU cache over `u64` keys with dirty-bit tracking, used
//! for both the controller data cache and the cached mapping table (CMT).
//!
//! Everything lives in three flat vectors: an open-addressed table of `u32`
//! node indices (linear probing, backward-shift deletion, multiplicative
//! hash), 16-byte nodes linked into the recency list by `u32` indices, and
//! a dirty bitset. All three grow with occupancy, never with the configured
//! capacity, so a simulator that touches a few thousand pages of a
//! multi-gigabyte cache pays for a few thousand entries. A simulator that
//! replays trace after trace sizes the slot table up front to the largest
//! one its thread has grown (`LruCache::presize_slots`), so the table
//! grows with the largest occupancy the thread has seen and a replay stops
//! paying a dozen doublings, each a full rehash into fresh pages. Eviction
//! follows the recency list and nothing iterates the slots, so no result
//! depends on the table's size.

/// "No node": list terminator and empty-slot marker.
const NIL: u32 = u32::MAX;

/// Smallest slot table allocated (on the first insert).
const MIN_SLOTS: usize = 16;

/// 2^64 / golden ratio: consecutive keys (logical page numbers) land far
/// apart in the top bits the table indexes by.
pub(crate) const HASH_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// `HASH_MULTIPLIER`'s inverse modulo 2^64 (the multiplicative hash is a
/// bijection), by Newton's iteration from the multiplier itself, which is
/// correct to 3 bits for any odd number. Tests build keys with a chosen
/// hash through it.
#[cfg(test)]
pub(crate) const HASH_INVERSE: u64 = {
    let mut inverse = HASH_MULTIPLIER;
    let mut i = 0;
    while i < 5 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(HASH_MULTIPLIER.wrapping_mul(inverse)));
        i += 1;
    }
    inverse
};

#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    prev: u32,
    /// Next-older entry while linked; next free node while on the free list.
    next: u32,
}

/// Fixed-capacity LRU set of `u64` keys with per-entry dirty bits.
///
/// # Examples
///
/// ```
/// use ssdsim::lru::LruCache;
/// let mut c = LruCache::new(2);
/// assert!(c.insert(1, false).is_none());
/// assert!(c.insert(2, false).is_none());
/// c.touch(1);                       // 1 becomes most recent
/// let evicted = c.insert(3, false); // evicts 2
/// assert_eq!(evicted, Some((2, false)));
/// assert!(c.contains(1));
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    /// Node index per slot, `NIL` when empty. Length is zero or a power of
    /// two, and at most half the slots are occupied.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a key's home slot is the top bits of its
    /// hash. Meaningless while `slots` is empty.
    shift: u32,
    nodes: Vec<Node>,
    /// One bit per node index.
    dirty: Vec<u64>,
    free_head: u32,
    head: u32, // most recently used
    tail: u32, // least recently used
    len: usize,
    capacity: usize,
    dirty_len: usize,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` keys. Allocates nothing.
    ///
    /// A zero capacity is allowed and produces a cache that never retains
    /// anything (every insert immediately reports the inserted key back as
    /// evicted — callers treat this as a bypass).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            slots: Vec::new(),
            shift: 0,
            nodes: Vec::new(),
            dirty: Vec::new(),
            free_head: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
            capacity,
            dirty_len: 0,
        }
    }

    /// Maximum number of keys retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of cached keys currently marked dirty.
    pub fn dirty_len(&self) -> usize {
        self.dirty_len
    }

    /// Removes and returns the least-recently-used `(key, dirty)` entry.
    pub fn pop_lru(&mut self) -> Option<(u64, bool)> {
        if self.tail == NIL {
            return None;
        }
        let key = self.nodes[self.tail as usize].key;
        let dirty = self.remove(key).expect("the tail is cached");
        Some((key, dirty))
    }

    /// `true` if `key` is cached (does not update recency).
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Marks `key` most recently used; returns `true` if it was present.
    pub fn touch(&mut self, key: u64) -> bool {
        match self.find(key) {
            Some((_, idx)) => {
                self.move_to_front(idx);
                true
            }
            None => false,
        }
    }

    /// `true` if `key` is cached and marked dirty.
    pub fn is_dirty(&self, key: u64) -> bool {
        self.find(key).is_some_and(|(_, idx)| self.dirty_bit(idx))
    }

    /// Clears the dirty bit of a cached key; returns `false` if absent.
    pub fn mark_clean(&mut self, key: u64) -> bool {
        match self.find(key) {
            Some((_, idx)) => {
                self.set_dirty_bit(idx, false);
                true
            }
            None => false,
        }
    }

    /// Sets the dirty bit of a cached key; returns `false` if absent.
    pub fn mark_dirty(&mut self, key: u64) -> bool {
        match self.find(key) {
            Some((_, idx)) => {
                self.set_dirty_bit(idx, true);
                true
            }
            None => false,
        }
    }

    /// Inserts `key` as most recently used, returning the evicted
    /// `(key, dirty)` pair if the cache was full.
    ///
    /// Inserting an existing key refreshes its recency and ORs the dirty
    /// bit; no eviction happens in that case.
    ///
    /// # Panics
    ///
    /// Panics if the cache would hold `u32::MAX` keys at once (node indices
    /// are `u32`; the simulator caps its caches at 2^24 entries).
    pub fn insert(&mut self, key: u64, dirty: bool) -> Option<(u64, bool)> {
        if self.capacity == 0 {
            return Some((key, dirty));
        }
        if let Some((_, idx)) = self.find(key) {
            if dirty {
                self.set_dirty_bit(idx, true);
            }
            self.move_to_front(idx);
            return None;
        }
        let evicted = if self.len >= self.capacity {
            self.pop_lru()
        } else {
            None
        };
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow_slots();
        }
        let idx = self.alloc_node(key);
        let slot = self.vacant_slot(key);
        self.slots[slot] = idx;
        self.len += 1;
        if dirty {
            self.set_dirty_bit(idx, true);
        }
        self.push_front(idx);
        evicted
    }

    /// Removes `key`, returning its dirty bit if it was present.
    pub fn remove(&mut self, key: u64) -> Option<bool> {
        let (slot, idx) = self.find(key)?;
        self.vacate_slot(slot);
        self.unlink(idx);
        let dirty = self.dirty_bit(idx);
        self.set_dirty_bit(idx, false);
        self.nodes[idx as usize].next = self.free_head;
        self.free_head = idx;
        self.len -= 1;
        Some(dirty)
    }

    /// Allocates a slot table of `slots` entries (a power of two), or of
    /// the most this cache's capacity can use if that is fewer, if nothing
    /// was ever inserted into this cache. Does nothing otherwise: a cache
    /// with entries keeps its table, and a zero-capacity cache never
    /// allocates one.
    pub(crate) fn presize_slots(&mut self, slots: usize) {
        if self.capacity == 0 || !self.slots.is_empty() || slots == 0 {
            return;
        }
        // The table doubles before it is half full, so no occupancy this
        // capacity allows needs more slots than this.
        let len = slots.min((self.capacity * 2).next_power_of_two().max(MIN_SLOTS));
        self.slots = vec![NIL; len];
        self.shift = 64 - len.trailing_zeros();
    }

    /// Length of the slot table (zero before the first insert).
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    // ---- slot table --------------------------------------------------------

    #[inline]
    fn home_slot(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MULTIPLIER) >> self.shift) as usize
    }

    /// The `(slot, node index)` holding `key`.
    #[inline]
    fn find(&self, key: u64) -> Option<(usize, u32)> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.home_slot(key);
        loop {
            let idx = self.slots[slot];
            if idx == NIL {
                return None;
            }
            if self.nodes[idx as usize].key == key {
                return Some((slot, idx));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The first empty slot on `key`'s probe sequence. The table is never
    /// more than half full, so one exists.
    fn vacant_slot(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = self.home_slot(key);
        while self.slots[slot] != NIL {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Empties `slot` and shifts the rest of its cluster back so that every
    /// remaining entry stays reachable from its home slot without
    /// tombstones.
    fn vacate_slot(&mut self, mut slot: usize) {
        let mask = self.slots.len() - 1;
        let mut next = slot;
        loop {
            next = (next + 1) & mask;
            let idx = self.slots[next];
            if idx == NIL {
                break;
            }
            // The entry at `next` may move into the hole unless its home
            // lies cyclically within (slot, next].
            let home = self.home_slot(self.nodes[idx as usize].key);
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(slot) & mask) {
                self.slots[slot] = idx;
                slot = next;
            }
        }
        self.slots[slot] = NIL;
    }

    /// Doubles the slot table (or allocates the first one) and re-seats
    /// every linked node.
    fn grow_slots(&mut self) {
        let new_len = (self.slots.len() * 2).max(MIN_SLOTS);
        self.slots = vec![NIL; new_len];
        self.shift = 64 - new_len.trailing_zeros();
        let mut idx = self.head;
        while idx != NIL {
            let node = self.nodes[idx as usize];
            let slot = self.vacant_slot(node.key);
            self.slots[slot] = idx;
            idx = node.next;
        }
    }

    // ---- nodes, dirty bits, recency list -----------------------------------

    /// An unlinked, clean node holding `key`.
    fn alloc_node(&mut self, key: u64) -> u32 {
        let node = Node {
            key,
            prev: NIL,
            next: NIL,
        };
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            return idx;
        }
        // `NIL` itself must never name a node.
        assert!(
            self.nodes.len() < NIL as usize,
            "LruCache is limited to u32::MAX - 1 entries"
        );
        let idx = self.nodes.len();
        if idx == self.dirty.len() * 64 {
            self.dirty.push(0);
        }
        self.nodes.push(node);
        idx as u32
    }

    #[inline]
    fn dirty_bit(&self, idx: u32) -> bool {
        self.dirty[idx as usize / 64] >> (idx % 64) & 1 == 1
    }

    #[inline]
    fn set_dirty_bit(&mut self, idx: u32, dirty: bool) {
        let word = &mut self.dirty[idx as usize / 64];
        let bit = 1u64 << (idx % 64);
        if dirty && *word & bit == 0 {
            *word |= bit;
            self.dirty_len += 1;
        } else if !dirty && *word & bit != 0 {
            *word &= !bit;
            self.dirty_len -= 1;
        }
    }

    #[inline]
    fn move_to_front(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        node.prev = NIL;
        node.next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(3);
        c.insert(1, false);
        c.insert(2, false);
        c.insert(3, false);
        assert_eq!(c.insert(4, false), Some((1, false)));
        assert!(!c.contains(1));
        assert!(c.contains(4));
    }

    #[test]
    fn touch_changes_eviction_order() {
        let mut c = LruCache::new(2);
        c.insert(1, false);
        c.insert(2, false);
        assert!(c.touch(1));
        assert_eq!(c.insert(3, false), Some((2, false)));
        assert!(!c.touch(99));
    }

    #[test]
    fn dirty_bit_propagates_on_eviction() {
        let mut c = LruCache::new(1);
        c.insert(7, false);
        assert!(c.mark_dirty(7));
        assert_eq!(c.insert(8, false), Some((7, true)));
        assert!(!c.mark_dirty(7));
    }

    #[test]
    fn reinsert_refreshes_and_ors_dirty() {
        let mut c = LruCache::new(2);
        c.insert(1, false);
        c.insert(2, false);
        assert_eq!(c.insert(1, true), None); // refresh, no eviction
        assert_eq!(c.insert(3, false), Some((2, false)));
        assert_eq!(c.insert(4, false), Some((1, true)));
    }

    #[test]
    fn remove_frees_slot() {
        let mut c = LruCache::new(2);
        c.insert(1, true);
        assert_eq!(c.remove(1), Some(true));
        assert_eq!(c.remove(1), None);
        assert!(c.is_empty());
        c.insert(2, false);
        c.insert(3, false);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_bypasses() {
        let mut c = LruCache::new(0);
        assert_eq!(c.insert(5, true), Some((5, true)));
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 0);
    }

    #[test]
    fn dirty_len_tracks_transitions() {
        let mut c = LruCache::new(3);
        c.insert(1, true);
        c.insert(2, false);
        assert_eq!(c.dirty_len(), 1);
        c.mark_dirty(2);
        c.mark_dirty(2); // idempotent
        assert_eq!(c.dirty_len(), 2);
        c.insert(1, true); // already dirty, no double count
        assert_eq!(c.dirty_len(), 2);
        assert_eq!(c.remove(1), Some(true));
        assert_eq!(c.dirty_len(), 1);
        c.insert(3, false);
        c.insert(4, false);
        // Evicting dirty 2 decrements.
        c.insert(5, false);
        assert_eq!(c.dirty_len(), 0);
    }

    #[test]
    fn mark_clean_and_is_dirty() {
        let mut c = LruCache::new(2);
        c.insert(1, true);
        assert!(c.is_dirty(1));
        assert!(c.mark_clean(1));
        assert!(!c.is_dirty(1));
        assert_eq!(c.dirty_len(), 0);
        assert!(c.mark_clean(1)); // idempotent on clean entries
        assert!(!c.mark_clean(9));
        assert!(!c.is_dirty(9));
    }

    #[test]
    fn pop_lru_returns_oldest() {
        let mut c = LruCache::new(3);
        c.insert(1, true);
        c.insert(2, false);
        c.insert(3, false);
        c.touch(1);
        assert_eq!(c.pop_lru(), Some((2, false)));
        assert_eq!(c.pop_lru(), Some((3, false)));
        assert_eq!(c.pop_lru(), Some((1, true)));
        assert_eq!(c.pop_lru(), None);
        assert_eq!(c.dirty_len(), 0);
    }

    /// A key whose hash has all-ones top 16 bits: every such key has the
    /// last slot as its home at every table size up to 2^16 slots, so they
    /// pile into one cluster that wraps around the end of the table and
    /// stays one cluster across every growth.
    fn colliding_key(i: u64) -> u64 {
        let key = (0xFFFF << 48 | i).wrapping_mul(HASH_INVERSE);
        assert_eq!(key.wrapping_mul(HASH_MULTIPLIER) >> 48, 0xFFFF);
        key
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Differential test against a naive `Vec`-based LRU, over every
        /// operation, with half the keys colliding in the slot table so that
        /// long probe sequences, table growth and backward-shift deletion
        /// are all on the path.
        #[test]
        fn stress_against_reference_model(
            capacity in prop::sample::select(vec![0usize, 1, 4, 1_000]),
            ops in prop::collection::vec((0u8..10, any::<u64>(), prop::bool::ANY), 0..4_000),
        ) {
            let mut c = LruCache::new(capacity);
            let mut model: Vec<(u64, bool)> = Vec::new(); // front = most recent
            let universe = capacity as u64 * 3 / 2 + 8;
            let key_of = |n: u64| {
                let i = n % universe;
                if i & 1 == 0 { colliding_key(i) } else { i }
            };
            for &(op, n, dirty) in &ops {
                let key = key_of(n);
                let pos = model.iter().position(|&(k, _)| k == key);
                match op {
                    0..=4 => {
                        let evicted = c.insert(key, dirty);
                        let expected = if capacity == 0 {
                            Some((key, dirty))
                        } else if let Some(pos) = pos {
                            let (_, was_dirty) = model.remove(pos);
                            model.insert(0, (key, was_dirty || dirty));
                            None
                        } else {
                            model.insert(0, (key, dirty));
                            if model.len() > capacity { model.pop() } else { None }
                        };
                        prop_assert_eq!(evicted, expected);
                    }
                    5 => {
                        prop_assert_eq!(c.touch(key), pos.is_some());
                        if let Some(pos) = pos {
                            let entry = model.remove(pos);
                            model.insert(0, entry);
                        }
                    }
                    6 | 7 => {
                        let present = if op == 6 { c.mark_dirty(key) } else { c.mark_clean(key) };
                        prop_assert_eq!(present, pos.is_some());
                        if let Some(pos) = pos {
                            model[pos].1 = op == 6;
                        }
                    }
                    8 => prop_assert_eq!(c.remove(key), pos.map(|pos| model.remove(pos).1)),
                    _ => prop_assert_eq!(c.pop_lru(), model.pop()),
                }
                let in_model = model.iter().find(|&&(k, _)| k == key);
                prop_assert_eq!(c.contains(key), in_model.is_some());
                prop_assert_eq!(c.is_dirty(key), in_model.is_some_and(|&(_, d)| d));
                prop_assert_eq!(c.len(), model.len());
                prop_assert_eq!(c.dirty_len(), model.iter().filter(|&&(_, d)| d).count());
            }
            for n in 0..universe {
                let key = key_of(n);
                prop_assert_eq!(c.contains(key), model.iter().any(|&(k, _)| k == key));
            }
            // Draining returns the survivors oldest first with their bits.
            while let Some(entry) = c.pop_lru() {
                prop_assert_eq!(Some(entry), model.pop());
            }
            prop_assert!(model.is_empty());
        }
    }
}
