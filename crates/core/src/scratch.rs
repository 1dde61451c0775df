//! Preallocated scratch state for the estimator hot loops.
//!
//! The six-pass estimator's inner loops are lookups keyed by vertices and
//! edges. Generic hash maps pay for that flexibility with per-entry heap
//! allocation and rehash churn on every pass of every copy; the structures
//! here are the allocation-free replacements, designed around two facts:
//!
//! * every key set is known *before* the pass that probes it (the tracked
//!   endpoints of `R`, the instance bases, the closure queries), and
//! * [`Edge::key`](degentri_graph::Edge::key) packs an edge into a `u64`
//!   whose ordering matches the edge ordering.
//!
//! So vertex-keyed state becomes an open-addressed [`VertexSlotMap`] from
//! vertex id to a dense slot index (counters and adjacency lists are plain
//! slot-indexed vectors), and edge-membership state becomes an
//! [`EdgeProbeSet`]: a sorted `u64` key vector probed by binary search with
//! a parallel hit bitmap. The stage objects own one of each and build
//! them between passes, so the pass loops perform **no per-edge heap
//! allocation** (the per-pass `reset` calls only clear or grow the same
//! buffers).

use crate::lanes::{mix, mix_lanes, LANES};

/// Open-addressed map from `u32` vertex ids to dense slot indices
/// `0..len()`, with linear probing and a fixed ≤ 50% load factor.
///
/// Entries are packed into one `u64` word each (`key` high, `slot + 1`
/// low); `0` marks an empty bucket. The map is insert-only between
/// [`reset`](VertexSlotMap::reset) calls, which is exactly the estimator's
/// access pattern: build the key set between passes, probe it during the
/// pass.
#[derive(Debug, Default, Clone)]
pub struct VertexSlotMap {
    buckets: Vec<u64>,
    mask: usize,
    len: u32,
}

impl VertexSlotMap {
    /// Clears the map and ensures capacity for `expected` distinct keys
    /// without rehashing. The backing buffer is reused (and only grows).
    pub fn reset(&mut self, expected: usize) {
        let capacity = (expected.max(4) * 2).next_power_of_two();
        if self.buckets.len() < capacity {
            self.buckets.resize(capacity, 0);
        }
        self.buckets.fill(0);
        self.mask = self.buckets.len() - 1;
        self.len = 0;
    }

    /// Number of distinct keys inserted since the last reset.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no keys were inserted since the last reset.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the slot of `key`, inserting it at the next free slot if
    /// absent.
    pub fn insert(&mut self, key: u32) -> u32 {
        debug_assert!(
            (self.len as usize) * 2 < self.buckets.len(),
            "VertexSlotMap overfilled: reset() with the right capacity first"
        );
        let mut at = mix(key) as usize & self.mask;
        loop {
            let entry = self.buckets[at];
            if entry == 0 {
                let slot = self.len;
                self.len += 1;
                self.buckets[at] = ((key as u64) << 32) | (slot as u64 + 1);
                return slot;
            }
            if (entry >> 32) as u32 == key {
                return (entry as u32) - 1;
            }
            at = (at + 1) & self.mask;
        }
    }

    /// Visits every `(key, slot)` pair inserted since the last reset, in
    /// bucket order (deterministic for a given insertion sequence). Used
    /// by the fused cohort planner to build union lookup structures.
    pub fn for_each(&self, mut visit: impl FnMut(u32, u32)) {
        for &entry in &self.buckets {
            if entry != 0 {
                visit((entry >> 32) as u32, (entry as u32) - 1);
            }
        }
    }

    /// Returns the slot of `key`, if present. Allocation-free.
    #[inline]
    pub fn get(&self, key: u32) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let mut at = mix(key) as usize & self.mask;
        loop {
            let entry = self.buckets[at];
            if entry == 0 {
                return None;
            }
            if (entry >> 32) as u32 == key {
                return Some((entry as u32) - 1);
            }
            at = (at + 1) & self.mask;
        }
    }

    /// Lane-batched [`get`](VertexSlotMap::get): looks up `LANES` keys at
    /// once, returning `miss` for absent ones. The hash strip is one
    /// vectorizable [`mix_lanes`] call; the short open-addressing walks
    /// then run back to back with their bucket indices already computed.
    /// Bit-identical to `LANES` scalar `get` calls (the `miss` sentinel is
    /// the caller's dummy slot, so hits and misses stay distinguishable).
    #[inline]
    pub fn get_lanes(&self, keys: &[u32; LANES], miss: u32) -> [u32; LANES] {
        let mut out = [miss; LANES];
        if self.buckets.is_empty() {
            return out;
        }
        let hashes = mix_lanes(keys);
        for l in 0..LANES {
            let mut at = hashes[l] as usize & self.mask;
            loop {
                let entry = self.buckets[at];
                if entry == 0 {
                    break;
                }
                if (entry >> 32) as u32 == keys[l] {
                    out[l] = (entry as u32) - 1;
                    break;
                }
                at = (at + 1) & self.mask;
            }
        }
        out
    }
}

/// A membership set of packed edge keys with per-key hit flags: build the
/// query set between passes, [`seal`](EdgeProbeSet::seal) it into a sorted
/// vector, then [`probe`](EdgeProbeSet::probe)/[`mark`](EdgeProbeSet::mark)
/// during the pass without allocating.
///
/// Hits are kept as a `u64` bitmap so sharded passes can fold per-shard
/// bitmaps and OR-merge them in shard order — bit-identical to marking
/// sequentially.
#[derive(Debug, Default, Clone)]
pub struct EdgeProbeSet {
    keys: Vec<u64>,
    hits: Vec<u64>,
}

impl EdgeProbeSet {
    /// Starts a new query set, clearing the previous one but keeping its
    /// allocations.
    pub fn begin(&mut self) {
        self.keys.clear();
        self.hits.clear();
    }

    /// Adds a query key (duplicates are removed by [`seal`]).
    ///
    /// [`seal`]: EdgeProbeSet::seal
    #[inline]
    pub fn add(&mut self, key: u64) {
        self.keys.push(key);
    }

    /// Sorts and deduplicates the query set and clears the hit bitmap.
    /// Returns the number of distinct queries.
    pub fn seal(&mut self) -> usize {
        self.keys.sort_unstable();
        self.keys.dedup();
        self.hits.clear();
        self.hits.resize(self.keys.len().div_ceil(64), 0);
        self.keys.len()
    }

    /// Number of distinct queries (valid after [`seal`](EdgeProbeSet::seal)).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// The sealed, sorted query keys (valid after
    /// [`seal`](EdgeProbeSet::seal)). Used by the fused cohort planner to
    /// merge many copies' query sets into one probe structure.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Whether the query set is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The index of `key` in the sealed set, if present. Allocation-free
    /// (binary search over the sorted keys).
    #[inline]
    pub fn probe(&self, key: u64) -> Option<usize> {
        self.keys.binary_search(&key).ok()
    }

    /// Number of `u64` words a hit bitmap for this set needs (for per-shard
    /// accumulators).
    pub fn bitmap_words(&self) -> usize {
        self.hits.len()
    }

    /// Marks query `index` as present in the stream.
    #[inline]
    pub fn mark(&mut self, index: usize) {
        self.hits[index / 64] |= 1u64 << (index % 64);
    }

    /// Sets a bit in an external bitmap (per-shard accumulator).
    #[inline]
    pub fn mark_in(bitmap: &mut [u64], index: usize) {
        bitmap[index / 64] |= 1u64 << (index % 64);
    }

    /// OR-merges a per-shard bitmap into the hit bitmap.
    pub fn merge_bitmap(&mut self, bitmap: &[u64]) {
        for (h, b) in self.hits.iter_mut().zip(bitmap) {
            *h |= b;
        }
    }

    /// Whether `key` was marked present.
    #[inline]
    pub fn hit(&self, key: u64) -> bool {
        match self.probe(key) {
            Some(i) => self.hits[i / 64] & (1u64 << (i % 64)) != 0,
            None => false,
        }
    }

    /// Number of queries marked present.
    pub fn hit_count(&self) -> usize {
        self.hits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Open-addressed cache from packed [`Edge::key`]s to cached `f64` values,
/// with linear probing and a ≤ 50% load factor (growing ×2 on demand).
///
/// Built for the assignment oracle's per-edge `Y_e` estimates: with
/// stateless keyed randomness the estimate of an edge is a pure function
/// of `(seed, edge)`, so repeating the sampling for a second triangle that
/// shares the edge is pure waste — the cache answers instead. `0` marks an
/// empty bucket, which no real edge key can collide with: normalized edges
/// have `u() < v()`, so the packed low half is always non-zero.
///
/// [`Edge::key`]: degentri_graph::Edge::key
#[derive(Debug, Default, Clone)]
pub struct EdgeValueCache {
    keys: Vec<u64>,
    values: Vec<f64>,
    len: usize,
}

impl EdgeValueCache {
    /// Creates an empty cache (buckets are allocated on first insert).
    pub fn new() -> Self {
        EdgeValueCache::default()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry but keeps the bucket allocation.
    pub fn clear(&mut self) {
        self.keys.fill(0);
        self.len = 0;
    }

    /// The cached value of `key`, if present. Allocation-free.
    #[inline]
    pub fn get(&self, key: u64) -> Option<f64> {
        debug_assert_ne!(key, 0, "0 is the empty-bucket marker");
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut at = mix64(key) as usize & mask;
        loop {
            let entry = self.keys[at];
            if entry == 0 {
                return None;
            }
            if entry == key {
                return Some(self.values[at]);
            }
            at = (at + 1) & mask;
        }
    }

    /// Caches `value` for `key` (first insert wins; re-inserting an
    /// existing key keeps the original value, matching memo semantics).
    pub fn insert(&mut self, key: u64, value: f64) {
        debug_assert_ne!(key, 0, "0 is the empty-bucket marker");
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut at = mix64(key) as usize & mask;
        loop {
            let entry = self.keys[at];
            if entry == 0 {
                self.keys[at] = key;
                self.values[at] = value;
                self.len += 1;
                return;
            }
            if entry == key {
                return;
            }
            at = (at + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let capacity = (self.keys.len() * 2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; capacity]);
        let old_values = std::mem::replace(&mut self.values, vec![0.0; capacity]);
        self.len = 0;
        for (key, value) in old_keys.into_iter().zip(old_values) {
            if key != 0 {
                self.insert(key, value);
            }
        }
    }
}

#[inline]
fn mix64(key: u64) -> u64 {
    // SplitMix64 finalizer over the full 64-bit key.
    let mut x = key;
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// CSR-style per-slot lists of `u32` payloads, built in two phases
/// (count, then fill) so per-slot iteration order equals insertion order —
/// which keeps the estimator's RNG consumption order, and therefore its
/// output, bit-identical to the hash-map implementation it replaces.
#[derive(Debug, Default, Clone)]
pub struct SlotLists {
    offsets: Vec<u32>,
    cursor: Vec<u32>,
    items: Vec<u32>,
}

impl SlotLists {
    /// Starts building lists for `slots` slots (phase 1: counting).
    pub fn begin(&mut self, slots: usize) {
        self.offsets.clear();
        self.offsets.resize(slots + 1, 0);
        self.cursor.clear();
        self.items.clear();
    }

    /// Phase 1: announces one payload for `slot`.
    #[inline]
    pub fn count(&mut self, slot: u32) {
        self.offsets[slot as usize + 1] += 1;
    }

    /// Ends phase 1; after this, [`push`](SlotLists::push) payloads in the
    /// order they should be iterated.
    pub fn finish_counts(&mut self) {
        for i in 1..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        self.cursor
            .extend_from_slice(&self.offsets[..self.offsets.len() - 1]);
        self.items
            .resize(*self.offsets.last().unwrap_or(&0) as usize, 0);
    }

    /// Phase 2: appends `payload` to `slot`'s list.
    #[inline]
    pub fn push(&mut self, slot: u32, payload: u32) {
        let at = self.cursor[slot as usize];
        self.items[at as usize] = payload;
        self.cursor[slot as usize] = at + 1;
    }

    /// The payloads of `slot`, in push order. Allocation-free.
    #[inline]
    pub fn list(&self, slot: u32) -> &[u32] {
        let s = slot as usize;
        &self.items[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use degentri_graph::Edge;

    #[test]
    fn slot_map_interns_and_probes() {
        let mut map = VertexSlotMap::default();
        map.reset(4);
        assert!(map.is_empty());
        assert_eq!(map.insert(10), 0);
        assert_eq!(map.insert(20), 1);
        assert_eq!(map.insert(10), 0, "reinsert returns the existing slot");
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(20), Some(1));
        assert_eq!(map.get(30), None);
        map.reset(2);
        assert_eq!(map.get(10), None, "reset clears the keys");
        assert_eq!(map.insert(30), 0);
    }

    #[test]
    fn slot_map_handles_many_colliding_keys() {
        let mut map = VertexSlotMap::default();
        map.reset(1000);
        for k in 0..1000u32 {
            assert_eq!(map.insert(k * 64), k);
        }
        for k in 0..1000u32 {
            assert_eq!(map.get(k * 64), Some(k));
            assert_eq!(map.get(k * 64 + 1), None);
        }
    }

    #[test]
    fn probe_set_dedups_marks_and_counts() {
        let mut set = EdgeProbeSet::default();
        set.begin();
        for (a, b) in [(0u32, 1u32), (2, 3), (0, 1), (4, 9)] {
            set.add(Edge::from_raw(a, b).key());
        }
        assert_eq!(set.seal(), 3, "duplicates are removed");
        let q = Edge::from_raw(2, 3).key();
        let i = set.probe(q).unwrap();
        assert!(!set.hit(q));
        set.mark(i);
        assert!(set.hit(q));
        assert_eq!(set.hit_count(), 1);
        assert!(set.probe(Edge::from_raw(5, 6).key()).is_none());
        assert!(!set.hit(Edge::from_raw(5, 6).key()));
    }

    #[test]
    fn probe_set_bitmap_merge_equals_direct_marking() {
        let mut direct = EdgeProbeSet::default();
        direct.begin();
        for i in 0..200u32 {
            direct.add(Edge::from_raw(i, i + 1).key());
        }
        let n = direct.seal();
        let mut merged = direct.clone();
        let mut bitmap_a = vec![0u64; merged.bitmap_words()];
        let mut bitmap_b = vec![0u64; merged.bitmap_words()];
        for i in 0..n {
            if i % 3 == 0 {
                direct.mark(i);
                EdgeProbeSet::mark_in(&mut bitmap_a, i);
            }
            if i % 7 == 0 {
                direct.mark(i);
                EdgeProbeSet::mark_in(&mut bitmap_b, i);
            }
        }
        merged.merge_bitmap(&bitmap_a);
        merged.merge_bitmap(&bitmap_b);
        assert_eq!(merged.hit_count(), direct.hit_count());
        for i in 0..200u32 {
            let k = Edge::from_raw(i, i + 1).key();
            assert_eq!(merged.hit(k), direct.hit(k));
        }
    }

    #[test]
    fn edge_value_cache_inserts_probes_and_grows() {
        let mut cache = EdgeValueCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.get(Edge::from_raw(0, 1).key()), None);
        // Insert far past the initial capacity to force several growths.
        for i in 0..500u32 {
            cache.insert(Edge::from_raw(i, i + 1).key(), i as f64 * 0.5);
        }
        assert_eq!(cache.len(), 500);
        for i in 0..500u32 {
            assert_eq!(
                cache.get(Edge::from_raw(i, i + 1).key()),
                Some(i as f64 * 0.5)
            );
        }
        assert_eq!(cache.get(Edge::from_raw(1000, 1001).key()), None);
        // First insert wins (memo semantics).
        cache.insert(Edge::from_raw(3, 4).key(), 99.0);
        assert_eq!(cache.get(Edge::from_raw(3, 4).key()), Some(1.5));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get(Edge::from_raw(3, 4).key()), None);
    }

    #[test]
    fn slot_lists_preserve_push_order() {
        let mut lists = SlotLists::default();
        lists.begin(3);
        for (slot, _) in [(0u32, 0), (2, 0), (0, 0), (2, 0)] {
            lists.count(slot);
        }
        lists.finish_counts();
        lists.push(0, 10);
        lists.push(2, 20);
        lists.push(0, 11);
        lists.push(2, 21);
        assert_eq!(lists.list(0), &[10, 11]);
        assert_eq!(lists.list(1), &[] as &[u32]);
        assert_eq!(lists.list(2), &[20, 21]);
        // Reuse keeps working after a reset.
        lists.begin(1);
        lists.count(0);
        lists.finish_counts();
        lists.push(0, 7);
        assert_eq!(lists.list(0), &[7]);
    }
}
