//! Size-Aware LRU (SA-LRU) — the DataNode-layer cache (paper §4.4).
//!
//! Workload diversity forces a single node cache to hold 0.1 KB comments next to
//! multi-megabyte blobs (Table 1). A plain byte-LRU lets a burst of large cold
//! values flush thousands of small hot ones. SA-LRU therefore:
//!
//! 1. segregates entries into **size classes**, each with its own LRU list
//!    ("individual eviction policies for items of different sizes"), and
//! 2. on memory pressure, evicts from the class with the lowest **hit density**
//!    (decayed hits per byte), i.e. "data that occupies more memory while
//!    yielding fewer cache hits", which naturally prioritizes retaining small
//!    entries whose access cost is lowest.

use crate::lru::LruCache;
use crate::stats::CacheStats;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Default size-class upper bounds in bytes (last class is unbounded).
pub const DEFAULT_CLASS_BOUNDS: &[usize] = &[
    256,
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
    usize::MAX,
];

/// How many lookups between exponential decays of per-class hit counters.
const DECAY_INTERVAL: u64 = 4096;
/// Multiplier applied to per-class hit counters at each decay.
const DECAY_FACTOR: f64 = 0.5;

#[derive(Debug)]
struct ClassShard<K, V> {
    lru: LruCache<K, V>,
    /// Exponentially decayed hit count — the "yield" half of hit density.
    hits: f64,
}

/// Per-class diagnostic snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassInfo {
    /// Upper bound (exclusive) of entry sizes in this class, in bytes.
    pub upper_bound: usize,
    /// Bytes held by the class.
    pub bytes: usize,
    /// Live entries in the class.
    pub entries: usize,
    /// Decayed hit counter.
    pub decayed_hits: f64,
}

/// Size-Aware LRU cache bounded by total byte size.
#[derive(Debug)]
pub struct SaLruCache<K, V> {
    classes: Vec<ClassShard<K, V>>,
    bounds: Vec<usize>,
    key_class: HashMap<K, u8>,
    capacity_bytes: usize,
    used_bytes: usize,
    stats: CacheStats,
    lookups_since_decay: u64,
}

impl<K: Hash + Eq + Clone, V> SaLruCache<K, V> {
    /// An SA-LRU with the default size classes.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_class_bounds(capacity_bytes, DEFAULT_CLASS_BOUNDS)
    }

    /// An SA-LRU with caller-provided size-class upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty, not strictly increasing, or does not end
    /// with `usize::MAX` (every size must map to a class).
    pub fn with_class_bounds(capacity_bytes: usize, bounds: &[usize]) -> Self {
        assert!(!bounds.is_empty(), "need at least one size class");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "class bounds must be strictly increasing"
        );
        assert_eq!(
            // INVARIANT: the `is_empty` assert above guarantees a last element.
            *bounds.last().expect("non-empty"),
            usize::MAX,
            "last class must be unbounded"
        );
        let classes = bounds
            .iter()
            .map(|_| ClassShard {
                // Shards are individually unbounded; SaLruCache enforces the
                // global budget itself.
                lru: LruCache::new(usize::MAX),
                hits: 0.0,
            })
            .collect();
        Self {
            classes,
            bounds: bounds.to_vec(),
            key_class: HashMap::new(),
            capacity_bytes,
            used_bytes: 0,
            stats: CacheStats::default(),
            lookups_since_decay: 0,
        }
    }

    /// Configured byte capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently held across all classes.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Live entry count across all classes.
    pub fn len(&self) -> usize {
        self.key_class.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.key_class.is_empty()
    }

    /// Global hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn class_of(&self, size: usize) -> u8 {
        self.bounds
            .iter()
            .position(|&b| size <= b)
            // INVARIANT: construction asserts the last bound is usize::MAX,
            // so every size matches at least one class.
            .expect("last bound is usize::MAX") as u8
    }

    /// Look up `key`, promoting it within its class on a hit. Lookups take
    /// any borrowed form of the key, as [`LruCache::get`] does.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.maybe_decay();
        self.lookups_since_decay += 1;
        match self.key_class.get(key).copied() {
            Some(class) => {
                self.stats.hits += 1;
                let shard = &mut self.classes[class as usize];
                shard.hits += 1.0;
                shard.lru.get(key)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Look up without promotion or statistics.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let class = *self.key_class.get(key)?;
        self.classes[class as usize].lru.peek(key)
    }

    /// True if `key` is cached.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.key_class.contains_key(key)
    }

    /// Insert an entry of `size` bytes, evicting per the size-aware policy.
    /// Returns evicted `(key, value)` pairs. Entries larger than the total
    /// capacity are not admitted.
    pub fn insert(&mut self, key: K, value: V, size: usize) -> Vec<(K, V)> {
        self.stats.insertions += 1;
        if size > self.capacity_bytes {
            return Vec::new();
        }
        let class = self.class_of(size);
        // Handle a re-insert whose size moved it to a different class.
        if let Some(&old_class) = self.key_class.get(&key) {
            let old_shard = &mut self.classes[old_class as usize];
            // INVARIANT: `key_class` and the per-class LRUs are updated in
            // lockstep; a mapped key is always present in its class.
            let old_size = old_shard.lru.size_of(&key).expect("key tracked in class");
            if old_class == class {
                self.used_bytes = self.used_bytes - old_size + size;
                old_shard.lru.insert(key, value, size);
                return self.evict_to_fit();
            }
            old_shard.lru.remove(&key);
            self.used_bytes -= old_size;
        }
        self.key_class.insert(key.clone(), class);
        self.classes[class as usize].lru.insert(key, value, size);
        self.used_bytes += size;
        self.evict_to_fit()
    }

    /// Remove `key`, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let class = self.key_class.remove(key)?;
        let shard = &mut self.classes[class as usize];
        // INVARIANT: `key_class` and the per-class LRUs are updated in
        // lockstep; a mapped key is always present in its class.
        let size = shard.lru.size_of(key).expect("key tracked in class");
        let value = shard.lru.remove(key).expect("key tracked in class");
        self.used_bytes -= size;
        Some(value)
    }

    /// Diagnostic snapshot of every size class.
    pub fn class_infos(&self) -> Vec<ClassInfo> {
        self.bounds
            .iter()
            .zip(&self.classes)
            .map(|(&upper_bound, shard)| ClassInfo {
                upper_bound,
                bytes: shard.lru.used_bytes(),
                entries: shard.lru.len(),
                decayed_hits: shard.hits,
            })
            .collect()
    }

    /// Hit density of a class: decayed hits per byte (+1 smoothing on both
    /// sides so empty/new classes compare sanely).
    fn hit_density(shard: &ClassShard<K, V>) -> f64 {
        (shard.hits + 1.0) / (shard.lru.used_bytes() as f64 + 1.0)
    }

    fn evict_to_fit(&mut self) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        while self.used_bytes > self.capacity_bytes {
            // Victim class: lowest hit density among non-empty classes; ties
            // broken toward the larger size class (cheaper to re-fetch few
            // large items than many small ones, and large items cost more
            // memory per hit).
            let victim = self
                .classes
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.lru.is_empty())
                .min_by(|(ia, a), (ib, b)| {
                    Self::hit_density(a)
                        // INVARIANT: hit_density divides by a clamped non-zero
                        // denominator and never yields NaN.
                        .partial_cmp(&Self::hit_density(b))
                        .expect("hit density is finite")
                        .then(ib.cmp(ia))
                })
                .map(|(i, _)| i)
                // INVARIANT: used_bytes > capacity implies some class holds an
                // entry, and the filter keeps exactly those classes.
                .expect("over capacity implies a non-empty class");
            let shard = &mut self.classes[victim];
            // INVARIANT: the victim passed the `!is_empty` filter above.
            let (key, value, size) = shard.lru.pop_lru().expect("victim class non-empty");
            self.used_bytes -= size;
            self.key_class.remove(&key);
            self.stats.evictions += 1;
            evicted.push((key, value));
        }
        evicted
    }

    fn maybe_decay(&mut self) {
        if self.lookups_since_decay >= DECAY_INTERVAL {
            for shard in &mut self.classes {
                shard.hits *= DECAY_FACTOR;
            }
            self.lookups_since_decay = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_assignment_follows_bounds() {
        let c: SaLruCache<u32, ()> = SaLruCache::new(1 << 20);
        assert_eq!(c.class_of(1), 0);
        assert_eq!(c.class_of(256), 0);
        assert_eq!(c.class_of(257), 1);
        assert_eq!(c.class_of(1 << 20), 6);
        assert_eq!(c.class_of(5 << 20), 7);
    }

    #[test]
    fn basic_insert_get_remove() {
        let mut c = SaLruCache::new(10_000);
        c.insert("a", 1u32, 100);
        c.insert("b", 2u32, 5_000);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"missing"), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.used_bytes(), 5_100);
        assert_eq!(c.remove(&"b"), Some(2));
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn evicts_cold_large_class_before_hot_small_class() {
        // Capacity 10 KB. Fill with small hot entries, then push large cold ones.
        let mut c = SaLruCache::new(10 << 10);
        for i in 0..40u32 {
            c.insert(format!("small{i}"), i, 100); // 4 KB of small entries
        }
        // Make the small class hot.
        for _ in 0..10 {
            for i in 0..40u32 {
                c.get(&format!("small{i}"));
            }
        }
        // Large cold entries force eviction; the large class should be the victim.
        c.insert("large0".to_string(), 0, 5 << 10);
        let evicted = c.insert("large1".to_string(), 1, 5 << 10);
        assert!(
            evicted.iter().all(|(k, _)| k.starts_with("large")),
            "evicted {evicted:?}"
        );
        // All small hot entries survive.
        for i in 0..40u32 {
            assert!(c.contains(&format!("small{i}")), "small{i} was evicted");
        }
    }

    #[test]
    fn plain_lru_would_have_evicted_small_entries() {
        // Contrast case documenting the baseline behaviour SA-LRU avoids:
        // in a byte-LRU the large inserts evict everything older.
        let mut lru = crate::lru::LruCache::new(10 << 10);
        for i in 0..40u32 {
            lru.insert(format!("small{i}"), i, 100);
        }
        lru.insert("large0".to_string(), 0, 5 << 10);
        lru.insert("large1".to_string(), 1, 5 << 10);
        let survivors = (0..40u32)
            .filter(|i| lru.contains(&format!("small{i}")))
            .count();
        assert!(survivors < 40, "plain LRU keeps all small entries?");
    }

    #[test]
    fn within_class_eviction_is_lru() {
        let mut c = SaLruCache::with_class_bounds(300, &[usize::MAX]);
        c.insert("a", 1u32, 100);
        c.insert("b", 2u32, 100);
        c.insert("c", 3u32, 100);
        c.get(&"a");
        let evicted = c.insert("d", 4u32, 100);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, "b");
    }

    #[test]
    fn resize_across_classes_moves_entry() {
        let mut c = SaLruCache::new(1 << 20);
        c.insert("k", 1u32, 100); // class 0
        c.insert("k", 2u32, 10 << 10); // class 3
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 10 << 10);
        assert_eq!(c.peek(&"k"), Some(&2));
        let infos = c.class_infos();
        assert_eq!(infos[0].entries, 0);
        assert_eq!(infos[3].entries, 1);
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut c = SaLruCache::new(100);
        c.insert("big", 0u32, 101);
        assert!(!c.contains(&"big"));
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn used_bytes_never_exceeds_capacity() {
        let mut c = SaLruCache::new(4096);
        for i in 0..1000u32 {
            let size = 1 + (i as usize * 37) % 900;
            c.insert(i, i, size);
            assert!(c.used_bytes() <= 4096, "over capacity at i={i}");
        }
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = SaLruCache::new(1000);
        c.insert("a", 1u32, 10);
        c.get(&"a");
        c.get(&"b");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }
}
