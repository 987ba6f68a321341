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
//!
//! # Layout: one index, one slab
//!
//! Every entry lives in one slot of one slab, which holds the key (its only
//! copy), the value, the size, the key's hash and three links: `prev`/`next`
//! thread the slot into its class's recency list, and `chain` links the
//! slots whose keys share a hash. A class is only the head and tail of its
//! list and its byte, entry and decayed-hit counts. The one index maps a
//! hash to the first slot of its chain, through a hasher that passes the
//! `u64` on, so a lookup hashes the key once and probes one table, and
//! eviction and removal unlink a slot by its stored hash without hashing
//! again. [`crate::ShardedCache`] hashes the key itself, to pick a shard,
//! and hands the hash to the shard's `*_hashed` operations.

use crate::sharded::InsertOutcome;
use crate::stats::CacheStats;
use std::borrow::Borrow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// Default size-class upper bounds in bytes (last class is unbounded).
// LINT: allow(A008): tests/property_based.rs
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

/// The end of a list or a chain.
const NIL: u32 = u32::MAX;

/// The index's hasher: its keys are already keyed hashes (`RandomState`,
/// the owner's or [`crate::ShardedCache`]'s), so it hands them on unchanged
/// and the table keeps their protection against crafted keys.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // The index hashes only `u64`s (`write_u64` below); fold anything
        // else rather than panic.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    hash: u64,
    size: usize,
    /// Toward the most recently used end of the class's list.
    prev: u32,
    /// Toward the least recently used end.
    next: u32,
    /// The next slot whose key has the same hash.
    chain: u32,
    class: u8,
}

#[derive(Debug)]
struct Class {
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the class's next victim.
    tail: u32,
    bytes: usize,
    entries: usize,
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
    /// Hash → first slot of the chain of keys with that hash.
    index: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<u32>,
    classes: Vec<Class>,
    bounds: Vec<usize>,
    hasher: RandomState,
    capacity_bytes: usize,
    used_bytes: usize,
    stats: CacheStats,
    lookups_since_decay: u64,
}

impl<K: Hash + Eq, V> SaLruCache<K, V> {
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
            .map(|_| Class {
                head: NIL,
                tail: NIL,
                bytes: 0,
                entries: 0,
                hits: 0.0,
            })
            .collect();
        Self {
            index: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            classes,
            bounds: bounds.to_vec(),
            hasher: RandomState::new(),
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
        self.slots.len() - self.free.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    fn hash<Q: Hash + ?Sized>(&self, key: &Q) -> u64 {
        self.hasher.hash_one(key)
    }

    fn slot(&self, idx: u32) -> &Slot<K, V> {
        // INVARIANT: lists, chains and the index only ever hold live slots;
        // `release` unlinks a slot from all three before freeing it.
        self.slots[idx as usize].as_ref().expect("live slot")
    }

    fn slot_mut(&mut self, idx: u32) -> &mut Slot<K, V> {
        // INVARIANT: same contract as `slot` above.
        self.slots[idx as usize].as_mut().expect("live slot")
    }

    /// The slot holding `key`, whose hash is `hash`.
    fn find<Q>(&self, hash: u64, key: &Q) -> Option<u32>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let mut idx = *self.index.get(&hash)?;
        loop {
            let slot = self.slot(idx);
            if slot.key.borrow() == key {
                return Some(idx);
            }
            if slot.chain == NIL {
                return None;
            }
            idx = slot.chain;
        }
    }

    /// Look up `key`, promoting it within its class on a hit. Like
    /// `HashMap::get`, lookups take any borrowed form of the key.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_hashed(self.hash(key), key)
    }

    /// [`SaLruCache::get`] for a key whose hash the caller has taken.
    pub(crate) fn get_hashed<Q>(&mut self, hash: u64, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        self.maybe_decay();
        self.lookups_since_decay += 1;
        match self.find(hash, key) {
            Some(idx) => {
                self.stats.hits += 1;
                let class = self.slot(idx).class as usize;
                self.classes[class].hits += 1.0;
                if self.classes[class].head != idx {
                    self.unlink(idx);
                    self.push_front(idx);
                }
                Some(&self.slot(idx).value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// [`SaLruCache::get`], returning the value mutably: the same promotion
    /// and the same counts.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = self.hash(key);
        self.get_hashed(hash, key)?;
        let idx = self.find(hash, key)?;
        Some(&mut self.slot_mut(idx).value)
    }

    /// Look up without promotion or statistics.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = self.find(self.hash(key), key)?;
        Some(&self.slot(idx).value)
    }

    /// True if `key` is cached.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.contains_hashed(self.hash(key), key)
    }

    /// [`SaLruCache::contains`] for a key whose hash the caller has taken.
    pub(crate) fn contains_hashed<Q>(&self, hash: u64, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        self.find(hash, key).is_some()
    }

    /// Insert an entry of `size` bytes, evicting per the size-aware policy.
    /// Returns evicted `(key, value)` pairs. Entries larger than the total
    /// capacity are not admitted, and a re-insert that is not admitted
    /// evicts the key's old entry.
    pub fn insert(&mut self, key: K, value: V, size: usize) -> Vec<(K, V)> {
        let hash = self.hash(&key);
        self.insert_hashed(hash, key, value, size).evicted
    }

    /// [`SaLruCache::insert`] for a key whose hash is `hash`, with the whole
    /// outcome.
    pub(crate) fn insert_hashed(
        &mut self,
        hash: u64,
        key: K,
        value: V,
        size: usize,
    ) -> InsertOutcome<K, V> {
        self.stats.insertions += 1;
        let existing = self.find(hash, &key);
        if size > self.capacity_bytes {
            // Not admitted, and the key's old value must not outlive the
            // write that replaced it: it leaves like any other eviction.
            let evicted = existing.map(|idx| self.evict(idx)).into_iter().collect();
            return InsertOutcome {
                evicted,
                admitted: false,
                created: false,
            };
        }
        let class = self.class_of(size);
        let idx = match existing {
            Some(idx) => {
                // A re-insert keeps its slot; the size may move it to
                // another class.
                self.unlink(idx);
                let slot = self.slot_mut(idx);
                let old_size = std::mem::replace(&mut slot.size, size);
                slot.value = value;
                slot.class = class;
                self.used_bytes = self.used_bytes - old_size + size;
                idx
            }
            None => {
                let slot = Slot {
                    key,
                    value,
                    hash,
                    size,
                    prev: NIL,
                    next: NIL,
                    chain: NIL,
                    class,
                };
                let idx = match self.free.pop() {
                    Some(idx) => {
                        self.slots[idx as usize] = Some(slot);
                        idx
                    }
                    None => {
                        // INVARIANT: 2^32 - 1 live entries would take
                        // hundreds of GiB of slots alone.
                        let idx = u32::try_from(self.slots.len()).expect("fewer than 2^32 slots");
                        self.slots.push(Some(slot));
                        idx
                    }
                };
                // The new slot heads its hash's chain.
                if let Some(next) = self.index.insert(hash, idx) {
                    self.slot_mut(idx).chain = next;
                }
                self.used_bytes += size;
                idx
            }
        };
        self.push_front(idx);
        let evicted = self.evict_to_fit();
        InsertOutcome {
            evicted,
            // The policy may have chosen the new entry's own class; nothing
            // reuses a freed slot while evicting.
            admitted: self.slots[idx as usize].is_some(),
            created: existing.is_none(),
        }
    }

    /// Remove `key`, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.remove_hashed(self.hash(key), key)
    }

    /// [`SaLruCache::remove`] for a key whose hash the caller has taken.
    pub(crate) fn remove_hashed<Q>(&mut self, hash: u64, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let idx = self.find(hash, key)?;
        Some(self.release(idx).1)
    }

    /// Diagnostic snapshot of every size class.
    // LINT: allow(A008): tests/property_based.rs
    pub fn class_infos(&self) -> Vec<ClassInfo> {
        self.bounds
            .iter()
            .zip(&self.classes)
            .map(|(&upper_bound, class)| ClassInfo {
                upper_bound,
                bytes: class.bytes,
                entries: class.entries,
                decayed_hits: class.hits,
            })
            .collect()
    }

    /// Make `idx` its class's most recently used slot.
    fn push_front(&mut self, idx: u32) {
        let (class, size) = {
            let slot = self.slot(idx);
            (slot.class as usize, slot.size)
        };
        let list = &mut self.classes[class];
        let old_head = std::mem::replace(&mut list.head, idx);
        if list.tail == NIL {
            list.tail = idx;
        }
        list.bytes += size;
        list.entries += 1;
        let slot = self.slot_mut(idx);
        slot.prev = NIL;
        slot.next = old_head;
        if old_head != NIL {
            self.slot_mut(old_head).prev = idx;
        }
    }

    /// Take `idx` out of its class's list (the slot stays indexed).
    fn unlink(&mut self, idx: u32) {
        let (prev, next, class, size) = {
            let slot = self.slot(idx);
            (slot.prev, slot.next, slot.class as usize, slot.size)
        };
        if prev == NIL {
            self.classes[class].head = next;
        } else {
            self.slot_mut(prev).next = next;
        }
        if next == NIL {
            self.classes[class].tail = prev;
        } else {
            self.slot_mut(next).prev = prev;
        }
        let list = &mut self.classes[class];
        list.bytes -= size;
        list.entries -= 1;
    }

    /// Drop `idx` from its list, its chain and the slab.
    fn release(&mut self, idx: u32) -> (K, V) {
        self.unlink(idx);
        let (hash, chain) = {
            let slot = self.slot(idx);
            (slot.hash, slot.chain)
        };
        let mut prev = match self.index.entry(hash) {
            Entry::Occupied(mut first) if *first.get() == idx => {
                if chain == NIL {
                    first.remove();
                } else {
                    first.insert(chain);
                }
                NIL
            }
            Entry::Occupied(first) => *first.get(),
            // INVARIANT: a live slot is on its hash's chain, so the hash is
            // indexed; this arm is never taken.
            Entry::Vacant(_) => NIL,
        };
        while prev != NIL {
            let next = self.slot(prev).chain;
            if next == idx {
                self.slot_mut(prev).chain = chain;
                break;
            }
            prev = next;
        }
        // INVARIANT: `idx` was live on entry; only this line frees it.
        let slot = self.slots[idx as usize].take().expect("live slot");
        self.free.push(idx);
        self.used_bytes -= slot.size;
        (slot.key, slot.value)
    }

    /// Release `idx` as an eviction.
    fn evict(&mut self, idx: u32) -> (K, V) {
        self.stats.evictions += 1;
        self.release(idx)
    }

    /// Hit density of a class: decayed hits per byte (+1 smoothing on both
    /// sides so empty/new classes compare sanely).
    fn hit_density(class: &Class) -> f64 {
        (class.hits + 1.0) / (class.bytes as f64 + 1.0)
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
                .filter(|(_, c)| c.entries > 0)
                .min_by(|(ia, a), (ib, b)| {
                    Self::hit_density(a)
                        // INVARIANT: hit_density divides by a clamped non-zero
                        // denominator and never yields NaN.
                        .partial_cmp(&Self::hit_density(b))
                        .expect("hit density is finite")
                        .then(ib.cmp(ia))
                })
                .map(|(_, c)| c.tail)
                // INVARIANT: used_bytes > capacity implies some class holds an
                // entry, and the filter keeps exactly those classes.
                .expect("over capacity implies a non-empty class");
            evicted.push(self.evict(victim));
        }
        evicted
    }

    fn maybe_decay(&mut self) {
        if self.lookups_since_decay >= DECAY_INTERVAL {
            for class in &mut self.classes {
                class.hits *= DECAY_FACTOR;
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
        // in a byte-LRU (one size class) the large inserts evict everything
        // older.
        let mut lru = SaLruCache::with_class_bounds(10 << 10, &[usize::MAX]);
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
    fn get_mut_promotes_and_counts_like_get() {
        let mut c = SaLruCache::with_class_bounds(300, &[usize::MAX]);
        c.insert("a", 1u32, 100);
        c.insert("b", 2u32, 100);
        c.insert("c", 3u32, 100);
        *c.get_mut(&"a").expect("cached") += 10;
        assert_eq!(c.get_mut(&"missing"), None);
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
        assert_eq!(c.class_infos()[0].decayed_hits, 1.0);
        assert_eq!(c.peek(&"a"), Some(&11));
        // `a` was promoted, so `b` is the least recently used.
        assert_eq!(c.insert("d", 4u32, 100), vec![("b", 2)]);
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
    fn oversized_reinsert_evicts_the_old_value() {
        let mut c = SaLruCache::new(100);
        c.insert("k", 1u32, 10);
        assert_eq!(c.insert("k", 2u32, 101), vec![("k", 1)]);
        assert_eq!(c.get(&"k"), None);
        assert_eq!((c.len(), c.used_bytes()), (0, 0));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn slot_layout() {
        // The sizes the node cache's row charge is derived from (lavastore's
        // `ROW_OVERHEAD_BYTES`), for a 24 B key and value.
        assert_eq!(std::mem::size_of::<Slot<[u64; 3], [u64; 3]>>(), 80);
        assert_eq!(std::mem::size_of::<(u64, u32)>(), 16);
    }

    #[test]
    fn keys_sharing_a_hash_chain_through_their_slots() {
        // One size class of 300 B; a, b, c share hash 7 (chain c → b → a).
        let mut c = SaLruCache::with_class_bounds(300, &[usize::MAX]);
        for (key, value) in [("a", 1u32), ("b", 2), ("c", 3)] {
            let out = c.insert_hashed(7, key, value, 100);
            assert!(out.admitted && out.created && out.evicted.is_empty());
        }
        assert_eq!(c.index.len(), 1);
        for (key, value) in [("a", 1u32), ("b", 2), ("c", 3)] {
            assert_eq!(c.get_hashed(7, &key), Some(&value), "{key}");
        }
        assert!(!c.contains_hashed(7, &"d"));
        // The middle of the chain.
        assert_eq!(c.remove_hashed(7, &"b"), Some(2));
        assert!(!c.contains_hashed(7, &"b"));
        assert_eq!(c.get_hashed(7, &"a"), Some(&1));
        assert_eq!(c.get_hashed(7, &"c"), Some(&3));
        // The head of the chain, evicted: `a` was read last, so `c` is the
        // least recently used.
        assert_eq!(c.get_hashed(7, &"a"), Some(&1));
        let out = c.insert_hashed(9, "d", 4, 150);
        assert_eq!(out.evicted, vec![("c", 3)]);
        assert_eq!(c.get_hashed(7, &"a"), Some(&1));
        assert_eq!(c.get_hashed(9, &"d"), Some(&4));
        assert!(!c.contains_hashed(7, &"c"));
        assert_eq!(c.remove_hashed(7, &"a"), Some(1));
        assert_eq!(c.index.len(), 1);
        assert_eq!((c.len(), c.used_bytes()), (1, 150));
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
