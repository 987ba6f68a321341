//! Lock-striped, thread-safe wrapper around [`SaLruCache`].
//!
//! The simulation-layer caches in this crate are single-threaded by design
//! (`&mut self` everywhere, sim-time TTLs). The storage engine needs the same
//! SA-LRU size-aware policy (paper §4.4) behind a `Sync` facade that many
//! reader threads can hit concurrently. `ShardedCache` splits the byte budget
//! across a power-of-two number of shards, each an independent
//! `Mutex<SaLruCache>`; a key's shard is chosen by hash, so unrelated lookups
//! take unrelated locks and the hot path is one short critical section. The
//! key is hashed once per operation, with the cache's keyed `RandomState`
//! (row keys are chosen by clients): the hash picks the shard and is handed
//! to the shard, whose index is keyed by it.
//!
//! Values are required to be `Clone`: callers store `Arc<[u8]>`-style handles
//! so a hit clones a pointer, never the payload.
//!
//! The lavastore node cache is one `ShardedCache` holding two kinds of entry
//! — ~4 KiB SST blocks and ~0.1 KiB rows — under one byte budget, which is
//! the case the size classes exist for. Lookups take a borrowed form of the
//! key (`K: Borrow<Q>`), so a row is probed with the caller's `&[u8]`.

use crate::salru::SaLruCache;
use crate::stats::CacheStats;
use abase_util::lockrank::{rank, RankedMutex};
use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicUsize, Ordering};

/// What happened to an [`ShardedCache::insert`] call.
#[derive(Debug)]
pub struct InsertOutcome<K, V> {
    /// Entries displaced by the size-aware policy to make room.
    pub evicted: Vec<(K, V)>,
    /// False when the entry was larger than its shard's budget and was not
    /// admitted at all (a key it would have replaced loses its old entry,
    /// which comes back in `evicted`), or when the policy evicted it at once.
    pub admitted: bool,
    /// True when the call added an entry for a key that had none; false when
    /// it replaced the key's entry or the entry was too large to go in. Every
    /// created entry later leaves exactly once, through an `evicted` list
    /// (possibly this call's own) or [`ShardedCache::remove`], so a caller
    /// can keep exact per-kind counts from outcomes alone.
    pub created: bool,
}

/// A thread-safe SA-LRU: N lock-striped shards, each running the size-aware
/// eviction policy, bounded by a shared byte capacity.
pub struct ShardedCache<K, V> {
    shards: Box<[RankedMutex<SaLruCache<K, V>>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
    hasher: RandomState,
    /// Sum of per-shard `used_bytes`, maintained under each shard's lock so
    /// readers never have to sweep every shard for a gauge.
    resident: AtomicUsize,
    capacity_bytes: usize,
}

impl<K: Hash + Eq, V: Clone> ShardedCache<K, V> {
    /// A cache of `capacity_bytes` split over `shards` lock stripes.
    ///
    /// `shards` is rounded up to the next power of two (minimum 1). Each
    /// shard owns an equal slice of the byte budget, so a single entry can
    /// never exceed `capacity_bytes / shard_count`.
    pub fn new(capacity_bytes: usize, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let per_shard = (capacity_bytes / n).max(1);
        let shards: Box<[_]> = (0..n)
            .map(|_| RankedMutex::new(rank::CACHE_SHARD, SaLruCache::new(per_shard)))
            .collect();
        Self {
            shards,
            mask: n - 1,
            hasher: RandomState::new(),
            resident: AtomicUsize::new(0),
            capacity_bytes: per_shard * n,
        }
    }

    /// The one keyed hash of `key` and the shard it picks. The shard's index
    /// takes its bucket from the hash's low bits and its control byte from
    /// the top seven, so the shard comes from bits 32 and up, which neither
    /// uses. `Borrow` guarantees `Q` hashes as `K` does, so a borrowed probe
    /// lands on the shard its owned key was inserted into.
    fn locate<Q: Hash + ?Sized>(&self, key: &Q) -> (u64, &RankedMutex<SaLruCache<K, V>>) {
        let hash = self.hasher.hash_one(key);
        (hash, &self.shards[(hash >> 32) as usize & self.mask])
    }

    fn settle_resident(&self, before: usize, after: usize) {
        match after.cmp(&before) {
            std::cmp::Ordering::Greater => {
                self.resident.fetch_add(after - before, Ordering::Relaxed);
            }
            std::cmp::Ordering::Less => {
                self.resident.fetch_sub(before - after, Ordering::Relaxed);
            }
            std::cmp::Ordering::Equal => {}
        }
    }

    /// Look up `key`, promoting it within its shard on a hit. Returns a clone
    /// of the stored value (an `Arc` handle for block-cache use).
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (hash, shard) = self.locate(key);
        shard.lock().get_hashed(hash, key).cloned()
    }

    /// True if `key` is currently cached (no promotion, no stats).
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (hash, shard) = self.locate(key);
        shard.lock().contains_hashed(hash, key)
    }

    /// Insert an entry of `size` bytes, evicting per the size-aware policy.
    pub fn insert(&self, key: K, value: V, size: usize) -> InsertOutcome<K, V> {
        let (hash, shard) = self.locate(&key);
        let mut guard = shard.lock();
        let before = guard.used_bytes();
        let outcome = guard.insert_hashed(hash, key, value, size);
        let after = guard.used_bytes();
        drop(guard);
        self.settle_resident(before, after);
        outcome
    }

    /// Remove `key`, returning its value.
    pub fn remove<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (hash, shard) = self.locate(key);
        let mut guard = shard.lock();
        let before = guard.used_bytes();
        let value = guard.remove_hashed(hash, key);
        let after = guard.used_bytes();
        drop(guard);
        self.settle_resident(before, after);
        value
    }

    /// Total configured byte capacity across all shards.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently resident across all shards (lock-free read).
    pub fn used_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Number of lock stripes (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Live entries across all shards. Locks each shard in turn; diagnostic
    /// use only.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Merged hit/miss counters across all shards — the same [`CacheStats`]
    /// shape the proxy AU-LRU and node SA-LRU report. Locks each shard in
    /// turn; reporting use only.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.shards.iter() {
            total.merge(shard.lock().stats());
        }
        total
    }
}

impl<K, V> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("capacity_bytes", &self.capacity_bytes)
            .field("used_bytes", &self.resident.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(1 << 20, 5);
        assert_eq!(c.shard_count(), 8);
        let c: ShardedCache<u64, u64> = ShardedCache::new(1 << 20, 0);
        assert_eq!(c.shard_count(), 1);
    }

    #[test]
    fn insert_get_roundtrip() {
        let c = ShardedCache::new(1 << 20, 4);
        for i in 0..100u64 {
            c.insert(i, i * 10, 64);
        }
        for i in 0..100u64 {
            assert_eq!(c.get(&i), Some(i * 10), "key {i}");
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.used_bytes(), 100 * 64);
    }

    #[test]
    fn capacity_bounds_hold_under_churn() {
        let c = ShardedCache::new(64 << 10, 4);
        for i in 0..10_000u64 {
            let size = 1 + (i as usize * 131) % 4096;
            c.insert(i, i, size);
            assert!(
                c.used_bytes() <= c.capacity_bytes(),
                "over budget at i={i}: {} > {}",
                c.used_bytes(),
                c.capacity_bytes()
            );
        }
        let stats = c.stats();
        assert!(stats.evictions > 0, "churn never evicted: {stats:?}");
        assert_eq!(stats.insertions, 10_000);
    }

    #[test]
    fn oversized_entry_not_admitted() {
        let c = ShardedCache::new(4 << 10, 4); // 1 KiB per shard
        let out = c.insert(7u64, 7u64, 2 << 10);
        assert!(!out.admitted);
        assert_eq!(c.get(&7), None);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn oversized_reinsert_is_not_admitted_and_drops_the_old_entry() {
        let c = ShardedCache::new(100, 1);
        c.insert("k", 1u32, 10);
        let out = c.insert("k", 2u32, 101);
        assert!(!out.admitted && !out.created);
        assert_eq!(out.evicted, vec![("k", 1)]);
        assert_eq!(c.get(&"k"), None);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn each_operation_hashes_the_key_once() {
        thread_local! {
            static HASHES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
        }
        /// A key that counts how often it is hashed.
        #[derive(Debug, PartialEq, Eq)]
        struct Key(u64);
        impl Hash for Key {
            fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
                HASHES.with(|h| h.set(h.get() + 1));
                self.0.hash(state);
            }
        }
        let hashes = |op: &dyn Fn()| {
            HASHES.with(|h| h.set(0));
            op();
            HASHES.with(|h| h.get())
        };
        // 1 KiB per shard: most of these inserts evict.
        let c = ShardedCache::new(4 << 10, 4);
        for i in 0..64u64 {
            assert_eq!(hashes(&|| _ = c.insert(Key(i), i, 100)), 1);
        }
        assert!(c.stats().evictions > 0);
        assert_eq!(hashes(&|| _ = c.get(&Key(63))), 1);
        assert_eq!(hashes(&|| _ = c.contains(&Key(1))), 1);
        assert_eq!(hashes(&|| _ = c.remove(&Key(63))), 1);
    }

    #[test]
    fn remove_releases_bytes() {
        let c = ShardedCache::new(1 << 20, 2);
        c.insert("k".to_string(), 1u32, 500);
        assert_eq!(c.used_bytes(), 500);
        assert_eq!(c.remove(&"k".to_string()), Some(1));
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.remove(&"k".to_string()), None);
    }

    #[test]
    fn hot_small_class_survives_a_stream_of_cold_blocks() {
        // The node cache's shape: ~150 B rows and 4 KiB blocks in one budget.
        // Each row is hit once per 100 block inserts and the cache has room
        // for ~56 blocks, so recency alone (a plain LRU) would let the block
        // stream wash every row out. Hits per byte keeps them: the block
        // class yields nothing, so it is always the victim.
        let c: ShardedCache<(u8, u64), u64> = ShardedCache::new(256 << 10, 4);
        let rows = 200u64;
        for i in 0..rows {
            c.insert((0, i), i, 150);
        }
        for block in 0..2_000u64 {
            for i in [block * 2 % rows, (block * 2 + 1) % rows] {
                assert_eq!(c.get(&(0, i)), Some(i), "row {i} lost at block {block}");
            }
            let out = c.insert((1, block), block, 4 << 10);
            assert!(out.created);
            assert!(
                out.evicted.iter().all(|((kind, _), _)| *kind == 1),
                "a hot row was evicted for a cold block: {:?}",
                out.evicted
            );
            assert!(c.used_bytes() <= c.capacity_bytes(), "over budget");
        }
        assert!(c.stats().evictions > 0, "the blocks never filled the cache");
        assert!((0..rows).all(|i| c.contains(&(0, i))));
    }

    #[test]
    fn borrowed_key_lookups_agree_with_owned() {
        let c: ShardedCache<Vec<u8>, u32> = ShardedCache::new(1 << 20, 8);
        for i in 0..64u32 {
            c.insert(format!("key-{i}").into_bytes(), i, 100);
        }
        for i in 0..64u32 {
            let owned = format!("key-{i}").into_bytes();
            // `&[u8]` and `&Vec<u8>` hash alike, so both land on one shard.
            assert_eq!(c.get(owned.as_slice()), Some(i));
            assert_eq!(c.get(&owned), Some(i));
            assert!(c.contains(owned.as_slice()));
        }
        assert_eq!(c.get(&b"absent"[..]), None);
        assert_eq!(c.remove(&b"key-7"[..]), Some(7));
        assert_eq!(c.remove(&b"key-7".to_vec()), None);
        assert_eq!(c.remove(&b"key-8".to_vec()), Some(8));
        assert_eq!(c.get(&b"key-8"[..]), None);
        assert_eq!(c.len(), 62);
        assert_eq!(c.used_bytes(), 62 * 100);
    }

    #[test]
    fn created_counts_each_entry_once() {
        // created − evicted − removed is the live count, whatever happens.
        let c: ShardedCache<u64, u64> = ShardedCache::new(8 << 10, 2);
        let mut live = 0i64;
        for i in 0..5_000u64 {
            let key = i % 97;
            let out = c.insert(key, i, 64 + (i as usize * 131) % 2_000);
            live += i64::from(out.created) - out.evicted.len() as i64;
            if i % 5 == 0 && c.remove(&(key / 2)).is_some() {
                live -= 1;
            }
            assert_eq!(live, c.len() as i64, "at i={i}");
        }
        // Larger than a shard: not admitted, nothing created, nothing evicted.
        let out = c.insert(1_000, 0, 8 << 10);
        assert!(!out.admitted && !out.created && out.evicted.is_empty());
    }

    #[test]
    fn stats_merge_across_shards() {
        let c = ShardedCache::new(1 << 20, 8);
        for i in 0..50u64 {
            c.insert(i, i, 32);
        }
        for i in 0..50u64 {
            c.get(&i);
        }
        for i in 100..120u64 {
            c.get(&i);
        }
        let stats = c.stats();
        assert_eq!(stats.hits, 50);
        assert_eq!(stats.misses, 20);
        assert!((stats.hit_ratio() - 50.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_readers_and_writers_stay_consistent() {
        let c = Arc::new(ShardedCache::new(256 << 10, 8));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let key = (t * 1_000 + i) % 512;
                        if i % 3 == 0 {
                            c.insert(key, key * 2, 128);
                        } else if let Some(v) = c.get(&key) {
                            assert_eq!(v, key * 2, "torn value for {key}");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no panics");
        }
        assert!(c.used_bytes() <= c.capacity_bytes());
        assert!(c.stats().hits > 0);
    }
}
