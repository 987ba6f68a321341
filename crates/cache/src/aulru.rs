//! Active-Update LRU (AU-LRU) — the proxy-layer cache (paper §4.4).
//!
//! Proxy caches are small (<10 GB per the paper) and hold hot keys with a TTL.
//! When a hot key's entry expires, every in-flight request for it suddenly
//! misses and stampedes the data node — precisely during the high-traffic events
//! the cache exists to absorb. AU-LRU's *active update* mechanism "automatically
//! refreshes hot keys as they near expiration": shortly before an entry expires,
//! if it has been accessed enough times during its current lifetime, the cache
//! emits a [`RefreshCandidate`] that the proxy resolves by re-reading the key
//! from the data node and calling [`AuLruCache::update`], re-arming the TTL
//! without ever serving a miss.

use crate::salru::SaLruCache;
use crate::stats::CacheStats;
use abase_util::clock::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::Hash;

#[derive(Debug)]
struct Entry<V> {
    value: V,
    expires_at: SimTime,
    /// Accesses during the current TTL period (reset on refresh).
    period_accesses: u32,
    /// Monotonic generation, used to invalidate stale heap entries.
    generation: u64,
    /// True once this entry has been handed out as a refresh candidate for the
    /// current generation (prevents duplicate refresh traffic).
    refresh_pending: bool,
}

/// A key the proxy should proactively re-read from the data node before its
/// cached entry expires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefreshCandidate<K> {
    /// The hot key nearing expiry.
    pub key: K,
    /// When its current cache entry lapses.
    pub expires_at: SimTime,
}

/// Configuration for [`AuLruCache`].
#[derive(Debug, Clone, Copy)]
pub struct AuLruConfig {
    /// Byte capacity of the cache.
    pub capacity_bytes: usize,
    /// TTL applied to entries on insert/update.
    pub ttl: SimTime,
    /// How long before expiry an entry becomes eligible for active refresh.
    pub refresh_window: SimTime,
    /// Minimum accesses within the current TTL period to count as "hot".
    pub hot_threshold: u32,
}

impl Default for AuLruConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 64 << 20,
            ttl: 60 * 1_000_000,           // 60 s
            refresh_window: 5 * 1_000_000, // refresh within 5 s of expiry
            hot_threshold: 3,
        }
    }
}

/// Active-Update LRU cache with TTL entries and hot-key refresh.
#[derive(Debug)]
pub struct AuLruCache<K, V> {
    /// A plain byte-LRU: SA-LRU with one size class.
    lru: SaLruCache<K, Entry<V>>,
    /// Min-heap of (expiry, generation, key) — lazily invalidated.
    expiry_heap: BinaryHeap<Reverse<(SimTime, u64, K)>>,
    config: AuLruConfig,
    next_generation: u64,
    stats: CacheStats,
    /// Count of refresh candidates emitted (for RU-saving accounting).
    refreshes_emitted: u64,
}

impl<K: Hash + Eq + Clone + Ord, V> AuLruCache<K, V> {
    /// A cache with the given configuration.
    pub fn new(config: AuLruConfig) -> Self {
        Self {
            lru: SaLruCache::with_class_bounds(config.capacity_bytes, &[usize::MAX]),
            expiry_heap: BinaryHeap::new(),
            config,
            next_generation: 0,
            stats: CacheStats::default(),
            refreshes_emitted: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AuLruConfig {
        &self.config
    }

    /// Hit/miss counters. Expired entries encountered on `get` count as misses
    /// *and* increment `expired`.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of refresh candidates handed out so far.
    pub fn refreshes_emitted(&self) -> u64 {
        self.refreshes_emitted
    }

    /// Live entries (may include entries that have expired but not yet been
    /// touched; those are reaped lazily).
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Bytes currently accounted.
    pub fn used_bytes(&self) -> usize {
        self.lru.used_bytes()
    }

    /// Look up `key` at virtual time `now`.
    ///
    /// An entry past its expiry is removed and reported as a miss — unless it
    /// was emitted as a refresh candidate that has not come back yet, in which
    /// case the (slightly stale) value is still served; this matches the
    /// active-update goal of "maintaining the timeliness and continuity of the
    /// cached data" without a miss spike while the refresh is in flight.
    pub fn get(&mut self, key: &K, now: SimTime) -> Option<&V> {
        let expired = match self.lru.peek(key) {
            None => {
                self.stats.misses += 1;
                return None;
            }
            Some(e) => e.expires_at <= now && !e.refresh_pending,
        };
        if expired {
            self.lru.remove(key);
            self.stats.expired += 1;
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        // INVARIANT: `peek` found the key above and nothing removed it since.
        let entry = self.lru.get_mut(key).expect("peeked entry present");
        entry.period_accesses = entry.period_accesses.saturating_add(1);
        Some(&entry.value)
    }

    /// Insert a value fetched from the data node; arms a fresh TTL.
    pub fn insert(&mut self, key: K, value: V, size: usize, now: SimTime) {
        let generation = self.next_generation;
        self.next_generation += 1;
        let expires_at = now + self.config.ttl;
        let entry = Entry {
            value,
            expires_at,
            period_accesses: 0,
            generation,
            refresh_pending: false,
        };
        self.stats.insertions += 1;
        let evicted = self.lru.insert(key.clone(), entry, size);
        self.stats.evictions += evicted.len() as u64;
        self.expiry_heap
            .push(Reverse((expires_at, generation, key)));
    }

    /// Re-arm an entry after an active refresh completed. Equivalent to
    /// [`AuLruCache::insert`], but counted separately by callers for RU math.
    pub fn update(&mut self, key: K, value: V, size: usize, now: SimTime) {
        self.insert(key, value, size, now);
    }

    /// Remove a key (e.g. after a tenant write invalidates the cached value).
    pub fn invalidate(&mut self, key: &K) -> bool {
        self.lru.remove(key).is_some()
    }

    /// Drain the keys that should be actively refreshed as of `now`: hot
    /// entries whose expiry falls within the refresh window. Also lazily reaps
    /// cold entries that are already past expiry.
    pub fn refresh_candidates(&mut self, now: SimTime) -> Vec<RefreshCandidate<K>> {
        let horizon = now + self.config.refresh_window;
        let mut out = Vec::new();
        while let Some(Reverse((expires_at, _, _))) = self.expiry_heap.peek() {
            if *expires_at > horizon {
                break;
            }
            let (expires_at, generation, key) = {
                // INVARIANT: `peek()` returned Some in the loop head.
                let Reverse(t) = self.expiry_heap.pop().expect("peeked entry");
                t
            };
            let Some(entry) = self.lru.peek(&key) else {
                continue; // entry evicted/invalidated since scheduling
            };
            if entry.generation != generation {
                continue; // superseded by a newer insert/update
            }
            let hot = entry.period_accesses >= self.config.hot_threshold;
            if hot && !entry.refresh_pending {
                // INVARIANT: `peek` found the entry a few lines up and no
                // mutation happened since.
                let e = self.lru.get_mut(&key).expect("entry present");
                e.refresh_pending = true;
                self.refreshes_emitted += 1;
                out.push(RefreshCandidate { key, expires_at });
            } else if expires_at <= now {
                // Cold and already expired: reap eagerly to free memory.
                self.lru.remove(&key);
                self.stats.expired += 1;
            } else {
                // Cold but not yet expired: re-queue for the expiry moment so
                // we reap it (or it turns hot in the meantime).
                self.expiry_heap
                    .push(Reverse((expires_at, generation, key)));
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: SimTime = 1_000_000;

    fn config() -> AuLruConfig {
        AuLruConfig {
            capacity_bytes: 1 << 20,
            ttl: 60 * SEC,
            refresh_window: 5 * SEC,
            hot_threshold: 3,
        }
    }

    #[test]
    fn hit_before_expiry_miss_after() {
        let mut c = AuLruCache::new(config());
        c.insert("k", 42u32, 10, 0);
        assert_eq!(c.get(&"k", 59 * SEC), Some(&42));
        assert_eq!(c.get(&"k", 61 * SEC), None);
        assert_eq!(c.stats().expired, 1);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn hot_entry_becomes_refresh_candidate_near_expiry() {
        let mut c = AuLruCache::new(config());
        c.insert("hot", 1u32, 10, 0);
        for t in 1..=3 {
            c.get(&"hot", t * SEC);
        }
        // Not yet in the window at t=50s.
        assert!(c.refresh_candidates(50 * SEC).is_empty());
        // Within the 5s window of the 60s expiry.
        let cands = c.refresh_candidates(56 * SEC);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].key, "hot");
        // Emitted only once.
        assert!(c.refresh_candidates(57 * SEC).is_empty());
        assert_eq!(c.refreshes_emitted(), 1);
    }

    #[test]
    fn cold_entry_is_not_refreshed_and_reaps_after_expiry() {
        let mut c = AuLruCache::new(config());
        c.insert("cold", 1u32, 10, 0);
        c.get(&"cold", SEC); // 1 access < threshold 3
        assert!(c.refresh_candidates(56 * SEC).is_empty());
        assert_eq!(c.len(), 1);
        // After expiry the reaper removes it.
        assert!(c.refresh_candidates(61 * SEC).is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().expired, 1);
    }

    #[test]
    fn update_rearms_ttl_and_resets_hotness() {
        let mut c = AuLruCache::new(config());
        c.insert("k", 1u32, 10, 0);
        for t in 1..=3 {
            c.get(&"k", t * SEC);
        }
        let cands = c.refresh_candidates(56 * SEC);
        assert_eq!(cands.len(), 1);
        // Proxy completes the refresh.
        c.update("k", 2u32, 10, 57 * SEC);
        // Entry lives past the original expiry with the new value.
        assert_eq!(c.get(&"k", 80 * SEC), Some(&2));
        // Old heap entry is stale (generation bumped) and does not refresh again.
        assert!(c.refresh_candidates(58 * SEC).is_empty());
    }

    #[test]
    fn pending_refresh_serves_stale_value_instead_of_missing() {
        let mut c = AuLruCache::new(config());
        c.insert("k", 1u32, 10, 0);
        for t in 1..=3 {
            c.get(&"k", t * SEC);
        }
        assert_eq!(c.refresh_candidates(56 * SEC).len(), 1);
        // Refresh has not returned; at t=61s (past expiry) we still serve.
        assert_eq!(c.get(&"k", 61 * SEC), Some(&1));
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut c = AuLruCache::new(config());
        c.insert("k", 1u32, 10, 0);
        assert!(c.invalidate(&"k"));
        assert!(!c.invalidate(&"k"));
        assert_eq!(c.get(&"k", SEC), None);
    }

    #[test]
    fn capacity_evictions_are_counted() {
        let mut c = AuLruCache::new(AuLruConfig {
            capacity_bytes: 25,
            ..config()
        });
        c.insert("a", 1u32, 10, 0);
        c.insert("b", 2u32, 10, 0);
        c.insert("c", 3u32, 10, 0); // evicts "a"
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.get(&"a", SEC), None);
        assert_eq!(c.get(&"b", SEC), Some(&2));
    }

    #[test]
    fn oversized_update_evicts_only_its_own_entry() {
        let mut c = AuLruCache::new(AuLruConfig {
            capacity_bytes: 30,
            ..config()
        });
        c.insert("a", 1u32, 10, 0);
        c.insert("b", 2u32, 10, 0);
        c.insert("c", 3u32, 10, 0);
        c.update("b", 4u32, 31, SEC);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!((c.len(), c.used_bytes()), (2, 20));
        assert_eq!(c.get(&"a", SEC), Some(&1));
        assert_eq!(c.get(&"b", SEC), None);
        assert_eq!(c.get(&"c", SEC), Some(&3));
    }

    #[test]
    fn stale_heap_entries_do_not_refresh_reinserted_keys() {
        let mut c = AuLruCache::new(config());
        c.insert("k", 1u32, 10, 0);
        for t in 1..=3 {
            c.get(&"k", t * SEC);
        }
        // Re-insert resets generation and TTL before the window.
        c.insert("k", 2u32, 10, 30 * SEC);
        // The original expiry (60s) window arrives; the stale heap record must
        // not trigger a refresh because the generation changed.
        assert!(c.refresh_candidates(56 * SEC).is_empty());
    }
}
