//! Byte-capacity LRU cache.
//!
//! An intrusive doubly-linked list over a slab gives O(1) get/insert/evict with
//! no per-operation allocation once the slab has grown. This is both the plain
//! baseline measured in the SA-LRU ablation bench and the store under
//! [`crate::aulru::AuLruCache`].

use crate::stats::CacheStats;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    size: usize,
    prev: usize,
    next: usize,
}

/// An LRU cache bounded by total byte size.
///
/// Entry sizes are supplied by the caller on insert, so the cache works equally
/// for raw byte values and for richer entry types whose logical footprint the
/// caller knows best.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity_bytes: usize,
    used_bytes: usize,
    stats: CacheStats,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity_bytes` of entries.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity_bytes,
            used_bytes: 0,
            stats: CacheStats::default(),
        }
    }

    /// Configured byte capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    // INVARIANT: callers only pass indices obtained from `map`, which always
    // point at occupied slab slots (freed indices are removed from `map`).
    fn slot(&self, idx: usize) -> &Slot<K, V> {
        self.slots[idx].as_ref().expect("live slot")
    }

    fn slot_mut(&mut self, idx: usize) -> &mut Slot<K, V> {
        // INVARIANT: same contract as `slot` above.
        self.slots[idx].as_mut().expect("live slot")
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    ///
    /// Like `HashMap::get`, lookups (`get`, `peek`, `size_of`, `contains`,
    /// `remove`) take any borrowed form `Q` of the key, so a cache keyed by
    /// an owned buffer is probed with the slice the caller already holds.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                self.move_to_head(idx);
                Some(&self.slot(idx).value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Like [`LruCache::get`], but returns a mutable reference on a hit.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                self.move_to_head(idx);
                Some(&mut self.slot_mut(idx).value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Look up `key` without promoting it or touching statistics.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key).map(|&idx| &self.slot(idx).value)
    }

    /// Byte size recorded for `key`, if cached.
    pub fn size_of<Q>(&self, key: &Q) -> Option<usize>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key).map(|&idx| self.slot(idx).size)
    }

    /// True if `key` is cached (no promotion, no stats).
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// Insert `key -> value` accounting `size` bytes, evicting LRU entries as
    /// needed. An entry larger than the whole capacity is not admitted (the
    /// paper's DataNode cache never admits blobs that would wipe the cache).
    ///
    /// Returns the entries evicted to make room (oldest first), excluding any
    /// previous value for `key` itself.
    pub fn insert(&mut self, key: K, value: V, size: usize) -> Vec<(K, V)> {
        self.stats.insertions += 1;
        if let Some(&idx) = self.map.get(&key) {
            let old_size = self.slot(idx).size;
            self.used_bytes = self.used_bytes - old_size + size;
            let slot = self.slot_mut(idx);
            slot.value = value;
            slot.size = size;
            self.move_to_head(idx);
            return self.evict_to_fit();
        }
        if size > self.capacity_bytes {
            return Vec::new();
        }
        let slot = Slot {
            key: key.clone(),
            value,
            size,
            prev: NIL,
            next: self.head,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                debug_assert!(self.slots[i].is_none());
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        if self.head != NIL {
            self.slot_mut(self.head).prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        self.map.insert(key, idx);
        self.used_bytes += size;
        self.evict_to_fit()
    }

    /// Remove `key`, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = self.map.remove(key)?;
        let slot = self.detach(idx);
        Some(slot.value)
    }

    /// Evict and return the least-recently-used entry `(key, value, size)`.
    pub fn pop_lru(&mut self) -> Option<(K, V, usize)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        let slot = self.detach(idx);
        self.map.remove(&slot.key);
        self.stats.evictions += 1;
        Some((slot.key, slot.value, slot.size))
    }

    /// The least-recently-used key, without removing it.
    pub fn peek_lru(&self) -> Option<&K> {
        if self.tail == NIL {
            None
        } else {
            Some(&self.slot(self.tail).key)
        }
    }

    /// Keys in most-recent-first order (test/diagnostic helper; O(n)).
    pub fn keys_mru_first(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            let slot = self.slot(cur);
            out.push(slot.key.clone());
            cur = slot.next;
        }
        out
    }

    fn evict_to_fit(&mut self) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        while self.used_bytes > self.capacity_bytes {
            let idx = self.tail;
            debug_assert_ne!(idx, NIL, "over capacity with empty list");
            let slot = self.detach(idx);
            self.map.remove(&slot.key);
            self.stats.evictions += 1;
            evicted.push((slot.key, slot.value));
        }
        evicted
    }

    /// Unlink slot `idx` from the recency list, free the slab slot, subtract
    /// its bytes, and return the owned slot.
    fn detach(&mut self, idx: usize) -> Slot<K, V> {
        self.unlink(idx);
        // INVARIANT: `idx` came from `map`, so the slot is occupied.
        let slot = self.slots[idx].take().expect("live slot");
        self.used_bytes -= slot.size;
        self.free.push(idx);
        slot
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let s = self.slot(idx);
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slot_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slot_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
        let s = self.slot_mut(idx);
        s.prev = NIL;
        s.next = NIL;
    }

    fn move_to_head(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.slot_mut(idx).next = self.head;
        if self.head != NIL {
            self.slot_mut(self.head).prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> LruCache<String, u32> {
        LruCache::new(capacity)
    }

    #[test]
    fn insert_and_get() {
        let mut c = cache(100);
        c.insert("a".into(), 1, 10);
        assert_eq!(c.get("a"), Some(&1));
        assert_eq!(c.get("b"), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.used_bytes(), 10);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = cache(30);
        c.insert("a".into(), 1, 10);
        c.insert("b".into(), 2, 10);
        c.insert("c".into(), 3, 10);
        // Touch "a" so "b" becomes LRU.
        c.get("a");
        let evicted = c.insert("d".into(), 4, 10);
        assert_eq!(evicted, vec![("b".to_string(), 2)]);
        assert!(c.contains("a"));
        assert!(c.contains("c"));
        assert!(c.contains("d"));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn oversized_entry_not_admitted() {
        let mut c = cache(10);
        let evicted = c.insert("big".into(), 1, 11);
        assert!(evicted.is_empty());
        assert!(!c.contains("big"));
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn overwrite_updates_size_accounting() {
        let mut c = cache(100);
        c.insert("a".into(), 1, 10);
        c.insert("a".into(), 2, 30);
        assert_eq!(c.used_bytes(), 30);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek("a"), Some(&2));
    }

    #[test]
    fn overwrite_to_larger_can_evict_others() {
        let mut c = cache(30);
        c.insert("a".into(), 1, 10);
        c.insert("b".into(), 2, 10);
        let evicted = c.insert("b".into(), 3, 25);
        assert_eq!(evicted, vec![("a".to_string(), 1)]);
        assert_eq!(c.used_bytes(), 25);
    }

    #[test]
    fn remove_frees_bytes_and_slot_reuse_works() {
        let mut c = cache(100);
        c.insert("a".into(), 1, 40);
        assert_eq!(c.remove("a"), Some(1));
        assert_eq!(c.used_bytes(), 0);
        assert!(c.is_empty());
        // Slot is reused without corruption.
        c.insert("b".into(), 2, 40);
        c.insert("c".into(), 3, 40);
        assert_eq!(c.get("b"), Some(&2));
        assert_eq!(c.get("c"), Some(&3));
    }

    #[test]
    fn pop_lru_returns_oldest() {
        let mut c = cache(100);
        c.insert("a".into(), 1, 10);
        c.insert("b".into(), 2, 10);
        assert_eq!(c.peek_lru(), Some(&"a".to_string()));
        assert_eq!(c.pop_lru(), Some(("a".to_string(), 1, 10)));
        assert_eq!(c.pop_lru(), Some(("b".to_string(), 2, 10)));
        assert_eq!(c.pop_lru(), None);
    }

    #[test]
    fn recency_order_is_maintained() {
        let mut c = cache(100);
        c.insert("a".into(), 1, 1);
        c.insert("b".into(), 2, 1);
        c.insert("c".into(), 3, 1);
        c.get("a");
        assert_eq!(
            c.keys_mru_first(),
            vec!["a".to_string(), "c".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c = cache(20);
        c.insert("a".into(), 1, 10);
        c.insert("b".into(), 2, 10);
        c.peek("a");
        // "a" is still LRU, so inserting "c" evicts it.
        let evicted = c.insert("c".into(), 3, 10);
        assert_eq!(evicted[0].0, "a");
    }

    #[test]
    fn many_inserts_stay_within_capacity() {
        let mut c = cache(1000);
        for i in 0..10_000u32 {
            c.insert(format!("k{i}"), i, 7);
        }
        assert!(c.used_bytes() <= 1000);
        assert_eq!(c.used_bytes(), c.len() * 7);
    }
}
