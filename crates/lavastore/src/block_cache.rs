//! The node cache: SST data blocks and hot rows under one byte budget.
//!
//! One [`BlockCache`] is shared by **every stripe** of a [`crate::Db`] (and by
//! every SST reader those stripes open), so the byte budget is global and the
//! hottest entries win regardless of which stripe owns them. Internally it is
//! a lock-striped SA-LRU ([`abase_cache::ShardedCache`], paper §4.4's
//! size-aware policy) holding two kinds of entry in the same shards:
//!
//! - **blocks**, `(file_id, block_offset) → Arc<[u8]>`: a hit clones a
//!   pointer, never the block;
//! - **rows**, `key → (value, expires_at)`: the item cache the paper's
//!   DataNode runs. A row hit answers a point read with no bloom probe, no
//!   index search, no block search and no I/O.
//!
//! There is one budget (`DbConfig::block_cache_bytes`) and no split: SA-LRU
//! evicts from the size class with the fewest hits per byte, so under a
//! scattered key distribution the ~0.3 KiB rows displace the ~4 KiB blocks
//! that each held one hot record, and under a scan-friendly one the blocks
//! stay.
//!
//! # Immutable-file keying: blocks need no invalidation
//!
//! SST files are immutable: once written they are only ever deleted, never
//! modified. Blocks therefore need **no invalidation path** — only
//! eviction. The one hazard is file-id aliasing: manifest file ids restart
//! per database, so keying by manifest id would let a block cached by one
//! `Db` instance (or a deleted-then-recreated id after reopen) serve reads
//! for a different file's bytes. Every [`crate::sstable::SstReader`] therefore
//! draws a **process-unique** id from [`BlockCache::next_file_id`] at open
//! time; a new reader for the same path gets a new id and simply re-faults
//! its blocks in.
//!
//! # Rows are invalidated at flush, and only there
//!
//! A row means "the newest SST-resident version of this key in its stripe".
//! `Db::get` looks in the memtable first, so a newer write shadows the row
//! for as long as it sits in the memtable; the row turns stale at the moment
//! a flush moves that write into an SST. `Db::flush_stripe` therefore removes
//! the row of every key it writes, tombstones included, while it holds the
//! stripe's **write** lock. Readers probe and admit rows under the same
//! stripe's **read** lock, so no admission can fall between the removal and
//! `memtable.clear()`. Nothing else changes a key's newest SST-resident
//! version: compaction rewrites it in place (or drops it once it reads as
//! absent anyway), and a reopen starts with an empty cache. The write path
//! never touches the cache.
//!
//! Index and bloom blocks are *pinned*: they live in reader memory for the
//! reader's whole lifetime (never evictable), and readers report those bytes
//! here so the resident-bytes gauge covers everything the cache layer holds.
//! `pinned_bytes` is the **whole** resident index: a reader keeps its SST's
//! properties region as read from the file — key range, index block, bloom
//! bits — and searches the index block in place, so there are no per-block
//! heap keys beside it that the gauge does not see.

use crate::metrics;
use abase_cache::{CacheStats, InsertOutcome, ShardedCache};
use abase_obs::Counter;
use bytes::Bytes;
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Process-unique SST reader ids; see the module docs on aliasing.
static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

/// Default shard count: enough stripes that 8–16 reader threads rarely
/// collide, cheap enough that tiny test caches still work.
const DEFAULT_SHARDS: usize = 16;

/// Bytes a resident row occupies beyond `key.len() + value.len()`; a row is
/// charged its real footprint so that a budget full of rows is a budget's
/// worth of memory. From the entry layout in `abase_cache::salru` (one
/// index, one slab):
///
/// - the key and the value are one `Arc<[u8]>` allocation each (the key has
///   one copy, in its slot): a 16 B reference-count header plus about 16 B
///   of allocator header and rounding — 2 × 32 = 64;
/// - the entry's slot in the slab: key 24 + value 24 + hash 8 + size 8 +
///   three `u32` links 12 + class 1, padded — 80 (the slab's `Option` fits
///   in `EntryKey`'s tag);
/// - its one bucket in the index: a `(u64, u32)` of 16 B and a control
///   byte, at the table's 7/8 maximum load factor — 20.
///
/// That is 164, 176 rounded up to the allocator's 16 B granule, so 224 is
/// an upper bound. It stays 224 because the charge sets the split between
/// rows and blocks in a shared budget, and moving that split wants its own
/// measurement. (`entry_layout` below and `abase_cache::salru`'s
/// `slot_layout` pin the `size_of`s this depends on.)
const ROW_OVERHEAD_BYTES: usize = 224;

/// Owned key of a cache entry.
#[derive(Debug, Clone)]
enum EntryKey {
    Block { file_id: u64, offset: u64 },
    Row(Bytes),
}

/// What a lookup has in hand: an [`EntryKey`] with the row's key borrowed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Probe<'a> {
    Block { file_id: u64, offset: u64 },
    Row(&'a [u8]),
}

impl Hash for Probe<'_> {
    /// The kind is left to `Eq`: a block hashes as the `(u64, u64)` it was
    /// before rows moved in, with no discriminant to mix in on the hot path.
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Probe::Block { file_id, offset } => {
                state.write_u64(*file_id);
                state.write_u64(*offset);
            }
            Probe::Row(key) => state.write(key),
        }
    }
}

/// The borrowed form row lookups take (`EntryKey: Borrow<dyn AsProbe>`):
/// `Borrow` must hand out a reference, and a `Probe` built from an
/// `EntryKey` would be a temporary, so both sides are compared through this
/// view instead. Hash and equality of the owned key go through it too, which
/// is what keeps the two forms consistent. (Block lookups build an owned
/// `EntryKey::Block` — two integers — and skip the indirection.)
trait AsProbe {
    fn probe(&self) -> Probe<'_>;
}

impl AsProbe for EntryKey {
    fn probe(&self) -> Probe<'_> {
        match self {
            EntryKey::Block { file_id, offset } => Probe::Block {
                file_id: *file_id,
                offset: *offset,
            },
            EntryKey::Row(key) => Probe::Row(key),
        }
    }
}

impl AsProbe for Probe<'_> {
    fn probe(&self) -> Probe<'_> {
        *self
    }
}

impl<'a> Borrow<dyn AsProbe + 'a> for EntryKey {
    fn borrow(&self) -> &(dyn AsProbe + 'a) {
        self
    }
}

impl Hash for dyn AsProbe + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.probe().hash(state);
    }
}

impl PartialEq for dyn AsProbe + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.probe() == other.probe()
    }
}

impl Eq for dyn AsProbe + '_ {}

impl Hash for EntryKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.probe().hash(state);
    }
}

impl PartialEq for EntryKey {
    fn eq(&self, other: &Self) -> bool {
        self.probe() == other.probe()
    }
}

impl Eq for EntryKey {}

/// A cached row: the newest SST-resident `Put` of its key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedRow {
    /// The record's value.
    pub value: Bytes,
    /// Its absolute expiry, or [`crate::record::NO_EXPIRY`]; the reader
    /// checks it against its own `now` on every hit.
    pub expires_at: u64,
}

#[derive(Debug, Clone)]
enum Entry {
    Block(Arc<[u8]>),
    Row(CachedRow),
}

fn row_charge(key: &[u8], row: &CachedRow) -> usize {
    key.len() + row.value.len() + ROW_OVERHEAD_BYTES
}

/// Row traffic of one cache instance; [`BlockCache::stats`] subtracts it
/// from the shards' merged counters to report blocks alone.
#[derive(Debug, Default)]
struct RowCounters {
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
}

/// A thread-safe, byte-bounded cache of SST data blocks and rows.
#[derive(Debug)]
pub struct BlockCache {
    entries: ShardedCache<EntryKey, Entry>,
    /// Bytes held by open readers for pinned index/bloom blocks.
    pinned: AtomicI64,
    /// Resident rows, and the bytes they are charged. Both are raised
    /// *before* a row goes into its shard and lowered *after* it is seen
    /// leaving, so they may read high but never low: `rows == 0` proves no
    /// row is resident, which is what lets a flush skip invalidation.
    rows: AtomicUsize,
    row_bytes: AtomicUsize,
    row_counters: RowCounters,
}

impl BlockCache {
    /// A cache holding at most `capacity_bytes` of blocks and rows.
    pub fn new(capacity_bytes: usize) -> Self {
        // An idle server's scrape lists the row families beside the block
        // ones (a lazy metric registers on first touch).
        for family in [
            &metrics::ROW_CACHE_HITS,
            &metrics::ROW_CACHE_MISSES,
            &metrics::ROW_CACHE_INSERTIONS,
            &metrics::ROW_CACHE_INVALIDATIONS,
        ] {
            family.add(0);
        }
        Self {
            entries: ShardedCache::new(capacity_bytes, DEFAULT_SHARDS),
            pinned: AtomicI64::new(0),
            rows: AtomicUsize::new(0),
            row_bytes: AtomicUsize::new(0),
            row_counters: RowCounters::default(),
        }
    }

    /// Allocate a process-unique file id for a newly opened reader.
    pub fn next_file_id() -> u64 {
        NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up the block at `offset` of `file_id`.
    pub fn get(&self, file_id: u64, offset: u64) -> Option<Arc<[u8]>> {
        match self.entries.get(&EntryKey::Block { file_id, offset }) {
            Some(Entry::Block(block)) => {
                metrics::BLOCK_CACHE_HITS.inc();
                Some(block)
            }
            _ => {
                metrics::BLOCK_CACHE_MISSES.inc();
                None
            }
        }
    }

    /// Insert a block read from disk.
    pub fn insert(&self, file_id: u64, offset: u64, block: Arc<[u8]>) {
        let size = block.len();
        let key = EntryKey::Block { file_id, offset };
        let outcome = self.entries.insert(key, Entry::Block(block), size);
        if outcome.admitted {
            metrics::BLOCK_CACHE_INSERTIONS.inc();
        }
        self.settle(outcome);
    }

    /// Look up the row of `key`. Allocates nothing: the probe borrows `key`.
    pub fn get_row(&self, key: &[u8]) -> Option<CachedRow> {
        let probe: &dyn AsProbe = &Probe::Row(key);
        match self.entries.get(probe) {
            Some(Entry::Row(row)) => {
                metrics::ROW_CACHE_HITS.inc();
                self.row_counters.hits.inc();
                Some(row)
            }
            _ => {
                metrics::ROW_CACHE_MISSES.inc();
                self.row_counters.misses.inc();
                None
            }
        }
    }

    /// Cache `row` as the newest SST-resident version of `key`. The caller
    /// holds the read lock of `key`'s stripe (see the module docs).
    pub fn insert_row(&self, key: Bytes, row: CachedRow) {
        let size = row_charge(&key, &row);
        self.rows.fetch_add(1, Ordering::Relaxed);
        self.row_bytes.fetch_add(size, Ordering::Relaxed);
        let outcome = self
            .entries
            .insert(EntryKey::Row(key), Entry::Row(row), size);
        self.row_counters.insertions.inc();
        if outcome.admitted {
            metrics::ROW_CACHE_INSERTIONS.inc();
        }
        if !outcome.created {
            // Replaced the same row (two readers raced to admit it) or was
            // too large to go in: the resident set did not grow.
            self.row_left(size);
        }
        self.settle(outcome);
    }

    /// Drop the row of `key`, if one is cached. The caller holds the write
    /// lock of `key`'s stripe.
    pub fn invalidate_row(&self, key: &[u8]) {
        let probe: &dyn AsProbe = &Probe::Row(key);
        if let Some(Entry::Row(row)) = self.entries.remove(probe) {
            self.row_left(row_charge(key, &row));
            metrics::ROW_CACHE_INVALIDATIONS.inc();
            metrics::BLOCK_CACHE_BYTES.set(self.resident_bytes() as i64);
        }
    }

    /// Rows currently resident; may read high, and 0 only when there are
    /// none (see the `rows` field).
    pub fn row_count(&self) -> u64 {
        self.rows.load(Ordering::Relaxed) as u64
    }

    /// Bytes of the budget currently charged to rows.
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes.load(Ordering::Relaxed) as u64
    }

    fn row_left(&self, size: usize) {
        self.rows.fetch_sub(1, Ordering::Relaxed);
        self.row_bytes.fetch_sub(size, Ordering::Relaxed);
    }

    /// Account for whatever an insert displaced, of either kind.
    fn settle(&self, outcome: InsertOutcome<EntryKey, Entry>) {
        let mut blocks = 0u64;
        for (key, entry) in &outcome.evicted {
            match (key, entry) {
                (EntryKey::Row(key), Entry::Row(row)) => {
                    self.row_left(row_charge(key, row));
                    self.row_counters.evictions.inc();
                }
                _ => blocks += 1,
            }
        }
        if blocks > 0 {
            metrics::BLOCK_CACHE_EVICTIONS.add(blocks);
        }
        metrics::BLOCK_CACHE_BYTES.set(self.resident_bytes() as i64);
    }

    /// Account `bytes` of pinned index/bloom data for an opening reader.
    pub fn add_pinned(&self, bytes: usize) {
        self.pinned.fetch_add(bytes as i64, Ordering::Relaxed);
        metrics::BLOCK_CACHE_BYTES.set(self.resident_bytes() as i64);
    }

    /// Release pinned bytes when a reader drops.
    pub fn sub_pinned(&self, bytes: usize) {
        self.pinned.fetch_sub(bytes as i64, Ordering::Relaxed);
        metrics::BLOCK_CACHE_BYTES.set(self.resident_bytes() as i64);
    }

    /// Bytes held for pinned index/bloom blocks across open readers.
    pub fn pinned_bytes(&self) -> u64 {
        self.pinned.load(Ordering::Relaxed).max(0) as u64
    }

    /// Total resident bytes: cached blocks and rows plus pinned index/bloom.
    pub fn resident_bytes(&self) -> u64 {
        self.entries.used_bytes() as u64 + self.pinned_bytes()
    }

    /// Configured capacity in bytes, shared by blocks and rows.
    pub fn capacity_bytes(&self) -> u64 {
        self.entries.capacity_bytes() as u64
    }

    /// Row counters of this cache — the same [`CacheStats`] shape the proxy
    /// AU-LRU and node SA-LRU expose.
    pub fn row_stats(&self) -> CacheStats {
        let c = &self.row_counters;
        CacheStats {
            hits: c.hits.get(),
            misses: c.misses.get(),
            insertions: c.insertions.get(),
            evictions: c.evictions.get(),
            expired: 0,
        }
    }

    /// Block counters of this cache: the shards' merged counters less the
    /// row traffic.
    pub fn stats(&self) -> CacheStats {
        // Rows first: a row counter moves after its shard's does, so read in
        // this order the merged totals are never behind it.
        let rows = self.row_stats();
        let all = self.entries.stats();
        CacheStats {
            hits: all.hits.saturating_sub(rows.hits),
            misses: all.misses.saturating_sub(rows.misses),
            insertions: all.insertions.saturating_sub(rows.insertions),
            evictions: all.evictions.saturating_sub(rows.evictions),
            expired: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_ids_are_unique() {
        let a = BlockCache::next_file_id();
        let b = BlockCache::next_file_id();
        assert_ne!(a, b);
    }

    #[test]
    fn hit_miss_and_resident_accounting() {
        let cache = BlockCache::new(1 << 20);
        assert!(cache.get(1, 0).is_none());
        cache.insert(1, 0, vec![7u8; 512].into());
        let block = cache.get(1, 0).expect("inserted block is resident");
        assert_eq!(block.len(), 512);
        assert_eq!(cache.resident_bytes(), 512);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn same_offset_different_file_ids_do_not_alias() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(1, 0, vec![1u8; 64].into());
        cache.insert(2, 0, vec![2u8; 64].into());
        assert_eq!(cache.get(1, 0).unwrap()[0], 1);
        assert_eq!(cache.get(2, 0).unwrap()[0], 2);
    }

    fn row(value: &[u8], expires_at: u64) -> CachedRow {
        CachedRow {
            value: Bytes::copy_from_slice(value),
            expires_at,
        }
    }

    #[test]
    fn entry_layout() {
        // The two sizes `ROW_OVERHEAD_BYTES` is derived from.
        assert_eq!(std::mem::size_of::<EntryKey>(), 24);
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    #[test]
    fn rows_share_the_budget_and_keep_their_own_counters() {
        let cache = BlockCache::new(1 << 20);
        assert!(cache.get_row(b"k").is_none());
        cache.insert(1, 0, vec![7u8; 4096].into());
        cache.insert_row(Bytes::from("k"), row(b"value", 9));
        assert_eq!(cache.get_row(b"k"), Some(row(b"value", 9)));
        assert!(cache.get(1, 0).is_some());
        // One budget: the gauge covers the block and the row's full charge.
        let charge = (1 + 5 + ROW_OVERHEAD_BYTES) as u64;
        assert_eq!(cache.resident_bytes(), 4096 + charge);
        assert_eq!((cache.row_count(), cache.row_bytes()), (1, charge));
        // Two sets of counters: a row lookup is not a block lookup.
        let (blocks, rows) = (cache.stats(), cache.row_stats());
        assert_eq!((blocks.hits, blocks.misses, blocks.insertions), (1, 0, 1));
        assert_eq!((rows.hits, rows.misses, rows.insertions), (1, 1, 1));
        // Re-admitting the same row (two readers raced) changes nothing.
        cache.insert_row(Bytes::from("k"), row(b"value", 9));
        assert_eq!((cache.row_count(), cache.row_bytes()), (1, charge));
        cache.invalidate_row(b"k");
        cache.invalidate_row(b"never-cached");
        assert!(cache.get_row(b"k").is_none());
        assert_eq!((cache.row_count(), cache.row_bytes()), (0, 0));
        assert_eq!(cache.resident_bytes(), 4096);
    }

    #[test]
    fn a_row_key_never_answers_a_block_lookup() {
        // A row whose key is the 16 bytes of a block's (file_id, offset).
        let cache = BlockCache::new(1 << 20);
        let mut key = 1u64.to_le_bytes().to_vec();
        key.extend_from_slice(&0u64.to_le_bytes());
        cache.insert_row(Bytes::from(key.clone()), row(b"row", 0));
        assert!(cache.get(1, 0).is_none());
        cache.insert(1, 0, vec![1u8; 64].into());
        assert_eq!(cache.get_row(&key), Some(row(b"row", 0)));
        assert_eq!(cache.get(1, 0).unwrap().len(), 64);
    }

    #[test]
    fn eviction_keeps_row_accounting_exact() {
        // 16 shards x 1 KiB: every shard churns rows and 600 B blocks, and
        // some rows are larger than a shard and never go in.
        let cache = BlockCache::new(16 << 10);
        for i in 0..4_000u32 {
            let key = format!("key-{:04}", i % 300);
            match i % 7 {
                0 => cache.insert(1, u64::from(i), vec![0u8; 600].into()),
                1 => cache.invalidate_row(key.as_bytes()),
                2 => cache.insert_row(Bytes::from(key), row(&[0u8; 2048], 0)),
                _ => cache.insert_row(Bytes::from(key), row(&[0u8; 40], 0)),
            }
            assert!(cache.resident_bytes() <= cache.capacity_bytes());
        }
        let live: Vec<String> = (0..300)
            .map(|i| format!("key-{i:04}"))
            .filter(|k| cache.get_row(k.as_bytes()).is_some())
            .collect();
        assert!(!live.is_empty(), "nothing survived");
        assert_eq!(cache.row_count(), live.len() as u64);
        assert_eq!(
            cache.row_bytes(),
            (live.len() * (8 + 40 + ROW_OVERHEAD_BYTES)) as u64
        );
        assert!(cache.row_stats().evictions > 0 && cache.stats().evictions > 0);
    }

    #[test]
    fn pinned_bytes_tracked() {
        let cache = BlockCache::new(1 << 20);
        cache.add_pinned(1000);
        assert_eq!(cache.pinned_bytes(), 1000);
        assert_eq!(cache.resident_bytes(), 1000);
        cache.sub_pinned(1000);
        assert_eq!(cache.pinned_bytes(), 0);
    }
}
