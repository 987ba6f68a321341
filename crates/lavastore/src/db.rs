//! The engine facade: a crash-safe, TTL-aware LSM key-value store, striped
//! across independent shards for multi-core write throughput.
//!
//! Writes go WAL → memtable; a full memtable flushes to an L0 SST; leveled
//! compaction keeps read amplification bounded and garbage-collects tombstones
//! and expired records. Reads report their block-I/O count so the ABase data
//! node can price them into the I/O-WFQ.
//!
//! # Striping
//!
//! Keys hash across `n_stripes` stripes, each with its own memtable, L0, and
//! deeper levels under its own `RwLock` — so concurrent writers to different
//! stripes never contend, and a stripe's memtable flush (the expensive SST
//! write) blocks only that stripe. One shared group-commit [`Wal`] fronts all
//! stripes and is the engine's **single LSN allocator**: frames enter the log
//! in sequence order regardless of which stripe they land in, so replication
//! tailing, `apply_replicated`'s gap/dedup logic, torn-tail recovery, and
//! checkpoint cursors all observe one monotone LSN stream, exactly as in the
//! single-lock engine.
//!
//! Because stripes flush independently, a rotated WAL segment may still hold
//! the only durable copy of another stripe's recent records. Each rotated
//! segment therefore remembers the last sequence number it contains, and the
//! manifest's `wal_floor` only advances past a segment once **every** stripe
//! has flushed its records at or below that point (see
//! [`Db::advance_floor_locked`]).

use crate::block_cache::{BlockCache, CachedRow};
use crate::bloom::BloomFilter;
use crate::compaction::{pick_compaction, CompactionConfig};
use crate::error::{Error, Result};
use crate::iter::MergeIterator;
use crate::memtable::{MemEntry, MemTable};
use crate::record::{Record, RecordKind, NO_EXPIRY};
use crate::sstable::{BlockIo, SstReader, SstWriter};
use crate::version::{SstMeta, Version};
use crate::wal::{Wal, WalOptions};
use abase_obs::Counter;
use abase_util::clock::SimTime;
use abase_util::lockrank::{rank, RankedMutex, RankedRwLock};
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Memtable flush threshold in bytes, across all stripes (each stripe
    /// flushes at `memtable_bytes / n_stripes`).
    pub memtable_bytes: usize,
    /// Target uncompressed data-block size.
    pub block_bytes: usize,
    /// Target size for SST files written by flush/compaction.
    pub target_sst_bytes: u64,
    /// Bloom filter density.
    pub bloom_bits_per_key: usize,
    /// fsync the WAL on every append (durability vs. throughput). With
    /// concurrent writers, one group-commit fsync covers the whole batch.
    pub sync_wal: bool,
    /// Rotated WAL segments to retain as a replication backlog. Segments
    /// below the manifest's `wal_floor` are fully flushed into SSTs and never
    /// replayed; keeping a few lets binlog tail readers (followers) finish
    /// reading a closed segment instead of forcing a full resync.
    pub wal_retention_segments: usize,
    /// Compaction policy knobs.
    pub compaction: CompactionConfig,
    /// Number of independent engine stripes (fixed at database creation; a
    /// reopen uses the manifest's value).
    pub n_stripes: u32,
    /// Buffered WAL bytes that trigger a flush to the OS on a non-durable
    /// commit (group-commit byte threshold).
    pub group_commit_bytes: usize,
    /// Time since the last WAL flush that triggers one on a non-durable
    /// commit (group-commit interval trigger).
    pub group_commit_interval_ms: u64,
    /// Byte budget of the node cache: one cache across **all** stripes,
    /// holding SST data blocks and hot rows side by side (`0` disables both).
    /// How the budget divides between the two kinds is the SA-LRU's decision,
    /// not a setting. Blocks are immutable and only ever evicted; rows are
    /// also invalidated by the flush that supersedes them (see
    /// [`crate::block_cache`]).
    pub block_cache_bytes: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        Self {
            memtable_bytes: 4 << 20,
            block_bytes: 4 << 10,
            target_sst_bytes: 8 << 20,
            bloom_bits_per_key: 10,
            sync_wal: false,
            wal_retention_segments: 2,
            compaction: CompactionConfig::default(),
            n_stripes: 8,
            group_commit_bytes: 64 << 10,
            group_commit_interval_ms: 5,
            block_cache_bytes: 64 << 20,
        }
    }
}

impl DbConfig {
    /// Tiny limits that force flush/compaction activity in unit tests.
    pub fn small_for_tests() -> Self {
        Self {
            memtable_bytes: 4 << 10,
            block_bytes: 512,
            target_sst_bytes: 8 << 10,
            bloom_bits_per_key: 10,
            sync_wal: false,
            wal_retention_segments: 2,
            compaction: CompactionConfig {
                l0_trigger: 3,
                level_base_bytes: 16 << 10,
                level_growth: 4,
                n_levels: 4,
            },
            n_stripes: 4,
            group_commit_bytes: 16 << 10,
            group_commit_interval_ms: 5,
            // Small enough that tests exercise eviction, on by default so the
            // whole suite runs through the cached read path.
            block_cache_bytes: 64 << 10,
        }
    }

    fn wal_options(&self) -> WalOptions {
        WalOptions {
            sync_on_append: self.sync_wal,
            group_commit_bytes: self.group_commit_bytes,
            group_commit_interval: Duration::from_millis(self.group_commit_interval_ms),
        }
    }
}

/// Outcome of a point read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadResult {
    /// The live value, if the key exists and has not expired.
    pub value: Option<Bytes>,
    /// Data-block accesses performed (0 when served by memtable, cached row
    /// or bloom). Block-cache hits count: Rule 1 prices logical block I/O,
    /// and a request's cost must not depend on cache luck. `io_ops -
    /// cache_hits` of these actually reached the disk.
    pub io_ops: u32,
    /// Of `io_ops`, the accesses served by the block cache without disk I/O.
    pub cache_hits: u32,
    /// True when the memtable answered.
    pub from_memtable: bool,
    /// True when a cached row answered: the paper's node-cache hit, which
    /// costs CPU and no I/O (`io_ops` and `cache_hits` are both 0).
    pub from_row_cache: bool,
}

impl ReadResult {
    /// True when the node cache served the read: no access reached the disk
    /// (memtable, cached row, bloom filter or cached blocks answered). §4.1
    /// charges such a read at the node-cache-hit discount.
    pub fn is_cache_hit(&self) -> bool {
        self.io_ops == self.cache_hits
    }
}

/// Monotonic counters exposed by the engine. The ones every read or write
/// bumps are striped per thread ([`Counter`]), so concurrent workers do not
/// share a cache line; the flush and compaction ones stay single atomics.
#[derive(Debug, Default)]
struct StatsInner {
    gets: Counter,
    puts: Counter,
    deletes: Counter,
    block_reads: Counter,
    memtable_hits: Counter,
    flushes: AtomicU64,
    compactions: AtomicU64,
    sst_bytes_written: AtomicU64,
}

/// Snapshot of the engine counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbStats {
    /// Point reads served.
    pub gets: u64,
    /// Put operations applied.
    pub puts: u64,
    /// Delete operations applied.
    pub deletes: u64,
    /// Data-block reads across all SSTs.
    pub block_reads: u64,
    /// Reads answered from the memtable.
    pub memtable_hits: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions executed.
    pub compactions: u64,
    /// Bytes written into SST files (flush + compaction).
    pub sst_bytes_written: u64,
    /// Bytes written into WAL segment files: whole frames, after
    /// compression.
    pub wal_bytes_written: u64,
}

/// One engine stripe: a memtable plus this stripe's slice of the LSM tree.
struct Stripe {
    memtable: MemTable,
    /// This stripe's files per level (same ordering rules as
    /// [`Version::add_file`]); the union across stripes equals the manifest.
    levels: Vec<Vec<SstMeta>>,
    readers: HashMap<u64, Arc<SstReader>>,
}

impl Stripe {
    fn new(n_levels: usize) -> Self {
        Self {
            memtable: MemTable::new(),
            levels: vec![Vec::new(); n_levels],
            readers: HashMap::new(),
        }
    }

    fn add_file(&mut self, meta: SstMeta, reader: Arc<SstReader>) {
        self.readers.insert(meta.id, reader);
        let level = meta.level as usize;
        let files = &mut self.levels[level];
        files.push(meta);
        if level == 0 {
            // L0: newest (largest id) first — read path checks newest first.
            files.sort_by_key(|m| Reverse(m.id));
        } else {
            files.sort_by(|a, b| a.min_key.cmp(&b.min_key));
        }
    }

    fn remove_file(&mut self, id: u64) {
        for files in &mut self.levels {
            if let Some(pos) = files.iter().position(|m| m.id == id) {
                files.remove(pos);
            }
        }
        self.readers.remove(&id);
    }
}

/// Per-stripe durability watermarks, read lock-free during floor advancement.
struct StripeMarks {
    /// Every record of this stripe with seq ≤ this is in an SST.
    flushed_through: AtomicU64,
    /// Highest seq applied to this stripe's memtable.
    highest_applied: AtomicU64,
}

/// Tracks the highest *contiguous* applied sequence number across stripes.
///
/// Appends allocate seqs under the WAL lock but apply to their stripes
/// concurrently, so seq N+1 can finish applying before seq N. `last_seq()`
/// (the replication high-water mark) must never report a seq whose
/// predecessors are still in flight — a follower acking N promises it has
/// everything ≤ N. Completed seqs that arrive out of order park in a heap
/// until the gap below them closes.
struct ApplyTracker {
    visible: AtomicU64,
    /// Number of seqs parked out of order. The common case (in-order
    /// completion) advances `visible` by CAS and reads this as zero — no
    /// lock on the write path. SeqCst throughout: the fast path's
    /// CAS-then-load-parked and the park path's store-parked-then-load-
    /// visible form a Dekker pair, and one side missing the other's store
    /// would strand a parked seq below an advanced watermark forever.
    parked: AtomicU64,
    pending: RankedMutex<BinaryHeap<Reverse<u64>>>,
}

impl ApplyTracker {
    fn new(visible: u64) -> Self {
        Self {
            visible: AtomicU64::new(visible),
            parked: AtomicU64::new(0),
            pending: RankedMutex::new(rank::APPLY_PENDING, BinaryHeap::new()),
        }
    }

    fn visible(&self) -> u64 {
        // ORDER: Acquire pairs with the SeqCst publishes of `visible` in
        // `complete`/`drain_locked`; a reader that observes seq N also
        // observes every memtable apply that preceded N's completion.
        self.visible.load(Ordering::Acquire)
    }

    fn complete(&self, seq: u64) {
        loop {
            // ORDER: SeqCst; all `visible`/`parked` accesses in this tracker
            // share one total order (the Dekker pairing described above).
            let v = self.visible.load(Ordering::SeqCst);
            if seq <= v {
                return;
            }
            if seq == v + 1 {
                if self
                    .visible
                    // ORDER: SeqCst CAS pairs with the park path's
                    // store-parked-then-load-visible below: whoever is
                    // ordered second in the single total order sees the
                    // other's write, so no parked seq is stranded.
                    .compare_exchange(v, seq, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    // Our advance may have unblocked parked successors.
                    // ORDER: SeqCst load, the second half of the fast path's
                    // CAS-then-load-parked Dekker arm.
                    if self.parked.load(Ordering::SeqCst) > 0 {
                        let mut pending = self.pending.lock();
                        self.drain_locked(&mut pending);
                    }
                    return;
                }
                // Lost the race; visible only grows, so re-read and retry.
            } else {
                let mut pending = self.pending.lock();
                pending.push(Reverse(seq));
                // ORDER: SeqCst store-parked precedes the load-visible in
                // `drain_locked` — the park path's Dekker arm against the
                // fast path's CAS-then-load-parked above.
                self.parked.store(pending.len() as u64, Ordering::SeqCst);
                // Re-check under the lock: `visible` may have reached
                // `seq - 1` while we were parking, and that completer may
                // have read `parked` before our store.
                self.drain_locked(&mut pending);
                return;
            }
        }
    }

    /// Pop every contiguous successor of `visible` off the heap and publish.
    /// Plain stores are safe here: the only thread that could CAS `visible`
    /// to `v + 1` is the completer of `v + 1`, and while `v + 1` sits in the
    /// heap that completer has already been and gone (each seq completes
    /// exactly once) — no concurrent advance can interleave.
    fn drain_locked(&self, pending: &mut BinaryHeap<Reverse<u64>>) {
        loop {
            // ORDER: SeqCst load-visible after the caller's store-parked —
            // the second half of the park path's Dekker arm.
            let v = self.visible.load(Ordering::SeqCst);
            if pending.peek() == Some(&Reverse(v + 1)) {
                pending.pop();
                // ORDER: SeqCst publish; pairs with the Acquire in
                // `visible()` and the SeqCst loads in `complete`.
                self.visible.store(v + 1, Ordering::SeqCst);
            } else {
                break;
            }
        }
        // ORDER: SeqCst; keeps `parked` in the tracker's single total order
        // so a racing completer cannot miss a still-parked seq.
        self.parked.store(pending.len() as u64, Ordering::SeqCst);
    }
}

/// Cross-stripe state: the manifest and the WAL segment bookkeeping.
struct Shared {
    version: Version,
    /// Segment currently receiving appends.
    live_segment: u64,
    /// Rotated-but-not-yet-covered segments as `(segment, last seq held)`,
    /// oldest first. The floor may pass a segment only once every stripe has
    /// flushed through its `last seq held`.
    rotated: Vec<(u64, u64)>,
}

/// Where a [`Db::checkpoint`] snapshot ends in the source's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Highest sequence number contained in the snapshot.
    pub last_seq: u64,
    /// WAL segment that was current when the snapshot was taken.
    pub wal_segment: u64,
    /// Byte offset within that segment covered by the snapshot.
    pub wal_offset: u64,
    /// Bytes of SSTs and WALs in the snapshot (the `MANIFEST` excluded).
    pub bytes_copied: u64,
}

/// A LavaStore database instance rooted at a directory.
pub struct Db {
    dir: PathBuf,
    config: DbConfig,
    n_stripes: usize,
    /// The shared group-commit WAL — also the engine's one LSN allocator.
    log: Wal,
    stripes: Vec<RankedRwLock<Stripe>>,
    marks: Vec<StripeMarks>,
    tracker: ApplyTracker,
    shared: RankedMutex<Shared>,
    stats: StatsInner,
    /// One data-block cache shared by every stripe's readers (None = off).
    block_cache: Option<Arc<BlockCache>>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db").field("dir", &self.dir).finish()
    }
}

fn sst_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{id:010}.sst"))
}

fn wal_path(dir: &Path, id: u64) -> PathBuf {
    Wal::segment_path(dir, id)
}

/// FNV-1a over the key; stable across restarts (stripe assignment must be).
fn stripe_of_key(key: &[u8], n_stripes: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % n_stripes as u64) as usize
}

impl Db {
    /// Open (or create) a database at `dir`, recovering from the manifest and
    /// any write-ahead logs present.
    pub fn open(dir: impl AsRef<Path>, config: DbConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // A scrape lists the compression counters before the first flush or
        // drain (a lazy metric registers on first touch).
        for counter in [
            &crate::metrics::BLOCK_RAW_BYTES,
            &crate::metrics::BLOCK_STORED_BYTES,
            &crate::metrics::WAL_RAW_BYTES,
            &crate::metrics::WAL_APPEND_BYTES,
        ] {
            counter.add(0);
        }
        let loaded = Version::load(&dir)?;
        // Sweep what a crashed or failed process left behind: checkpoint pin
        // directories, whose hard links would otherwise keep deleted SSTs'
        // disk space pinned forever, and, once a MANIFEST is loaded, every
        // SST it does not list (a flush or compaction that failed or crashed
        // before its `save`, or inputs whose unlink after it never ran).
        let listed: Option<HashSet<PathBuf>> = loaded.as_ref().map(|v| {
            v.levels
                .iter()
                .flatten()
                .map(|m| sst_path(&dir, m.id))
                .collect()
        });
        for entry in std::fs::read_dir(&dir)?.filter_map(|e| e.ok()) {
            let path = entry.path();
            if entry
                .file_name()
                .to_string_lossy()
                .starts_with(".ckpt-pin-")
            {
                std::fs::remove_dir_all(&path).ok();
            } else if path.extension().is_some_and(|e| e == "sst")
                && listed.as_ref().is_some_and(|ids| !ids.contains(&path))
            {
                std::fs::remove_file(&path).ok();
            }
        }
        let mut version = match loaded {
            Some(v) => v,
            None => {
                let mut v = Version::new(config.compaction.n_levels);
                v.n_stripes = config.n_stripes.max(1);
                v
            }
        };
        if version.levels.len() != config.compaction.n_levels {
            return Err(Error::InvalidState(format!(
                "manifest has {} levels, config expects {}",
                version.levels.len(),
                config.compaction.n_levels
            )));
        }
        // The stripe count is a property of the data (keys were hashed with
        // it), so the manifest always wins over the caller's config.
        let n_stripes = version.n_stripes.max(1) as usize;
        let block_cache = if config.block_cache_bytes > 0 {
            Some(Arc::new(BlockCache::new(config.block_cache_bytes)))
        } else {
            None
        };
        let mut stripes: Vec<Stripe> = (0..n_stripes)
            .map(|_| Stripe::new(version.levels.len()))
            .collect();
        for files in &version.levels {
            for meta in files {
                let reader = Arc::new(SstReader::open_cached(
                    &sst_path(&dir, meta.id),
                    block_cache.clone(),
                )?);
                let s = (meta.stripe as usize).min(n_stripes - 1);
                stripes[s].add_file(meta.clone(), reader);
            }
        }
        // Replay surviving WALs (ascending id = chronological), routing each
        // record to its stripe. Segments below the floor are retained
        // replication backlog: every stripe's records there already live in
        // SSTs, so they are skipped. Each replayed segment re-enters the
        // rotated list with the last seq it holds, so the floor logic resumes
        // exactly where the previous process left off.
        let mut next_seq = version.next_seq;
        let mut rotated: Vec<(u64, u64)> = Vec::new();
        let mut stripe_min: Vec<Option<u64>> = vec![None; n_stripes];
        let mut stripe_max: Vec<u64> = vec![0; n_stripes];
        let mut last_end = version.next_seq.saturating_sub(1);
        for id in Wal::list_segments(&dir)? {
            if id < version.wal_floor {
                continue;
            }
            let mut seg_end = last_end;
            for record in Wal::replay(&wal_path(&dir, id))? {
                next_seq = next_seq.max(record.seq + 1);
                seg_end = seg_end.max(record.seq);
                let s = stripe_of_key(&record.key, n_stripes);
                stripe_min[s] = Some(stripe_min[s].unwrap_or(record.seq).min(record.seq));
                stripe_max[s] = stripe_max[s].max(record.seq);
                stripes[s].memtable.apply(&record);
            }
            rotated.push((id, seg_end));
            last_end = seg_end;
        }
        let marks: Vec<StripeMarks> = (0..n_stripes)
            .map(|s| StripeMarks {
                // A stripe with replayed records is flushed only up to just
                // before its oldest replayed seq; an idle stripe constrains
                // nothing below the recovered high-water mark.
                flushed_through: AtomicU64::new(match stripe_min[s] {
                    Some(min) => min - 1,
                    None => next_seq - 1,
                }),
                highest_applied: AtomicU64::new(stripe_max[s]),
            })
            .collect();
        // New writes land in a fresh WAL segment.
        let live_segment = version.allocate_file_id();
        let log = Wal::create(
            &wal_path(&dir, live_segment),
            live_segment,
            next_seq,
            config.wal_options(),
        )?;
        version.next_seq = next_seq;
        version.save(&dir)?;
        Ok(Self {
            dir,
            config,
            n_stripes,
            log,
            stripes: stripes
                .into_iter()
                .map(|s| RankedRwLock::new(rank::LAVASTORE_STRIPE, s))
                .collect(),
            marks,
            tracker: ApplyTracker::new(next_seq - 1),
            shared: RankedMutex::new(
                rank::LAVASTORE_SHARED,
                Shared {
                    version,
                    live_segment,
                    rotated,
                },
            ),
            stats: StatsInner::default(),
            block_cache,
        })
    }

    /// The shared block cache, when one is configured.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.block_cache.as_ref()
    }

    /// The engine configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Number of stripes this database was created with.
    pub fn n_stripes(&self) -> usize {
        self.n_stripes
    }

    fn stripe_of(&self, key: &[u8]) -> usize {
        stripe_of_key(key, self.n_stripes)
    }

    fn per_stripe_memtable_bytes(&self) -> usize {
        (self.config.memtable_bytes / self.n_stripes).max(1)
    }

    /// The shared WAL-then-memtable write path for local puts and deletes.
    /// Returns the record's sequence number (its replication LSN).
    fn write_record(&self, mut record: Record) -> Result<u64> {
        let seq = self.log.append_next(&mut record)?;
        if self.config.sync_wal {
            // Durability before visibility: a failed group commit poisons
            // the log and this record never reaches a memtable, so no
            // reader (or replica counting it toward quorum) can observe a
            // write that was never made durable.
            self.log.commit(seq)?;
        }
        self.apply_logged(&record)?;
        Ok(seq)
    }

    /// Make a record already in the WAL visible — the one memtable-apply
    /// path of local and replicated writes: apply it to its stripe, mark
    /// the stripe's high-water seq, complete the seq for readers, and flush
    /// the stripe once it crosses its share of the memtable budget.
    fn apply_logged(&self, record: &Record) -> Result<()> {
        let s = self.stripe_of(&record.key);
        let over_threshold = {
            let mut stripe = self.stripes[s].write();
            stripe.memtable.apply(record);
            stripe.memtable.approximate_bytes() >= self.per_stripe_memtable_bytes()
        };
        self.marks[s]
            .highest_applied
            // ORDER: AcqRel; the Release half publishes the memtable apply
            // above to `advance_floor_locked`'s Acquire load, so a floor
            // computed from this mark never outruns the stripe's contents.
            .fetch_max(record.seq, Ordering::AcqRel);
        self.tracker.complete(record.seq);
        if over_threshold {
            self.flush_stripe(s)?;
        }
        Ok(())
    }

    /// Insert or overwrite `key` with `value`, optionally expiring at the
    /// absolute virtual time `expires_at`. Returns the write's sequence
    /// number — with concurrent writers this is the only fence-free way to
    /// learn one's own LSN (`last_seq()` may lag behind it while an earlier
    /// seq is still applying).
    pub fn put(
        &self,
        key: &[u8],
        value: &[u8],
        expires_at: Option<SimTime>,
        _now: SimTime,
    ) -> Result<u64> {
        self.stats.puts.inc();
        self.write_record(Record::put(
            Bytes::copy_from_slice(key),
            Bytes::copy_from_slice(value),
            0,
            expires_at,
        ))
    }

    /// Delete `key` (writes a tombstone). Returns the tombstone's sequence
    /// number.
    pub fn delete(&self, key: &[u8], _now: SimTime) -> Result<u64> {
        self.stats.deletes.inc();
        self.write_record(Record::delete(Bytes::copy_from_slice(key), 0))
    }

    /// Apply a record shipped from a replication leader, preserving its
    /// sequence number (the replication LSN).
    ///
    /// This is the follower half of WAL shipping: the record goes through the
    /// exact same WAL-then-memtable path as a local write, so follower
    /// durability and crash recovery are identical to the leader's. Returns
    /// `Ok(false)` when the record was already applied (`seq` at or below the
    /// follower's high-water mark) — shipping is therefore idempotent and
    /// at-least-once delivery is safe. Callers detect *gaps* (a record
    /// arriving with `seq` beyond `last_seq() + 1`) before applying; this
    /// method rejects them to keep the follower a strict prefix of the leader.
    pub fn apply_replicated(&self, record: &Record) -> Result<bool> {
        // Durability before visibility: only a record that reached the WAL
        // may advance the high-water mark. Applying first would make a failed
        // append look applied — a re-ship would dedup and the follower would
        // silently diverge while still counting toward quorum.
        if !self.log.append_at(record)? {
            return Ok(false);
        }
        if self.config.sync_wal {
            self.log.commit(record.seq)?;
        }
        match record.kind {
            RecordKind::Put => self.stats.puts.inc(),
            RecordKind::Delete => self.stats.deletes.inc(),
        }
        self.apply_logged(record)?;
        Ok(true)
    }

    /// Highest sequence number (replication LSN) applied so far; 0 when
    /// empty. This is the highest *contiguous* applied seq: with concurrent
    /// writers it may momentarily trail an individual writer's own seq
    /// (returned by [`Db::put`]) while earlier seqs finish applying.
    pub fn last_seq(&self) -> u64 {
        self.tracker.visible()
    }

    /// Flush buffered WAL frames to the OS so tail readers (replication
    /// binlogs) can observe them. Does not fsync.
    pub fn flush_wal(&self) -> Result<()> {
        self.log.flush()
    }

    /// Id of the WAL segment currently receiving appends.
    pub fn current_wal_segment(&self) -> u64 {
        self.log.segment()
    }

    /// Current position of the live WAL, as a `(segment, byte offset)` pair —
    /// where a tail reader that has already applied every record should
    /// resume (planned leadership handover seeks caught-up followers here
    /// instead of re-polling the full retained log). The offset counts only
    /// *flushed* bytes — never frames still in the group-commit buffer, which
    /// a tail reader cannot see yet.
    pub fn wal_position(&self) -> (u64, u64) {
        self.log.position()
    }

    /// The directory this database lives in (replication tails its WALs).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stream a crash-consistent snapshot of the database (SSTs, WALs and
    /// manifest) to `sink`, returning where the snapshot ends in the log.
    ///
    /// Used for full resynchronization: a follower too far behind for WAL
    /// shipping (its segments were rotated away) reopens from a checkpoint and
    /// resumes tailing at the returned `(wal_segment, wal_offset)` position.
    ///
    /// `sink` receives `(file name, chunk)` pairs: every SST, then the WAL
    /// segments at or above the floor, then the encoded `MANIFEST`, last.
    /// Each file's chunks come back to back; an empty file is one empty
    /// chunk. [`Staging`](crate::Staging) lands such a stream on disk; the
    /// socket leader ships it as `FILE` frames.
    ///
    /// Only the cross-stripe `shared` lock is held to *pin* the snapshot:
    /// live files are hard-linked into a private pin directory and the log
    /// cursor recorded, all O(files) — writers keep writing to every stripe
    /// during the pin. The bytes then stream **without any lock**, reading
    /// the pinned inodes (a deleted original stays readable through its
    /// link), so seeding a replica does not stall the write path. The pin
    /// lives until the last chunk is through the sink, and goes on every
    /// exit, a sink error included. The live WAL segment is streamed only up
    /// to the recorded offset — which counts only flushed complete frames, so
    /// the cursor can never point into a torn or still-buffered frame —
    /// keeping the snapshot byte-exact with the returned cursor even while
    /// the leader keeps appending.
    pub fn checkpoint_with(
        &self,
        sink: &mut dyn FnMut(&str, &[u8]) -> Result<()>,
    ) -> Result<CheckpointInfo> {
        static PIN_SEQ: AtomicU64 = AtomicU64::new(0);
        let pin_timer = abase_obs::Timer::start();
        let pin_dir = self.dir.join(format!(
            ".ckpt-pin-{}-{}",
            std::process::id(),
            PIN_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        // Phase 1 — pin under the shared lock. Cleanup of the pin directory
        // on *any* exit (including a failed hard link) happens below; a
        // crashed process's stale pin dirs are swept by `Db::open`.
        struct PinSnapshot {
            version: Version,
            wal_segment: u64,
            wal_offset: u64,
            last_seq: u64,
            /// `(pinned link, file name)` per live file, in stream order.
            files: Vec<(PathBuf, String)>,
        }
        let phase1 = || -> Result<PinSnapshot> {
            let shared = self.shared.lock();
            // Drains the group-commit buffer and returns a cursor on a
            // flushed frame boundary: every seq ≤ last_seq is either in a
            // pinned SST or in pinned WAL bytes at or below wal_offset.
            let (wal_segment, wal_offset, last_seq) = self.log.checkpoint_cursor()?;
            std::fs::create_dir_all(&pin_dir)?;
            let mut pinned: Vec<(PathBuf, String)> = Vec::new();
            let mut pin = |src: PathBuf| -> Result<()> {
                // INVARIANT: every pinned path is built by sst_path/wal_path,
                // which always append an ASCII file name component.
                let name = src.file_name().expect("data files have names");
                let pinned_path = pin_dir.join(name);
                std::fs::hard_link(&src, &pinned_path)?;
                pinned.push((pinned_path, name.to_string_lossy().into_owned()));
                Ok(())
            };
            for files in &shared.version.levels {
                for meta in files {
                    pin(sst_path(&self.dir, meta.id))?;
                }
            }
            for id in Wal::list_segments(&self.dir)? {
                // Segments below the floor are retained backlog for tail
                // readers; their records are already in the pinned SSTs and
                // the clone would never replay them — streaming them wastes
                // recovery bandwidth.
                if id < shared.version.wal_floor {
                    continue;
                }
                pin(wal_path(&self.dir, id))?;
            }
            let mut version = shared.version.clone();
            version.next_seq = last_seq + 1;
            Ok(PinSnapshot {
                version,
                wal_segment,
                wal_offset,
                last_seq,
                files: pinned,
            })
        };
        let PinSnapshot {
            version,
            wal_segment,
            wal_offset,
            last_seq,
            files: pinned,
        } = match phase1() {
            Ok(snapshot) => snapshot,
            Err(e) => {
                std::fs::remove_dir_all(&pin_dir).ok();
                return Err(e);
            }
        };
        // Phase 2 — stream the pinned bytes, lock-free.
        let result = (|| -> Result<u64> {
            let mut bytes_copied = 0u64;
            let fp_context = self.dir.display().to_string();
            let live_wal_name = wal_path(&self.dir, wal_segment);
            let mut chunk = vec![0u8; 64 << 10];
            for (pinned_path, name) in &pinned {
                // Cap the live segment at the recorded cursor; appends that
                // landed after the pin belong to the tail the follower ships.
                let mut remaining = if pinned_path.file_name() == live_wal_name.file_name() {
                    wal_offset
                } else {
                    u64::MAX
                };
                let mut reader = std::fs::File::open(pinned_path)?;
                let mut emitted = false;
                while remaining > 0 {
                    // Chaos site: a checkpoint source dying mid-stream (each
                    // chunk may be the one that fails or stalls).
                    if let Some(abase_util::failpoint::FaultAction::Error) =
                        abase_util::failpoint::check("db.checkpoint", &fp_context)
                    {
                        return Err(Error::Io(std::io::Error::other(
                            "injected fault: checkpoint source failed mid-copy",
                        )));
                    }
                    let want = chunk.len().min(remaining.min(u64::MAX >> 1) as usize);
                    let n = std::io::Read::read(&mut reader, &mut chunk[..want])?;
                    if n == 0 {
                        break;
                    }
                    sink(name, &chunk[..n])?;
                    emitted = true;
                    bytes_copied += n as u64;
                    remaining = remaining.saturating_sub(n as u64);
                }
                if !emitted {
                    sink(name, &[])?;
                }
            }
            sink("MANIFEST", &version.encode())?;
            Ok(bytes_copied)
        })();
        std::fs::remove_dir_all(&pin_dir).ok();
        pin_timer.observe(&crate::metrics::CHECKPOINT_PIN_MICROS);
        let bytes_copied = result?;
        crate::metrics::CHECKPOINTS.inc();
        Ok(CheckpointInfo {
            last_seq,
            wal_segment,
            wal_offset,
            bytes_copied,
        })
    }

    /// Stage a checkpoint into `dest_dir` (replacing whatever was there)
    /// through [`Staging`](crate::Staging); on error nothing is left there.
    pub fn checkpoint(&self, dest_dir: &Path) -> Result<CheckpointInfo> {
        let mut staging = crate::Staging::create(dest_dir)?;
        let info = self.checkpoint_with(&mut |name, chunk| staging.write(name, chunk))?;
        staging.keep();
        Ok(info)
    }

    /// Point read at virtual time `now` (TTL-expired records read as absent).
    /// Touches exactly one stripe's lock. Looks in the memtable, then the
    /// node cache's rows, then the SSTs.
    pub fn get(&self, key: &[u8], now: SimTime) -> Result<ReadResult> {
        self.stats.gets.inc();
        let stripe = self.stripes[self.stripe_of(key)].read();
        let mut result = ReadResult {
            value: None,
            io_ops: 0,
            cache_hits: 0,
            from_memtable: false,
            from_row_cache: false,
        };
        // 1. Memtable: the newest state, shadowing everything below.
        if let Some(entry) = stripe.memtable.get(key) {
            self.stats.memtable_hits.inc();
            result.value = is_live(entry.kind, entry.expires_at, now).then(|| entry.value.clone());
            result.from_memtable = true;
            return Ok(result);
        }
        // 2. Row: the newest SST-resident version, kept current by
        //    `flush_stripe` (see `block_cache`). Held under the stripe's read
        //    lock, like the admission below, so neither can straddle a flush.
        if let Some(row) = self.block_cache.as_ref().and_then(|c| c.get_row(key)) {
            result.value = is_live(RecordKind::Put, row.expires_at, now).then_some(row.value);
            result.from_row_cache = true;
            return Ok(result);
        }
        // 3. SSTs.
        let (entry, io) = Self::search_ssts(&stripe, key)?;
        if io.disk > 0 {
            self.stats.block_reads.add(u64::from(io.disk));
        }
        result.io_ops = io.total();
        result.cache_hits = io.cached;
        if let Some(entry) = entry {
            result.value = is_live(entry.kind, entry.expires_at, now).then_some(entry.value);
            // Admit what this read had to go to the disk for: a key whose
            // block is already cached gains nothing from a second copy, so a
            // dataset that fits the cache as blocks is not stored twice.
            if io.disk > 0 {
                if let (Some(cache), Some(value)) = (&self.block_cache, &result.value) {
                    let row = CachedRow {
                        value: value.clone(),
                        expires_at: entry.expires_at,
                    };
                    cache.insert_row(Bytes::copy_from_slice(key), row);
                }
            }
        }
        Ok(result)
    }

    /// Newest version of `key` in `stripe`'s SSTs, with the block accesses
    /// the search made.
    fn search_ssts(stripe: &Stripe, key: &[u8]) -> Result<(Option<MemEntry>, BlockIo)> {
        let mut io = BlockIo::default();
        if stripe.readers.is_empty() {
            return Ok((None, io));
        }
        // Every file's filter probes with the one pair of hashes.
        let hashes = BloomFilter::hash_pair(key);
        // L0, newest file first (files may overlap).
        for meta in &stripe.levels[0] {
            let (entry, file_io) = stripe.readers[&meta.id].get_entry(key, hashes)?;
            io.absorb(file_io);
            if entry.is_some() {
                return Ok((entry, io));
            }
        }
        // L1+: at most one candidate file per level.
        for files in &stripe.levels[1..] {
            let idx = files.partition_point(|m| m.max_key.as_ref() < key);
            if let Some(meta) = files.get(idx).filter(|m| m.min_key.as_ref() <= key) {
                let (entry, file_io) = stripe.readers[&meta.id].get_entry(key, hashes)?;
                io.absorb(file_io);
                if entry.is_some() {
                    return Ok((entry, io));
                }
            }
        }
        Ok((None, io))
    }

    /// All live `(key, value)` pairs whose key starts with `prefix`, at
    /// virtual time `now`. Returns the pairs and the block accesses used,
    /// split into disk reads and cache hits.
    ///
    /// Takes every stripe's read lock (in index order, so concurrent scans
    /// cannot deadlock) to get a point-in-time view across stripes, then
    /// merges by key with newest-seq-wins — sequence numbers are globally
    /// unique, so the merge is unambiguous regardless of source order.
    pub fn scan_prefix(
        &self,
        prefix: &[u8],
        now: SimTime,
    ) -> Result<(Vec<(Bytes, Bytes)>, BlockIo)> {
        let guards: Vec<_> = self.stripes.iter().map(|s| s.read()).collect();
        let mut sources = Vec::new();
        let mut io = BlockIo::default();
        let upper = upper_bound_for_prefix(prefix);
        for stripe in &guards {
            sources.push(
                stripe
                    .memtable
                    .scan_prefix(prefix)
                    .map(|(k, e)| Record {
                        key: k.clone(),
                        seq: e.seq,
                        kind: e.kind,
                        expires_at: e.expires_at,
                        value: e.value.clone(),
                    })
                    .collect::<Vec<_>>(),
            );
            for level in 0..stripe.levels.len() {
                for meta in &stripe.levels[level] {
                    if !meta.overlaps(prefix, upper.as_ref()) {
                        continue;
                    }
                    let reader = &stripe.readers[&meta.id];
                    let (records, file_io) = reader.scan_prefix(prefix)?;
                    io.absorb(file_io);
                    sources.push(records);
                }
            }
        }
        self.stats.block_reads.add(u64::from(io.disk));
        let merged = MergeIterator::new(sources).dedup_newest(now, true);
        let out = merged.into_iter().map(|r| (r.key, r.value)).collect();
        Ok((out, io))
    }

    /// Force a memtable flush of every stripe (no-op for empty stripes).
    pub fn flush(&self) -> Result<()> {
        for s in 0..self.n_stripes {
            self.flush_stripe(s)?;
        }
        Ok(())
    }

    /// Flush one stripe's memtable into an L0 SST, rotate the shared WAL,
    /// and advance the floor as far as cross-stripe coverage allows.
    fn flush_stripe(&self, s: usize) -> Result<()> {
        let mut stripe = self.stripes[s].write();
        // Everything this stripe holds with seq ≤ v is in its memtable right
        // now (we hold the stripe write lock, and `visible` only advances
        // after a record's apply completes), so after writing the memtable
        // out, this stripe is flushed through v.
        let v = self.tracker.visible();
        if stripe.memtable.is_empty() {
            // ORDER: AcqRel; Release publishes "flushed through v" to the
            // Acquire load in `advance_floor_locked` before the floor moves.
            self.marks[s].flushed_through.fetch_max(v, Ordering::AcqRel);
            let mut shared = self.shared.lock();
            return self.advance_floor_locked(&mut shared);
        }
        let flush_timer = abase_obs::Timer::start();
        let id = self.shared.lock().version.allocate_file_id();
        // The SST write — the expensive part — happens under only this
        // stripe's lock: writes to other stripes proceed untouched.
        let path = sst_path(&self.dir, id);
        let mut writer = SstWriter::create(
            &path,
            stripe.memtable.len(),
            self.config.bloom_bits_per_key,
            self.config.block_bytes,
        )?;
        // Each record written here supersedes its key's cached row; drop it
        // while the write lock keeps readers (and their admissions) out. A
        // cache that holds no rows — a write-only load — skips the probes.
        let rows = self.block_cache.as_deref().filter(|c| c.row_count() > 0);
        for record in stripe.memtable.iter_records() {
            writer.add(&record)?;
            if let Some(cache) = rows {
                cache.invalidate_row(&record.key);
            }
        }
        let info = writer.finish()?;
        self.stats
            .sst_bytes_written
            .fetch_add(info.file_size, Ordering::Relaxed);
        crate::metrics::FLUSH_BYTES.add(info.file_size);
        let meta = SstMeta {
            id,
            level: 0,
            stripe: s as u32,
            min_key: info.min_key,
            max_key: info.max_key,
            file_size: info.file_size,
            record_count: info.record_count,
        };
        let reader = Arc::new(SstReader::open_cached(&path, self.block_cache.clone())?);
        {
            let mut shared = self.shared.lock();
            shared.version.add_file(meta.clone());
            // Rotate the shared WAL so the flushed records' segment can age
            // out once every stripe catches up. Skip when nothing was
            // appended (another stripe's flush just rotated) or the log is
            // poisoned (the simulated crash already ended this log's life;
            // recovery happens at reopen).
            if !self.log.is_poisoned() && self.log.appended_bytes() > 0 {
                let new_segment = shared.version.allocate_file_id();
                // `rotate` returns the last seq the old segment holds,
                // captured under the log lock at the swap — no append can
                // slip into the old segment after this watermark.
                let end_seq = self
                    .log
                    .rotate(&wal_path(&self.dir, new_segment), new_segment)?;
                let old = shared.live_segment;
                shared.rotated.push((old, end_seq));
                shared.live_segment = new_segment;
            }
            // ORDER: AcqRel; Release publishes the completed SST write to
            // the Acquire load in `advance_floor_locked`.
            self.marks[s].flushed_through.fetch_max(v, Ordering::AcqRel);
            self.advance_floor_locked(&mut shared)?;
        }
        stripe.add_file(meta, reader);
        stripe.memtable.clear();
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        crate::metrics::FLUSHES.inc();
        flush_timer.observe(&crate::metrics::FLUSH_MICROS);
        Ok(())
    }

    /// Advance `wal_floor` past every rotated segment whose records all
    /// stripes have flushed, persist the manifest, and garbage-collect
    /// segments beyond the retention backlog. Caller holds the shared lock.
    fn advance_floor_locked(&self, shared: &mut Shared) -> Result<()> {
        // Read the visible watermark FIRST: a seq that completes after this
        // read is simply not credited this round (conservative), whereas
        // reading it last could credit a fully-flushed stripe with coverage
        // of records that raced into it after its flush.
        let v = self.tracker.visible();
        let mut min_cov = u64::MAX;
        for marks in &self.marks {
            // ORDER: Acquire pair with the AcqRel fetch_max publishes in
            // `flush_stripe`/`write_record`: a mark observed here implies
            // the flush/apply it describes is visible too.
            let ft = marks.flushed_through.load(Ordering::Acquire);
            let ha = marks.highest_applied.load(Ordering::Acquire);
            // A stripe with nothing unflushed covers the whole visible
            // stream (anything ≤ v it holds is flushed); one with unflushed
            // records covers only through its own flush mark.
            let cov = if ha <= ft { ft.max(v) } else { ft };
            min_cov = min_cov.min(cov);
        }
        let drop_count = shared
            .rotated
            .iter()
            .take_while(|&&(_, end_seq)| end_seq <= min_cov)
            .count();
        shared.rotated.drain(..drop_count);
        let new_floor = shared
            .rotated
            .first()
            .map(|&(segment, _)| segment)
            .unwrap_or(shared.live_segment);
        shared.version.wal_floor = shared.version.wal_floor.max(new_floor);
        shared.version.next_seq = shared.version.next_seq.max(self.log.next_seq());
        shared.version.save(&self.dir)?;
        // Segments below the floor are a retained replication backlog;
        // delete the oldest beyond the retention budget.
        let old: Vec<u64> = Wal::list_segments(&self.dir)?
            .into_iter()
            .filter(|&id| id < shared.version.wal_floor)
            .collect();
        let excess = old.len().saturating_sub(self.config.wal_retention_segments);
        for id in &old[..excess] {
            std::fs::remove_file(wal_path(&self.dir, *id)).ok();
        }
        Ok(())
    }

    /// Run at most one compaction round (first stripe with work wins).
    /// Returns true if one executed. Expired records are dropped using
    /// virtual time `now`.
    pub fn compact_once(&self, now: SimTime) -> Result<bool> {
        for s in 0..self.n_stripes {
            let mut stripe = self.stripes[s].write();
            let Some(task) = pick_compaction(&stripe.levels, &self.config.compaction) else {
                continue;
            };
            // Collect input streams. Input ids arrive with the from-level
            // files first (newest sources first for L0), which matches the
            // merge iterator's tie-breaking contract.
            let mut sources = Vec::with_capacity(task.input_ids.len());
            for id in &task.input_ids {
                let reader = stripe
                    .readers
                    .get(id)
                    .ok_or_else(|| Error::InvalidState(format!("missing reader for sst {id}")))?;
                sources.push(reader.scan_all()?);
            }
            let merged = MergeIterator::new(sources).dedup_newest(now, task.is_bottom_level);
            // Write merged output, splitting at the target file size. File
            // ids come from the shared counter (brief lock); the writes
            // themselves run under only this stripe's lock.
            let mut new_metas = Vec::new();
            let mut writer: Option<(u64, SstWriter, u64)> = None; // (id, writer, bytes)
            let finish = |id: u64, w: SstWriter, new_metas: &mut Vec<SstMeta>| -> Result<()> {
                let info = w.finish()?;
                self.stats
                    .sst_bytes_written
                    .fetch_add(info.file_size, Ordering::Relaxed);
                new_metas.push(SstMeta {
                    id,
                    level: task.output_level as u32,
                    stripe: s as u32,
                    min_key: info.min_key,
                    max_key: info.max_key,
                    file_size: info.file_size,
                    record_count: info.record_count,
                });
                Ok(())
            };
            for record in &merged {
                if writer.is_none() {
                    let id = self.shared.lock().version.allocate_file_id();
                    let w = SstWriter::create(
                        &sst_path(&self.dir, id),
                        merged.len(),
                        self.config.bloom_bits_per_key,
                        self.config.block_bytes,
                    )?;
                    writer = Some((id, w, 0));
                }
                // INVARIANT: the block above creates the writer when None;
                // it is Some on every path reaching here.
                let (_, w, bytes) = writer.as_mut().expect("writer just ensured");
                w.add(record)?;
                *bytes += record.approximate_size() as u64;
                if *bytes >= self.config.target_sst_bytes {
                    // INVARIANT: guarded by the same writer.is_some() flow.
                    let (id, w, _) = writer.take().expect("writer present");
                    finish(id, w, &mut new_metas)?;
                }
            }
            if let Some((id, w, _)) = writer.take() {
                finish(id, w, &mut new_metas)?;
            }
            // Install: update the manifest under the shared lock (input
            // deletion also happens there, so a concurrent checkpoint pin
            // can never see a version whose files are already unlinked),
            // then mirror into this stripe's view.
            let mut new_readers = Vec::with_capacity(new_metas.len());
            for meta in &new_metas {
                new_readers.push(Arc::new(SstReader::open_cached(
                    &sst_path(&self.dir, meta.id),
                    self.block_cache.clone(),
                )?));
            }
            {
                let mut shared = self.shared.lock();
                for id in &task.input_ids {
                    shared.version.remove_file(*id);
                }
                for meta in &new_metas {
                    shared.version.add_file(meta.clone());
                }
                shared.version.save(&self.dir)?;
                for id in &task.input_ids {
                    std::fs::remove_file(sst_path(&self.dir, *id)).ok();
                }
            }
            for id in &task.input_ids {
                stripe.remove_file(*id);
            }
            for (meta, reader) in new_metas.iter().zip(new_readers) {
                stripe.add_file(meta.clone(), reader);
            }
            self.stats.compactions.fetch_add(1, Ordering::Relaxed);
            crate::metrics::COMPACTIONS.inc();
            crate::metrics::COMPACTION_BYTES.add(new_metas.iter().map(|m| m.file_size).sum());
            return Ok(true);
        }
        Ok(false)
    }

    /// Run compactions until the tree is shaped (bounded rounds).
    pub fn compact_to_quiescence(&self, now: SimTime) -> Result<u32> {
        let mut rounds = 0;
        while rounds < 64 && self.compact_once(now)? {
            rounds += 1;
        }
        Ok(rounds)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DbStats {
        DbStats {
            gets: self.stats.gets.get(),
            puts: self.stats.puts.get(),
            deletes: self.stats.deletes.get(),
            block_reads: self.stats.block_reads.get(),
            memtable_hits: self.stats.memtable_hits.get(),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
            compactions: self.stats.compactions.load(Ordering::Relaxed),
            sst_bytes_written: self.stats.sst_bytes_written.load(Ordering::Relaxed),
            wal_bytes_written: self.log.bytes_written(),
        }
    }

    /// Total live SST bytes (storage utilization for the rescheduler).
    pub fn total_sst_bytes(&self) -> u64 {
        self.shared.lock().version.total_bytes()
    }

    /// Live files per level across all stripes, for diagnostics.
    pub fn level_file_counts(&self) -> Vec<usize> {
        self.shared
            .lock()
            .version
            .levels
            .iter()
            .map(Vec::len)
            .collect()
    }
}

/// Whether the newest version of a key is one a point read returns: a `Put`
/// that has not expired by `now`.
fn is_live(kind: RecordKind, expires_at: u64, now: SimTime) -> bool {
    kind == RecordKind::Put && (expires_at == NO_EXPIRY || expires_at > now)
}

/// Smallest byte string strictly greater than every key with `prefix`
/// (used to bound overlap checks). Falls back to 0xFF-padding when the prefix
/// is all 0xFF.
fn upper_bound_for_prefix(prefix: &[u8]) -> Bytes {
    let mut upper = prefix.to_vec();
    while let Some(last) = upper.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Bytes::from(upper);
        }
        upper.pop();
    }
    // All-0xFF prefix: unbounded above; use a long max sentinel.
    Bytes::from(vec![0xFFu8; prefix.len() + 8])
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_util::TestDir;

    #[test]
    fn put_get_roundtrip() {
        let dir = TestDir::new("putget");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"k1", b"v1", None, 0).unwrap();
        let r = db.get(b"k1", 0).unwrap();
        assert_eq!(r.value.as_deref(), Some(&b"v1"[..]));
        assert!(r.from_memtable);
        assert!(db.get(b"missing", 0).unwrap().value.is_none());
    }

    #[test]
    fn overwrite_returns_latest() {
        let dir = TestDir::new("overwrite");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"k", b"v1", None, 0).unwrap();
        db.put(b"k", b"v2", None, 0).unwrap();
        assert_eq!(db.get(b"k", 0).unwrap().value.as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn delete_hides_key_across_flush() {
        let dir = TestDir::new("delete");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"k", b"v", None, 0).unwrap();
        db.flush().unwrap();
        db.delete(b"k", 0).unwrap();
        assert!(db.get(b"k", 0).unwrap().value.is_none());
        db.flush().unwrap();
        assert!(db.get(b"k", 0).unwrap().value.is_none());
    }

    #[test]
    fn reads_span_memtable_and_multiple_ssts() {
        let dir = TestDir::new("layers");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"in-sst-1", b"a", None, 0).unwrap();
        db.flush().unwrap();
        db.put(b"in-sst-2", b"b", None, 0).unwrap();
        db.flush().unwrap();
        db.put(b"in-mem", b"c", None, 0).unwrap();
        // An SST read costs at least one block I/O.
        let r = db.get(b"in-sst-1", 0).unwrap();
        assert_eq!(r.value.as_deref(), Some(&b"a"[..]));
        assert!(r.io_ops >= 1 && !r.from_memtable);
        assert_eq!(
            db.get(b"in-sst-2", 0).unwrap().value.as_deref(),
            Some(&b"b"[..])
        );
        let r = db.get(b"in-mem", 0).unwrap();
        assert!(r.from_memtable);
    }

    #[test]
    fn ttl_expires_reads() {
        let dir = TestDir::new("ttl");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"k", b"v", Some(1000), 0).unwrap();
        assert!(db.get(b"k", 999).unwrap().value.is_some());
        assert!(db.get(b"k", 1000).unwrap().value.is_none());
        // Also across a flush.
        db.flush().unwrap();
        assert!(db.get(b"k", 1000).unwrap().value.is_none());
        assert!(db.get(b"k", 999).unwrap().value.is_some());
    }

    #[test]
    fn automatic_flush_on_memtable_pressure() {
        let dir = TestDir::new("autoflush");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        for i in 0..200 {
            let key = format!("key-{i:04}");
            db.put(key.as_bytes(), &[0u8; 100], None, 0).unwrap();
        }
        assert!(db.stats().flushes >= 1, "no flush under pressure");
        // All keys remain readable.
        for i in 0..200 {
            let key = format!("key-{i:04}");
            assert!(
                db.get(key.as_bytes(), 0).unwrap().value.is_some(),
                "{key} lost"
            );
        }
    }

    #[test]
    fn expired_value_above_the_bottom_keeps_shadowing_a_deeper_live_one() {
        let dir = TestDir::new("compact-ttl-shadow");
        let config = DbConfig {
            n_stripes: 1,
            compaction: CompactionConfig {
                l0_trigger: 2,
                // L1 is always over budget (everything sinks to L2); L2 never.
                level_base_bytes: 1,
                level_growth: 1 << 30,
                n_levels: 4,
            },
            ..DbConfig::small_for_tests()
        };
        let db = Db::open(dir.path(), config).unwrap();
        db.put(b"k", b"old", None, 0).unwrap();
        db.flush().unwrap();
        db.put(b"a", b"filler", None, 0).unwrap();
        db.flush().unwrap();
        db.compact_to_quiescence(0).unwrap();
        assert_eq!(db.level_file_counts()[..2], [0, 0], "old version not in L2");
        // A newer version with a TTL lands in L0, expires, and is compacted
        // into L1 — not the bottom: L2 still holds the old version.
        db.put(b"k", b"new", Some(100), 0).unwrap();
        db.flush().unwrap();
        db.put(b"z", b"filler", None, 0).unwrap();
        db.flush().unwrap();
        assert!(db.compact_once(200).unwrap());
        assert!(db.level_file_counts()[1] > 0 && db.level_file_counts()[2] > 0);
        assert_eq!(
            db.get(b"k", 200).unwrap().value,
            None,
            "dead value came back"
        );
        // Once the shadow reaches the bottom both versions go.
        db.compact_to_quiescence(200).unwrap();
        assert_eq!(db.get(b"k", 200).unwrap().value, None);
        assert_eq!(db.scan_prefix(b"", 200).unwrap().0.len(), 2);
    }

    #[test]
    fn compaction_preserves_data_and_reduces_l0() {
        let dir = TestDir::new("compact");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        for round in 0..5 {
            for i in 0..50 {
                let key = format!("key-{i:04}");
                let value = format!("v{round}-{i}");
                db.put(key.as_bytes(), value.as_bytes(), None, 0).unwrap();
            }
            db.flush().unwrap();
        }
        let l0_before = db.level_file_counts()[0];
        assert!(l0_before >= 3);
        let rounds = db.compact_to_quiescence(0).unwrap();
        assert!(rounds >= 1);
        assert!(db.level_file_counts()[0] < l0_before);
        // Latest values win after compaction.
        for i in 0..50 {
            let key = format!("key-{i:04}");
            let expect = format!("v4-{i}");
            assert_eq!(
                db.get(key.as_bytes(), 0).unwrap().value.as_deref(),
                Some(expect.as_bytes()),
                "{key}"
            );
        }
    }

    #[test]
    fn recovery_from_wal_after_drop() {
        let dir = TestDir::new("recover");
        {
            let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
            db.put(b"durable", b"yes", None, 0).unwrap();
            // No flush: data only in WAL + memtable.
        }
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        assert_eq!(
            db.get(b"durable", 0).unwrap().value.as_deref(),
            Some(&b"yes"[..])
        );
    }

    #[test]
    fn recovery_after_flush_and_more_writes() {
        let dir = TestDir::new("recover2");
        {
            let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
            db.put(b"a", b"1", None, 0).unwrap();
            db.flush().unwrap();
            db.put(b"b", b"2", None, 0).unwrap();
        }
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        assert_eq!(db.get(b"a", 0).unwrap().value.as_deref(), Some(&b"1"[..]));
        assert_eq!(db.get(b"b", 0).unwrap().value.as_deref(), Some(&b"2"[..]));
        // Sequence numbers continue: an overwrite after recovery wins.
        db.put(b"a", b"3", None, 0).unwrap();
        assert_eq!(db.get(b"a", 0).unwrap().value.as_deref(), Some(&b"3"[..]));
    }

    #[test]
    fn scan_prefix_merges_all_layers() {
        let dir = TestDir::new("scan");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"h:1", b"a", None, 0).unwrap();
        db.flush().unwrap();
        db.put(b"h:2", b"b", None, 0).unwrap();
        db.put(b"other", b"x", None, 0).unwrap();
        db.put(b"h:1", b"a2", None, 0).unwrap(); // overwrite in memtable
        let (pairs, _) = db.scan_prefix(b"h:", 0).unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (Bytes::from("h:1"), Bytes::from("a2")));
        assert_eq!(pairs[1], (Bytes::from("h:2"), Bytes::from("b")));
    }

    #[test]
    fn scan_prefix_hides_tombstones_and_expired() {
        let dir = TestDir::new("scan2");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"p:live", b"1", None, 0).unwrap();
        db.put(b"p:dead", b"2", None, 0).unwrap();
        db.put(b"p:ttl", b"3", Some(500), 0).unwrap();
        db.delete(b"p:dead", 0).unwrap();
        let (pairs, _) = db.scan_prefix(b"p:", 1000).unwrap();
        let keys: Vec<_> = pairs.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![Bytes::from("p:live")]);
    }

    #[test]
    fn bottom_compaction_drops_tombstones_and_expired() {
        let dir = TestDir::new("gc");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        // Three flushes reach the L0 compaction trigger.
        for round in 0..3 {
            for i in 0..30 {
                db.put(format!("k{i:02}-{round}").as_bytes(), b"v", Some(100), 0)
                    .unwrap();
            }
            db.delete(format!("k00-{round}").as_bytes(), 0).unwrap();
            db.flush().unwrap();
        }
        let before = db.total_sst_bytes();
        // Compact well past expiry: everything is GC-able.
        db.compact_to_quiescence(1_000_000).unwrap();
        let after = db.total_sst_bytes();
        assert!(
            after < before,
            "GC did not shrink storage ({before} -> {after})"
        );
    }

    #[test]
    fn stats_move() {
        let dir = TestDir::new("stats");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"k", b"v", None, 0).unwrap();
        db.get(b"k", 0).unwrap();
        db.delete(b"k", 0).unwrap();
        let s = db.stats();
        assert_eq!(s.puts, 1);
        assert_eq!(s.gets, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.memtable_hits, 1);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let dir = TestDir::new("concurrent");
        let db = Arc::new(Db::open(dir.path(), DbConfig::small_for_tests()).unwrap());
        for i in 0..100 {
            db.put(format!("k{i:03}").as_bytes(), b"v", None, 0)
                .unwrap();
        }
        db.flush().unwrap();
        let mut handles = Vec::new();
        for t in 0..4 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let key = format!("k{:03}", (i * 7 + t) % 100);
                    assert!(db.get(key.as_bytes(), 0).unwrap().value.is_some());
                }
            }));
        }
        for i in 100..150 {
            db.put(format!("k{i:03}").as_bytes(), b"v", None, 0)
                .unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn readers_never_see_a_version_go_backwards_across_flushes() {
        // The stale-row hazard: a flush moves a newer version into an SST
        // while the cache still holds the older one as a row. One writer
        // rewrites a fixed key set with increasing versions and flushes
        // every few hundred writes; a reader that saw version v of a key
        // must never afterwards see less than v.
        const KEYS: usize = 64;
        const WRITES: u64 = 6_000;
        let dir = TestDir::new("row-monotone");
        // A cache large enough that rows stay resident between flushes.
        let config = DbConfig {
            block_cache_bytes: 1 << 20,
            ..DbConfig::small_for_tests()
        };
        let db = Arc::new(Db::open(dir.path(), config).unwrap());
        let key = |k: usize| format!("key-{k:03}").into_bytes();
        for k in 0..KEYS {
            db.put(&key(k), &0u64.to_le_bytes(), None, 0).unwrap();
        }
        db.flush().unwrap();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(4));
        let readers: Vec<_> = (0..3)
            .map(|t| {
                let (db, done, start) = (Arc::clone(&db), Arc::clone(&done), Arc::clone(&start));
                std::thread::spawn(move || {
                    let mut seen = [0u64; KEYS];
                    let (mut i, mut row_hits) = (t, 0u64);
                    start.wait();
                    // ORDER: Acquire pairs with the writer's Release store.
                    while !done.load(Ordering::Acquire) {
                        let k = i % KEYS;
                        let r = db.get(&key(k), 0).unwrap();
                        let v = r.value.expect("keys are never deleted");
                        let v = u64::from_le_bytes(v.as_ref().try_into().unwrap());
                        assert!(v >= seen[k], "key {k} went back from {} to {v}", seen[k]);
                        seen[k] = v;
                        row_hits += u64::from(r.from_row_cache);
                        i += 7;
                    }
                    row_hits
                })
            })
            .collect();
        start.wait();
        for version in 1..=WRITES {
            let k = (version as usize * 13) % KEYS;
            db.put(&key(k), &version.to_le_bytes(), None, 0).unwrap();
            if version % 300 == 0 {
                db.flush().unwrap();
            }
        }
        // ORDER: Release pairs with the readers' Acquire load.
        done.store(true, Ordering::Release);
        let row_hits: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(row_hits > 0, "no read was served by a row: nothing tested");
    }

    /// A store with `n` flushed keys and nothing in the memtable.
    fn flushed_db(dir: &TestDir, config: DbConfig, n: usize) -> Db {
        let db = Db::open(dir.path(), config).unwrap();
        for i in 0..n {
            db.put(format!("k{i:03}").as_bytes(), b"v", None, 0)
                .unwrap();
        }
        db.flush().unwrap();
        db
    }

    #[test]
    fn a_row_is_admitted_only_by_a_read_that_reached_the_disk() {
        let dir = TestDir::new("row-admit");
        let db = flushed_db(&dir, DbConfig::small_for_tests(), 100);
        let cache = db.block_cache().unwrap();
        assert_eq!(cache.row_count(), 0, "the write path admits nothing");
        // First read of k000: its block comes from disk, so the row goes in.
        let r = db.get(b"k000", 0).unwrap();
        assert!(!r.from_row_cache && r.io_ops > r.cache_hits);
        assert_eq!(cache.row_count(), 1);
        // A neighbour in the same, now cached, block: served by the block
        // cache, and not worth a second copy.
        let near = (1..100)
            .map(|i| format!("k{i:03}"))
            .find(|k| {
                let r = db.get(k.as_bytes(), 0).unwrap();
                r.io_ops > 0 && r.io_ops == r.cache_hits
            })
            .expect("some key shares a block with an earlier read");
        let rows = cache.row_count();
        let again = db.get(near.as_bytes(), 0).unwrap();
        assert!(!again.from_row_cache && again.cache_hits > 0);
        assert_eq!(cache.row_count(), rows);
        // The admitted row answers with no I/O of either kind.
        let r = db.get(b"k000", 0).unwrap();
        assert_eq!(r.value.as_deref(), Some(&b"v"[..]));
        assert!(r.from_row_cache && !r.from_memtable);
        assert_eq!((r.io_ops, r.cache_hits), (0, 0));
        // Rows count toward the one resident gauge.
        assert!(cache.resident_bytes() >= cache.pinned_bytes() + cache.row_bytes());
        assert!(cache.row_bytes() > 0);
    }

    #[test]
    fn cache_off_means_no_rows_either() {
        let dir = TestDir::new("row-off");
        let config = DbConfig {
            block_cache_bytes: 0,
            ..DbConfig::small_for_tests()
        };
        let db = flushed_db(&dir, config, 50);
        assert!(db.block_cache().is_none());
        for _ in 0..2 {
            let r = db.get(b"k007", 0).unwrap();
            assert!(r.value.is_some() && !r.from_row_cache && r.io_ops > 0);
            assert_eq!(r.cache_hits, 0);
        }
    }

    #[test]
    fn an_expired_row_reads_as_absent() {
        let dir = TestDir::new("row-ttl");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"k", b"v", Some(1_000), 0).unwrap();
        db.flush().unwrap();
        assert!(db.get(b"k", 999).unwrap().value.is_some());
        let hit = db.get(b"k", 999).unwrap();
        assert!(hit.from_row_cache && hit.value.is_some());
        let expired = db.get(b"k", 1_000).unwrap();
        assert!(expired.from_row_cache && expired.value.is_none());
        // A record that is already expired when it is found is not admitted.
        db.put(b"late", b"v", Some(10), 0).unwrap();
        db.flush().unwrap();
        assert!(db.get(b"late", 10).unwrap().value.is_none());
        assert!(!db.get(b"late", 10).unwrap().from_row_cache);
    }

    #[test]
    fn a_flushed_tombstone_or_overwrite_hides_the_cached_row() {
        let dir = TestDir::new("row-invalidate");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        // Values larger than a block: every record has a block to itself, so
        // each first read goes to the disk and admits its row.
        for key in [&b"dead"[..], b"rewritten", b"untouched"] {
            db.put(key, &[b'o'; 600], None, 0).unwrap();
        }
        db.flush().unwrap();
        for key in [&b"dead"[..], b"rewritten", b"untouched"] {
            db.get(key, 0).unwrap();
            assert!(db.get(key, 0).unwrap().from_row_cache, "row not admitted");
        }
        // In the memtable the newer versions shadow the rows ...
        db.delete(b"dead", 0).unwrap();
        db.put(b"rewritten", b"new", None, 0).unwrap();
        assert!(db.get(b"dead", 0).unwrap().value.is_none());
        // ... and the flush that moves them into an SST drops the rows.
        db.flush().unwrap();
        assert_eq!(db.block_cache().unwrap().row_count(), 1);
        let dead = db.get(b"dead", 0).unwrap();
        assert!(dead.value.is_none() && !dead.from_row_cache);
        let rewritten = db.get(b"rewritten", 0).unwrap();
        assert_eq!(rewritten.value.as_deref(), Some(&b"new"[..]));
        assert!(!rewritten.from_row_cache);
        assert!(db.get(b"untouched", 0).unwrap().from_row_cache);
        // Compaction rewrites files and invalidates nothing.
        db.compact_to_quiescence(0).unwrap();
        assert!(db.get(b"untouched", 0).unwrap().from_row_cache);
        assert!(db.get(b"dead", 0).unwrap().value.is_none());
    }

    #[test]
    fn concurrent_writers_keep_one_gapless_lsn_stream() {
        // The striped engine's core invariant: N writers on distinct keys
        // still produce one dense, monotone seq stream, and every write is
        // readable afterwards — including after a reopen that redistributes
        // replayed records to their stripes.
        let dir = TestDir::new("striped-lsn");
        const WRITERS: u64 = 4;
        const PER: u64 = 100;
        {
            let db = Arc::new(Db::open(dir.path(), DbConfig::small_for_tests()).unwrap());
            let mut handles = Vec::new();
            for t in 0..WRITERS {
                let db = Arc::clone(&db);
                handles.push(std::thread::spawn(move || {
                    for i in 0..PER {
                        let key = format!("w{t}-{i:04}");
                        let seq = db.put(key.as_bytes(), b"v", None, 0).unwrap();
                        assert!(seq >= 1);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            // All seqs applied and contiguous: the visible watermark reached
            // the last allocated seq with no parked gaps.
            assert_eq!(db.last_seq(), WRITERS * PER);
        }
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        assert_eq!(db.last_seq(), WRITERS * PER);
        for t in 0..WRITERS {
            for i in 0..PER {
                let key = format!("w{t}-{i:04}");
                assert!(
                    db.get(key.as_bytes(), 0).unwrap().value.is_some(),
                    "{key} lost across striped recovery"
                );
            }
        }
    }

    #[test]
    fn stripe_assignment_is_stable_and_spread() {
        let keys: Vec<String> = (0..256).map(|i| format!("key-{i:04}")).collect();
        let mut counts = [0usize; 4];
        for k in &keys {
            let s = stripe_of_key(k.as_bytes(), 4);
            assert_eq!(s, stripe_of_key(k.as_bytes(), 4), "unstable hash");
            counts[s] += 1;
        }
        // FNV over distinct keys should not collapse into one stripe.
        assert!(counts.iter().all(|&c| c > 0), "dead stripe: {counts:?}");
    }

    #[test]
    fn apply_replicated_preserves_seq_and_dedups() {
        let dir = TestDir::new("apply-repl");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        let r1 = crate::record::Record::put("k", "v1", 1, None);
        let r2 = crate::record::Record::put("k", "v2", 2, None);
        assert!(db.apply_replicated(&r1).unwrap());
        assert!(db.apply_replicated(&r2).unwrap());
        // Re-shipping an old record is a no-op, not a regression.
        assert!(!db.apply_replicated(&r1).unwrap());
        assert_eq!(db.get(b"k", 0).unwrap().value.as_deref(), Some(&b"v2"[..]));
        assert_eq!(db.last_seq(), 2);
        // A gap (seq 9 when 3 is expected) is rejected loudly.
        let gap = crate::record::Record::put("x", "y", 9, None);
        assert!(db.apply_replicated(&gap).is_err());
        // Local writes continue the same sequence domain.
        db.put(b"k2", b"v", None, 0).unwrap();
        assert_eq!(db.last_seq(), 3);
    }

    #[test]
    fn checkpoint_clones_database_state() {
        let src_dir = TestDir::new("ckpt-src");
        let dst_dir = TestDir::new("ckpt-dst");
        let db = Db::open(src_dir.path(), DbConfig::small_for_tests()).unwrap();
        for i in 0..120 {
            db.put(format!("key-{i:04}").as_bytes(), &[7u8; 64], None, 0)
                .unwrap();
        }
        db.flush().unwrap();
        for i in 120..140 {
            db.put(format!("key-{i:04}").as_bytes(), &[7u8; 64], None, 0)
                .unwrap();
        }
        // The stream: SSTs, then WALs, then the MANIFEST alone at the end.
        let mut names: Vec<String> = Vec::new();
        let mut data_bytes = 0usize;
        let mut staging = crate::Staging::create(dst_dir.path()).unwrap();
        let info = db
            .checkpoint_with(&mut |name, chunk| {
                if names.last().map(String::as_str) != Some(name) {
                    names.push(name.to_string());
                }
                if name != "MANIFEST" {
                    data_bytes += chunk.len();
                }
                staging.write(name, chunk)
            })
            .unwrap();
        staging.keep();
        assert_eq!(names.last().map(String::as_str), Some("MANIFEST"));
        let first_wal = names.iter().position(|n| n.starts_with("wal-")).unwrap();
        assert!(names[..first_wal].iter().all(|n| n.ends_with(".sst")));
        assert!(names[first_wal..names.len() - 1]
            .iter()
            .all(|n| n.starts_with("wal-")));
        assert_eq!(info.last_seq, db.last_seq());
        assert_eq!(info.bytes_copied, data_bytes as u64);
        assert!(info.bytes_copied > 0);
        let clone = Db::open(dst_dir.path(), DbConfig::small_for_tests()).unwrap();
        assert_eq!(clone.last_seq(), db.last_seq());
        for i in 0..140 {
            let key = format!("key-{i:04}");
            assert!(
                clone.get(key.as_bytes(), 0).unwrap().value.is_some(),
                "{key} missing"
            );
        }
    }

    #[test]
    fn open_removes_ssts_the_manifest_does_not_list() {
        let dir = TestDir::new("orphan-sst");
        let ssts = |dir: &Path| -> Vec<PathBuf> {
            let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|e| e == "sst"))
                .collect();
            v.sort();
            v
        };
        {
            let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
            for i in 0..200 {
                db.put(format!("key-{i:04}").as_bytes(), b"value", None, 0)
                    .unwrap();
            }
            db.flush().unwrap();
        }
        let live = ssts(dir.path());
        assert!(!live.is_empty());
        // A flush that died between `finish` and `Version::save` leaves a
        // whole SST under an id the manifest never listed; a failed write
        // leaves anything at all.
        let orphan = sst_path(dir.path(), 4_242_424);
        std::fs::copy(&live[0], &orphan).unwrap();
        let junk = dir.path().join("junk.sst");
        std::fs::write(&junk, b"not an sstable").unwrap();
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        assert!(!orphan.exists(), "the unlisted copy survived the open");
        assert!(!junk.exists(), "the junk file survived the open");
        assert_eq!(ssts(dir.path()), live);
        for i in 0..200 {
            let key = format!("key-{i:04}");
            assert!(db.get(key.as_bytes(), 0).unwrap().value.is_some(), "{key}");
        }
    }

    #[test]
    fn upper_bound_helper() {
        assert_eq!(upper_bound_for_prefix(b"abc"), Bytes::from("abd"));
        assert_eq!(
            upper_bound_for_prefix(&[0x01, 0xFF]),
            Bytes::from(vec![0x02])
        );
        let ub = upper_bound_for_prefix(&[0xFF, 0xFF]);
        assert!(ub.as_ref() > &[0xFFu8, 0xFF][..]);
    }
}
