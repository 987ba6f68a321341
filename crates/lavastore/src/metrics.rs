//! LavaStore's metric declarations: one place naming every storage-layer
//! metric so `crates/obs/README.md` and the exposition stay in sync.
//!
//! Recording sites live where the work happens (`wal.rs`, `db.rs`); this
//! module only owns the `static` handles.

use abase_obs::{LazyCounter, LazyGauge, LazyHisto};

/// WAL append latency: encoding the record into the group-commit buffer.
pub static WAL_APPEND_MICROS: LazyHisto = LazyHisto::new(
    "abase_lava_wal_append_micros",
    "WAL append latency: one record encoded into the group-commit buffer",
);

/// WAL frame bytes written to segment files (headers included), after
/// compression: what the log costs the disk.
pub static WAL_APPEND_BYTES: LazyCounter = LazyCounter::new(
    "abase_lava_wal_append_bytes_total",
    "WAL frame bytes written to segment files, frame headers included, after compression",
);

/// Record bytes those frames hold; over them, the WAL's compression ratio.
pub static WAL_RAW_BYTES: LazyCounter = LazyCounter::new(
    "abase_lava_wal_raw_bytes_total",
    "Uncompressed record bytes of the WAL frames written to segment files",
);

/// WAL fsync latency (the flush + sync_data pair on durable appends).
pub static WAL_FSYNC_MICROS: LazyHisto = LazyHisto::new(
    "abase_lava_wal_fsync_micros",
    "WAL fsync latency on durable appends",
);

/// Group-commit fsyncs issued (each may cover many commits).
pub static GROUP_COMMIT_FSYNCS: LazyCounter = LazyCounter::new(
    "abase_lava_group_commit_fsyncs_total",
    "Group-commit fsyncs issued; commits_total / fsyncs_total is the amortization factor",
);

/// Durable commits acknowledged (appends whose seq an fsync covered).
pub static GROUP_COMMIT_COMMITS: LazyCounter = LazyCounter::new(
    "abase_lava_group_commit_commits_total",
    "Durable commits acknowledged by the group-commit WAL",
);

/// Records covered per group-commit fsync (batch size; the family name is
/// from when each record was its own frame).
pub static GROUP_COMMIT_BATCH_FRAMES: LazyHisto = LazyHisto::new(
    "abase_lava_group_commit_batch_frames",
    "WAL records made durable per group-commit fsync",
);

/// Memtable flushes completed.
pub static FLUSHES: LazyCounter = LazyCounter::new(
    "abase_lava_flushes_total",
    "Memtable flushes into L0 SSTs completed",
);

/// Bytes written to SSTs by flushes.
pub static FLUSH_BYTES: LazyCounter = LazyCounter::new(
    "abase_lava_flush_bytes_total",
    "SST bytes written by memtable flushes",
);

/// Flush latency (memtable freeze through SST install).
pub static FLUSH_MICROS: LazyHisto =
    LazyHisto::new("abase_lava_flush_micros", "Memtable flush latency");

/// Compactions completed.
pub static COMPACTIONS: LazyCounter =
    LazyCounter::new("abase_lava_compactions_total", "Compactions completed");

/// Bytes written by compactions.
pub static COMPACTION_BYTES: LazyCounter = LazyCounter::new(
    "abase_lava_compaction_bytes_total",
    "SST bytes written by compactions",
);

/// Uncompressed bytes of the data blocks flushes and compactions wrote.
pub static BLOCK_RAW_BYTES: LazyCounter = LazyCounter::new(
    "abase_lava_block_raw_bytes_total",
    "Uncompressed bytes of the SST data blocks written by flushes and compactions",
);

/// Bytes those data blocks took on disk; over the raw bytes, the ratio.
pub static BLOCK_STORED_BYTES: LazyCounter = LazyCounter::new(
    "abase_lava_block_stored_bytes_total",
    "Bytes the SST data blocks written by flushes and compactions took on disk, trailer included",
);

/// Block-cache lookups that found the block resident.
pub static BLOCK_CACHE_HITS: LazyCounter = LazyCounter::new(
    "abase_block_cache_hits_total",
    "Data-block cache lookups served without disk I/O",
);

/// Block-cache lookups that fell through to disk.
pub static BLOCK_CACHE_MISSES: LazyCounter = LazyCounter::new(
    "abase_block_cache_misses_total",
    "Data-block cache lookups that required a disk read",
);

/// Blocks inserted into the cache after a miss.
pub static BLOCK_CACHE_INSERTIONS: LazyCounter = LazyCounter::new(
    "abase_block_cache_insertions_total",
    "Data blocks inserted into the block cache",
);

/// Blocks evicted by the size-aware policy.
pub static BLOCK_CACHE_EVICTIONS: LazyCounter = LazyCounter::new(
    "abase_block_cache_evictions_total",
    "Data blocks evicted from the block cache",
);

/// Bytes resident in the node cache (blocks + rows + pinned index/filter).
pub static BLOCK_CACHE_BYTES: LazyGauge = LazyGauge::new(
    "abase_block_cache_bytes",
    "Bytes resident in the node cache: data blocks, rows, and pinned index and bloom blocks",
);

/// Point reads answered by a cached row (no bloom probe, no block access).
pub static ROW_CACHE_HITS: LazyCounter = LazyCounter::new(
    "abase_row_cache_hits_total",
    "Point reads served from a cached row without touching an SST",
);

/// Point reads past the memtable that found no cached row.
pub static ROW_CACHE_MISSES: LazyCounter = LazyCounter::new(
    "abase_row_cache_misses_total",
    "Row cache lookups that fell through to the SSTs",
);

/// Rows admitted after a lookup that cost a disk block read.
pub static ROW_CACHE_INSERTIONS: LazyCounter = LazyCounter::new(
    "abase_row_cache_insertions_total",
    "Rows admitted to the node cache after a read that reached the disk",
);

/// Rows dropped because a flush installed a newer version of their key.
pub static ROW_CACHE_INVALIDATIONS: LazyCounter = LazyCounter::new(
    "abase_row_cache_invalidations_total",
    "Cached rows removed by a flush that wrote a newer version of their key",
);

/// Bloom filter probes on the point-read path.
pub static BLOOM_CHECKS: LazyCounter = LazyCounter::new(
    "abase_bloom_checks_total",
    "Bloom filter probes performed by in-range point reads",
);

/// Bloom probes that answered "definitely absent" (saved a block read).
pub static BLOOM_NEGATIVES: LazyCounter = LazyCounter::new(
    "abase_bloom_negatives_total",
    "Bloom probes that short-circuited a point read without block I/O",
);

/// Bloom probes that said "maybe" for a key the block search then missed.
pub static BLOOM_FALSE_POSITIVES: LazyCounter = LazyCounter::new(
    "abase_bloom_false_positives_total",
    "Bloom probes that cost a block read for an absent key",
);

/// Checkpoints published.
pub static CHECKPOINTS: LazyCounter = LazyCounter::new(
    "abase_lava_checkpoints_total",
    "Consistent checkpoints published",
);

/// How long checkpoint pins were held (pin → release), i.e. how long
/// obsolete files were retained for a checkpoint consumer.
pub static CHECKPOINT_PIN_MICROS: LazyHisto = LazyHisto::new(
    "abase_lava_checkpoint_pin_micros",
    "Duration checkpoint pins were held before release",
);
