//! # abase-cache
//!
//! ABase's dual-layer caching mechanism (paper §4.4):
//!
//! * [`salru`] — **Size-Aware LRU (SA-LRU)**, the DataNode-layer cache: items are
//!   segregated into size classes with individual eviction policies, and eviction
//!   prefers classes that "occupy more memory while yielding fewer cache hits".
//!   It keeps one index and one slab: each size class is a recency list threaded
//!   through the slab, so a key is stored once and a lookup hashes it once.
//!   A plain byte-LRU — the baseline the paper's size-aware strategy improves
//!   on, and the store under AU-LRU — is SA-LRU with one size class:
//!   `SaLruCache::with_class_bounds(capacity, &[usize::MAX])`.
//! * [`aulru`] — **Active-Update LRU (AU-LRU)**, the proxy-layer cache: entries carry
//!   a TTL, and hot entries are proactively refreshed shortly before they expire so
//!   that the expiry of a hot key never produces a thundering herd on the data node.
//! * [`sharded`] — a lock-striped, `Sync` wrapper over SA-LRU shards for wall-clock
//!   multi-threaded use; it hashes a key once per operation, picks the shard from
//!   that hash and hands the hash to the shard. The lavastore node cache is built
//!   on it: SST blocks and hot rows share one instance and one byte budget, so the
//!   size classes have two populated classes to choose between.
//!
//! All caches are sized in **bytes** (not entry counts) because the paper's workloads
//! span 0.1 KB comments to 5 MB LLM KV-cache blobs (Table 1), and count-based caches
//! behave pathologically under that spread.

#![deny(missing_docs)]

pub mod aulru;
pub mod salru;
pub mod sharded;
pub mod stats;

pub use aulru::{AuLruCache, RefreshCandidate};
pub use salru::SaLruCache;
pub use sharded::{InsertOutcome, ShardedCache};
pub use stats::CacheStats;
