//! Simulator metric declarations: the proxy cache and live migration.
//! Recording sites live in `proxy.rs` and `migration.rs`; this module only
//! owns the handles.

use abase_obs::{LazyCounter, LazyHistoFamily};

// --- Proxy plane ------------------------------------------------------------

/// Reads answered from a proxy's AU-LRU cache.
pub static PROXY_CACHE_HITS: LazyCounter = LazyCounter::new(
    "abase_proxy_cache_hits_total",
    "Reads answered from the proxy AU-LRU cache",
);

/// Reads forwarded by proxies to the data plane.
pub static PROXY_FORWARDS: LazyCounter = LazyCounter::new(
    "abase_proxy_forwards_total",
    "Reads forwarded by proxies to the data plane",
);

// --- Migration --------------------------------------------------------------

/// Partition migrations completed through cut-over.
pub static MIGRATIONS_COMPLETED: LazyCounter = LazyCounter::new(
    "abase_migration_completed_total",
    "Partition migrations completed through cut-over",
);

/// Partition migrations aborted (source/destination death, staging failure).
pub static MIGRATIONS_ABORTED: LazyCounter = LazyCounter::new(
    "abase_migration_aborted_total",
    "Partition migrations aborted before cut-over",
);

/// Bytes copied by migration staged checkpoints.
pub static MIGRATION_COPIED_BYTES: LazyCounter = LazyCounter::new(
    "abase_migration_copied_bytes_total",
    "Bytes copied by migration staged checkpoints",
);

/// Migration phase durations, labelled by phase (`copy`, `catch_up`).
pub static MIGRATION_PHASE_MICROS: LazyHistoFamily = LazyHistoFamily::new(
    "abase_migration_phase_micros",
    "phase",
    "Migration phase durations, by phase",
);
