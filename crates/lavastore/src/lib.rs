//! # abase-lavastore
//!
//! A single-node LSM-tree storage engine standing in for **LavaStore**,
//! ByteDance's "purpose-built, high-performance, cost-effective local storage
//! engine" that ABase DataNodes run on (paper §4.3, reference \[43\]).
//!
//! The engine is real — write-ahead log, sorted memtable, block-structured SST
//! files with bloom filters, leveled compaction, TTL expiry — while staying
//! small enough to audit. Two properties matter for the ABase reproduction:
//!
//! 1. **I/O accounting.** Every read reports how many block I/Os it performed
//!    ([`db::ReadResult::io_ops`]); the data node feeds this to the I/O-WFQ,
//!    whose Rule 1 prices requests in IOPS because "a single I/O operation
//!    generally has a similar execution time".
//! 2. **Virtual time.** TTLs are evaluated against a caller-supplied
//!    [`abase_util::SimTime`], so cluster simulations control expiry
//!    deterministically.
//!
//! ```
//! use abase_lavastore::{Db, DbConfig};
//!
//! let dir = std::env::temp_dir().join(format!("lava-doc-{}", std::process::id()));
//! let db = Db::open(&dir, DbConfig::small_for_tests()).unwrap();
//! db.put(b"user:1", b"alice", None, 0).unwrap();
//! let read = db.get(b"user:1", 0).unwrap();
//! assert_eq!(read.value.as_deref(), Some(&b"alice"[..]));
//! drop(db);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![deny(missing_docs)]

pub mod block_cache;
pub mod bloom;
pub mod checkpoint;
pub mod compaction;
pub mod db;
pub mod encoding;
pub mod error;
pub mod iter;
pub mod lz;
pub mod memtable;
pub mod metrics;
pub mod record;
pub mod sstable;
pub mod version;
pub mod wal;

pub use block_cache::BlockCache;
pub use checkpoint::Staging;
pub use db::{CheckpointInfo, Db, DbConfig, DbStats, ReadResult};
pub use error::{Error, Result};
pub use sstable::BlockIo;
