//! Block-cache correctness: a cached engine must be observationally
//! identical to an uncached one, under eviction pressure, reopen churn, and
//! concurrent readers.
//!
//! The invariants under test:
//!
//! - **Cache-off equivalence.** A `Db` with a deliberately tiny block cache
//!   (every read contends with eviction) returns byte-identical results to a
//!   cache-disabled twin driven with the same interleaving of puts, deletes,
//!   flushes, compactions, and reopens.
//! - **File-id aliasing guard.** Reopening the cached store (same directory,
//!   same manifest ids) must not let a new SST reader observe a stale
//!   cached block from a previous incarnation — reader cache keys are
//!   process-unique, never the manifest's file numbers.
//! - **No torn blocks.** Concurrent readers through one shared cache always
//!   see whole, self-consistent values.

use proptest::prelude::*;

use abase::lavastore::{Db, DbConfig};
use std::collections::HashMap;
use std::sync::Arc;

fn tiny_cache_config(cache_bytes: usize) -> DbConfig {
    DbConfig {
        block_cache_bytes: cache_bytes,
        ..DbConfig::small_for_tests()
    }
}

proptest! {
    /// Cached (with a capacity small enough that every case evicts) and
    /// uncached stores agree with each other and a HashMap model across
    /// random puts, deletes, flushes, compactions, point reads, and reopens
    /// of the cached store (the reopen recycles manifest file ids — the
    /// aliasing trap a process-unique cache key must sidestep).
    #[test]
    fn cached_store_matches_uncached(ops in prop::collection::vec(
        (0u8..6, 0u16..48, 0usize..3), 1..110))
    {
        let stamp = format!(
            "abase-bcache-prop-{}-{:?}-{}",
            std::process::id(),
            std::thread::current().id(),
            ops.len()
        );
        let cached_dir = std::env::temp_dir().join(format!("{stamp}-on"));
        let plain_dir = std::env::temp_dir().join(format!("{stamp}-off"));
        std::fs::remove_dir_all(&cached_dir).ok();
        std::fs::remove_dir_all(&plain_dir).ok();
        // 2 KiB across shards vs 512-byte blocks: a handful of blocks fit,
        // so flush/compaction churn constantly evicts and re-admits.
        let mut cached = Db::open(&cached_dir, tiny_cache_config(2 << 10)).unwrap();
        let plain = Db::open(&plain_dir, tiny_cache_config(0)).unwrap();
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        let values: [&[u8]; 3] = [b"alpha", b"beta-beta", b"gamma-gamma-gamma"];
        for (op, key_id, value_id) in ops {
            let key = format!("key-{key_id:05}").into_bytes();
            match op {
                0 => {
                    cached.put(&key, values[value_id], None, 0).unwrap();
                    plain.put(&key, values[value_id], None, 0).unwrap();
                    model.insert(key, values[value_id].to_vec());
                }
                1 => {
                    cached.delete(&key, 0).unwrap();
                    plain.delete(&key, 0).unwrap();
                    model.remove(&key);
                }
                2 => {
                    cached.flush().unwrap();
                    plain.flush().unwrap();
                }
                3 => {
                    cached.compact_once(0).unwrap();
                    plain.compact_once(0).unwrap();
                }
                4 => {
                    // Reopen the cached store: fresh readers over the same
                    // manifest ids must never resolve to stale blocks.
                    drop(cached);
                    cached = Db::open(&cached_dir, tiny_cache_config(2 << 10)).unwrap();
                }
                _ => {
                    let want = model.get(&key).map(|v| v.as_slice());
                    let got_cached = cached.get(&key, 0).unwrap();
                    let got_plain = plain.get(&key, 0).unwrap();
                    prop_assert_eq!(got_cached.value.as_deref(), want);
                    prop_assert_eq!(got_plain.value.as_deref(), want);
                    // A block hit and a miss pay the same logical io price;
                    // only a row hit (the node-cache hit) reports none.
                    if !got_cached.from_row_cache {
                        prop_assert_eq!(got_cached.io_ops, got_plain.io_ops);
                    }
                }
            }
        }
        for (key, expect) in &model {
            let got = cached.get(key, 0).unwrap().value;
            prop_assert_eq!(got.as_deref(), Some(expect.as_slice()));
        }
        for key_id in 0u16..48 {
            let key = format!("key-{key_id:05}").into_bytes();
            if !model.contains_key(&key) {
                prop_assert!(cached.get(&key, 0).unwrap().value.is_none());
            }
        }
        drop(cached);
        drop(plain);
        std::fs::remove_dir_all(&cached_dir).ok();
        std::fs::remove_dir_all(&plain_dir).ok();
    }
}

/// Eight reader threads hammer one store through a shared, eviction-heavy
/// block cache. Every value encodes its own key, so a torn or misdirected
/// block read is caught by content, and the cache must actually serve hits.
#[test]
fn concurrent_readers_see_whole_blocks_and_hits() {
    let dir = std::env::temp_dir().join(format!("abase-bcache-conc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = Arc::new(Db::open(&dir, tiny_cache_config(8 << 10)).unwrap());
    let n_keys = 400u32;
    for id in 0..n_keys {
        let key = format!("ckey-{id:06}");
        let value = format!("payload-for-{id:06}-{}", "v".repeat(40));
        db.put(key.as_bytes(), value.as_bytes(), None, 0).unwrap();
    }
    db.flush().unwrap();
    db.compact_to_quiescence(0).unwrap();

    std::thread::scope(|scope| {
        for t in 0..8u32 {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                for round in 0..4u32 {
                    for id in 0..n_keys {
                        // Thread-skewed order so readers collide on shards.
                        let id = (id + t * 37 + round * 101) % n_keys;
                        let key = format!("ckey-{id:06}");
                        let want = format!("payload-for-{id:06}-{}", "v".repeat(40));
                        let got = db.get(key.as_bytes(), 0).unwrap();
                        assert_eq!(
                            got.value.as_deref(),
                            Some(want.as_bytes()),
                            "torn or misdirected read for {key}"
                        );
                    }
                }
            });
        }
    });

    let cache = db.block_cache().expect("cache is enabled");
    let stats = cache.stats();
    assert!(stats.hits > 0, "shared cache never served a hit: {stats:?}");
    assert!(
        cache.resident_bytes() <= cache.capacity_bytes(),
        "resident {} exceeds capacity {}",
        cache.resident_bytes(),
        cache.capacity_bytes()
    );
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
