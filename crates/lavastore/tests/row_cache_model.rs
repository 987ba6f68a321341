//! Model-based test of the node cache's rows: whatever the interleaving of
//! writes, flushes, compactions, clock advances and reopens, a `get` returns
//! what a `BTreeMap` says it should.
//!
//! The hazard is a **stale row**: the cache keeps answering with a version a
//! later flush has superseded. The store runs with a 16 KiB cache — 1 KiB per
//! shard, two or three rows each — so rows are admitted, hit, invalidated
//! *and* evicted throughout, and every `get` is compared with the model.
//! Seeds are pinned; a failure names its seed and step.

use abase_lavastore::{Db, DbConfig};
use abase_util::TestDir;
use std::collections::BTreeMap;

const KEYS: u64 = 120;
const STEPS: usize = 4_000;

/// splitmix64: the whole run is a function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn config() -> DbConfig {
    DbConfig {
        block_cache_bytes: 16 << 10,
        ..DbConfig::small_for_tests()
    }
}

/// What the cache did over one run, summed across reopens.
#[derive(Default)]
struct RowTraffic {
    hits: u64,
    insertions: u64,
    evictions: u64,
}

impl RowTraffic {
    fn absorb(&mut self, db: &Db) {
        let rows = db.block_cache().expect("cache is on").row_stats();
        self.hits += rows.hits;
        self.insertions += rows.insertions;
        self.evictions += rows.evictions;
    }
}

/// key -> (value, absolute expiry)
type Model = BTreeMap<Vec<u8>, (Vec<u8>, Option<u64>)>;

fn expected<'a>(model: &'a Model, key: &[u8], now: u64) -> Option<&'a [u8]> {
    model
        .get(key)
        .filter(|(_, expiry)| expiry.is_none_or(|at| at > now))
        .map(|(value, _)| value.as_slice())
}

fn run(seed: u64) -> RowTraffic {
    let dir = TestDir::new(&format!("row-model-{seed}"));
    let mut db = Db::open(dir.path(), config()).unwrap();
    let mut model = Model::new();
    let mut rng = Rng(seed);
    let mut now = 1u64;
    let mut traffic = RowTraffic::default();
    for step in 0..STEPS {
        // A skewed key pick, so some rows are hot enough to be hit often.
        let id = if rng.below(2) == 0 {
            rng.below(12)
        } else {
            rng.below(KEYS)
        };
        let key = format!("key-{id:04}").into_bytes();
        match rng.below(100) {
            0..=32 => {
                // Values of many sizes: rows of many charges, and some too
                // large for a shard to admit at all.
                let len = match rng.below(20) {
                    0 => 900,
                    n => 4 + n as usize * 9,
                };
                let value: Vec<u8> = (0..len).map(|i| (step + i) as u8).collect();
                let ttl = (rng.below(4) == 0).then(|| now + 1 + rng.below(60));
                db.put(&key, &value, ttl, now).unwrap();
                model.insert(key, (value, ttl));
            }
            33..=41 => {
                db.delete(&key, now).unwrap();
                model.remove(&key);
            }
            42..=46 => db.flush().unwrap(),
            47..=50 => {
                db.compact_once(now).unwrap();
            }
            51..=54 => now += 1 + rng.below(25),
            55 => {
                traffic.absorb(&db);
                drop(db);
                db = Db::open(dir.path(), config()).unwrap();
            }
            _ => {
                let got = db.get(&key, now).unwrap();
                assert_eq!(
                    got.value.as_deref(),
                    expected(&model, &key, now),
                    "seed {seed} step {step} now {now}: key {} (row hit: {})",
                    String::from_utf8_lossy(&key),
                    got.from_row_cache
                );
            }
        }
    }
    // A last sweep over every key, twice: the second pass reads the rows the
    // first one admitted.
    for _ in 0..2 {
        for id in 0..KEYS {
            let key = format!("key-{id:04}").into_bytes();
            assert_eq!(
                db.get(&key, now).unwrap().value.as_deref(),
                expected(&model, &key, now),
                "seed {seed} final sweep: key-{id:04}"
            );
        }
    }
    traffic.absorb(&db);
    traffic
}

#[test]
fn gets_match_the_model_through_flush_compaction_ttl_and_reopen() {
    for seed in [1, 2, 3, 0xABA5E, 0x5EED_0013, 987_654_321] {
        let traffic = run(seed);
        // The run must have exercised what it is here to check.
        assert!(traffic.insertions > 100, "seed {seed}: few rows admitted");
        assert!(traffic.hits > 100, "seed {seed}: few reads served by rows");
        assert!(
            traffic.evictions > 0,
            "seed {seed}: no row was ever evicted"
        );
    }
}
