//! Model-based test of the node cache's rows: whatever the interleaving of
//! writes, flushes, compactions, clock advances and reopens, a `get` returns
//! what a `BTreeMap` says it should.
//!
//! The hazard is a **stale row**: the cache keeps answering with a version a
//! later flush has superseded. The store runs with a 16 KiB cache — 1 KiB per
//! shard, two or three rows each — so rows are admitted, hit, invalidated
//! *and* evicted throughout, and every `get` is compared with the model.
//! Seeds are pinned; a failure names its seed and step. A second run of
//! the same model shrinks the level budgets so that the data sinks to L2
//! and the bottom level.
//!
//! A third test holds a flush between its build and its install (the
//! `db.install` fail point) while a reader thread admits rows for the keys
//! the frozen memtable does not hold, and checks every key against the
//! model once the install is through.

use abase_lavastore::compaction::CompactionConfig;
use abase_lavastore::version::Version;
use abase_lavastore::{Db, DbConfig};
use abase_util::failpoint::{self, FaultAction, ScopedInjector};
use abase_util::TestDir;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
    run_in(&TestDir::new(&format!("row-model-{seed}")), seed, config())
}

fn run_in(dir: &TestDir, seed: u64, config: DbConfig) -> RowTraffic {
    let mut db = Db::open(dir.path(), config).unwrap();
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
                db = Db::open(dir.path(), config).unwrap();
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

/// Levels small enough that the run's ~12 KB of data sinks through L1 and
/// L2 to the bottom level, L3: rounds run at every depth, and the bottom
/// ones drop tombstones and expired records.
fn deep_config() -> DbConfig {
    DbConfig {
        compaction: CompactionConfig {
            l0_trigger: 2,
            level_base_bytes: 1 << 10,
            level_growth: 2,
            n_levels: 4,
        },
        ..config()
    }
}

#[test]
fn gets_match_the_model_in_a_tree_below_l1() {
    for seed in [4, 5, 6, 0xDEE9, 0x5EED_0042] {
        let dir = TestDir::new(&format!("row-model-deep-{seed}"));
        run_in(&dir, seed, deep_config());
        let version = Version::load(dir.path()).unwrap().unwrap();
        let files: Vec<usize> = version.levels.iter().map(Vec::len).collect();
        assert!(
            files[2..].iter().any(|&n| n > 0),
            "seed {seed}: no file below L1, files per level {files:?}"
        );
    }
}

#[test]
fn rows_admitted_while_a_flush_is_paused_match_the_model_after_install() {
    let dir = TestDir::new("row-model-paused");
    // One stripe: every rewritten key is in the one frozen memtable.
    let config = DbConfig {
        n_stripes: 1,
        ..config()
    };
    let db = Arc::new(Db::open(dir.path(), config).unwrap());
    let key = |id: u64| format!("key-{id:04}").into_bytes();
    let mut model = Model::new();
    let put = |db: &Db, model: &mut Model, id: u64, tag: &str| {
        let value = format!("{tag}-{id:04}-{}", "x".repeat(24)).into_bytes();
        db.put(&key(id), &value, None, 0).unwrap();
        model.insert(key(id), (value, None));
    };
    // Every key in an SST, and read twice: their rows go in.
    for id in 0..KEYS {
        put(&db, &mut model, id, "old");
    }
    db.flush().unwrap();
    for _ in 0..2 {
        for id in 0..KEYS {
            db.get(&key(id), 0).unwrap();
        }
    }
    // A third of the keys get newer versions: those the flush freezes, whose
    // rows it must drop.
    let frozen = |id: u64| id.is_multiple_of(3);
    for id in (0..KEYS).filter(|&id| frozen(id)) {
        put(&db, &mut model, id, "new");
    }

    let _injector = ScopedInjector::enable();
    failpoint::install(
        "db.install",
        Some(&dir.path().display().to_string()),
        FaultAction::DelayMs(300),
        0,
        1,
    );
    let flusher = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || db.flush())
    };
    while failpoint::fired("db.install") == 0 {
        std::thread::yield_now();
    }
    let installed = Arc::new(AtomicBool::new(false));
    let flushes_before = db.stats().flushes;
    let admitted_before = db.block_cache().unwrap().row_stats().insertions;
    let reader = {
        let (db, installed) = (Arc::clone(&db), Arc::clone(&installed));
        let outside: Vec<(Vec<u8>, Vec<u8>)> = (0..KEYS)
            .filter(|&id| !frozen(id))
            .map(|id| (key(id), model[&key(id)].0.clone()))
            .collect();
        std::thread::spawn(move || {
            // ORDER: Acquire pairs with the Release store after the join.
            while !installed.load(Ordering::Acquire) {
                for (k, v) in &outside {
                    let got = db.get(k, 0).unwrap();
                    assert_eq!(got.value.as_deref(), Some(&v[..]));
                }
            }
        })
    };
    // Meanwhile the frozen keys answer from the frozen memtable.
    for id in (0..KEYS).filter(|&id| frozen(id)) {
        let got = db.get(&key(id), 0).unwrap();
        assert_eq!(got.value.as_deref(), expected(&model, &key(id), 0));
        assert!(got.from_memtable && !got.from_row_cache);
    }
    let admitted = || db.block_cache().unwrap().row_stats().insertions - admitted_before;
    while admitted() == 0 && !flusher.is_finished() {
        std::thread::yield_now();
    }
    assert!(
        admitted() > 0 && db.stats().flushes == flushes_before,
        "no row was admitted while the flush was paused"
    );
    flusher.join().unwrap().unwrap();
    // ORDER: Release pairs with the reader's Acquire load.
    installed.store(true, Ordering::Release);
    reader.join().unwrap();

    let check = |db: &Db, model: &Model, when: &str| {
        for _ in 0..2 {
            for id in 0..KEYS {
                let got = db.get(&key(id), 0).unwrap();
                assert_eq!(
                    got.value.as_deref(),
                    expected(model, &key(id), 0),
                    "{when}: key-{id:04} (row hit: {})",
                    got.from_row_cache
                );
            }
        }
    };
    check(&db, &model, "after the install");
    // Rows admitted during the pause for keys rewritten since are dropped by
    // the flush that writes the rewrites.
    for id in (0..KEYS).filter(|&id| id % 3 == 1) {
        put(&db, &mut model, id, "newer");
    }
    check(&db, &model, "with rewrites in the memtable");
    db.flush().unwrap();
    check(&db, &model, "after the rewrites' flush");
}
