//! A flush held between its build and its install by the `db.install` fail
//! point. While the SST is written the stripe keeps serving reads and writes,
//! the frozen memtable answers for its keys, and a build that fails loses
//! nothing: the next flush installs the frozen memtable, and a reopen
//! recovers every key. A compaction round held at the same point leaves its
//! stripe serving too, and one that fails there leaves no file behind.
//!
//! The fail-point registry is process-global, so one test runs the cases
//! in turn, and each rule matches only its own case's data directory.

use abase_lavastore::version::Version;
use abase_lavastore::{Db, DbConfig};
use abase_util::failpoint::{self, FaultAction, ScopedInjector};
use abase_util::TestDir;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One stripe, so every key shares the stripe the flush is writing out, and
/// a 4 KiB memtable, so the writes made during the pause cross the flush
/// threshold again and again while that flush is still running.
fn config() -> DbConfig {
    DbConfig {
        n_stripes: 1,
        ..DbConfig::small_for_tests()
    }
}

fn value(key: &str) -> Vec<u8> {
    format!("value-of-{key}").into_bytes()
}

/// Keys few and small enough that writing them triggers no flush.
fn frozen_keys() -> Vec<String> {
    (0..30).map(|i| format!("frozen-{i:03}")).collect()
}

#[test]
fn a_flush_held_between_build_and_install() {
    let _injector = ScopedInjector::enable();
    a_paused_flush_leaves_its_stripe_serving();
    failpoint::clear();
    a_failed_build_keeps_the_frozen_memtable_for_the_next_flush();
    failpoint::clear();
    a_compaction_round_held_before_its_install();
}

fn a_paused_flush_leaves_its_stripe_serving() {
    let dir = TestDir::new("flush-pause");
    let db = Arc::new(Db::open(dir.path(), config()).unwrap());
    for key in frozen_keys() {
        db.put(key.as_bytes(), &value(&key), None, 0).unwrap();
    }
    assert_eq!(db.stats().flushes, 0, "a flush ran before the pause");

    let pause = Duration::from_millis(300);
    failpoint::install(
        "db.install",
        Some(&dir.path().display().to_string()),
        FaultAction::DelayMs(pause.as_millis() as u64),
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

    // The frozen memtable is the only place these keys live.
    for key in frozen_keys() {
        let got = db.get(key.as_bytes(), 0).unwrap();
        assert_eq!(got.value.as_deref(), Some(&value(&key)[..]), "{key}");
        assert!(
            got.from_memtable,
            "{key} not answered by the frozen memtable"
        );
    }
    let (pairs, _) = db.scan_prefix(b"frozen-", 0).unwrap();
    let scanned: Vec<_> = pairs
        .iter()
        .map(|(k, v)| (String::from_utf8_lossy(k).into_owned(), v.to_vec()))
        .collect();
    let expected: Vec<_> = frozen_keys()
        .into_iter()
        .map(|k| (k.clone(), value(&k)))
        .collect();
    assert_eq!(scanned, expected);

    // Writes and reads of the same stripe go on, each well inside the pause.
    let mut slowest = Duration::ZERO;
    for i in 0..1_000 {
        let key = format!("live-{i:04}");
        let start = Instant::now();
        db.put(key.as_bytes(), &value(&key), None, 0).unwrap();
        slowest = slowest.max(start.elapsed());
        let start = Instant::now();
        let got = db.get(key.as_bytes(), 0).unwrap();
        slowest = slowest.max(start.elapsed());
        assert_eq!(got.value.as_deref(), Some(&value(&key)[..]), "{key}");
    }
    assert!(slowest < pause / 3, "a call took {slowest:?}");
    assert_eq!(
        db.stats().flushes,
        0,
        "the flush installed before the calls were done: they did not run during the pause"
    );

    flusher.join().unwrap().unwrap();
    assert_eq!(db.stats().flushes, 1);
    db.flush().unwrap();
    let keys: Vec<String> = frozen_keys()
        .into_iter()
        .chain((0..1_000).map(|i| format!("live-{i:04}")))
        .collect();
    for key in &keys {
        let got = db.get(key.as_bytes(), 0).unwrap();
        assert_eq!(got.value.as_deref(), Some(&value(key)[..]), "{key}");
    }
    drop(db);
    let db = Db::open(dir.path(), config()).unwrap();
    for key in &keys {
        let got = db.get(key.as_bytes(), 0).unwrap();
        assert_eq!(got.value.as_deref(), Some(&value(key)[..]), "{key}");
    }
}

fn a_failed_build_keeps_the_frozen_memtable_for_the_next_flush() {
    let dir = TestDir::new("flush-fail");
    let db = Db::open(dir.path(), config()).unwrap();
    failpoint::install(
        "db.install",
        Some(&dir.path().display().to_string()),
        FaultAction::Error,
        0,
        1,
    );
    let first = frozen_keys();
    for key in &first {
        db.put(key.as_bytes(), &value(key), None, 0).unwrap();
    }
    assert!(db.flush().is_err());
    assert_eq!(db.stats().flushes, 0);
    // Every acknowledged write is still readable, from the frozen memtable.
    for key in &first {
        let got = db.get(key.as_bytes(), 0).unwrap();
        assert_eq!(got.value.as_deref(), Some(&value(key)[..]), "{key}");
    }
    assert_eq!(db.scan_prefix(b"frozen-", 0).unwrap().0.len(), first.len());
    // The failed SST went with the failure.
    let ssts = |dir: &TestDir| {
        std::fs::read_dir(dir.path())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "sst")
            })
            .count()
    };
    assert_eq!(ssts(&dir), 0);

    // Writes after the failure land in a new active memtable; the next flush
    // installs the frozen one, then flushes them.
    let second: Vec<String> = (0..30).map(|i| format!("after-{i:03}")).collect();
    for key in &second {
        db.put(key.as_bytes(), &value(key), None, 0).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.stats().flushes, 2);
    assert_eq!(ssts(&dir), 2);
    for key in first.iter().chain(&second) {
        let got = db.get(key.as_bytes(), 0).unwrap();
        assert_eq!(got.value.as_deref(), Some(&value(key)[..]), "{key}");
        assert!(!got.from_memtable, "{key} still in a memtable");
    }
    drop(db);
    let db = Db::open(dir.path(), config()).unwrap();
    for key in first.iter().chain(&second) {
        let got = db.get(key.as_bytes(), 0).unwrap();
        assert_eq!(got.value.as_deref(), Some(&value(key)[..]), "{key}");
    }
}

/// A compaction round holds its stripe's flush lock, not the stripe lock:
/// paused between its build and its install, it leaves the stripe serving,
/// and a `Db::flush` waits for it. Failing there, it leaves the files and
/// levels as they were.
fn a_compaction_round_held_before_its_install() {
    let inputs = || (0..3).flat_map(|n| (0..30).map(move |i| format!("input-{n}-{i:03}")));
    let compactable = |name: &str| {
        let dir = TestDir::new(name);
        let db = Arc::new(Db::open(dir.path(), config()).unwrap());
        // Three L0 files: the test config's L0 trigger.
        for n in 0..3 {
            for key in inputs().filter(|k| k.starts_with(&format!("input-{n}-"))) {
                db.put(key.as_bytes(), &value(&key), None, 0).unwrap();
            }
            db.flush().unwrap();
        }
        (dir, db)
    };
    let levels = |dir: &TestDir| -> Vec<usize> {
        let version = Version::load(dir.path()).unwrap().unwrap();
        version.levels.iter().map(Vec::len).collect()
    };

    // Paused.
    let (dir, db) = compactable("compaction-pause");
    assert_eq!(levels(&dir)[..2], [3, 0]);
    let pause = Duration::from_millis(300);
    failpoint::install(
        "db.install",
        Some(&dir.path().display().to_string()),
        FaultAction::DelayMs(pause.as_millis() as u64),
        0,
        1,
    );
    let compactor = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || db.compact_once(0))
    };
    while failpoint::fired("db.install") == 0 {
        std::thread::yield_now();
    }
    // Started during the pause, a flush waits for the round to install.
    let flusher = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            db.flush().unwrap();
            db.stats().compactions
        })
    };
    let mut slowest = Duration::ZERO;
    for i in 0..1_000 {
        let key = format!("live-{i:04}");
        let start = Instant::now();
        db.put(key.as_bytes(), &value(&key), None, 0).unwrap();
        slowest = slowest.max(start.elapsed());
        let start = Instant::now();
        let got = db.get(key.as_bytes(), 0).unwrap();
        slowest = slowest.max(start.elapsed());
        assert_eq!(got.value.as_deref(), Some(&value(&key)[..]), "{key}");
    }
    assert!(slowest < pause / 3, "a call took {slowest:?}");
    // The inputs are the only place these keys live.
    for key in inputs() {
        let got = db.get(key.as_bytes(), 0).unwrap();
        assert_eq!(got.value.as_deref(), Some(&value(&key)[..]), "{key}");
    }
    assert_eq!(
        db.stats().compactions,
        0,
        "the round installed before the calls were done: they did not run during the pause"
    );
    assert!(!flusher.is_finished(), "a flush ran during the round");

    assert!(compactor.join().unwrap().unwrap());
    assert_eq!(
        flusher.join().unwrap(),
        1,
        "the flush returned before the install"
    );
    assert_eq!(levels(&dir)[..2], [1, 1]);
    let keys: Vec<String> = inputs()
        .chain((0..1_000).map(|i| format!("live-{i:04}")))
        .collect();
    for key in &keys {
        let got = db.get(key.as_bytes(), 0).unwrap();
        assert_eq!(got.value.as_deref(), Some(&value(key)[..]), "{key}");
    }
    drop(db);
    let db = Db::open(dir.path(), config()).unwrap();
    for key in &keys {
        let got = db.get(key.as_bytes(), 0).unwrap();
        assert_eq!(got.value.as_deref(), Some(&value(key)[..]), "{key}");
    }
    drop(db);
    failpoint::clear();

    // Failed.
    let (dir, db) = compactable("compaction-fail");
    let before = levels(&dir);
    failpoint::install(
        "db.install",
        Some(&dir.path().display().to_string()),
        FaultAction::Error,
        0,
        1,
    );
    assert!(db.compact_once(0).is_err());
    assert_eq!(db.stats().compactions, 0);
    assert_eq!(levels(&dir), before);
    let version = Version::load(dir.path()).unwrap().unwrap();
    let listed: HashSet<String> = version
        .levels
        .iter()
        .flatten()
        .map(|m| format!("{:010}.sst", m.id))
        .collect();
    let on_disk: HashSet<String> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".sst"))
        .collect();
    assert_eq!(on_disk, listed, "the failed round left files behind");
    for key in inputs() {
        let got = db.get(key.as_bytes(), 0).unwrap();
        assert_eq!(got.value.as_deref(), Some(&value(&key)[..]), "{key}");
    }
    // The fault has passed: the next round runs.
    assert!(db.compact_once(0).unwrap());
    assert_eq!(levels(&dir)[..2], [0, 1]);
}
