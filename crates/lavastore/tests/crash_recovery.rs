//! Crash-recovery torture test: kill the engine mid-write and verify replay
//! reconstructs exactly the pre-crash state.
//!
//! The WAL writes one frame per drain, so a crash mid-write leaves a torn
//! *frame* at the tail. Recovery must keep every record of every whole frame
//! and drop the torn one — never erroring, never resurrecting dropped writes.
//! The tests drain between puts so each log holds many frames, and check
//! that a cut recovers exactly the records of the whole frames before it.
//! This is the exact codepath replication followers reuse
//! (`apply_replicated` funnels shipped records through the same WAL), so
//! pinning it here pins the replication plane's durability too.

use abase_lavastore::record::Record;
use abase_lavastore::wal::{Wal, WalOptions};
use abase_lavastore::{Db, DbConfig};
use abase_util::TestDir;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// The WAL segment currently receiving appends, by id.
fn live_wal(db: &Db) -> PathBuf {
    Wal::segment_path(db.dir(), db.current_wal_segment())
}

/// Small-engine config with a memtable large enough that no stripe flushes
/// mid-test: these tests truncate the live WAL and assume it holds every
/// write, so an automatic flush (which rotates the WAL) would invalidate the
/// simulated crash.
fn cfg() -> DbConfig {
    DbConfig {
        memtable_bytes: 1 << 20,
        ..DbConfig::small_for_tests()
    }
}

/// Where each frame of a log ends, with how many records the log holds up
/// to that end.
type FrameEnds = Vec<(u64, usize)>;

/// Note the frame boundary `(end, records)` if a drain just made one.
fn note_frame(ends: &mut FrameEnds, end: u64, records: usize) {
    if ends.last().map_or(0, |&(last, _)| last) != end {
        ends.push((end, records));
    }
}

/// Records a log cut to `keep` bytes must recover: those of the whole frames
/// it kept, and none of the torn one.
fn whole_frame_records(ends: &FrameEnds, keep: usize) -> usize {
    ends.iter()
        .take_while(|&&(end, _)| end <= keep as u64)
        .last()
        .map_or(0, |&(_, records)| records)
}

/// Put `key-{i:04}` → `v{i}` for `i` in `0..n`, draining the WAL after every
/// `per_frame` puts (and at the end); returns the log's frame ends.
fn put_in_frames(db: &Db, n: usize, per_frame: usize) -> FrameEnds {
    let mut ends = Vec::new();
    for i in 0..n {
        db.put(
            format!("key-{i:04}").as_bytes(),
            format!("v{i}").as_bytes(),
            None,
            0,
        )
        .unwrap();
        if (i + 1) % per_frame == 0 || i + 1 == n {
            db.flush_wal().unwrap();
        }
        // An interval drain inside a put makes a boundary too.
        note_frame(&mut ends, db.wal_position().1, i + 1);
    }
    ends
}

/// Write `n` records in frames of four, drop the engine (simulating a crash
/// that lost nothing), then truncate the live WAL to `keep_fraction` of its
/// bytes (simulating how far the crashed drain actually reached the disk).
/// Returns the directory and the records the cut log must recover.
fn crash_after(tag: &str, n: usize, keep_fraction: f64) -> (TestDir, usize) {
    let dir = TestDir::new(tag);
    let (wal_path, ends);
    {
        let db = Db::open(dir.path(), cfg()).unwrap();
        ends = put_in_frames(&db, n, 4);
        wal_path = live_wal(&db);
    }
    assert!(ends.len() >= 5, "{} frames", ends.len());
    let data = std::fs::read(&wal_path).unwrap();
    let keep = (data.len() as f64 * keep_fraction) as usize;
    std::fs::write(&wal_path, &data[..keep]).unwrap();
    (dir, whole_frame_records(&ends, keep))
}

/// How many of the first `n` sequential puts survive in `db`.
fn surviving_prefix(db: &Db, n: usize) -> usize {
    let mut count = 0;
    for i in 0..n {
        if db
            .get(format!("key-{i:04}").as_bytes(), 0)
            .unwrap()
            .value
            .is_some()
        {
            count += 1;
        } else {
            break;
        }
    }
    count
}

#[test]
fn torn_tail_recovers_every_complete_record() {
    // Truncate the WAL at many points; recovery must always yield exactly the
    // records of the whole frames kept — no holes, no phantom records, no
    // error.
    for (i, fraction) in [0.15, 0.4, 0.63, 0.87, 0.999].iter().enumerate() {
        let n = 40;
        let (dir, expected) = crash_after(&format!("torn-{i}"), n, *fraction);
        let db = Db::open(dir.path(), cfg()).unwrap();
        let prefix = surviving_prefix(&db, n);
        assert_eq!(prefix, expected, "fraction {fraction}");
        // A clean prefix: everything after the last survivor is absent.
        for j in prefix..n {
            assert!(
                db.get(format!("key-{j:04}").as_bytes(), 0)
                    .unwrap()
                    .value
                    .is_none(),
                "hole-free prefix violated at {j} (fraction {fraction})"
            );
        }
        // The engine's sequence counter resumes past the survivors, so new
        // writes never collide with recovered ones.
        assert_eq!(db.last_seq(), prefix as u64);
        db.put(b"post-crash", b"new", None, 0).unwrap();
        assert_eq!(db.last_seq(), prefix as u64 + 1);
    }
}

#[test]
fn byte_exact_truncation_sweep() {
    // Exhaustive sweep over every truncation point of a small WAL of six
    // frames: recovery must never fail and always produce exactly the
    // records of the whole frames kept.
    let n = 6;
    let dir = TestDir::new("sweep");
    let (wal_path, ends);
    {
        let db = Db::open(dir.path(), cfg()).unwrap();
        ends = put_in_frames(&db, n, 1);
        wal_path = live_wal(&db);
    }
    assert_eq!(ends.len(), n);
    let full = std::fs::read(&wal_path).unwrap();
    for keep in 0..=full.len() {
        std::fs::write(&wal_path, &full[..keep]).unwrap();
        let records = Wal::replay(&wal_path).unwrap();
        // Replay yields consecutive seqs from 1.
        for (idx, r) in records.iter().enumerate() {
            assert_eq!(r.seq, idx as u64 + 1, "non-prefix replay at keep={keep}");
        }
        assert_eq!(
            records.len(),
            whole_frame_records(&ends, keep),
            "keep={keep}"
        );
    }
}

#[test]
fn crash_recovery_matches_model_state() {
    // Mixed puts/deletes/overwrites; crash drops the torn tail only. The
    // recovered engine must agree with a HashMap replay of the same surviving
    // record stream.
    let dir = TestDir::new("model");
    let wal_path;
    {
        let db = Db::open(dir.path(), cfg()).unwrap();
        for i in 0..30 {
            let key = format!("k{:02}", i % 10);
            if i % 7 == 3 {
                db.delete(key.as_bytes(), 0).unwrap();
            } else {
                db.put(key.as_bytes(), format!("v{i}").as_bytes(), None, 0)
                    .unwrap();
            }
            if i % 3 == 2 {
                db.flush_wal().unwrap();
            }
        }
        wal_path = live_wal(&db);
    }
    // Crash 11 bytes into the final frame.
    let data = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &data[..data.len() - 11]).unwrap();
    // Model: replay the surviving records independently.
    let survivors: Vec<Record> = Wal::replay(&wal_path).unwrap();
    assert!(!survivors.is_empty());
    let mut model: HashMap<Vec<u8>, Option<Vec<u8>>> = HashMap::new();
    for r in &survivors {
        match r.kind {
            abase_lavastore::record::RecordKind::Put => {
                model.insert(r.key.to_vec(), Some(r.value.to_vec()))
            }
            abase_lavastore::record::RecordKind::Delete => model.insert(r.key.to_vec(), None),
        };
    }
    let db = Db::open(dir.path(), cfg()).unwrap();
    for (key, expect) in &model {
        let got = db.get(key, 0).unwrap().value;
        assert_eq!(
            got.as_deref(),
            expect.as_deref(),
            "mismatch on {}",
            String::from_utf8_lossy(key)
        );
    }
}

/// One randomized multi-record batch: `(is_delete, key_id, value_len, ttl?)`.
type BatchOp = (bool, u8, usize, bool);

fn batch_records(ops: &[BatchOp]) -> Vec<Record> {
    ops.iter()
        .enumerate()
        .map(|(i, &(is_delete, key_id, value_len, ttl))| {
            let seq = i as u64 + 1;
            let key = format!("key-{key_id:03}");
            if is_delete {
                Record::delete(key.into_bytes(), seq)
            } else {
                Record::put(
                    key.into_bytes(),
                    vec![b'a' + (i % 23) as u8; value_len],
                    seq,
                    ttl.then_some(1_000_000),
                )
            }
        })
        .collect()
}

proptest! {
    /// Prefix property at *every* byte offset: truncate a randomized
    /// multi-frame WAL (mixed puts/deletes/TTLs, value sizes from empty to
    /// ~200 B, one to three records a frame) after each byte and replay.
    /// Recovery must never error and must yield records `1..=m` where `m`
    /// counts the records of the whole frames kept (no holes, no phantoms) —
    /// the contract binlog tail readers and crash recovery share.
    #[test]
    fn torn_tail_prefix_property_at_every_byte_offset(
        ops in prop::collection::vec(
            (any::<bool>(), 0u8..10, 0usize..200, any::<bool>()), 2..10),
        per_frame in 1usize..4,
    ) {
        let dir = TestDir::new("prop-sweep");
        std::fs::create_dir_all(dir.path()).unwrap();
        let path = dir.join("batch.log");
        let records = batch_records(&ops);
        let mut ends = Vec::new();
        {
            let wal = Wal::create(&path, 0, 1, WalOptions::default()).unwrap();
            for (i, r) in records.iter().enumerate() {
                assert!(wal.append_at(r).unwrap());
                if (i + 1) % per_frame == 0 || i + 1 == records.len() {
                    wal.flush().unwrap();
                }
                note_frame(&mut ends, wal.position().1, i + 1);
            }
        }
        let full = std::fs::read(&path).unwrap();
        for keep in 0..=full.len() {
            std::fs::write(&path, &full[..keep]).unwrap();
            let survivors = Wal::replay(&path).unwrap();
            for (idx, r) in survivors.iter().enumerate() {
                prop_assert_eq!(r.seq, idx as u64 + 1, "hole at keep={}", keep);
                prop_assert_eq!(&r.key, &records[idx].key, "phantom at keep={}", keep);
            }
            prop_assert_eq!(
                survivors.len(),
                whole_frame_records(&ends, keep),
                "keep={}", keep
            );
        }
    }

    /// Torn tails of a *group-committed* batch: four writer threads append
    /// concurrently through one shared WAL with durable commits (each fsync
    /// covers a batch of writers). Truncating the log at every byte offset
    /// must still recover a gapless LSN prefix `1..=m` — group commit batches
    /// frames but never reorders or tears the sequence stream.
    #[test]
    fn group_committed_batch_torn_at_every_byte_offset(
        per_writer in 1usize..6,
        value_len in 0usize..48,
    ) {
        let dir = TestDir::new("prop-group");
        std::fs::create_dir_all(dir.path()).unwrap();
        let path = dir.join("group.log");
        const WRITERS: usize = 4;
        {
            let wal = Arc::new(
                Wal::create(
                    &path,
                    0,
                    1,
                    WalOptions {
                        sync_on_append: true,
                        ..WalOptions::default()
                    },
                )
                .unwrap(),
            );
            let mut handles = Vec::new();
            for t in 0..WRITERS {
                let wal = Arc::clone(&wal);
                let handle = std::thread::spawn(move || {
                    for i in 0..per_writer {
                        let mut r = Record::put(
                            format!("w{t}-{i:03}").into_bytes(),
                            vec![b'x'; value_len],
                            0,
                            None,
                        );
                        let seq = wal.append_next(&mut r).unwrap();
                        wal.commit(seq).unwrap();
                    }
                });
                handles.push(handle);
            }
            for h in handles {
                h.join().unwrap();
            }
            prop_assert_eq!(wal.last_allocated(), (WRITERS * per_writer) as u64);
            prop_assert_eq!(wal.durable_seq(), (WRITERS * per_writer) as u64);
        }
        let full = std::fs::read(&path).unwrap();
        let mut previous = 0usize;
        for keep in 0..=full.len() {
            std::fs::write(&path, &full[..keep]).unwrap();
            let survivors = Wal::replay(&path).unwrap();
            for (idx, r) in survivors.iter().enumerate() {
                prop_assert_eq!(r.seq, idx as u64 + 1, "LSN gap at keep={}", keep);
            }
            prop_assert!(
                survivors.len() >= previous,
                "prefix shrank at keep={}",
                keep
            );
            previous = survivors.len();
        }
        prop_assert_eq!(previous, WRITERS * per_writer, "durable batch fully recovers");
    }

    /// Engine-level recovery at an arbitrary (fractional) byte offset: the
    /// reopened `Db` must expose exactly the surviving record prefix — same
    /// state as an independent model replay — and continue the sequence
    /// domain without collisions.
    #[test]
    fn db_reopen_after_arbitrary_truncation_matches_model(
        ops in prop::collection::vec(
            (any::<bool>(), 0u8..10, 0usize..120, any::<bool>()), 2..14),
        cut in 0.0f64..1.0,
    ) {
        let dir = TestDir::new("prop-reopen");
        let wal_path;
        {
            let db = Db::open(dir.path(), cfg()).unwrap();
            for &(is_delete, key_id, value_len, ttl) in &ops {
                let key = format!("key-{key_id:03}");
                if is_delete {
                    db.delete(key.as_bytes(), 0).unwrap();
                } else {
                    db.put(
                        key.as_bytes(),
                        &vec![b'v'; value_len],
                        ttl.then_some(1_000_000),
                        0,
                    )
                    .unwrap();
                }
                // One frame per op, so a cut can fall between records.
                db.flush_wal().unwrap();
            }
            wal_path = live_wal(&db);
        }
        let data = std::fs::read(&wal_path).unwrap();
        let keep = (data.len() as f64 * cut) as usize;
        std::fs::write(&wal_path, &data[..keep]).unwrap();
        // Model: independently replay whatever survived the truncation.
        let survivors = Wal::replay(&wal_path).unwrap();
        let mut model: HashMap<Vec<u8>, Option<Vec<u8>>> = HashMap::new();
        for r in &survivors {
            match r.kind {
                abase_lavastore::record::RecordKind::Put => {
                    model.insert(r.key.to_vec(), Some(r.value.to_vec()))
                }
                abase_lavastore::record::RecordKind::Delete => {
                    model.insert(r.key.to_vec(), None)
                }
            };
        }
        let db = Db::open(dir.path(), cfg()).unwrap();
        prop_assert_eq!(db.last_seq(), survivors.len() as u64);
        for (key, expect) in &model {
            let got = db.get(key, 0).unwrap().value;
            prop_assert_eq!(
                got.as_deref(),
                expect.as_deref(),
                "mismatch on {} at cut={}",
                String::from_utf8_lossy(key), cut
            );
        }
        // The sequence domain resumes cleanly after the crash.
        db.put(b"post-crash", b"new", None, 0).unwrap();
        prop_assert_eq!(db.last_seq(), survivors.len() as u64 + 1);
    }
}

#[test]
fn follower_crash_mid_apply_recovers_like_leader() {
    // Replication followers funnel shipped records through the same WAL. A
    // follower that crashes mid-apply must recover a clean prefix and keep
    // its LSN high-water mark consistent, so shipping can resume (duplicates
    // dedup, the next record either continues or resyncs).
    let dir = TestDir::new("follower");
    let wal_path;
    {
        let db = Db::open(dir.path(), cfg()).unwrap();
        for i in 0..20 {
            let record = Record::put(
                format!("key-{i:04}").as_bytes().to_vec(),
                b"shipped".to_vec(),
                i + 1, // leader-assigned LSN
                None,
            );
            assert!(db.apply_replicated(&record).unwrap());
            // A follower drains once per applying pass; here a pass is one
            // record.
            db.flush_wal().unwrap();
        }
        wal_path = live_wal(&db);
    }
    let data = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &data[..data.len() - 5]).unwrap();
    let db = Db::open(dir.path(), cfg()).unwrap();
    let recovered = db.last_seq();
    assert!(
        (1..20).contains(&recovered),
        "torn tail must drop the last frame"
    );
    // Re-shipping from the leader: duplicates are no-ops, the next LSN lands.
    for i in 0..20u64 {
        let record = Record::put(
            format!("key-{i:04}").as_bytes().to_vec(),
            b"shipped".to_vec(),
            i + 1,
            None,
        );
        let applied = db.apply_replicated(&record).unwrap();
        assert_eq!(applied, i + 1 > recovered, "lsn {}", i + 1);
    }
    assert_eq!(db.last_seq(), 20);
    for i in 0..20 {
        assert!(db
            .get(format!("key-{i:04}").as_bytes(), 0)
            .unwrap()
            .value
            .is_some());
    }
}

#[test]
fn concurrent_writer_crash_recovers_committed_prefix() {
    // Four writers race through the striped engine's shared group-commit WAL,
    // then the log is torn at several offsets. Every reopen must expose a
    // gapless LSN prefix: `last_seq()` equals the survivor count and every
    // surviving record's key reads back.
    let dir = TestDir::new("group-crash");
    let wal_path;
    {
        let db = Arc::new(Db::open(dir.path(), cfg()).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..25u64 {
                    db.put(format!("w{t}-{i:03}").as_bytes(), b"v", None, 0)
                        .unwrap();
                    if i % 5 == 4 {
                        db.flush_wal().unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        db.flush_wal().unwrap();
        wal_path = live_wal(&db);
    }
    let full = std::fs::read(&wal_path).unwrap();
    // Increasing cuts so each reopen's persisted seq counter never exceeds
    // the survivors of the next (a reopen persists next_seq in the manifest).
    for cut in [
        1usize,
        full.len() / 3,
        full.len() / 2,
        full.len() - 3,
        full.len(),
    ] {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let survivors = Wal::replay(&wal_path).unwrap();
        // Frames hit the file in allocation order even with racing writers,
        // so any surviving prefix is a gapless seq run from 1.
        for (idx, r) in survivors.iter().enumerate() {
            assert_eq!(r.seq, idx as u64 + 1, "LSN gap at cut={cut}");
        }
        let db = Db::open(dir.path(), cfg()).unwrap();
        assert_eq!(db.last_seq(), survivors.len() as u64, "cut={cut}");
        for r in &survivors {
            assert!(
                db.get(&r.key, 0).unwrap().value.is_some(),
                "committed write lost at cut={cut}"
            );
        }
    }
}

#[test]
fn checkpoint_cursor_excludes_torn_frame_bytes() {
    // A torn write (simulated crash mid-append) drains the buffered records
    // as one whole frame, then leaves partial-frame bytes in the live WAL
    // file. A checkpoint taken afterwards must record a cursor on the last
    // whole frame boundary — never mid-torn-frame — so the clone opens
    // cleanly with exactly the pre-tear state.
    use abase_util::failpoint::{self, FaultAction, ScopedInjector};
    let dir = TestDir::new("ckpt-torn");
    let dest = TestDir::new("ckpt-torn-dest");
    let db = Db::open(dir.path(), cfg()).unwrap();
    for i in 0..10 {
        db.put(format!("key-{i:04}").as_bytes(), b"v", None, 0)
            .unwrap();
    }
    let wal_path = live_wal(&db);
    let _guard = ScopedInjector::enable();
    failpoint::install(
        "wal.append",
        Some(&wal_path.display().to_string()),
        FaultAction::TornWrite { keep_bytes: 7 },
        0,
        1,
    );
    assert!(db.put(b"torn", b"lost", None, 0).is_err());
    let info = db.checkpoint(dest.path()).unwrap();
    assert_eq!(info.last_seq, 10);
    // The clone's live segment holds exactly the ten complete records: the
    // cursor excluded the torn bytes that follow their frame in the source
    // file.
    let clone_wal = Wal::segment_path(dest.path(), info.wal_segment);
    let records = Wal::replay(&clone_wal).unwrap();
    assert_eq!(records.len(), 10);
    assert_eq!(
        std::fs::metadata(&clone_wal).unwrap().len(),
        info.wal_offset
    );
    let clone = Db::open(dest.path(), cfg()).unwrap();
    assert_eq!(clone.last_seq(), 10);
    for i in 0..10 {
        assert!(clone
            .get(format!("key-{i:04}").as_bytes(), 0)
            .unwrap()
            .value
            .is_some());
    }
    assert!(clone.get(b"torn", 0).unwrap().value.is_none());
}
