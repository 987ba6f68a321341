//! The on-disk format (v2), pinned from outside the crate: golden bytes, a
//! model check of the SST reader, decoder totality over damaged files, the
//! density the format is for, and refusal of the format it replaced.
//! TESTING.md ("On-disk format") says what each failure means.

use abase_lavastore::record::Record;
use abase_lavastore::sstable::{SstReader, SstWriter};
use abase_lavastore::wal::{Wal, WalOptions};
use abase_lavastore::{Db, DbConfig, Error};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "abase-format-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

// ---------------------------------------------------------------------------
// Golden bytes
// ---------------------------------------------------------------------------

/// One of each thing the record tail and the block entry can express, in key
/// order: a key that is a prefix of the next, a put with a TTL, a tombstone,
/// an empty value, a 200-byte key, and sequence numbers that cross the
/// two- to three-byte varint boundary (16 383 → 16 384).
fn golden_records() -> Vec<Record> {
    vec![
        Record::put("app", "red", 16_382, None),
        Record::put("apple", "green", 16_383, Some(1_700_000_000_000_000)),
        Record::delete("banana", 16_384),
        Record::put("cherry", "", 16_385, None),
        Record::put(vec![b'k'; 200], "long", 16_386, None),
        Record::put("zebra", "stripes", 16_387, None),
    ]
}

/// Compare `actual` with `tests/golden/<name>` (hex, 32 bytes a line). On a
/// difference the bytes this build produced are left in the temp dir, so an
/// intended format change is adopted by copying one file.
fn check_golden(name: &str, actual: &[u8]) {
    let hex: String = actual
        .chunks(32)
        .map(|line| line.iter().map(|b| format!("{b:02x}")).collect::<String>() + "\n")
        .collect();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if hex != expected {
        let dir = std::env::temp_dir().join("abase-golden-actual");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(name), &hex).unwrap();
        let line = hex
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(hex.lines().count().min(expected.lines().count()));
        panic!(
            "{name}: the bytes written differ from the golden file from line {} on.\n\
             Written now: {}\nGolden:      {}\n\
             Files already on disk hold the golden bytes: a difference is a format \
             change and needs a new magic. If that is intended, copy the first file \
             over the second.",
            line + 1,
            dir.join(name).display(),
            golden.display()
        );
    }
}

#[test]
fn wal_frames_match_the_golden_bytes() {
    let path = temp_path("golden-wal");
    {
        let wal = Wal::create(&path, 0, 16_382, WalOptions::default()).unwrap();
        for record in golden_records() {
            assert!(wal.append_at(&record).unwrap());
        }
        wal.flush().unwrap();
    }
    check_golden("wal_six_records.hex", &std::fs::read(&path).unwrap());
    assert_eq!(Wal::replay(&path).unwrap(), golden_records());
    std::fs::remove_file(&path).ok();
}

fn write_golden_sst(path: &Path) {
    let records = golden_records();
    let mut w = SstWriter::create(path, records.len(), 10, 4096).unwrap();
    for record in &records {
        w.add(record).unwrap();
    }
    w.finish().unwrap();
}

#[test]
fn sst_file_matches_the_golden_bytes() {
    let path = temp_path("golden-sst");
    write_golden_sst(&path);
    check_golden("sst_six_records.hex", &std::fs::read(&path).unwrap());
    let reader = SstReader::open(&path).unwrap();
    assert_eq!(reader.scan_all().unwrap(), golden_records());
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Model: SstWriter → SstReader against a BTreeMap
// ---------------------------------------------------------------------------

type Model = BTreeMap<Vec<u8>, Record>;

/// Key shapes that stress prefix compression and the restart search (the
/// unit-level twin is `sstable::tests::block`).
fn key() -> impl Strategy<Value = Vec<u8>> {
    let random = prop::collection::vec(any::<u8>(), 0..6);
    (0u8..5, any::<u8>(), 0usize..24, 0u16..400, random).prop_map(|(shape, b, n, i, random)| {
        match shape {
            0 => vec![b'a'; n + 1],
            1 => [&b"same-to-the-last-byte-"[..], &[b]].concat(),
            2 => [vec![0xff; n % 5], vec![b]].concat(),
            3 => [vec![b'L'; 150], i.to_be_bytes().to_vec()].concat(),
            _ => random,
        }
    })
}

/// A record for `key`: puts with and without a TTL, tombstones, and now and
/// then a value larger than any block target the tests use.
fn record(key: &[u8], i: usize) -> Record {
    let seq = 1 + i as u64 * 977;
    match i % 7 {
        0 => Record::delete(key.to_vec(), seq),
        1 => Record::put(key.to_vec(), vec![b'v'; i % 40], seq, Some(seq << 20)),
        2 if i.is_multiple_of(5) => Record::put(key.to_vec(), vec![b'B'; 700], seq, None),
        _ => Record::put(key.to_vec(), vec![b'v'; i % 40], seq, None),
    }
}

fn model_of(keys: Vec<Vec<u8>>) -> Model {
    keys.into_iter()
        .enumerate()
        .map(|(i, key)| (key.clone(), record(&key, i)))
        .collect()
}

/// Write `model` as one SST. A one-key, 64-bit bloom filter saturates after
/// a few dozen keys, so probes for absent keys reach the block search.
fn write_sst(path: &Path, model: &Model, block_target: usize) {
    let mut w = SstWriter::create(path, 1, 1, block_target).unwrap();
    for record in model.values() {
        w.add(record).unwrap();
    }
    w.finish().unwrap();
}

/// Every stored key, keys just around each, and both ends of the key space.
fn probes(model: &Model) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new(), vec![0xff; 160]];
    for key in model.keys() {
        out.push(key.clone());
        out.push([&key[..], &[0]].concat());
        out.push(key[..key.len().saturating_sub(1)].to_vec());
        if let Some((&last, head)) = key.split_last() {
            out.push([head, &[last.wrapping_sub(1), 0xff]].concat());
            out.push([head, &[last.wrapping_add(1)]].concat());
        }
    }
    out
}

fn check_against_model(path: &Path, model: &Model) {
    let reader = SstReader::open(path).unwrap();
    let all: Vec<Record> = model.values().cloned().collect();
    assert_eq!(reader.scan_all().unwrap(), all);
    for probe in probes(model) {
        let (found, io) = reader.get(&probe).unwrap();
        assert_eq!(found.as_ref(), model.get(&probe), "get {probe:?}");
        assert!(
            io.total() <= 1,
            "{probe:?} cost {} block accesses",
            io.total()
        );
        // The probe doubles as a scan prefix.
        let expected: Vec<Record> = model
            .range(probe.clone()..)
            .take_while(|(k, _)| k.starts_with(&probe))
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(reader.scan_prefix(&probe).unwrap().0, expected, "{probe:?}");
    }
}

proptest! {
    #[test]
    fn sst_reader_matches_a_btreemap(
        keys in prop::collection::vec(key(), 1..120),
        block_target in (0usize..3).prop_map(|i| [48, 300, 4096][i]),
    ) {
        let path = temp_path("model");
        let model = model_of(keys);
        write_sst(&path, &model, block_target);
        check_against_model(&path, &model);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn blocks_of_exactly_1_16_17_32_and_33_records() {
    // One block per file (the target is never reached), so the record count
    // is the block's: a lone restart entry, a full interval, a full interval
    // plus one, two full intervals, and one past that.
    for n in [1usize, 16, 17, 32, 33] {
        let path = temp_path("interval");
        let model = model_of((0..n).map(|i| format!("key-{i:04}").into_bytes()).collect());
        write_sst(&path, &model, 1 << 20);
        check_against_model(&path, &model);
        std::fs::remove_file(&path).ok();
    }
    // Forty blocks of one record each: every lookup is decided by the index.
    let path = temp_path("one-per-block");
    let model = model_of(
        (0..40)
            .map(|i| format!("key-{i:04}").into_bytes())
            .collect(),
    );
    write_sst(&path, &model, 1);
    check_against_model(&path, &model);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Totality: damage is `Corruption` (or harmless), never a panic
// ---------------------------------------------------------------------------

/// Open `path` and run every read over it. Only the absence of a panic is
/// checked; an `Err` must be `Corruption`.
fn read_everything(path: &Path, keys: &[Vec<u8>]) {
    let corruption_or_ok = |e: Option<Error>| match e {
        None | Some(Error::Corruption(_)) => {}
        Some(other) => panic!("damage surfaced as {other:?}, not Corruption"),
    };
    let reader = match SstReader::open(path) {
        Ok(reader) => reader,
        Err(e) => return corruption_or_ok(Some(e)),
    };
    corruption_or_ok(reader.scan_all().err());
    for key in keys {
        corruption_or_ok(reader.get(key).err());
        corruption_or_ok(reader.scan_prefix(&key[..key.len().min(2)]).err());
    }
}

#[test]
fn every_single_byte_of_damage_to_the_golden_sst_is_survivable() {
    let path = temp_path("damage-all");
    write_golden_sst(&path);
    let good = std::fs::read(&path).unwrap();
    let keys: Vec<Vec<u8>> = golden_records().iter().map(|r| r.key.to_vec()).collect();
    for at in 0..good.len() {
        for byte in [good[at] ^ 0x01, good[at] ^ 0x80, 0x00, 0xff] {
            let mut data = good.clone();
            data[at] = byte;
            std::fs::write(&path, &data).unwrap();
            read_everything(&path, &keys);
        }
    }
    std::fs::remove_file(&path).ok();
}

proptest! {
    #[test]
    fn damage_to_a_multi_block_sst_is_survivable(
        keys in prop::collection::vec(key(), 20..80),
        at in any::<u32>(),
        byte in any::<u8>(),
        cut in any::<u32>(),
    ) {
        let path = temp_path("damage");
        let model = model_of(keys);
        write_sst(&path, &model, 64);
        let keys: Vec<Vec<u8>> = model.keys().cloned().collect();
        let good = std::fs::read(&path).unwrap();
        let mut data = good.clone();
        data[at as usize % good.len()] = byte;
        std::fs::write(&path, &data).unwrap();
        read_everything(&path, &keys);
        // A truncated file, and arbitrary bytes where a file should be.
        std::fs::write(&path, &good[..cut as usize % good.len()]).unwrap();
        read_everything(&path, &keys);
        let noise: Vec<u8> = good.iter().map(|b| b.wrapping_mul(byte | 1) ^ byte).collect();
        std::fs::write(&path, &noise).unwrap();
        read_everything(&path, &keys);
        std::fs::remove_file(&path).ok();
    }
}

// ---------------------------------------------------------------------------
// Density, pinned by a count
// ---------------------------------------------------------------------------

#[test]
fn ten_thousand_records_fit_the_bytes_the_format_promises() {
    // abench's record: a 15-byte storage key and a 100-byte value.
    const N: u64 = 10_000;
    let dir = temp_path("density");
    std::fs::remove_dir_all(&dir).ok();
    let config = DbConfig {
        // Keep every rotated log segment, so the directory holds all WAL
        // bytes ever appended.
        wal_retention_segments: usize::MAX,
        ..DbConfig::default()
    };
    {
        let db = Db::open(&dir, config).unwrap();
        for i in 0..N {
            let key = format!("t1:user{i:08}");
            db.put(key.as_bytes(), &[b'x'; 100], None, 0).unwrap();
        }
        db.flush().unwrap();
    }
    let (mut sst, mut wal) = (0u64, 0u64);
    for entry in std::fs::read_dir(&dir).unwrap().map(Result::unwrap) {
        let len = entry.metadata().unwrap().len();
        match entry.path().extension().and_then(|e| e.to_str()) {
            Some("sst") => sst += len,
            Some("log") => wal += len,
            _ => {}
        }
    }
    let (sst, wal) = (sst as f64 / N as f64, wal as f64 / N as f64);
    println!("bytes per record: {sst:.1} SST (bloom and index included), {wal:.1} WAL");
    // Format v1 took 140.4 and 142.0.
    assert!(sst <= 114.0, "{sst:.1} bytes of SST per record");
    assert!(wal <= 130.0, "{wal:.1} bytes of WAL per record");
    assert!(
        sst >= 100.0 && wal >= 115.0,
        "records went missing: {sst} {wal}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Refusal of format v1
// ---------------------------------------------------------------------------

/// The magics format v1 wrote (`sstable.rs` and `version.rs` before PR 21).
const SST_MAGIC_V1: u32 = 0xAB5E_557A;
const MANIFEST_MAGIC_V1: u32 = 0xAB5E_3514;

fn assert_names_v1<T: std::fmt::Debug>(result: Result<T, Error>) {
    match result {
        Err(Error::Corruption(msg)) => assert!(msg.contains("format v1"), "{msg}"),
        other => panic!("expected a refusal naming format v1, got {other:?}"),
    }
}

#[test]
fn a_v1_directory_and_a_v1_sst_are_refused_by_name() {
    let dir = temp_path("v1-dir");
    std::fs::remove_dir_all(&dir).ok();
    {
        let db = Db::open(&dir, DbConfig::small_for_tests()).unwrap();
        db.put(b"k", b"v", None, 0).unwrap();
        db.flush().unwrap();
    }
    let manifest = dir.join("MANIFEST");
    let good = std::fs::read(&manifest).unwrap();
    let mut v1 = good.clone();
    v1[..4].copy_from_slice(&MANIFEST_MAGIC_V1.to_le_bytes());
    std::fs::write(&manifest, &v1).unwrap();
    assert_names_v1(Db::open(&dir, DbConfig::small_for_tests()));

    // A v2 manifest over a v1 SST: the file is refused too.
    std::fs::write(&manifest, &good).unwrap();
    let sst = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "sst"))
        .expect("the flush wrote an sst");
    let mut data = std::fs::read(&sst).unwrap();
    let n = data.len();
    data[n - 4..].copy_from_slice(&SST_MAGIC_V1.to_le_bytes());
    std::fs::write(&sst, &data).unwrap();
    assert_names_v1(SstReader::open(&sst));
    assert_names_v1(Db::open(&dir, DbConfig::small_for_tests()));
    std::fs::remove_dir_all(&dir).ok();
}
