//! The on-disk format (v3), pinned from outside the crate: golden bytes, a
//! model check of the SST reader, decoder totality over damaged files, the
//! density the format is for, and refusal of the formats it replaced.
//! TESTING.md ("On-disk format") says what each failure means.

use abase_lavastore::encoding::{get_len_prefixed, get_varint};
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

/// abench's value: 16 hex digits of a hash of the key, repeated to `len`.
fn abench_value(key: u64, len: usize) -> Vec<u8> {
    let mut h = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let pattern: Vec<u8> = (0..16)
        .map(|i| b"0123456789abcdef"[(h >> (i * 4) & 0xF) as usize])
        .collect();
    pattern.into_iter().cycle().take(len).collect()
}

/// `len` bytes that do not compress, the same for the same `seed`.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

/// The trailer byte of every stored data block of the SST `file`, read
/// through the footer, the properties and the index block.
fn block_trailers(file: &[u8]) -> Vec<u8> {
    let footer = &file[file.len() - 20..];
    let props_offset = u64::from_le_bytes(footer[..8].try_into().unwrap()) as usize;
    let props_len = u32::from_le_bytes(footer[8..12].try_into().unwrap()) as usize;
    let props = &file[props_offset..props_offset + props_len];
    let mut pos = 0;
    get_varint(props, &mut pos).unwrap();
    get_len_prefixed(props, &mut pos).unwrap();
    get_len_prefixed(props, &mut pos).unwrap();
    let index = get_len_prefixed(props, &mut pos).unwrap();
    let restarts = u32::from_le_bytes(index[index.len() - 4..].try_into().unwrap()) as usize;
    let entries = &index[..index.len() - 4 - 4 * restarts];
    let (mut pos, mut trailers) = (0, Vec::new());
    while pos < entries.len() {
        get_varint(entries, &mut pos).unwrap();
        get_len_prefixed(entries, &mut pos).unwrap();
        let offset = get_varint(entries, &mut pos).unwrap();
        let len = get_varint(entries, &mut pos).unwrap();
        trailers.push(file[(offset + len - 1) as usize]);
    }
    trailers
}

/// Thirty-two abench records fill one 4 KiB block, which is stored
/// compressed: this pins the compressed form byte for byte.
#[test]
fn a_compressed_block_matches_the_golden_bytes() {
    let path = temp_path("golden-lz");
    let records: Vec<Record> = (0..32u64)
        .map(|i| Record::put(format!("t1:user{i:08}"), abench_value(i, 100), i + 1, None))
        .collect();
    let mut w = SstWriter::create(&path, records.len(), 10, 4096).unwrap();
    for record in &records {
        w.add(record).unwrap();
    }
    w.finish().unwrap();
    let file = std::fs::read(&path).unwrap();
    assert_eq!(block_trailers(&file), [1], "one block, stored compressed");
    let props_offset = u64::from_le_bytes(file[file.len() - 20..][..8].try_into().unwrap());
    check_golden("sst_abench_block.hex", &file[..props_offset as usize]);
    assert_eq!(SstReader::open(&path).unwrap().scan_all().unwrap(), records);
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
        let mut model = model_of(keys);
        // A record too noisy for its block to save an eighth, and one whose
        // block compresses whatever shares it: both stored forms are read.
        for (key, value) in [(b"noise".to_vec(), noise(7, 2000)), (b"run".to_vec(), vec![b'c'; 200])] {
            model.insert(key.clone(), Record::put(key, value, 1, None));
        }
        write_sst(&path, &model, 64);
        let keys: Vec<Vec<u8>> = model.keys().cloned().collect();
        let good = std::fs::read(&path).unwrap();
        let trailers = block_trailers(&good);
        prop_assert!(trailers.contains(&0) && trailers.contains(&1), "{:?}", trailers);
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

/// Bytes of SST and of WAL per record after 10 000 abench-shaped puts (a
/// 15-byte storage key, a 100-byte `value(i)`) and a flush; every record is
/// read back first.
fn bytes_per_record(tag: &str, value: impl Fn(u64) -> Vec<u8>) -> (f64, f64) {
    const N: u64 = 10_000;
    let dir = temp_path(tag);
    std::fs::remove_dir_all(&dir).ok();
    let config = DbConfig {
        // Keep every rotated log segment, so the directory holds all WAL
        // bytes ever appended.
        wal_retention_segments: usize::MAX,
        ..DbConfig::default()
    };
    {
        let db = Db::open(&dir, config).unwrap();
        let key = |i: u64| format!("t1:user{i:08}");
        for i in 0..N {
            db.put(key(i).as_bytes(), &value(i), None, 0).unwrap();
        }
        db.flush().unwrap();
        for i in 0..N {
            let read = db.get(key(i).as_bytes(), 0).unwrap();
            assert_eq!(read.value.as_deref(), Some(&value(i)[..]), "{}", key(i));
        }
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
    std::fs::remove_dir_all(&dir).ok();
    let (sst, wal) = (sst as f64 / N as f64, wal as f64 / N as f64);
    println!("{tag}: bytes per record: {sst:.1} SST (bloom and index included), {wal:.1} WAL");
    (sst, wal)
}

#[test]
fn ten_thousand_records_fit_the_bytes_the_format_promises() {
    // abench's values: a 16-hex-digit pattern repeated, the best case for
    // block compression. Format v2 took 111.3 B of SST.
    let (sst, wal) = bytes_per_record("density-abench", |i| abench_value(i, 100));
    assert!(sst <= 40.0, "{sst:.1} bytes of SST per record");
    assert!(wal <= 130.0, "{wal:.1} bytes of WAL per record");
    // Values that do not compress: stored raw, at one trailer byte per block
    // more than format v2's 114 (v1 took 140.4 and 142.0).
    let (sst, wal) = bytes_per_record("density-noise", |i| noise(i, 100));
    assert!(sst <= 115.0, "{sst:.1} bytes of SST per record");
    assert!(wal <= 130.0, "{wal:.1} bytes of WAL per record");
}

// ---------------------------------------------------------------------------
// Refusal of formats v1 and v2
// ---------------------------------------------------------------------------

/// The magics formats v1 and v2 wrote (`sstable.rs` and `version.rs`), as
/// `(format, sst magic, manifest magic)`.
const OLD_MAGICS: [(&str, u32, u32); 2] = [
    ("format v1", 0xAB5E_557A, 0xAB5E_3514),
    ("format v2", 0xAB5E_5572, 0xAB5E_3572),
];

fn assert_names<T: std::fmt::Debug>(format: &str, result: Result<T, Error>) {
    match result {
        Err(Error::Corruption(msg)) => assert!(msg.contains(format), "{msg}"),
        other => panic!("expected a refusal naming {format}, got {other:?}"),
    }
}

#[test]
fn a_v1_directory_and_a_v1_sst_are_refused_by_name() {
    let dir = temp_path("old-dir");
    std::fs::remove_dir_all(&dir).ok();
    {
        let db = Db::open(&dir, DbConfig::small_for_tests()).unwrap();
        db.put(b"k", b"v", None, 0).unwrap();
        db.flush().unwrap();
    }
    let manifest = dir.join("MANIFEST");
    let good_manifest = std::fs::read(&manifest).unwrap();
    let sst = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "sst"))
        .expect("the flush wrote an sst");
    let good_sst = std::fs::read(&sst).unwrap();
    for (format, sst_magic, manifest_magic) in OLD_MAGICS {
        let mut old = good_manifest.clone();
        old[..4].copy_from_slice(&manifest_magic.to_le_bytes());
        std::fs::write(&manifest, &old).unwrap();
        assert_names(format, Db::open(&dir, DbConfig::small_for_tests()));

        // A current manifest over an old SST: the file is refused too.
        std::fs::write(&manifest, &good_manifest).unwrap();
        let mut old = good_sst.clone();
        let n = old.len();
        old[n - 4..].copy_from_slice(&sst_magic.to_le_bytes());
        std::fs::write(&sst, &old).unwrap();
        assert_names(format, SstReader::open(&sst));
        assert_names(format, Db::open(&dir, DbConfig::small_for_tests()));
        std::fs::write(&sst, &good_sst).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}
