//! The on-disk format (v4: format v3's SSTs, one WAL frame per drain),
//! pinned from outside the crate: golden bytes, a model check of the SST
//! reader, decoder totality over damaged files and logs, the density the
//! format is for, and refusal of the formats it replaced.
//! TESTING.md ("On-disk format") says what each failure means.

use abase_lavastore::encoding::{get_len_prefixed, get_varint};
use abase_lavastore::lz;
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

/// The shipped WAL options without the interval trigger: only an explicit
/// flush drains, so where frames end does not depend on the machine's speed.
fn drain_on_flush() -> WalOptions {
    WalOptions {
        group_commit_interval: std::time::Duration::from_secs(3600),
        ..WalOptions::default()
    }
}

/// Append `records` to a fresh log in one drain and return the file.
fn one_drain(path: &Path, records: &[Record]) -> Vec<u8> {
    {
        let wal = Wal::create(path, 0, records[0].seq, drain_on_flush()).unwrap();
        for record in records {
            assert!(wal.append_at(record).unwrap());
        }
        wal.flush().unwrap();
    }
    std::fs::read(path).unwrap()
}

/// The trailer byte of every frame of the WAL `file`.
fn frame_trailers(file: &[u8]) -> Vec<u8> {
    let (mut pos, mut trailers) = (0, Vec::new());
    while pos < file.len() {
        let len = u32::from_le_bytes(file[pos + 4..pos + 8].try_into().unwrap()) as usize;
        pos += 8 + len;
        trailers.push(file[pos - 1]);
    }
    trailers
}

#[test]
fn wal_frames_match_the_golden_bytes() {
    // Six records in one drain: one frame, compressed (the 200-byte key is
    // one run).
    let path = temp_path("golden-wal");
    let file = one_drain(&path, &golden_records());
    assert_eq!(frame_trailers(&file), [lz::STORED_LZ]);
    check_golden("wal_six_records.hex", &file);
    assert_eq!(Wal::replay(&path).unwrap(), golden_records());
    std::fs::remove_file(&path).ok();
}

/// abench's records: a 15-byte storage key and a 100-byte value.
fn abench_records(n: u64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::put(format!("t1:user{i:08}"), abench_value(i, 100), i + 1, None))
        .collect()
}

/// Thirty-two abench records drained at once: this pins a compressed WAL
/// frame byte for byte.
#[test]
fn a_compressed_drain_matches_the_golden_bytes() {
    let path = temp_path("golden-wal-lz");
    let records = abench_records(32);
    let file = one_drain(&path, &records);
    assert_eq!(frame_trailers(&file), [lz::STORED_LZ]);
    check_golden("wal_abench_drain.hex", &file);
    assert_eq!(Wal::replay(&path).unwrap(), records);
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
    let records = abench_records(32);
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

/// A log of several drains, some compressed and some raw: the records, and
/// where each frame ends with how many records the log holds up to it.
fn multi_frame_log(path: &Path, drains: &[(u8, usize)]) -> (Vec<Record>, Vec<(usize, usize)>) {
    let (mut records, mut ends) = (Vec::new(), Vec::new());
    let wal = Wal::create(path, 0, 1, drain_on_flush()).unwrap();
    for &(shape, n) in drains {
        for _ in 0..n {
            let seq = records.len() as u64 + 1;
            let value = match shape % 3 {
                0 => abench_value(seq, 100),
                1 => noise(seq, 60),
                _ => Vec::new(),
            };
            let record = Record::put(format!("key-{seq:04}"), value, seq, None);
            assert!(wal.append_at(&record).unwrap());
            records.push(record);
        }
        wal.flush().unwrap();
        ends.push((wal.position().1 as usize, records.len()));
    }
    (records, ends)
}

proptest! {
    /// Replay over a truncated or damaged multi-frame log never panics: it
    /// yields the records of a run of whole frames from where it started,
    /// or `Corruption`.
    #[test]
    fn replay_of_a_damaged_multi_frame_log_is_a_whole_frame_prefix_or_corruption(
        drains in prop::collection::vec((any::<u8>(), 1usize..12), 2..8),
        at in any::<u32>(),
        byte in any::<u8>(),
        cut in any::<u32>(),
        from in any::<u8>(),
    ) {
        let path = temp_path("wal-damage");
        let (records, ends) = multi_frame_log(&path, &drains);
        let good = std::fs::read(&path).unwrap();
        prop_assert_eq!(good.len(), ends.last().unwrap().0);
        // Start at the log's head or at one of its frame boundaries.
        let starts: Vec<(usize, usize)> =
            [(0, 0)].into_iter().chain(ends.iter().copied()).collect();
        let (start, before) = starts[usize::from(from) % starts.len()];
        let check = |data: &[u8]| {
            std::fs::write(&path, data).unwrap();
            match Wal::replay_from(&path, start as u64) {
                Ok((got, cursor)) => {
                    let Some(&(_, upto)) =
                        starts.iter().find(|&&(end, _)| end as u64 == cursor)
                    else {
                        panic!("cursor {cursor} is not a frame end");
                    };
                    assert_eq!(got, records[before..upto]);
                }
                Err(Error::Corruption(_)) => {}
                Err(other) => panic!("damage surfaced as {other:?}"),
            }
        };
        let mut flipped = good.clone();
        flipped[at as usize % good.len()] = byte;
        check(&flipped);
        let cut = start + cut as usize % (good.len() - start + 1);
        check(&good[..cut]);
        // A clean cut never reports corruption.
        std::fs::write(&path, &good[..cut]).unwrap();
        prop_assert!(Wal::replay_from(&path, start as u64).is_ok());
        std::fs::remove_file(&path).ok();
    }
}

// ---------------------------------------------------------------------------
// Density, pinned by a count
// ---------------------------------------------------------------------------

/// Bytes of SST and of WAL per record after 10 000 abench-shaped puts (a
/// 15-byte storage key, a 100-byte `value(i)`) and a flush; every record is
/// read back first, and the store's `wal_bytes_written` must be what its
/// segment files hold.
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
    let wal_bytes_written = {
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
        db.stats().wal_bytes_written
    };
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
    assert_eq!(wal_bytes_written, wal, "{tag}: counted WAL bytes vs files");
    let (sst, wal) = (sst as f64 / N as f64, wal as f64 / N as f64);
    println!("{tag}: bytes per record: {sst:.1} SST (bloom and index included), {wal:.1} WAL");
    (sst, wal)
}

#[test]
fn ten_thousand_records_fit_the_bytes_the_format_promises() {
    // abench's values: a 16-hex-digit pattern repeated, the best case for
    // block and frame compression. Format v2 took 111.3 B of SST, and a WAL
    // frame per record took 128.0 B.
    let (sst, wal) = bytes_per_record("density-abench", |i| abench_value(i, 100));
    assert!(sst <= 40.0, "{sst:.1} bytes of SST per record");
    assert!(wal <= 40.0, "{wal:.1} bytes of WAL per record");
    // Values that do not compress: stored raw, at one trailer byte per block
    // more than format v2's 114 (v1 took 140.4 and 142.0), and per drain a
    // header and a trailer instead of a header per record.
    let (sst, wal) = bytes_per_record("density-noise", |i| noise(i, 100));
    assert!(sst <= 115.0, "{sst:.1} bytes of SST per record");
    assert!(wal <= 122.0, "{wal:.1} bytes of WAL per record");
}

// ---------------------------------------------------------------------------
// Refusal of formats v1, v2 and v3
// ---------------------------------------------------------------------------

/// The magics formats v1, v2 and v3 wrote (`sstable.rs` and `version.rs`),
/// as `(format, sst magic, manifest magic)`. Format v3's SSTs are format
/// v4's — only its log changed — so it has no SST magic to refuse.
const OLD_MAGICS: [(&str, Option<u32>, u32); 3] = [
    ("format v1", Some(0xAB5E_557A), 0xAB5E_3514),
    ("format v2", Some(0xAB5E_5572), 0xAB5E_3572),
    ("format v3", None, 0xAB5E_3573),
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
        let Some(sst_magic) = sst_magic else {
            continue;
        };
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
