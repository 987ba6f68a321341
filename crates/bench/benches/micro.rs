//! Criterion micro-benchmarks for ABase's hot paths.
//!
//! Run with `cargo bench -p abase-bench`. These cover the per-request-cost
//! components (cache ops, WFQ scheduling, quota checks, admission and RU
//! charging, RESP parsing, RU math, metric recording) and the heavier
//! periodic jobs (storage engine ops, WAL drains, forecasting fit,
//! rescheduling rounds).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use abase_cache::aulru::{AuLruCache, AuLruConfig};
use abase_cache::{SaLruCache, ShardedCache};
use abase_core::{Pipeline, Request, Served, TableEngine};
use abase_forecast::prophet::{ProphetConfig, ProphetModel};
use abase_forecast::psd::dominant_period;
use abase_lavastore::block_cache::CachedRow;
use abase_lavastore::encoding::crc32;
use abase_lavastore::lz;
use abase_lavastore::record::{Record, NO_EXPIRY};
use abase_lavastore::sstable::{SstReader, SstWriter};
use abase_lavastore::wal::{self, Wal};
use abase_lavastore::{BlockCache, Db, DbConfig};
use abase_obs::{Histo, Span, Stage};
use abase_proto::{Command, RequestScanner, RespValue, Scanned};
use abase_quota::{RuEstimator, TokenBucket};
use abase_scheduler::{LoadVector, NodeState, PoolState, ReplicaLoad, Rescheduler};
use abase_wfq::{CpuTickBudget, DualWfq, DualWfqConfig, WfqItem};
use abase_workload::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn bench_caches(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.bench_function("salru_insert_get", |b| {
        let mut cache: SaLruCache<u64, u64> = SaLruCache::new(1 << 20);
        let mut i = 0u64;
        b.iter(|| {
            cache.insert(i % 10_000, i, 64 + (i % 5_000) as usize);
            black_box(cache.get(&((i * 7) % 10_000)));
            i += 1;
        });
    });
    group.bench_function("aulru_get_hit", |b| {
        let mut cache: AuLruCache<u64, u64> = AuLruCache::new(AuLruConfig::default());
        for k in 0..1_000u64 {
            cache.insert(k, k, 64, 0);
        }
        let mut i = 0u64;
        b.iter(|| {
            black_box(cache.get(&(i % 1_000), 1_000));
            i += 1;
        });
    });

    // The node cache under lavastore: block hits with `(file, offset)` keys,
    // row hits through `BlockCache` with the caller's borrowed key, and 4 KiB
    // block inserts into a full cache, each evicting one block.
    let block: Arc<[u8]> = vec![0u8; 4096].into();
    let blocks = 1_024u64;
    group.bench_function("sharded_block_get_hit", |b| {
        let cache: ShardedCache<(u64, u64), Arc<[u8]>> = ShardedCache::new(64 << 20, 16);
        for i in 0..blocks {
            cache.insert((1, i), Arc::clone(&block), block.len());
        }
        let mut i = 0u64;
        b.iter(|| {
            black_box(cache.get(&(1, (i * 7) % blocks)));
            i += 1;
        });
    });
    group.bench_function("block_cache_row_get_hit", |b| {
        let cache = BlockCache::new(64 << 20);
        let keys: Vec<Vec<u8>> = (0..1_024)
            .map(|i| format!("user{i:012}").into_bytes())
            .collect();
        for key in &keys {
            let row = CachedRow {
                value: bytes::Bytes::from(vec![7u8; 100]),
                expires_at: NO_EXPIRY,
            };
            cache.insert_row(bytes::Bytes::copy_from_slice(key), row);
        }
        let mut i = 0usize;
        b.iter(|| {
            black_box(cache.get_row(&keys[(i * 7) % keys.len()]));
            i += 1;
        });
    });
    group.bench_function("sharded_insert_evict", |b| {
        let cache: ShardedCache<(u64, u64), Arc<[u8]>> =
            ShardedCache::new(blocks as usize * block.len(), 16);
        for i in 0..blocks {
            cache.insert((1, i), Arc::clone(&block), block.len());
        }
        let mut i = 0u64;
        b.iter(|| {
            black_box(cache.insert((2, i), Arc::clone(&block), block.len()));
            i += 1;
        });
    });
    group.finish();
}

fn bench_wfq(c: &mut Criterion) {
    let mut group = c.benchmark_group("wfq");
    group.bench_function("push_pop_cycle", |b| {
        let mut q: DualWfq<u64> = DualWfq::new(DualWfqConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            q.push_cpu(WfqItem {
                tenant: (i % 8) as u32,
                cost: 1.0,
                weight: 0.125,
                payload: i,
            });
            if i % 16 == 15 {
                black_box(q.drain_cpu(CpuTickBudget { ru: 16.0 }, false));
            }
            i += 1;
        });
    });
    group.finish();
}

fn bench_quota(c: &mut Criterion) {
    let mut group = c.benchmark_group("quota");
    group.bench_function("token_bucket_admit", |b| {
        let mut bucket = TokenBucket::new(1e9, 1e9, 0);
        let mut now = 0u64;
        b.iter(|| {
            now += 10;
            black_box(bucket.try_consume(now, 1.0));
        });
    });
    group.bench_function("ru_estimate_and_record", |b| {
        let mut est = RuEstimator::default();
        let mut i = 0usize;
        b.iter(|| {
            est.record_read(1024 + i % 2048, abase_quota::ru::ReadOutcome::Miss);
            black_box(est.estimate_read_ru());
            i += 1;
        });
    });
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    // What the server adds to a GET around the engine: the Admission stage's
    // `admit` and the charge of a 100 B cache hit after it.
    let mut group = c.benchmark_group("pipeline");
    let hit = Served::Read(100, abase_quota::ru::ReadOutcome::NodeCacheHit);
    let admit_settle = |pipeline: &Pipeline| {
        black_box(pipeline.admit(7, Request::Read, 0).is_ok());
        black_box(pipeline.settle(7, hit));
    };
    group.bench_function("admit_settle_no_quota", |b| {
        let pipeline = Pipeline::new(1);
        b.iter(|| admit_settle(&pipeline));
    });
    group.bench_function("admit_settle_quota_not_binding", |b| {
        let pipeline = Pipeline::new(1);
        pipeline.add_partition(7, 7, 1e12, 0);
        b.iter(|| admit_settle(&pipeline));
    });
    group.finish();
}

fn bench_obs(c: &mut Criterion) {
    // What every served command pays to be measured: one histogram record
    // per traversed stage and one for the command, inside `finish`.
    let mut group = c.benchmark_group("obs");
    group.bench_function("histo_record", |b| {
        let histo = Histo::new();
        let mut nanos = 0u64;
        b.iter(|| {
            nanos = (nanos + 97) & 0xFFFF;
            histo.record_duration(std::time::Duration::from_nanos(black_box(nanos)));
        });
    });
    group.bench_function("span_finish", |b| {
        b.iter(|| {
            let mut span = Span::begin();
            span.enter(Stage::Admission);
            span.enter(Stage::Engine);
            span.enter(Stage::Respond);
            black_box(span.finish());
        });
    });
    group.finish();
}

fn bench_resp(c: &mut Criterion) {
    let mut group = c.benchmark_group("resp");
    let wire = Command::<bytes::Bytes>::Set {
        key: "user:12345".into(),
        value: bytes::Bytes::from(vec![7u8; 512]),
        ttl_secs: Some(60),
    }
    .to_resp()
    .to_bytes();
    group.bench_function("parse_set_command", |b| {
        b.iter(|| {
            let (value, _) = RespValue::parse(black_box(&wire)).unwrap().unwrap();
            black_box(Command::from_resp(&value).unwrap());
        });
    });
    // The server's request path without the socket: request bytes in, reply
    // bytes out, through the scanner, the grammar over borrowed arguments,
    // `TableEngine::execute` and `encode` — what a connection's drain loop
    // runs per command (spans, metrics and RU charging aside).
    let dir = std::env::temp_dir().join(format!("abase-bench-path-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = TableEngine::open(&dir, DbConfig::default()).unwrap();
    let mut scanner = RequestScanner::new();
    let mut out = Vec::new();
    let mut request_path = |wire: &[u8]| {
        let Ok(Scanned::Command { argv, consumed }) = scanner.scan(wire) else {
            panic!("not a command frame");
        };
        let command = Command::from_args(argv.len(), |i| Ok(argv.get(i))).unwrap();
        out.clear();
        engine
            .execute(1, &command, 0)
            .unwrap()
            .reply
            .encode(&mut out);
        black_box((consumed, &out));
    };
    let frame = |parts: &[&[u8]]| {
        RespValue::array(parts.iter().map(|p| RespValue::bulk(p.to_vec())).collect()).to_bytes()
    };
    let set = frame(&[b"SET", b"user00012345", &[7u8; 128]]);
    let get = frame(&[b"GET", b"user00012345"]);
    group.bench_function("request_path_set", |b| {
        b.iter(|| request_path(black_box(&set)));
    });
    group.bench_function("request_path_get", |b| {
        b.iter(|| request_path(black_box(&get)));
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_lavastore(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("abase-bench-db-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = Db::open(&dir, DbConfig::default()).unwrap();
    for i in 0..10_000u64 {
        let key = format!("key-{i:08}");
        db.put(key.as_bytes(), &[0u8; 256], None, 0).unwrap();
    }
    db.flush().unwrap();
    db.compact_to_quiescence(0).unwrap();
    let mut group = c.benchmark_group("lavastore");
    group.bench_function("point_get_sst", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let key = format!("key-{:08}", (i * 37) % 10_000);
            black_box(db.get(key.as_bytes(), 0).unwrap());
            i += 1;
        });
    });
    group.bench_function("put_memtable", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let key = format!("put-{:08}", i % 4_096);
            db.put(key.as_bytes(), &[1u8; 256], None, 0).unwrap();
            i += 1;
        });
    });
    // One SST of abench-shaped records behind a warm cache: the index-block
    // search, the block-cache hit, the restart search and walk in the data
    // block, and the one copy of the value.
    let sst = dir.with_extension("sst");
    let keys: Vec<String> = (0..10_000).map(|i| format!("t1:user{i:08}")).collect();
    let mut writer = SstWriter::create(&sst, keys.len(), 10, 4096).unwrap();
    for (i, key) in keys.iter().enumerate() {
        let record = Record::put(key.clone(), vec![7u8; 100], i as u64 + 1, None);
        writer.add(&record).unwrap();
    }
    writer.finish().unwrap();
    let cache = std::sync::Arc::new(BlockCache::new(64 << 20));
    let reader = SstReader::open_cached(&sst, Some(cache)).unwrap();
    for key in &keys {
        reader.get(key.as_bytes()).unwrap();
    }
    group.bench_function("sst_seek_cached", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let key = &keys[(i * 37) % keys.len()];
            black_box(reader.get(key.as_bytes()).unwrap());
            i += 1;
        });
    });
    group.finish();
    drop((reader, db));
    std::fs::remove_file(&sst).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// One data block of abench-shaped records (a 15-byte storage key, a 100-byte
/// value repeating 16 hex digits), as the SST writer builds it: written as a
/// one-block SST, then decoded back out of the file.
fn abench_block() -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("abase-micro-block-{}.sst", std::process::id()));
    let mut writer = SstWriter::create(&path, 64, 10, 1 << 20).unwrap();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..38 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let pattern: Vec<u8> = (0..16)
            .map(|d| b"0123456789abcdef"[(x >> (d * 4) & 0xF) as usize])
            .collect();
        let value: Vec<u8> = pattern.iter().cycle().take(100).copied().collect();
        writer
            .add(&Record::put(
                format!("t1:user{:08}", i * 7),
                value,
                i + 1,
                None,
            ))
            .unwrap();
    }
    writer.finish().unwrap();
    let file = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let footer = &file[file.len() - 20..];
    let blocks_end = u64::from_le_bytes(footer[..8].try_into().unwrap()) as usize;
    // The block is stored compressed: its bytes less the trailer byte.
    lz::decompress(&file[..blocks_end - 1]).unwrap().to_vec()
}

fn bench_encoding(c: &mut Criterion) {
    // The CRC a WAL append paid over its payload while each record was its
    // own frame (129 B is abench's record) — what `wal/seal_*` is weighed
    // against per record — and the one a per-block checksum would pay.
    let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
    let mut group = c.benchmark_group("encoding");
    group.bench_function("crc32_129B", |b| {
        b.iter(|| black_box(crc32(black_box(&data[..129]))));
    });
    group.bench_function("crc32_4KiB", |b| {
        b.iter(|| black_box(crc32(black_box(&data))));
    });
    // What a flush pays per data block, and what a disk read pays to decode
    // one (a cache hit pays nothing).
    let block = abench_block();
    let mut compressor = lz::Compressor::default();
    let mut compressed = Vec::with_capacity(block.len());
    group.bench_function("lz_compress_4KiB", |b| {
        b.iter(|| {
            compressed.clear();
            compressor.compress(black_box(&block), &mut compressed);
            black_box(compressed.len());
        });
    });
    group.bench_function("lz_decompress_4KiB", |b| {
        b.iter(|| black_box(lz::decompress(black_box(&compressed)).unwrap()));
    });
    group.finish();
}

/// One 64 KiB group-commit drain: `set_stream`-shaped records (a 15-byte
/// storage key, a 128-byte value), encoded back to back as the WAL buffers
/// them, with values from `value(i)`; returns the buffer and its record count.
fn wal_drain(value: impl Fn(u64) -> Vec<u8>) -> (Vec<u8>, u64) {
    let (mut buf, mut n) = (Vec::new(), 0u64);
    while buf.len() < 64 << 10 {
        let key = format!("t1:user{:08}", n.wrapping_mul(7_919) % 1_000_000);
        Record::put(key, value(n), n + 1, None).encode(&mut buf);
        n += 1;
    }
    (buf, n)
}

fn bench_wal(c: &mut Criterion) {
    // What a drain pays to seal its buffer into one frame (compress, then
    // CRC the stored bytes), over abench's values — a 16-hex-digit pattern
    // repeated — and over values that do not compress; per record, divide
    // by the record count printed here.
    let hex = |i: u64| -> Vec<u8> {
        let h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (0..128)
            .map(|d| b"0123456789abcdef"[(h >> (d % 16 * 4) & 0xF) as usize])
            .collect()
    };
    let noise = |i: u64| -> Vec<u8> {
        let mut x = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (0..128)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    };
    let mut group = c.benchmark_group("wal");
    let mut lz = lz::Compressor::default();
    let mut frame = Vec::new();
    for (name, value) in [
        ("seal_64KiB_abench", &hex as &dyn Fn(u64) -> Vec<u8>),
        ("seal_64KiB_noise", &noise),
    ] {
        let (records, n) = wal_drain(value);
        frame.clear();
        wal::encode_frame(&records, &mut lz, &mut frame);
        println!(
            "wal/{name}: {n} records, {} B raw → {} B framed",
            records.len(),
            frame.len()
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                frame.clear();
                wal::encode_frame(black_box(&records), &mut lz, &mut frame);
                black_box(frame.len());
            });
        });
    }
    // Replay of that abench drain from a segment file: read, CRC, decode
    // the frame, decode its records.
    let path = std::env::temp_dir().join(format!("abase-micro-wal-{}.log", std::process::id()));
    let (records, _) = wal_drain(hex);
    frame.clear();
    wal::encode_frame(&records, &mut lz, &mut frame);
    std::fs::write(&path, &frame).unwrap();
    group.bench_function("replay_64KiB", |b| {
        b.iter(|| black_box(Wal::replay_from(&path, 0).unwrap()));
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

fn bench_forecast(c: &mut Criterion) {
    let values: Vec<f64> = (0..720)
        .map(|t| 100.0 + 0.1 * t as f64 + 30.0 * (t as f64 * std::f64::consts::TAU / 24.0).sin())
        .collect();
    let mut group = c.benchmark_group("forecast");
    group.sample_size(20);
    group.bench_function("psd_dominant_period_720", |b| {
        b.iter(|| black_box(dominant_period(&values, 20.0)));
    });
    group.bench_function("prophet_fit_720", |b| {
        b.iter(|| {
            black_box(ProphetModel::fit(
                &values,
                Some(24),
                ProphetConfig::default(),
            ))
        });
    });
    group.finish();
}

fn bench_rescheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("rescheduler");
    group.sample_size(20);
    group.bench_function("round_100_nodes", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter_batched(
            || {
                let mut pool = PoolState::new(
                    (0..100)
                        .map(|i| NodeState::new(i, 1_000.0, 10_000.0))
                        .collect(),
                );
                for id in 0..800u64 {
                    let node = (id % 30) as usize;
                    pool.nodes[node].add_replica(ReplicaLoad::from_total(
                        id,
                        (id % 50) as u32,
                        id,
                        LoadVector::flat(rng.gen_range(5.0..40.0)),
                        0.7,
                        rng.gen_range(50.0..400.0),
                    ));
                }
                pool
            },
            |mut pool| {
                black_box(Rescheduler::default().reschedule_round(&mut pool));
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_zipf(c: &mut Criterion) {
    let zipf = Zipf::new(1_000_000, 0.99);
    let mut rng = StdRng::seed_from_u64(2);
    c.bench_function("zipf_sample_1m_keys", |b| {
        b.iter(|| black_box(zipf.sample(&mut rng)));
    });
}

criterion_group!(
    benches,
    bench_caches,
    bench_wfq,
    bench_quota,
    bench_pipeline,
    bench_obs,
    bench_resp,
    bench_lavastore,
    bench_encoding,
    bench_wal,
    bench_forecast,
    bench_rescheduler,
    bench_zipf
);
criterion_main!(benches);
