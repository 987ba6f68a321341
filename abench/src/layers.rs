//! The per-layer trace: an in-process replay of the workload's op stream
//! through each layer's public functions, with a span around every call.
//!
//! This is the only file that names an `abase_*` crate, so it is the only
//! one a change of a Rust signature can break; the end-to-end numbers come
//! from the std-only modules. README.md lists the functions called here: a
//! change that touches one of them edits this file and that list.

use crate::client::{Conn, SAT_DEPTH};
use crate::gen::{encode_op, fill_value, reply_ok, Inputs, Op, OpGen, Rng, Workload, CONNS};
use crate::resp;
use crate::server::ScratchDir;
use crate::stats::percentile_sorted;
use crate::Metric;
use abase_cache::ShardedCache;
use abase_core::{RespServer, TableEngine};
use abase_lavastore::memtable::MemTable;
use abase_lavastore::record::Record;
use abase_lavastore::sstable::{SstReader, SstWriter};
use abase_lavastore::wal::{Wal, WalOptions};
use abase_lavastore::{BlockCache, Db, DbConfig};
use abase_obs::{Span, Stage};
use abase_proto::{Command, RespValue};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Ops of the measured replay; every other chunk of them is traced.
const REPLAY_OPS: usize = 64 << 10;
const SMOKE_REPLAY_OPS: usize = 4 << 10;
/// Flights per chunk: tracing is switched per chunk, so drift in the store's
/// state lands on both sides of the overhead comparison.
const CHUNK_FLIGHTS: usize = 64;
/// Records in the stand-alone memtable, WAL and SST the probes run against.
const PROBE_RECORDS: u32 = 20_000;
const SMOKE_PROBE_RECORDS: u32 = 2_000;
/// Calls under one probe span: two clock reads per call would rival the
/// call itself, so a span covers a batch and the metric is its share.
const PROBE_BATCH: usize = 64;
const PING_ROUND_TRIPS: usize = 2_000;
const BLOCK_BYTES: usize = 4 << 10;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Spans, kept in memory until the run ends.
#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    on: bool,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() as u32 - 1
    }

    fn close(&mut self, id: u32) {
        if id != NO_PARENT {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = call();
        self.close(id);
        out
    }

    /// Per span name: how many, and their total duration in ns.
    fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let slot = out.entry(s.name).or_default();
            slot.0 += 1;
            slot.1 += s.end_ns - s.start_ns;
        }
        out
    }

    fn dump(&self, path: &Path) -> Result<(), String> {
        let file =
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let mut write = || -> std::io::Result<()> {
            writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
            for (id, s) in self.spans.iter().enumerate() {
                let parent = if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                };
                writeln!(
                    out,
                    "{id}\t{parent}\t{}\t{}\t{}\t{}",
                    s.request, s.name, s.start_ns, s.end_ns
                )?;
            }
            out.flush()
        };
        write().map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// What the traced replay found.
#[derive(Debug)]
pub struct TraceReport {
    pub metrics: Vec<Metric>,
    pub span_file: PathBuf,
    pub attempted: u64,
    pub failed: u64,
}

/// The engine configuration `abase-server` derives from its environment.
fn db_config(w: &Workload) -> DbConfig {
    let mut config = DbConfig::default();
    if let Some(bytes) = w.cache_bytes {
        config.block_cache_bytes = bytes;
    }
    config
}

struct Replay {
    engine: TableEngine,
    tracer: Tracer,
    wire: Vec<u8>,
    scratch: Vec<u8>,
    reply: Vec<u8>,
    ops: Vec<Op>,
    next_request: u64,
    attempted: u64,
    failed: u64,
}

impl Replay {
    /// One flight of `ops` from `tenant`, the way a connection's read event
    /// serves it: one `parse_batch`, then per frame `from_resp`, the engine,
    /// and `encode`. Every second request calls the store directly instead
    /// of through `TableEngine::execute`, so the two means differ by the
    /// engine's own work.
    fn flight(&mut self, tenant: u32, value_len: usize) -> Result<(), String> {
        self.wire.clear();
        for &op in &self.ops {
            encode_op(&mut self.wire, &mut self.scratch, op, tenant, value_len);
        }
        let first = self.next_request;
        let wire = &self.wire;
        let (batch, status) = self.tracer.span("proto.parse", NO_PARENT, first, || {
            RespValue::parse_batch(wire)
        });
        status.map_err(|e| format!("replay: parse_batch: {e}"))?;
        if batch.frames.len() != self.ops.len() || batch.consumed != self.wire.len() {
            return Err("replay: parse_batch did not return the flight".into());
        }
        for (i, frame) in batch.frames.iter().enumerate() {
            let op = self.ops[i];
            let request = self.next_request;
            self.next_request += 1;
            let root = self.tracer.open("request", NO_PARENT, request);
            let command = self
                .tracer
                .span("proto.command", root, request, || Command::from_resp(frame))
                .map_err(|e| format!("replay: from_resp: {e}"))?;
            let reply = if request.is_multiple_of(2) {
                let engine = &self.engine;
                self.tracer
                    .span("core.execute", root, request, || {
                        engine.execute(tenant, &command, 0)
                    })
                    .map_err(|e| format!("replay: execute: {e}"))?
                    .reply
            } else {
                self.direct(tenant, &command, root, request)?
            };
            self.reply.clear();
            let out = &mut self.reply;
            self.tracer
                .span("proto.encode", root, request, || reply.encode(out));
            self.tracer.close(root);
            let ok = resp::classify(&self.reply)
                .is_ok_and(|r| reply_ok(op, r, &mut self.scratch, tenant, value_len));
            self.attempted += 1;
            self.failed += u64::from(!ok);
        }
        Ok(())
    }

    /// What `TableEngine::execute` does for GET and SET, with the store call
    /// under its own span.
    fn direct(
        &mut self,
        tenant: u32,
        command: &Command,
        root: u32,
        request: u64,
    ) -> Result<RespValue, String> {
        let db = self.engine.db();
        match command {
            Command::Get { key } => {
                let storage_key = TableEngine::storage_string_key(tenant, key);
                let read = self
                    .tracer
                    .span("lavastore.get", root, request, || db.get(&storage_key, 0))
                    .map_err(|e| format!("replay: get: {e}"))?;
                Ok(RespValue::Bulk(read.value))
            }
            Command::Set { key, value, .. } => {
                let storage_key = TableEngine::storage_string_key(tenant, key);
                self.tracer
                    .span("lavastore.put", root, request, || {
                        db.put(&storage_key, value, None, 0)
                    })
                    .map_err(|e| format!("replay: put: {e}"))?;
                Ok(RespValue::ok())
            }
            other => Err(format!(
                "replay: the op stream holds only GET and SET, not {}",
                other.name()
            )),
        }
    }
}

/// Replay `w`'s op stream in-process under spans, probe the layers below the
/// store's public surface on stand-alone instances, and derive the
/// trace-side metrics. `rtt_p50_us` is the socket run's depth-1 round trip,
/// which the layer sum is compared with.
pub fn trace(
    w: Workload,
    seed: u64,
    smoke: bool,
    target: &Path,
    rtt_p50_us: f64,
) -> Result<TraceReport, String> {
    let dir = ScratchDir::new(target, "trace")?;
    let db_dir = dir.path().join("db");
    let inputs = Inputs::new(w, seed);
    let mut gens: Vec<OpGen<'_>> = (0..CONNS).map(|c| OpGen::new(&inputs, c)).collect();
    let config = db_config(&w);
    let engine = TableEngine::open(&db_dir, config).map_err(|e| format!("open engine: {e}"))?;
    let mut replay = Replay {
        engine,
        tracer: Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            on: false,
        },
        wire: Vec::new(),
        scratch: Vec::new(),
        reply: Vec::new(),
        ops: Vec::new(),
        next_request: 0,
        attempted: 0,
        failed: 0,
    };

    // Load and warm pass, as the socket run does them, untraced.
    for gen in &mut gens {
        for first in (0..w.records).step_by(SAT_DEPTH) {
            replay.ops.clear();
            let keys = first..w.records.min(first + SAT_DEPTH as u32);
            replay.ops.extend(keys.map(|k| gen.load_op(k)));
            replay.flight(gen.tenant, w.value_len)?;
        }
    }
    let mut turn = 0usize;
    let mut next_flight = |replay: &mut Replay| {
        let gen = &mut gens[turn % CONNS];
        turn += 1;
        replay.ops.clear();
        replay.ops.extend((0..SAT_DEPTH).map(|_| gen.next_op()));
        replay.flight(gen.tenant, w.value_len)
    };
    for _ in 0..(w.warm_ops as usize * CONNS).div_ceil(SAT_DEPTH) {
        next_flight(&mut replay)?;
    }

    // Measured replay: chunks alternate between untraced and traced.
    let replay_ops = if smoke { SMOKE_REPLAY_OPS } else { REPLAY_OPS };
    let chunks = replay_ops / (CHUNK_FLIGHTS * SAT_DEPTH);
    let mut wall_ns = [0u64; 2];
    for chunk in 0..chunks {
        let traced = chunk % 2 == 1;
        replay.tracer.on = traced;
        let began = Instant::now();
        for _ in 0..CHUNK_FLIGHTS {
            next_flight(&mut replay)?;
        }
        wall_ns[usize::from(traced)] += began.elapsed().as_nanos() as u64;
    }
    replay.tracer.on = true;
    let Replay {
        engine,
        mut tracer,
        attempted,
        failed,
        ..
    } = replay;

    // Reopen: WAL replay and SST open.
    drop(engine);
    let reopened = tracer
        .span("lavastore.open", NO_PARENT, 0, || Db::open(&db_dir, config))
        .map_err(|e| format!("reopen: {e}"))?;
    drop(reopened);

    let probe_records = if smoke {
        SMOKE_PROBE_RECORDS
    } else {
        PROBE_RECORDS
    };
    let probe_failed = probe_layers(&mut tracer, dir.path(), w.value_len, probe_records, seed)?;
    let ping_us = probe_ping(&mut tracer, dir.path())?;

    // Metrics.
    let totals = tracer.totals();
    let mean = |name: &str| {
        let (count, total) = totals.get(name).copied().unwrap_or_default();
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    };
    let traced_ops = totals.get("request").map_or(0, |t| t.0) as f64;
    let per_op = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64) / traced_ops.max(1.0);
    let per_call = |name: &str| mean(name) / PROBE_BATCH as f64;
    // The engine's own share: mean execute minus the mean direct store call
    // of the same op mix (the direct half of the stream has the same mix).
    let direct_calls = (totals.get("lavastore.get").map_or(0, |t| t.0)
        + totals.get("lavastore.put").map_or(0, |t| t.0)) as f64;
    let direct_ns = (totals.get("lavastore.get").map_or(0, |t| t.1)
        + totals.get("lavastore.put").map_or(0, |t| t.1)) as f64;
    let store_mean = if direct_calls > 0.0 {
        direct_ns / direct_calls
    } else {
        0.0
    };
    let execute_self = (mean("core.execute") - store_mean).max(0.0);
    let overhead = if wall_ns[0] > 0 {
        wall_ns[1] as f64 / wall_ns[0] as f64 - 1.0
    } else {
        0.0
    };
    // One request's way through the layers, beside what a loopback round
    // trip with no engine costs.
    let layer_sum_us = (per_op("proto.parse")
        + mean("proto.command")
        + mean("core.execute")
        + mean("proto.encode"))
        / 1e3;
    let sum_vs_total = if rtt_p50_us > 0.0 {
        (layer_sum_us + ping_us) / rtt_p50_us
    } else {
        0.0
    };
    let metrics = vec![
        Metric::new("proto.parse_ns", per_op("proto.parse"), "ns"),
        Metric::new("proto.command_ns", mean("proto.command"), "ns"),
        Metric::new("proto.encode_ns", mean("proto.encode"), "ns"),
        Metric::new("core.execute_ns", mean("core.execute"), "ns"),
        Metric::new("core.execute_self_ns", execute_self, "ns"),
        Metric::new("core.ping_rtt_us", ping_us, "us"),
        Metric::new("lavastore.get_ns", mean("lavastore.get"), "ns"),
        Metric::new("lavastore.put_ns", mean("lavastore.put"), "ns"),
        Metric::new(
            "lavastore.memtable_apply_ns",
            per_call("lavastore.memtable_apply"),
            "ns",
        ),
        Metric::new(
            "lavastore.memtable_get_ns",
            per_call("lavastore.memtable_get"),
            "ns",
        ),
        Metric::new(
            "lavastore.wal_append_ns",
            per_call("lavastore.wal_append"),
            "ns",
        ),
        Metric::new(
            "lavastore.sst_get_cached_ns",
            per_call("lavastore.sst_get_cached"),
            "ns",
        ),
        Metric::new(
            "lavastore.sst_get_disk_ns",
            per_call("lavastore.sst_get_disk"),
            "ns",
        ),
        Metric::new(
            "lavastore.sst_get_bloom_neg_ns",
            per_call("lavastore.sst_get_bloom_neg"),
            "ns",
        ),
        Metric::new("lavastore.open_ms", mean("lavastore.open") / 1e6, "ms"),
        Metric::new("cache.get_hit_ns", per_call("cache.get_hit"), "ns"),
        Metric::new(
            "cache.insert_evict_ns",
            per_call("cache.insert_evict"),
            "ns",
        ),
        Metric::new("obs.span_ns", per_call("obs.span"), "ns"),
        Metric::new("trace.overhead_frac", overhead, "1"),
        Metric::new("trace.sum_vs_total_frac", sum_vs_total, "1"),
    ];

    let out_dir = target.join("abench-out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let span_file = out_dir.join(format!("spans-{}-{seed}.tsv", w.name));
    tracer.dump(&span_file)?;
    Ok(TraceReport {
        metrics,
        span_file,
        attempted,
        failed: failed + probe_failed,
    })
}

/// Run `call` `calls` times under spans of [`PROBE_BATCH`] calls each.
fn probe(tracer: &mut Tracer, name: &'static str, calls: usize, mut call: impl FnMut(usize)) {
    for batch in 0..calls / PROBE_BATCH {
        let id = tracer.open(name, NO_PARENT, batch as u64);
        for i in batch * PROBE_BATCH..(batch + 1) * PROBE_BATCH {
            call(i);
        }
        tracer.close(id);
    }
}

/// The layers under `Db`'s surface, each on its own instance shaped like the
/// workload's records. Returns how many lookups gave a wrong answer.
fn probe_layers(
    tracer: &mut Tracer,
    dir: &Path,
    value_len: usize,
    n: u32,
    seed: u64,
) -> Result<u64, String> {
    let lava = |e: abase_lavastore::Error| format!("probe: {e}");
    let mut value = Vec::new();
    let keys: Vec<Vec<u8>> = (0..n)
        .map(|k| TableEngine::storage_string_key(1, format!("user{k:08}").as_bytes()))
        .collect();
    let records: Vec<Record> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            fill_value(&mut value, 1, i as u32, 1, value_len);
            Record::put(key.clone(), value.clone(), i as u64 + 1, None)
        })
        .collect();
    let mut rng = Rng::new(seed ^ 0x9E0B);
    let picks: Vec<usize> = (0..n).map(|_| rng.below(u64::from(n)) as usize).collect();
    let calls = n as usize;
    let mut wrong = 0u64;

    // Memtable.
    let mut memtable = MemTable::new();
    probe(tracer, "lavastore.memtable_apply", calls, |i| {
        memtable.apply(&records[picks[i]])
    });
    probe(tracer, "lavastore.memtable_get", calls, |i| {
        std::hint::black_box(memtable.get(&keys[picks[i]]));
    });

    // WAL, with the shipped group-commit settings and no fsync.
    let wal = Wal::create(&dir.join("probe.wal"), 1, 1, WalOptions::default()).map_err(lava)?;
    let mut to_append = records.clone();
    let mut append_failed = 0u64;
    probe(tracer, "lavastore.wal_append", calls, |i| {
        append_failed += u64::from(wal.append_next(&mut to_append[i]).is_err());
    });
    wrong += append_failed;

    // One SST of the sorted records, read through a warm cache, with no
    // cache (the OS page cache stands in for the device), and for keys the
    // bloom filter turns away.
    let sst = dir.join("probe.sst");
    let mut writer = SstWriter::create(
        &sst,
        calls,
        DbConfig::default().bloom_bits_per_key,
        BLOCK_BYTES,
    )
    .map_err(lava)?;
    for record in &records {
        writer.add(record).map_err(lava)?;
    }
    writer.finish().map_err(lava)?;
    let cached =
        SstReader::open_cached(&sst, Some(Arc::new(BlockCache::new(64 << 20)))).map_err(lava)?;
    for key in &keys {
        cached.get(key).map_err(lava)?;
    }
    let mut lookup = |tracer: &mut Tracer, name, reader: &SstReader| {
        probe(tracer, name, calls, |i| {
            let found = reader
                .get(&keys[picks[i]])
                .is_ok_and(|(record, _)| record.is_some());
            wrong += u64::from(!found);
        });
    };
    lookup(tracer, "lavastore.sst_get_cached", &cached);
    let uncached = SstReader::open(&sst).map_err(lava)?;
    lookup(tracer, "lavastore.sst_get_disk", &uncached);
    // `<key>x` sorts between two stored keys: in range, and absent.
    let absent: Vec<Vec<u8>> = keys.iter().map(|k| [k.as_slice(), b"x"].concat()).collect();
    probe(tracer, "lavastore.sst_get_bloom_neg", calls, |i| {
        let found = cached
            .get(&absent[picks[i]])
            .is_ok_and(|(record, _)| record.is_some());
        wrong += u64::from(found);
    });

    // The sharded SA-LRU under the block cache: hits on a cache that holds
    // everything, and inserts into one that is full.
    let block: Arc<[u8]> = vec![0u8; BLOCK_BYTES].into();
    let blocks = 1024u64;
    let roomy: ShardedCache<(u64, u64), Arc<[u8]>> =
        ShardedCache::new(blocks as usize * BLOCK_BYTES * 4, 16);
    let full: ShardedCache<(u64, u64), Arc<[u8]>> =
        ShardedCache::new(blocks as usize * BLOCK_BYTES, 16);
    for i in 0..blocks {
        roomy.insert((1, i), Arc::clone(&block), BLOCK_BYTES);
        full.insert((1, i), Arc::clone(&block), BLOCK_BYTES);
    }
    probe(tracer, "cache.get_hit", calls, |i| {
        wrong += u64::from(roomy.get(&(1, picks[i] as u64 % blocks)).is_none());
    });
    probe(tracer, "cache.insert_evict", calls, |i| {
        std::hint::black_box(full.insert((2, i as u64), Arc::clone(&block), BLOCK_BYTES));
    });

    // The server's per-command span: begin, four stage changes, finish.
    probe(tracer, "obs.span", calls * 4, |_| {
        let mut span = Span::begin();
        span.enter(Stage::Admission);
        span.enter(Stage::Engine);
        span.enter(Stage::ReplicationWait);
        span.enter(Stage::Respond);
        std::hint::black_box(span.finish());
    });
    Ok(wrong)
}

/// Median PING round trip over loopback to an in-process `RespServer`: the
/// front end with no engine work, us. [`CONNS`] connections ping at once, as
/// in the socket run's depth-1 phase, so both vCPUs stay busy.
fn probe_ping(tracer: &mut Tracer, dir: &Path) -> Result<f64, String> {
    let engine = TableEngine::open(dir.join("ping-db"), DbConfig::default())
        .map_err(|e| format!("ping: {e}"))?;
    let server = RespServer::bind(Arc::new(engine), "127.0.0.1:0")
        .map_err(|e| format!("ping: bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("ping: {e}"))?
        .to_string();
    let shutdown = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.run());
    let epoch = tracer.epoch;
    let round_trips = |addr: &str| -> Result<Vec<(u64, u64)>, String> {
        let mut conn = Conn::connect(addr, 0)?;
        let mut ping = Vec::new();
        resp::encode(&mut ping, &[b"PING"]);
        let mut spans = Vec::with_capacity(PING_ROUND_TRIPS);
        for _ in 0..PING_ROUND_TRIPS {
            let start = epoch.elapsed().as_nanos() as u64;
            conn.send(&ping)?;
            if !matches!(conn.reply()?, resp::Reply::Simple(b"PONG")) {
                return Err("ping: not PONG".into());
            }
            spans.push((start, epoch.elapsed().as_nanos() as u64));
        }
        Ok(spans)
    };
    let results: Vec<Result<Vec<(u64, u64)>, String>> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CONNS).map(|_| s.spawn(|| round_trips(&addr))).collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err("ping: client thread panicked".into()))
            })
            .collect()
    });
    shutdown.shutdown();
    match serving.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("ping: server: {e}")),
        Err(_) => return Err("ping: server thread panicked".into()),
    }
    let mut ns = Vec::new();
    for (conn, spans) in results.into_iter().enumerate() {
        for (i, (start_ns, end_ns)) in spans?.into_iter().enumerate() {
            tracer.spans.push(SpanRec {
                name: "core.ping_rtt",
                start_ns,
                end_ns,
                parent: NO_PARENT,
                request: (conn * PING_ROUND_TRIPS + i) as u64,
            });
            ns.push(end_ns - start_ns);
        }
    }
    ns.sort_unstable();
    Ok(percentile_sorted(&ns, 0.5).unwrap_or(0) as f64 / 1e3)
}
