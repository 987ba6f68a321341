//! YCSB-style macro benchmark: the six core workloads (A–F) against an
//! in-process `ServingNode`, run twice — block cache **on** vs **off** — to
//! put a number on the read-path win from the sharded SA-LRU block cache.
//!
//! Workload mixes (key popularity is zipfian, s = 0.99, YCSB's default):
//!
//! | workload | mix                                                    |
//! |----------|--------------------------------------------------------|
//! | A        | 50% GET / 50% SET (update heavy)                       |
//! | B        | 95% GET / 5% SET (read mostly)                         |
//! | C        | 100% GET (read only)                                   |
//! | D        | 95% GET over a *latest* distribution / 5% insert       |
//! | E        | 95% HGETALL over hash bins (short scans) / 5% HSET     |
//! | F        | 50% GET / 50% GET+SET of the same key (read-mod-write) |
//!
//! Both arms share one storage layout (same load, flush, and compaction
//! schedule); the only difference is `DbConfig::block_cache_bytes`.
//!
//! Methodology notes, in the interest of measuring the *engine's* read path
//! rather than the harness:
//!
//! - Clients are pipelined (depth-64 flights over `threads` connections) and
//!   every flight's wire bytes are **pre-generated before the clock starts**,
//!   so the timed loop is write/drain only. Latency percentiles are per
//!   flight round trip, not per command.
//! - Reply draining uses a zero-allocation RESP frame scanner (it counts and
//!   validates frames without materializing values), so client-side parsing
//!   does not dilute the server-side difference on small machines.
//! - Workload D's "latest" reads sample backwards from the insert high-water
//!   mark as of generation time, and D flushes the memtable every
//!   `flush_every` inserts, so recency reads exercise the block layer the
//!   way a continuously-flushing production engine would.
//! - The memtable is flushed after each warm pass, so measured reads hit
//!   SSTs (cache or disk), not the write buffer.
//!
//! A full run writes `BENCH_ycsb.json` at the repo root; a smoke run shrinks
//! the dataset and op counts. Every run checks the facts `check` names.

use crate::{banner, client, encode_into, publish};
use abase_core::{NodeRole, ServingNode};
use abase_lavastore::{Db, DbConfig};
use abase_util::TestDir;
use abase_workload::dist::Zipf;
use rand::{Rng, SeedableRng, StdRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const WORKLOADS: [(char, &str); 6] = [
    ('A', "50% read / 50% update"),
    ('B', "95% read / 5% update"),
    ('C', "100% read"),
    ('D', "95% read-latest / 5% insert"),
    ('E', "95% scan (HGETALL bin) / 5% insert (HSET)"),
    ('F', "50% read / 50% read-modify-write"),
];
const ZIPF_S: f64 = 0.99;
const FIELDS_PER_BIN: u64 = 10;

/// Everything that scales between the full run and the CI smoke run.
struct Sizes {
    records: usize,
    ops: usize,
    value_bytes: usize,
    threads: usize,
    depth: usize,
    bins: usize,
    cache_bytes: usize,
    block_bytes: usize,
    memtable_bytes: usize,
    flush_every: u64,
}

impl Sizes {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                records: 2_000,
                ops: 1_000,
                value_bytes: 64,
                threads: 2,
                depth: 16,
                bins: 50,
                cache_bytes: 8 << 20,
                block_bytes: 8 << 10,
                memtable_bytes: 64 << 10,
                flush_every: 16,
            }
        } else {
            Self {
                records: 50_000,
                // YCSB-standard small records; the data-block size is the
                // read-path unit of work, so blocks are sized like an
                // analytics-leaning store (64 KiB) and records stay small.
                ops: 40_000,
                value_bytes: 100,
                threads: 2,
                depth: 64,
                bins: 500,
                cache_bytes: 64 << 20,
                block_bytes: 64 << 10,
                memtable_bytes: 8 << 20,
                flush_every: 512,
            }
        }
    }
}

/// State shared by every client thread of one arm: the key-popularity
/// scramble, the samplers, and the insert high-water marks.
struct Shared {
    /// Maps zipf rank -> key id, so the hot set is scattered across the
    /// keyspace (YCSB hashes ranks for the same reason).
    perm: Vec<u32>,
    zipf: Zipf,
    zipf_bins: Zipf,
    /// Next key id for workload-D inserts; doubles as the recency
    /// high-water mark for its "latest" reads.
    next_insert: AtomicU64,
    /// Next field id for workload-E inserts.
    next_field: AtomicU64,
    /// Workload-D inserts since start, for the flush cadence.
    insert_count: AtomicU64,
    flush_every: u64,
}

/// One pre-generated pipelined flight: raw wire bytes, the reply-frame count
/// to drain, and whether a memtable flush follows (workload D's cadence).
struct Flight {
    bytes: Vec<u8>,
    expect: usize,
    flush_after: bool,
}

#[derive(Debug, Clone)]
struct ArmRun {
    ops_per_sec: f64,
    p50_micros: u64,
    p99_micros: u64,
    cache_hits: u64,
    cache_misses: u64,
    hit_rate: f64,
    /// Point reads a cached row answered (the cache's other kind of entry;
    /// `cache_hits`/`hit_rate` count blocks).
    row_hits: u64,
    disk_block_reads: u64,
}

/// Every workload ran, in order, in both arms, each with positive ops/s and
/// `0 < p50 <= p99`; the cache-off arm served no block or row hit; the
/// warmed cache-on arm of workload C (read only) served block hits.
fn check(off: &[ArmRun], on: &[ArmRun]) -> Result<(), String> {
    let n = WORKLOADS.len();
    ensure!(off.len() == n && on.len() == n, "not all {n} workloads ran in both arms");
    for (i, &(w, _)) in WORKLOADS.iter().enumerate() {
        for (arm, r) in [("cache_off", &off[i]), ("cache_on", &on[i])] {
            let timed = r.p99_micros >= r.p50_micros && r.p50_micros > 0;
            ensure!(r.ops_per_sec > 0.0 && timed, "{w} {arm} stalled or mistimed: {r:?}");
        }
        let off = &off[i];
        ensure!(off.cache_hits == 0 && off.row_hits == 0, "{w} cache_off hit: {off:?}");
    }
    let c = &on[WORKLOADS.iter().position(|&(w, _)| w == 'C').expect("C")];
    ensure!(c.hit_rate > 0.0, "warm C cache_on served no block hit: {c:?}");
    Ok(())
}

/// Run every workload with the cache off, then on; check, and publish.
pub fn run(smoke: bool) -> Result<(), String> {
    banner(
        "YCSB",
        "YCSB A-F against the RESP server: block cache on vs off",
        "paper 4.4: SA-LRU block caching carries the read path; warm B/C/D should clear 2x",
    );
    let sizes = Sizes::new(smoke);
    println!(
        "records={} value={}B ops/workload={} threads={} depth={} cache={}MiB block={}KiB",
        sizes.records,
        sizes.value_bytes,
        sizes.ops,
        sizes.threads,
        sizes.depth,
        sizes.cache_bytes >> 20,
        sizes.block_bytes >> 10
    );

    let off = run_arm("cache_off", 0, &sizes);
    let on = run_arm("cache_on", sizes.cache_bytes, &sizes);

    let mut rows = Vec::new();
    for (i, &(w, mix)) in WORKLOADS.iter().enumerate() {
        let speedup = on[i].ops_per_sec / off[i].ops_per_sec;
        println!(
            "{w}: off {:>9.0} ops/s  on {:>9.0} ops/s  ({speedup:.2}x)  hit rate {:.1}%",
            off[i].ops_per_sec,
            on[i].ops_per_sec,
            on[i].hit_rate * 100.0
        );
        rows.push(format!(
            "    {{\"workload\": \"{w}\", \"mix\": \"{mix}\", \"speedup\": {speedup:.3}, \
             \"arms\": [\n{},\n{}\n    ]}}",
            arm_json("cache_off", &off[i]),
            arm_json("cache_on", &on[i])
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"ycsb\",\n  \"smoke\": {smoke},\n  \"records\": {},\n  \
         \"value_bytes\": {},\n  \"ops_per_workload\": {},\n  \"threads\": {},\n  \
         \"pipeline_depth\": {},\n  \"block_bytes\": {},\n  \"zipf_s\": {ZIPF_S},\n  \
         \"workloads\": [\n{}\n  ]\n}}\n",
        sizes.records,
        sizes.value_bytes,
        sizes.ops,
        sizes.threads,
        sizes.depth,
        sizes.block_bytes,
        rows.join(",\n")
    );
    check(&off, &on)?;
    publish("ycsb", &json, smoke)
}

fn arm_json(arm: &str, r: &ArmRun) -> String {
    format!(
        "      {{\"arm\": \"{arm}\", \"ops_per_sec\": {:.1}, \"p50_micros\": {}, \
         \"p99_micros\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
         \"hit_rate\": {:.4}, \"row_hits\": {}, \"disk_block_reads\": {}}}",
        r.ops_per_sec,
        r.p50_micros,
        r.p99_micros,
        r.cache_hits,
        r.cache_misses,
        r.hit_rate,
        r.row_hits,
        r.disk_block_reads
    )
}

/// One arm: fresh store, identical load + flush + compaction, then a warmed,
/// timed pass of every workload in order.
fn run_arm(arm: &'static str, cache_bytes: usize, sizes: &Sizes) -> Vec<ArmRun> {
    let dir = TestDir::new(&format!("ycsb-{arm}"));
    let config = DbConfig {
        block_bytes: sizes.block_bytes,
        memtable_bytes: sizes.memtable_bytes,
        block_cache_bytes: cache_bytes,
        ..DbConfig::default()
    };
    let node = ServingNode::open("127.0.0.1:0", dir.path(), config, NodeRole::Plain).unwrap();
    let db = node.engine().db();
    let addr = node.local_addr();

    load(addr, sizes);
    // Settle the load into sorted, immutable SSTs so every workload starts
    // from the same on-disk layout and reads actually reach the block layer.
    db.flush().unwrap();
    db.compact_to_quiescence(0).unwrap();

    let shared = Arc::new(Shared {
        perm: scramble(sizes.records),
        zipf: Zipf::new(sizes.records, ZIPF_S),
        zipf_bins: Zipf::new(sizes.bins, ZIPF_S),
        next_insert: AtomicU64::new(sizes.records as u64),
        next_field: AtomicU64::new(FIELDS_PER_BIN),
        insert_count: AtomicU64::new(0),
        flush_every: sizes.flush_every,
    });

    let mut results = Vec::new();
    for (i, &(w, _)) in WORKLOADS.iter().enumerate() {
        let seed = 0xABA5_E000 + i as u64;
        // Warm pass: fills the block cache (and the OS page cache, for the
        // off arm — both arms measure warm steady state). Discarded.
        drive(addr, &db, w, sizes, &shared, sizes.ops / 4, seed ^ 0x5EED);
        // Empty the write buffer so measured reads are served by SSTs
        // (through the cache, when there is one), not the memtable.
        db.flush().unwrap();
        let (cache_before, disk_before) = counters(&db);
        let (ops_per_sec, mut lat) = drive(addr, &db, w, sizes, &shared, sizes.ops, seed);
        let (cache_after, disk_after) = counters(&db);
        lat.sort_unstable();
        let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
        let (hits, misses, row_hits) = (
            cache_after.0 - cache_before.0,
            cache_after.1 - cache_before.1,
            cache_after.2 - cache_before.2,
        );
        results.push(ArmRun {
            ops_per_sec,
            p50_micros: pct(0.50),
            p99_micros: pct(0.99),
            cache_hits: hits,
            cache_misses: misses,
            hit_rate: hits as f64 / (hits + misses).max(1) as f64,
            row_hits,
            disk_block_reads: disk_after - disk_before,
        });
    }
    node.shutdown().unwrap();
    results
}

/// ((block hits, block misses, row hits), disk block reads) — cumulative
/// counters.
fn counters(db: &Db) -> ((u64, u64, u64), u64) {
    let cache = db
        .block_cache()
        .map(|c| {
            let s = c.stats();
            (s.hits, s.misses, c.row_stats().hits)
        })
        .unwrap_or((0, 0, 0));
    (cache, db.stats().block_reads)
}

/// A seeded Fisher-Yates permutation of `0..n`: rank -> key id.
fn scramble(n: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(0x5CAB_B1E5);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..i + 1));
    }
    perm
}

/// Run `ops` operations of workload `w` across `sizes.threads` pipelined
/// connections. Flights are generated before the clock starts; the timed
/// loop is pure write/drain. Returns (ops/s, per-flight latencies, micros).
fn drive(
    addr: SocketAddr,
    db: &Arc<Db>,
    w: char,
    sizes: &Sizes,
    shared: &Arc<Shared>,
    ops: usize,
    seed: u64,
) -> (f64, Vec<u64>) {
    // Generation pass (untimed): every thread's flights, wire-ready.
    let plans: Vec<Vec<Flight>> = (0..sizes.threads)
        .map(|t| {
            let per = ops / sizes.threads + usize::from(t < ops % sizes.threads);
            let mut rng = StdRng::seed_from_u64(seed ^ ((t as u64 + 1) << 40));
            gen_flights(w, sizes, shared, per, &mut rng)
        })
        .collect();

    let started = Instant::now();
    let latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .into_iter()
            .map(|flights| {
                let db = Arc::clone(db);
                scope.spawn(move || {
                    let mut conn = client(addr);
                    let mut lat = Vec::with_capacity(flights.len());
                    let mut reply = Vec::new();
                    for flight in &flights {
                        let t0 = Instant::now();
                        conn.write_all(&flight.bytes).unwrap();
                        drain(&mut conn, flight.expect, &mut reply);
                        lat.push(t0.elapsed().as_micros() as u64);
                        if flight.flush_after {
                            db.flush().unwrap();
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    (ops as f64 / started.elapsed().as_secs_f64(), latencies)
}

/// Generate `per` ops of workload `w` as depth-`sizes.depth` flights.
fn gen_flights(
    w: char,
    sizes: &Sizes,
    shared: &Shared,
    per: usize,
    rng: &mut StdRng,
) -> Vec<Flight> {
    // D's "latest" reads sample backwards from the high-water mark as of
    // generation time — everything below it is durably applied before the
    // timed pass starts, so recency reads never chase in-flight inserts.
    let latest_floor = shared.next_insert.load(Ordering::Relaxed);
    let mut flights = Vec::with_capacity(per / sizes.depth + 1);
    let mut done = 0;
    while done < per {
        let n = sizes.depth.min(per - done);
        let mut flight = Flight {
            bytes: Vec::new(),
            expect: 0,
            flush_after: false,
        };
        for _ in 0..n {
            append_op(&mut flight, w, rng, shared, sizes, latest_floor);
        }
        flights.push(flight);
        done += n;
    }
    flights
}

/// Append one workload op's command(s) to the flight.
fn append_op(
    flight: &mut Flight,
    w: char,
    rng: &mut StdRng,
    shared: &Shared,
    sizes: &Sizes,
    latest_floor: u64,
) {
    let out = &mut flight.bytes;
    flight.expect += match w {
        'A' | 'B' | 'C' | 'F' => {
            let id = u64::from(shared.perm[shared.zipf.sample(rng)]);
            let key = user_key(id);
            if w == 'F' && rng.gen_bool(0.5) {
                // Read-modify-write: GET, then SET the mutated value back.
                encode_into(out, &["GET", &key]);
                encode_into(out, &["SET", &key, &value_for(id + 1, sizes.value_bytes)]);
                2
            } else {
                let read_frac = match w {
                    'A' => 0.5,
                    'B' => 0.95,
                    _ => 1.0,
                };
                if rng.gen_bool(read_frac) {
                    encode_into(out, &["GET", &key]);
                } else {
                    encode_into(out, &["SET", &key, &value_for(id, sizes.value_bytes)]);
                }
                1
            }
        }
        'D' => {
            if rng.gen_bool(0.05) {
                let id = shared.next_insert.fetch_add(1, Ordering::Relaxed);
                encode_into(
                    out,
                    &["SET", &user_key(id), &value_for(id, sizes.value_bytes)],
                );
                // Keep "latest" keys on disk: flush on a fixed insert cadence
                // so reads exercise the block layer, not the memtable.
                let inserted = shared.insert_count.fetch_add(1, Ordering::Relaxed) + 1;
                if inserted.is_multiple_of(shared.flush_every) {
                    flight.flush_after = true;
                }
            } else {
                let back = (shared.zipf.sample(rng) as u64).min(latest_floor - 1);
                encode_into(out, &["GET", &user_key(latest_floor - 1 - back)]);
            }
            1
        }
        'E' => {
            let bin = bin_key(shared.zipf_bins.sample(rng) as u64);
            if rng.gen_bool(0.05) {
                let f = shared.next_field.fetch_add(1, Ordering::Relaxed);
                encode_into(
                    out,
                    &[
                        "HSET",
                        &bin,
                        &format!("f{f}"),
                        &value_for(f, sizes.value_bytes),
                    ],
                );
            } else {
                encode_into(out, &["HGETALL", &bin]);
            }
            1
        }
        other => unreachable!("unknown workload {other}"),
    };
}

/// Load phase: `records` string keys plus `bins` hash bins of
/// `FIELDS_PER_BIN` fields each, pipelined 256 commands a flight over one
/// connection.
fn load(addr: SocketAddr, sizes: &Sizes) {
    let value = |id| value_for(id, sizes.value_bytes);
    let sets = (0..sizes.records as u64).map(|id| vec!["SET".into(), user_key(id), value(id)]);
    let hsets = (0..sizes.bins as u64).flat_map(|bin| {
        let field = move |f| vec!["HSET".into(), bin_key(bin), format!("f{f}"), value(f)];
        (0..FIELDS_PER_BIN).map(field)
    });
    let commands: Vec<Vec<String>> = sets.chain(hsets).collect();
    let (mut conn, mut reply) = (client(addr), Vec::new());
    for batch in commands.chunks(256) {
        let mut buf = Vec::new();
        for parts in batch {
            encode_into(&mut buf, &parts.iter().map(String::as_str).collect::<Vec<_>>());
        }
        conn.write_all(&buf).unwrap();
        drain(&mut conn, batch.len(), &mut reply);
    }
}

fn user_key(id: u64) -> String {
    format!("user{id:08}")
}

fn bin_key(bin: u64) -> String {
    format!("bin{bin:06}")
}

/// A deterministic value: the key id in hex, padded to `len` bytes.
fn value_for(id: u64, len: usize) -> String {
    let mut v = format!("{id:016x}");
    while v.len() < len {
        v.push('x');
    }
    v.truncate(len);
    v
}

/// Read until `expect` complete reply frames have arrived. Frames are
/// *scanned*, not parsed into values — the client must not spend its one
/// core allocating `RespValue`s while the server is the thing under test.
/// Panics on any RESP error frame (a failure must not be measured as work).
fn drain(conn: &mut TcpStream, expect: usize, buf: &mut Vec<u8>) {
    buf.clear();
    let mut off = 0;
    let mut got = 0;
    let mut chunk = [0u8; 64 * 1024];
    while got < expect {
        let k = conn.read(&mut chunk).unwrap();
        assert!(k > 0, "server closed with {} frames pending", expect - got);
        buf.extend_from_slice(&chunk[..k]);
        while got < expect {
            match skip_frame(&buf[off..]) {
                Some(n) => {
                    off += n;
                    got += 1;
                }
                None => break,
            }
        }
    }
    assert_eq!(off, buf.len(), "more reply bytes than commands in flight");
}

/// Length of the complete RESP frame at the head of `buf`, or `None` if the
/// frame is still partial. Panics on error frames and malformed input.
fn skip_frame(buf: &[u8]) -> Option<usize> {
    let head = find_crlf(buf)?;
    match buf.first()? {
        b'+' | b':' => Some(head + 2),
        b'-' => panic!(
            "server error reply: {}",
            String::from_utf8_lossy(&buf[1..head])
        ),
        b'$' => {
            let n = ascii_int(&buf[1..head]);
            if n < 0 {
                Some(head + 2)
            } else {
                let total = head + 2 + n as usize + 2;
                (buf.len() >= total).then_some(total)
            }
        }
        b'*' => {
            let n = ascii_int(&buf[1..head]);
            let mut off = head + 2;
            for _ in 0..n.max(0) {
                off += skip_frame(&buf[off..])?;
            }
            Some(off)
        }
        other => panic!("unexpected RESP frame byte {other:#x}"),
    }
}

/// Position of the first `\r\n` in `buf`, or `None`.
fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

fn ascii_int(digits: &[u8]) -> i64 {
    let parsed = std::str::from_utf8(digits).ok().and_then(|s| s.parse().ok());
    parsed.unwrap_or_else(|| panic!("bad RESP length {digits:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_refuses_each_doctored_fact() {
        let arm = |cache_hits, row_hits, hit_rate| ArmRun {
            ops_per_sec: 1e4,
            p50_micros: 100,
            p99_micros: 300,
            cache_hits,
            cache_misses: 10,
            hit_rate,
            row_hits,
            disk_block_reads: 10,
        };
        let n = WORKLOADS.len();
        crate::refuses_each(
            (vec![arm(0, 0, 0.0); n], vec![arm(30, 5, 0.75); n]),
            |(off, on)| check(off, on),
            &[
                |(off, _)| off.truncate(5),
                |(_, on)| on.truncate(5),
                |(off, _)| off[0].ops_per_sec = 0.0,
                |(_, on)| on[5].p50_micros = 0,
                |(_, on)| on[1].p99_micros = 50,
                |(off, _)| off[3].cache_hits = 1,
                |(off, _)| off[4].row_hits = 1,
                |(_, on)| on[2].hit_rate = 0.0,
            ],
        );
    }
}
