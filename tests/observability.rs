//! RESP-level observability: `INFO` section structure, monotone command
//! counters, `SLOWLOG` capture of a failpoint-delayed write, Prometheus
//! well-formedness of the `METRICS` exposition, and the families a
//! `ServingNode` exposes.
//!
//! The metrics registry is process-global and these tests run in parallel
//! threads, so every counter assertion is a `>=` delta (concurrent tests can
//! only push counts up, never down) and the failpoint rule in the slowlog
//! test is matched to this test's own data directory.

use abase::core::{NodeRole, ReplicationControl, RespServer, ServingNode, TableEngine};
use abase::lavastore::DbConfig;
use abase::obs::SlowLog;
use abase::proto::RespValue;
use abase::replication::{catchup, GroupConfig, ReplicaGroup, WriteConcern};
use abase::util::failpoint::{self, FaultAction};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn unique_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "abase-obs-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_server(tag: &str) -> (std::path::PathBuf, std::net::SocketAddr, Arc<SlowLog>) {
    let dir = unique_dir(tag);
    let engine = Arc::new(TableEngine::open(&dir, DbConfig::small_for_tests()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let slowlog = server.slowlog();
    std::thread::spawn(move || server.run());
    (dir, addr, slowlog)
}

fn roundtrip(stream: &mut TcpStream, request: &[u8]) -> RespValue {
    stream.write_all(request).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed unexpectedly");
        buf.extend_from_slice(&chunk[..n]);
        if let Some((value, _)) = RespValue::parse(&buf).unwrap() {
            return value;
        }
    }
}

fn cmd(parts: &[&str]) -> Vec<u8> {
    let mut out = format!("*{}\r\n", parts.len()).into_bytes();
    for p in parts {
        out.extend_from_slice(format!("${}\r\n{p}\r\n", p.len()).as_bytes());
    }
    out
}

fn bulk_text(value: RespValue) -> String {
    match value {
        RespValue::Bulk(Some(b)) => String::from_utf8(b.to_vec()).unwrap(),
        other => panic!("expected bulk string, got {other:?}"),
    }
}

#[test]
fn info_reports_every_section_with_expected_fields() {
    let (_dir, addr, _slowlog) = start_server("info");
    let mut client = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut client, &cmd(&["SET", "k", "v"])),
        RespValue::ok()
    );
    roundtrip(&mut client, &cmd(&["GET", "k"]));

    let info = bulk_text(roundtrip(&mut client, &cmd(&["INFO"])));
    for section in [
        "# Server",
        "# Replication",
        "# Keyspace",
        "# Stats",
        "# Latency",
    ] {
        assert!(info.contains(section), "INFO missing {section}:\n{info}");
    }
    // Server section: this very connection is counted.
    assert!(info.contains("connected_clients:"), "{info}");
    // Keyspace section reflects the SET.
    assert!(info.contains("puts:1"), "{info}");
    // Stats carries the raw registry dump.
    assert!(info.contains("abase_server_commands_total{SET}:"), "{info}");

    // A single section comes back alone.
    let server_only = bulk_text(roundtrip(&mut client, &cmd(&["INFO", "server"])));
    assert!(server_only.contains("# Server"), "{server_only}");
    assert!(!server_only.contains("# Keyspace"), "{server_only}");

    // An unreplicated node has no replication identity.
    let repl = bulk_text(roundtrip(&mut client, &cmd(&["INFO", "replication"])));
    assert!(repl.contains("role:none"), "{repl}");

    // Unknown sections are empty, not errors (Redis behaviour).
    assert_eq!(
        bulk_text(roundtrip(&mut client, &cmd(&["INFO", "nonsense"]))),
        ""
    );
}

#[test]
fn info_replication_on_a_leader_lists_followers_and_lsn() {
    let dir = unique_dir("info-leader");
    let group = ReplicaGroup::bootstrap(
        0,
        &dir,
        &[1, 2],
        GroupConfig::new(WriteConcern::Quorum, DbConfig::small_for_tests()),
    )
    .unwrap();
    let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
    let group = Arc::new(group.into_mutex());
    let server = RespServer::bind(engine, "127.0.0.1:0")
        .unwrap()
        .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    let ticker = Arc::clone(&group);
    std::thread::spawn(move || loop {
        let _ = catchup::tick(&*ticker);
        std::thread::sleep(std::time::Duration::from_millis(2));
    });

    let mut client = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut client, &cmd(&["SET", "k", "v"])),
        RespValue::ok()
    );
    let repl = bulk_text(roundtrip(&mut client, &cmd(&["INFO", "replication"])));
    assert!(repl.contains("role:leader"), "{repl}");
    assert!(!repl.contains("last_applied_lsn:0\r\n"), "{repl}");
    // The non-leader local replica shows up as a follower line.
    assert!(repl.contains("follower0:id=2,"), "{repl}");
}

#[test]
fn command_counters_and_ru_charges_grow_monotonically() {
    let baseline = abase::obs::snapshot();
    let (_dir, addr, _slowlog) = start_server("counters");
    let mut client = TcpStream::connect(addr).unwrap();
    // A distinct tenant keyed to this test so the RU assertion is exact-able
    // per label (still asserted `>=`: the registry is global).
    assert_eq!(
        roundtrip(&mut client, &cmd(&["AUTH", "4242"])),
        RespValue::ok()
    );
    let value = "v".repeat(10 << 10);
    for i in 0..5 {
        let key = format!("k{i}");
        assert_eq!(
            roundtrip(&mut client, &cmd(&["SET", &key, &value])),
            RespValue::ok()
        );
    }
    for _ in 0..3 {
        roundtrip(&mut client, &cmd(&["GET", "k0"]));
    }
    // The server replies before it records (metrics land just after the
    // response bytes), so poll briefly rather than racing the last command.
    let wanted: [(&str, f64); 5] = [
        ("abase_server_commands_total{SET}", 5.0),
        ("abase_server_commands_total{GET}", 3.0),
        ("abase_server_command_micros_count{SET}", 5.0),
        // §4.1: a write costs its payload in 2 KiB units per copy — 5 RU
        // for 10 KiB on a plain node; a read costs the bytes it returns,
        // 0.3 of that when a cache answers — at least 1.5 RU here. The
        // counters count whole RUs.
        ("abase_tenant_write_ru_total{4242}", 25.0),
        ("abase_tenant_read_ru_total{4242}", 4.0),
    ];
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let delta = loop {
        let delta = abase::obs::snapshot().delta(&baseline);
        if wanted.iter().all(|&(key, want)| delta.value(key) >= want) {
            break delta;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "counters never reached {wanted:?}; delta: {:?}",
            wanted
                .iter()
                .map(|&(key, _)| (key, delta.value(key)))
                .collect::<Vec<_>>()
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    };
    // Counters never go down: a second delta over a quiet span is >= 0
    // (Snapshot::delta saturates, so this checks recording kept running).
    let later = abase::obs::snapshot().delta(&baseline);
    assert!(
        later.value("abase_server_commands_total{SET}")
            >= delta.value("abase_server_commands_total{SET}")
    );
}

#[test]
fn slowlog_captures_a_failpoint_delayed_write() {
    let (dir, addr, slowlog) = start_server("slow");
    // Everything above 5 ms is slow; the delayed SET takes >= 20 ms.
    slowlog.set_threshold_micros(5_000);
    let mut client = TcpStream::connect(addr).unwrap();
    // Warm up the connection/store outside the fault window.
    assert_eq!(
        roundtrip(&mut client, &cmd(&["SET", "fast", "v"])),
        RespValue::ok()
    );
    let _guard = failpoint::ScopedInjector::enable();
    // Matcher pins the rule to THIS test's WAL (the context is the file
    // path) so parallel tests writing their own stores cannot consume it.
    let dir_tag = dir.display().to_string();
    failpoint::install("wal.append", Some(&dir_tag), FaultAction::DelayMs(20), 0, 1);
    assert_eq!(
        roundtrip(&mut client, &cmd(&["SET", "slowkey", "v"])),
        RespValue::ok()
    );
    assert_eq!(failpoint::fired("wal.append"), 1, "delay rule never fired");

    let RespValue::Integer(len) = roundtrip(&mut client, &cmd(&["SLOWLOG", "LEN"])) else {
        panic!("SLOWLOG LEN should return an integer");
    };
    assert!(len >= 1, "the delayed SET should have been captured");
    let got = roundtrip(&mut client, &cmd(&["SLOWLOG", "GET"]));
    let RespValue::Array(Some(entries)) = got else {
        panic!("SLOWLOG GET should return an array");
    };
    // Newest-first: find the delayed SET (a loaded machine may have tipped
    // other commands over the threshold too).
    let fields = entries
        .iter()
        .find_map(|e| match e {
            RespValue::Array(Some(fields)) if format!("{:?}", fields[3]).contains("slowkey") => {
                Some(fields)
            }
            _ => None,
        })
        .expect("no slowlog entry for the delayed SET");
    // [id, unix_secs, duration_micros, argv, stages]
    let RespValue::Integer(duration) = fields[2] else {
        panic!("duration field");
    };
    assert!(duration >= 20_000, "delayed SET took {duration}us");
    let argv = format!("{:?}", fields[3]);
    assert!(argv.contains("SET") && argv.contains("slowkey"), "{argv}");
    // The per-stage breakdown blames the engine stage (where the WAL append
    // sat in the injected delay), not parse/respond.
    let stages = format!("{:?}", fields[4]);
    assert!(stages.contains("engine="), "{stages}");

    // While the injector is live, the registry attributes the fired fault.
    let snap = abase::obs::snapshot();
    assert!(snap.value("failpoint_fired_total{wal.append}") >= 1.0);

    assert_eq!(
        roundtrip(&mut client, &cmd(&["SLOWLOG", "RESET"])),
        RespValue::ok()
    );
    assert_eq!(
        roundtrip(&mut client, &cmd(&["SLOWLOG", "LEN"])),
        RespValue::Integer(0)
    );
}

#[test]
fn metrics_exposition_is_well_formed_prometheus_text() {
    let (_dir, addr, _slowlog) = start_server("expo");
    let mut client = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut client, &cmd(&["SET", "k", "v"])),
        RespValue::ok()
    );
    roundtrip(&mut client, &cmd(&["GET", "k"]));

    let text = bulk_text(roundtrip(&mut client, &cmd(&["METRICS"])));
    abase::obs::validate(&text).expect("METRICS output failed exposition validation");
    for family in [
        "# TYPE abase_server_commands_total counter",
        "# TYPE abase_server_connections gauge",
        "# TYPE abase_server_command_micros histogram",
        "# TYPE abase_lava_wal_append_micros histogram",
    ] {
        assert!(text.contains(family), "missing `{family}` in:\n{text}");
    }
    // Served commands are visible as labelled samples.
    assert!(
        text.contains("abase_server_commands_total{command=\"SET\"}"),
        "{text}"
    );
}

/// A flush reports how long it held its stripe's write lock beside its whole
/// latency. The SST is written with the stripe serving, so the held part is
/// only a share of the whole.
#[test]
fn a_flush_reports_its_stall_beside_its_latency() {
    let (_dir, addr, _slowlog) = start_server("flush-stall");
    let mut client = TcpStream::connect(addr).unwrap();
    // The test config flushes a stripe at 1 KiB of memtable: these SETs
    // flush every stripe several times.
    let value = "v".repeat(100);
    for i in 0..200 {
        let key = format!("stall-{i:03}");
        assert_eq!(
            roundtrip(&mut client, &cmd(&["SET", &key, &value])),
            RespValue::ok()
        );
    }
    let text = bulk_text(roundtrip(&mut client, &cmd(&["METRICS"])));
    abase::obs::validate(&text).expect("METRICS output failed exposition validation");
    for family in ["abase_lava_flush_micros", "abase_lava_flush_stall_micros"] {
        let line = format!("# TYPE {family} histogram\n");
        assert!(text.contains(&line), "missing `{line}` in:\n{text}");
    }
    let sample = |key: &str| -> f64 {
        text.lines()
            .find_map(|line| line.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no sample {key} in:\n{text}"))
    };
    let stall = sample("abase_lava_flush_stall_micros_sum");
    let flush = sample("abase_lava_flush_micros_sum");
    assert!(
        sample("abase_lava_flush_stall_micros_count") > 0.0,
        "no flush recorded its stall"
    );
    assert!(
        stall < flush,
        "flushes held their stripes {stall} us of their {flush} us"
    );
}

/// What an operator scrapes from the assembly the server binary runs: every
/// family they read, with its type; histograms without a floor; and INFO and
/// SLOWLOG over the same connection.
#[test]
fn a_serving_node_exposes_every_family_an_operator_reads() {
    let dir = unique_dir("node-scrape");
    let node = ServingNode::open(
        "127.0.0.1:0",
        &dir,
        DbConfig::small_for_tests(),
        NodeRole::Plain,
    )
    .unwrap();
    let mut client = TcpStream::connect(node.local_addr()).unwrap();
    assert_eq!(
        roundtrip(&mut client, &cmd(&["SET", "scrape-key", "scrape-value"])),
        RespValue::ok()
    );
    // Enough single-command batches that one descheduled parse cannot carry
    // the mean below.
    for _ in 0..300 {
        roundtrip(&mut client, &cmd(&["GET", "scrape-key"]));
    }
    let text = bulk_text(roundtrip(&mut client, &cmd(&["METRICS"])));
    abase::obs::validate(&text).expect("METRICS output failed exposition validation");
    for (family, kind) in [
        ("abase_server_commands_total", "counter"),
        ("abase_server_connections", "gauge"),
        ("abase_server_command_micros", "histogram"),
        ("abase_server_stage_micros", "histogram"),
        ("abase_lava_wal_append_micros", "histogram"),
        ("abase_row_cache_hits_total", "counter"),
        ("abase_row_cache_misses_total", "counter"),
        ("abase_row_cache_insertions_total", "counter"),
        ("abase_row_cache_invalidations_total", "counter"),
        // Flush and compaction block bytes before and after compression.
        ("abase_lava_block_raw_bytes_total", "counter"),
        ("abase_lava_block_stored_bytes_total", "counter"),
        // WAL frame bytes written, before and after compression.
        ("abase_lava_wal_raw_bytes_total", "counter"),
        ("abase_lava_wal_append_bytes_total", "counter"),
        // The §4.1 charge of the SET and the GETs, per tenant.
        ("abase_tenant_read_ru_total", "counter"),
        ("abase_tenant_write_ru_total", "counter"),
    ] {
        let line = format!("# TYPE {family} {kind}\n");
        assert!(text.contains(&line), "missing `{line}` in:\n{text}");
    }
    assert!(
        text.contains("abase_server_commands_total{command=\"SET\"}"),
        "{text}"
    );

    // Histograms carry no floor. Every client in this process sends one
    // command and waits for its reply, so each batch holds one command, and a
    // count family exposes raw counts. Durations are recorded in ns: parsing
    // a small frame averages far below 10 µs.
    let sample = |key: &str| -> f64 {
        text.lines()
            .find_map(|line| line.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no sample {key} in:\n{text}"))
    };
    assert_eq!(
        sample("abase_pipeline_batch_commands_sum"),
        sample("abase_pipeline_batch_commands_count")
    );
    let parse_sum = sample("abase_server_stage_micros_sum{stage=\"parse\"}");
    let parse_count = sample("abase_server_stage_micros_count{stage=\"parse\"}");
    assert!(
        parse_count > 0.0 && parse_sum / parse_count < 10.0,
        "parse stage: {parse_sum} us over {parse_count} commands"
    );

    assert!(bulk_text(roundtrip(&mut client, &cmd(&["INFO", "server"]))).contains("io_threads:"));
    let len = roundtrip(&mut client, &cmd(&["SLOWLOG", "LEN"]));
    assert!(matches!(len, RespValue::Integer(_)), "SLOWLOG LEN: {len:?}");
    drop(client);
    node.shutdown().unwrap();
}
