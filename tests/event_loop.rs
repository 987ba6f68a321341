//! End-to-end behavior of the event-driven RESP front end: partial-frame
//! resume across `WouldBlock`, interleaved pipelined batches on one worker,
//! write-buffer backpressure, the max-clients cap, idle-connection reaping,
//! parking commands and PSYNC leaving the event loop, hostile frames, and
//! deterministic shutdown.
//!
//! Invariants under test (see TESTING.md §Event-loop front end): commands on
//! one connection are never reordered, a slow reader never stalls its
//! worker's other connections, and shutdown returns promptly with zero
//! inbound connections.

use abase::core::{ReplicationControl, RespServer, TableEngine};
use abase::lavastore::DbConfig;
use abase::proto::RespValue;
use abase::replication::{Follower, GroupConfig, ReplicaGroup, WriteConcern};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn unique_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "abase-evloop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cmd(parts: &[&str]) -> Vec<u8> {
    let mut out = format!("*{}\r\n", parts.len()).into_bytes();
    for p in parts {
        out.extend_from_slice(format!("${}\r\n{p}\r\n", p.len()).as_bytes());
    }
    out
}

fn roundtrip(stream: &mut TcpStream, request: &[u8]) -> RespValue {
    stream.write_all(request).unwrap();
    read_reply(stream)
}

fn read_reply(stream: &mut TcpStream) -> RespValue {
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

fn read_replies(stream: &mut TcpStream, want: usize) -> Vec<RespValue> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut replies = Vec::new();
    while replies.len() < want {
        let n = stream.read(&mut chunk).unwrap();
        assert!(
            n > 0,
            "server closed with {} of {want} replies",
            replies.len()
        );
        buf.extend_from_slice(&chunk[..n]);
        while let Some((value, used)) = RespValue::parse(&buf).unwrap() {
            replies.push(value);
            buf.drain(..used);
        }
    }
    replies
}

/// The raw bytes of the next `want` replies.
fn read_reply_bytes(stream: &mut TcpStream, want: usize) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let (mut at, mut seen) = (0, 0);
        while let Some((_, used)) = RespValue::parse(&buf[at..]).unwrap() {
            at += used;
            seen += 1;
        }
        if seen >= want {
            assert_eq!(at, buf.len(), "more than {want} replies arrived");
            return buf;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed with {seen} of {want} replies");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Everything the server sends before it closes the connection. A close
/// with request bytes still unread reaches the client as a reset; a server
/// that keeps the connection open fails the read timeout.
fn read_until_closed(stream: &mut TcpStream) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut received = Vec::new();
    let mut chunk = [0u8; 256];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return received,
            Ok(n) => received.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return received,
            Err(e) => panic!("server kept the connection open: {e}"),
        }
    }
}

/// Bind a single-worker server so every connection shares one event loop —
/// the strictest setting for the isolation/backpressure invariants.
fn start_single_worker(tag: &str) -> (std::path::PathBuf, std::net::SocketAddr) {
    let dir = unique_dir(tag);
    let engine = Arc::new(TableEngine::open(&dir, DbConfig::small_for_tests()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0")
        .unwrap()
        .io_threads(1);
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    (dir, addr)
}

#[test]
fn partial_frames_resume_across_wouldblock_boundaries() {
    let (_dir, addr) = start_single_worker("partial");
    let mut client = TcpStream::connect(addr).unwrap();
    client.set_nodelay(true).unwrap();
    roundtrip(&mut client, &cmd(&["SET", "key", "value"]));
    // Dribble one GET a few bytes at a time: every pause parks the parser on
    // a partial frame (the worker sees readable, parses nothing, and must
    // keep the connection's buffer intact for the next event).
    let request = cmd(&["GET", "key"]);
    for piece in request.chunks(3) {
        client.write_all(piece).unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(read_reply(&mut client), RespValue::bulk("value"));
}

#[test]
fn interleaved_pipelined_batches_stay_ordered_per_connection() {
    let (_dir, addr) = start_single_worker("interleave");
    let mut a = TcpStream::connect(addr).unwrap();
    let mut b = TcpStream::connect(addr).unwrap();
    // Both clients fire a multi-command batch at the same worker; each
    // connection's replies must come back complete and in wire order.
    let mut batch_a = Vec::new();
    let mut batch_b = Vec::new();
    for i in 0..20 {
        batch_a.extend_from_slice(&cmd(&["SET", &format!("a{i}"), &format!("va{i}")]));
        batch_a.extend_from_slice(&cmd(&["GET", &format!("a{i}")]));
        batch_b.extend_from_slice(&cmd(&["SET", &format!("b{i}"), &format!("vb{i}")]));
        batch_b.extend_from_slice(&cmd(&["GET", &format!("b{i}")]));
    }
    a.write_all(&batch_a).unwrap();
    b.write_all(&batch_b).unwrap();
    let replies_a = read_replies(&mut a, 40);
    let replies_b = read_replies(&mut b, 40);
    for i in 0..20 {
        assert_eq!(replies_a[2 * i], RespValue::ok(), "a#{i}");
        assert_eq!(
            replies_a[2 * i + 1],
            RespValue::bulk(format!("va{i}")),
            "a#{i}"
        );
        assert_eq!(replies_b[2 * i], RespValue::ok(), "b#{i}");
        assert_eq!(
            replies_b[2 * i + 1],
            RespValue::bulk(format!("vb{i}")),
            "b#{i}"
        );
    }
}

#[test]
fn slow_reader_backpressure_does_not_stall_the_worker() {
    let (_dir, addr) = start_single_worker("backpressure");
    let mut slow = TcpStream::connect(addr).unwrap();
    let mut brisk = TcpStream::connect(addr).unwrap();
    // ~64 KiB value; 64 pipelined GETs = ~4 MiB of replies, way past the
    // 1 MiB write-buffer high-water mark.
    let value = "x".repeat(64 * 1024);
    roundtrip(&mut slow, &cmd(&["SET", "big", &value]));
    let mut batch = Vec::new();
    for _ in 0..64 {
        batch.extend_from_slice(&cmd(&["GET", "big"]));
    }
    slow.write_all(&batch).unwrap();
    // The slow client reads nothing; its replies pile up server-side until
    // the connection throttles. The other connection on the SAME worker must
    // keep round-tripping promptly.
    std::thread::sleep(Duration::from_millis(100));
    for i in 0..10 {
        let started = Instant::now();
        let reply = roundtrip(&mut brisk, &cmd(&["SET", &format!("k{i}"), "v"]));
        assert_eq!(reply, RespValue::ok());
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "worker stalled behind the slow reader"
        );
    }
    // Once the slow client drains, every queued reply arrives intact and in
    // order (the throttled connection resumed reading the rest of its batch).
    let replies = read_replies(&mut slow, 64);
    for (i, reply) in replies.iter().enumerate() {
        match reply {
            RespValue::Bulk(Some(b)) => assert_eq!(b.len(), value.len(), "reply {i}"),
            other => panic!("reply {i}: expected bulk, got {other:?}"),
        }
    }
}

#[test]
fn max_clients_cap_refuses_with_the_redis_error() {
    let dir = unique_dir("maxclients");
    let engine = Arc::new(TableEngine::open(&dir, DbConfig::small_for_tests()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0")
        .unwrap()
        .io_threads(1)
        .max_clients(2);
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    let mut c1 = TcpStream::connect(addr).unwrap();
    let mut c2 = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut c1, &cmd(&["PING"])),
        RespValue::Simple("PONG".into())
    );
    assert_eq!(
        roundtrip(&mut c2, &cmd(&["PING"])),
        RespValue::Simple("PONG".into())
    );
    // Third connection: accepted at the TCP level, refused at the RESP level.
    let mut c3 = TcpStream::connect(addr).unwrap();
    assert_eq!(
        read_until_closed(&mut c3),
        b"-ERR max number of clients reached\r\n"
    );
    // Closing one admitted client frees a slot.
    drop(c1);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut c4 = TcpStream::connect(addr).unwrap();
        c4.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match roundtrip(&mut c4, &cmd(&["PING"])) {
            RespValue::Simple(s) if s == "PONG" => break,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("slot never freed: {other:?}"),
        }
    }
}

#[test]
fn idle_connections_are_reaped_by_the_timer_wheel() {
    let dir = unique_dir("idlereap");
    let engine = Arc::new(TableEngine::open(&dir, DbConfig::small_for_tests()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0")
        .unwrap()
        .io_threads(1)
        .idle_timeout(Duration::from_millis(200));
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    let mut idle = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut idle, &cmd(&["PING"])),
        RespValue::Simple("PONG".into())
    );
    // Stay silent past the timeout: the reaper must close the connection.
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let mut chunk = [0u8; 16];
    match idle.read(&mut chunk) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected {n} bytes from an idle connection"),
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("expected eviction, read failed with {e}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "idle connection outlived the reaper"
    );
    // An active connection on the same server survives by staying chatty.
    let mut busy = TcpStream::connect(addr).unwrap();
    for _ in 0..8 {
        assert_eq!(
            roundtrip(&mut busy, &cmd(&["PING"])),
            RespValue::Simple("PONG".into())
        );
        std::thread::sleep(Duration::from_millis(60));
    }
}

#[test]
fn shutdown_with_zero_inbound_connections_returns_promptly() {
    let dir = unique_dir("shutdown");
    let engine = Arc::new(TableEngine::open(&dir, DbConfig::small_for_tests()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0").unwrap();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run());
    std::thread::sleep(Duration::from_millis(50));
    // No connection ever arrives; the waker, not a connection attempt, must
    // unblock the accept loop and every worker.
    let started = Instant::now();
    handle.shutdown();
    runner.join().unwrap().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "shutdown needed a connection attempt to complete"
    );
}

#[test]
fn shutdown_also_drops_connected_clients() {
    let dir = unique_dir("shutdown-conns");
    let engine = Arc::new(TableEngine::open(&dir, DbConfig::small_for_tests()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0")
        .unwrap()
        .io_threads(2);
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run());
    let mut client = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut client, &cmd(&["PING"])),
        RespValue::Simple("PONG".into())
    );
    let started = Instant::now();
    handle.shutdown();
    runner.join().unwrap().unwrap();
    assert!(started.elapsed() < Duration::from_secs(3));
    // The dropped server side surfaces as EOF/reset on the client.
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut chunk = [0u8; 16];
    match client.read(&mut chunk) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("unexpected {n} bytes after shutdown"),
    }
}

/// A single-worker server leading a one-member quorum group (the leader
/// alone satisfies the write concern; `WAIT 1` needs a remote follower).
fn start_single_worker_leader(tag: &str) -> std::net::SocketAddr {
    let group = ReplicaGroup::bootstrap(
        1,
        unique_dir(tag),
        &[1],
        GroupConfig {
            write_concern: WriteConcern::Quorum,
            db: DbConfig::small_for_tests(),
            wait_timeout: Duration::from_secs(5),
        },
    )
    .unwrap();
    let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
    let group = Arc::new(group.into_mutex());
    let server = RespServer::bind(engine, "127.0.0.1:0")
        .unwrap()
        .io_threads(1)
        .with_replication(group as Arc<dyn ReplicationControl>);
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    addr
}

/// Connect a socket follower to `addr` and pump it on its own thread until
/// the returned flag is set.
fn pump_follower(
    tag: &str,
    addr: std::net::SocketAddr,
) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let mut follower = Follower::connect(
        unique_dir(tag).join("replica"),
        DbConfig::small_for_tests(),
        &addr.to_string(),
        77,
    )
    .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if follower.pump().is_err() {
                    std::thread::sleep(Duration::from_millis(5));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    (stop, pump)
}

#[test]
fn psync_hands_the_socket_off_the_single_worker_event_loop() {
    // ONE worker: if PSYNC parked the replica stream on the event loop, the
    // regular client below could never be served concurrently.
    let addr = start_single_worker_leader("psync-handoff");
    let (stop, pump) = pump_follower("psync-handoff-follower", addr);
    // While the replica stream lives on its dedicated thread, the single
    // event-loop worker keeps serving clients — including a `WAIT` that
    // needs the remote follower's ack (offloaded, then reinjected).
    let mut client = TcpStream::connect(addr).unwrap();
    let reply = roundtrip(&mut client, &cmd(&["SET", "k", "v"]));
    assert_eq!(reply, RespValue::ok(), "quorum write through the handoff");
    let reply = roundtrip(&mut client, &cmd(&["WAIT", "1", "5000"]));
    assert_eq!(reply, RespValue::Integer(1));
    // The same connection continues normal serving after its offloads.
    assert_eq!(
        roundtrip(&mut client, &cmd(&["GET", "k"])),
        RespValue::bulk("v")
    );
    assert_eq!(
        roundtrip(&mut client, &cmd(&["PING"])),
        RespValue::Simple("PONG".into())
    );
    stop.store(true, Ordering::Relaxed);
    pump.join().unwrap();
}

#[test]
fn pipelined_batch_straddles_the_offload_handoff_in_wire_order() {
    let addr = start_single_worker_leader("straddle");
    let mut client = TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    // PING runs on the loop; SET moves the connection to an offload thread,
    // which must finish the batch in order. With no follower attached yet,
    // `WAIT 1` parks there.
    let mut batch = Vec::new();
    for parts in [
        &["PING"][..],
        &["SET", "k", "v"],
        &["GET", "k"],
        &["WAIT", "1", "5000"],
        &["PING"],
    ] {
        batch.extend_from_slice(&cmd(parts));
    }
    client.write_all(&batch).unwrap();
    // Replies earned before the park are not held behind it.
    let early = read_replies(&mut client, 3);
    assert_eq!(early[0], RespValue::Simple("PONG".into()));
    assert_eq!(early[1], RespValue::ok());
    assert_eq!(early[2], RespValue::bulk("v"));
    // The connection is off the poller now, so nothing reads this second
    // batch until the first is done and the connection is back on the loop.
    let mut second = cmd(&["GET", "k"]);
    second.extend_from_slice(&cmd(&["PING"]));
    client.write_all(&second).unwrap();
    // Only now can `WAIT` be satisfied: the follower's own PSYNC goes
    // through the same single worker and the same drain routine.
    let (stop, pump) = pump_follower("straddle-follower", addr);
    let rest = read_replies(&mut client, 4);
    assert_eq!(rest[0], RespValue::Integer(1), "WAIT saw the follower ack");
    assert_eq!(rest[1], RespValue::Simple("PONG".into()));
    assert_eq!(rest[2], RespValue::bulk("v"));
    assert_eq!(rest[3], RespValue::Simple("PONG".into()));
    stop.store(true, Ordering::Relaxed);
    pump.join().unwrap();
}

#[test]
fn hostile_frames_get_a_protocol_error_and_the_worker_survives() {
    let (_dir, addr) = start_single_worker("hostile");
    let mut bystander = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut bystander, &cmd(&["PING"])),
        RespValue::Simple("PONG".into())
    );
    let hostile: [Vec<u8>; 3] = [
        b"*9223372036854775807\r\n".to_vec(),
        b"*1\r\n".repeat(10_000),
        b"$9223372036854775807\r\n".to_vec(),
    ];
    for frame in hostile {
        let mut attacker = TcpStream::connect(addr).unwrap();
        attacker.write_all(&frame).unwrap();
        let reply = String::from_utf8(read_until_closed(&mut attacker)).unwrap();
        assert!(reply.starts_with("-ERR protocol: "), "{reply:?}");
        // The one worker that parsed the frame still serves its other
        // connections, old and new.
        assert_eq!(
            roundtrip(&mut bystander, &cmd(&["PING"])),
            RespValue::Simple("PONG".into())
        );
    }
    // A TTL that overflows the clock is refused, not wrapped (release) or
    // panicked on (debug, which would take the one worker with it).
    assert_eq!(
        roundtrip(
            &mut bystander,
            &cmd(&["SET", "k", "v", "EX", "18446744073710"])
        ),
        RespValue::Error("ERR invalid expire time in 'set' command".into())
    );
    let mut fresh = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut fresh, &cmd(&["PING"])),
        RespValue::Simple("PONG".into())
    );
}

/// The reply bytes of a batch do not depend on how the batch was cut into
/// reads: one `write_all` and a byte-at-a-time feed (every read leaves the
/// scanner on a partial frame, inside a header, a value, or a CR LF) answer
/// the same — for commands, a value holding CR LF, a variadic verb, an
/// unknown verb, the connection-layer AUTH, and a frame that is not an array.
#[test]
fn a_byte_at_a_time_feed_answers_like_one_write() {
    let mut batch = Vec::new();
    for parts in [
        &["AUTH", "5"][..],
        &["SET", "key", "line one\r\nline two\r\n"],
        &["get", "key"],
        &["HSET", "h", "f1", "v1", "f2", "v2"],
        &["HGETALL", "h"],
        &["NOSUCH", "x"],
        &["GET"],
        &["SET", "key", "v", "EX", "soon"],
    ] {
        batch.extend_from_slice(&cmd(parts));
    }
    batch.extend_from_slice(b":42\r\n");
    batch.extend_from_slice(b"*2\r\n$3\r\nGET\r\n:7\r\n");
    batch.extend_from_slice(&cmd(&["GET", "key"]));
    let replies = 11;

    let (_dir, addr) = start_single_worker("bytewise-whole");
    let mut client = TcpStream::connect(addr).unwrap();
    client.write_all(&batch).unwrap();
    let whole = read_reply_bytes(&mut client, replies);

    let (_dir, addr) = start_single_worker("bytewise-split");
    let mut client = TcpStream::connect(addr).unwrap();
    client.set_nodelay(true).unwrap();
    for byte in &batch {
        client.write_all(std::slice::from_ref(byte)).unwrap();
        // Let each byte arrive as its own read.
        std::thread::sleep(Duration::from_micros(200));
    }
    let split = read_reply_bytes(&mut client, replies);
    assert_eq!(
        String::from_utf8_lossy(&split),
        String::from_utf8_lossy(&whole)
    );
    assert!(whole.starts_with(b"+OK\r\n+OK\r\n$20\r\nline one\r\nline two\r\n\r\n:2\r\n*4\r\n"));
    assert!(whole.ends_with(b"\r\n$20\r\nline one\r\nline two\r\n\r\n"));
}

#[test]
fn info_reports_connected_clients_and_io_threads() {
    let dir = unique_dir("info-frontend");
    let engine = Arc::new(TableEngine::open(&dir, DbConfig::small_for_tests()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0")
        .unwrap()
        .io_threads(3);
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    let mut client = TcpStream::connect(addr).unwrap();
    let info = match roundtrip(&mut client, &cmd(&["INFO", "server"])) {
        RespValue::Bulk(Some(b)) => String::from_utf8(b.to_vec()).unwrap(),
        other => panic!("expected bulk INFO, got {other:?}"),
    };
    assert!(info.contains("connected_clients:1"), "{info}");
    assert!(info.contains("io_threads:3"), "{info}");
    assert!(info.contains("total_connections_received:"), "{info}");
    assert!(info.contains("evicted_clients:0"), "{info}");
}
