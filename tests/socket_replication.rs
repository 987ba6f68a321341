//! Network-real replication through the RESP server: a leader `RespServer`
//! and a follower that is, in every way but the process boundary, the
//! `abase-server follow` mode — a `Follower` speaking
//! `REPLCONF`/`PSYNC` over a real TCP connection. (The genuinely two-process
//! version of this scenario is `examples/replication_psync.rs`, which CI
//! runs; these tests keep the protocol matrix — restart, retention
//! fall-off, FULLRESYNC recovery — fast and deterministic in one process.)

use abase::core::{ReplicationControl, RespServer, TableEngine};
use abase::lavastore::DbConfig;
use abase::proto::RespValue;
use abase::replication::{
    Follower, GroupConfig, LogTransport, ReplicaGroup, SocketTransport, WriteConcern,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn unique_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "abase-sockrepl-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn roundtrip(stream: &mut TcpStream, request: &[u8]) -> RespValue {
    stream.write_all(request).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed unexpectedly");
        buf.extend_from_slice(&chunk[..n]);
        if let Some((value, _)) = RespValue::parse(&buf).unwrap() {
            return value;
        }
    }
}

fn drive(follower: &mut Follower, target_lsn: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while follower.last_seq() < target_lsn {
        assert!(
            Instant::now() < deadline,
            "{what}: follower stuck at {} of {target_lsn}",
            follower.last_seq()
        );
        follower.pump().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn follower_restart_resumes_and_retention_falloff_fullresyncs() {
    let leader_dir = unique_dir("leader");
    let follower_dir = unique_dir("follower");
    let group = ReplicaGroup::bootstrap(
        0,
        &leader_dir,
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
        .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());

    // Phase 1 — a fresh follower attaches through the RESP port, pulls the
    // initial checkpoint, and starts acking.
    let replica_dir = follower_dir.join("replica");
    let mut follower = Follower::connect(
        &replica_dir,
        DbConfig::small_for_tests(),
        &addr.to_string(),
        42,
        0,
    )
    .unwrap();
    let mut client = TcpStream::connect(addr).unwrap();
    // Quorum = {leader, follower}: the write only acks once the follower's
    // REPLCONF ACK crossed the socket, so serve it from a pump thread.
    let lsn = {
        let g = group.lock();
        let db = g.leader_db().unwrap();
        for i in 0..10 {
            db.put(format!("a{i}").as_bytes(), b"1", None, 0).unwrap();
        }
        db.last_seq()
    };
    drive(&mut follower, lsn, "initial catch-up");
    assert_eq!(follower.resyncs(), 1, "fresh follower syncs via checkpoint");
    // RESP-layer proof that the ack arithmetic sees the remote: this
    // session never wrote, so WAIT reports the connected follower count
    // immediately (the session-fence bugfix), which is 1.
    let reply = roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n1\r\n$3\r\n100\r\n");
    assert_eq!(reply, RespValue::Integer(1));

    // Phase 2 — follower "process" restarts with its persisted cursor: a
    // positional PSYNC resumes the stream with no resync.
    let position = follower.position().expect("streamed follower has a cursor");
    drop(follower);
    let mut transport = SocketTransport::new(addr.to_string(), 42, 0);
    transport.seek(position.0, position.1);
    let mut follower = Follower::with_transport(
        &replica_dir,
        DbConfig::small_for_tests(),
        Box::new(transport),
    )
    .unwrap();
    let lsn = {
        let g = group.lock();
        let db = g.leader_db().unwrap();
        db.put(b"after-restart", b"2", None, 0).unwrap();
        db.last_seq()
    };
    drive(&mut follower, lsn, "post-restart catch-up");
    assert_eq!(follower.resyncs(), 0, "a valid cursor must not resync");
    assert!(follower
        .db()
        .get(b"after-restart", 0)
        .unwrap()
        .value
        .is_some());

    // Phase 3 — follower goes away while the leader rotates far past its
    // WAL retention; the restarted follower's positional PSYNC is refused
    // with FULLRESYNC and it recovers through the staged checkpoint pull.
    let position = follower.position().unwrap();
    drop(follower);
    let lsn = {
        let g = group.lock();
        let db = g.leader_db().unwrap();
        let backlog = db.config().wal_retention_segments;
        for round in 0..backlog + 3 {
            for i in 0..25 {
                db.put(format!("r{round}-k{i}").as_bytes(), &[9u8; 64], None, 0)
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.last_seq()
    };
    let mut transport = SocketTransport::new(addr.to_string(), 42, 0);
    transport.seek(position.0, position.1);
    let mut follower = Follower::with_transport(
        &replica_dir,
        DbConfig::small_for_tests(),
        Box::new(transport),
    )
    .unwrap();
    drive(&mut follower, lsn, "FULLRESYNC recovery");
    assert_eq!(
        follower.resyncs(),
        1,
        "falling off retention must recover via FULLRESYNC + checkpoint"
    );
    let last = follower.db().get(b"r0-k0", 0).unwrap();
    assert!(last.value.is_some(), "checkpointed history missing");
    // And the stream keeps flowing incrementally afterwards.
    let lsn = {
        let g = group.lock();
        let db = g.leader_db().unwrap();
        db.put(b"tail", b"3", None, 0).unwrap();
        db.last_seq()
    };
    drive(&mut follower, lsn, "post-FULLRESYNC tail");
    assert_eq!(follower.resyncs(), 1, "tailing must not re-resync");

    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}

/// Regression for the serve-loop drain starvation: the leader's replica
/// connection used to drain inbound acks with a small read *timeout*, which
/// the kernel rounds up to tick granularity — a follower acking every few
/// milliseconds kept every read inside the window, so the ship path starved
/// and every quorum commit rode to its full `wait_timeout`. With the
/// non-blocking drain (plus follower ack throttling), commit latency is the
/// socket round trip, an order of magnitude under the 100 ms budget.
#[test]
fn quorum_commit_latency_is_not_gated_by_the_wait_timeout() {
    let base = unique_dir("latency");
    let group = ReplicaGroup::bootstrap(
        0,
        base.join("leader"),
        &[1],
        GroupConfig {
            write_concern: WriteConcern::Quorum,
            db: DbConfig::default(),
            wait_timeout: Duration::from_millis(100),
        },
    )
    .unwrap();
    let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
    let group = Arc::new(group.into_mutex());
    let server = RespServer::bind(engine, "127.0.0.1:0")
        .unwrap()
        .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    {
        // Mirror abase-server's housekeeping tick.
        let group = Arc::clone(&group);
        std::thread::spawn(move || loop {
            let _ = group.lock().tick();
            std::thread::sleep(Duration::from_millis(100));
        });
    }
    let mut follower = Follower::connect(
        base.join("follower"),
        DbConfig::default(),
        &addr.to_string(),
        2,
        0,
    )
    .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // The abase-server follower cadence: pump, nap, repeat.
            while !stop.load(Ordering::Relaxed) {
                let _ = follower.pump();
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let mut client = TcpStream::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n1\r\n$3\r\n100\r\n");
        if r == RespValue::Integer(1) {
            break;
        }
        assert!(Instant::now() < deadline, "follower never attached");
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut lat = Vec::new();
    let mut fails = 0u32;
    for i in 0..40 {
        let frame = format!("*3\r\n$3\r\nSET\r\n$4\r\nky{i:02}\r\n$1\r\nv\r\n");
        let t0 = Instant::now();
        let r = roundtrip(&mut client, frame.as_bytes());
        lat.push(t0.elapsed().as_millis());
        if r != RespValue::ok() {
            fails += 1;
        }
    }
    lat.sort();
    stop.store(true, Ordering::Relaxed);
    pump.join().unwrap();
    std::fs::remove_dir_all(&base).ok();
    assert_eq!(fails, 0, "quorum writes failed (p50={}ms)", lat[20]);
    assert!(
        lat[20] < 50,
        "commit p50 rides the wait timeout again: {}ms",
        lat[20]
    );
}
