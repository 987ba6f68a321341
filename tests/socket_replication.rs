//! Network-real replication through the RESP server: a leader
//! `ServingNode` — the assembly `abase-server leader` runs — and followers
//! speaking `REPLCONF`/`PSYNC` to it over a real TCP connection: a bare
//! `Follower` stepped by hand where the test needs to restart it with a
//! chosen cursor, a follower node where it needs the shipped cadence. (The
//! genuinely two-process version is `tests/server_roles.rs`; these tests
//! keep the protocol matrix — restart, retention fall-off, FULLRESYNC
//! recovery — fast and deterministic in one process.)

mod common;

use abase::core::{NodeRole, ServingNode};
use abase::lavastore::DbConfig;
use abase::proto::RespValue;
use abase::replication::{Follower, LogTransport, SocketTransport};
use abase::util::TestDir;
use common::{eventually, Client};
use std::time::{Duration, Instant};

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
    let leader_dir = TestDir::new("sockrepl-leader");
    let follower_dir = TestDir::new("sockrepl-follower");
    let leader = ServingNode::open(
        "127.0.0.1:0",
        &leader_dir,
        DbConfig::small_for_tests(),
        NodeRole::Leader { local_replicas: 1 },
    )
    .unwrap();
    let addr = leader.local_addr();
    let db = leader.engine().db();

    // Phase 1 — a fresh follower attaches through the RESP port, pulls the
    // initial checkpoint, and starts acking.
    let replica_dir = follower_dir.join("replica");
    let mut follower = Follower::connect(
        &replica_dir,
        DbConfig::small_for_tests(),
        &addr.to_string(),
        42,
    )
    .unwrap();
    let mut client = Client::connect(addr);
    // Quorum = {leader, follower}: the write only acks once the follower's
    // REPLCONF ACK crossed the socket, so serve it from a pump thread.
    for i in 0..10 {
        db.put(format!("a{i}").as_bytes(), b"1", None, 0).unwrap();
    }
    let lsn = db.last_seq();
    drive(&mut follower, lsn, "initial catch-up");
    assert_eq!(follower.resyncs(), 1, "fresh follower syncs via checkpoint");
    // RESP-layer proof that the ack arithmetic sees the remote: this
    // session never wrote, so WAIT reports the connected follower count
    // immediately (the session-fence bugfix), which is 1.
    assert_eq!(client.cmd(&["WAIT", "1", "100"]), RespValue::Integer(1));

    // Phase 2 — follower "process" restarts with its persisted cursor: a
    // positional PSYNC resumes the stream with no resync.
    let position = follower.position().expect("streamed follower has a cursor");
    drop(follower);
    let mut transport = SocketTransport::new(addr.to_string(), 42);
    transport.seek(position.0, position.1);
    let mut follower = Follower::with_transport(
        &replica_dir,
        DbConfig::small_for_tests(),
        Box::new(transport),
    )
    .unwrap();
    db.put(b"after-restart", b"2", None, 0).unwrap();
    let lsn = db.last_seq();
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
    for round in 0..db.config().wal_retention_segments + 3 {
        for i in 0..25 {
            db.put(format!("r{round}-k{i}").as_bytes(), &[9u8; 64], None, 0)
                .unwrap();
        }
        db.flush().unwrap();
    }
    let lsn = db.last_seq();
    let mut transport = SocketTransport::new(addr.to_string(), 42);
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
    db.put(b"tail", b"3", None, 0).unwrap();
    let lsn = db.last_seq();
    drive(&mut follower, lsn, "post-FULLRESYNC tail");
    assert_eq!(follower.resyncs(), 1, "tailing must not re-resync");

    drop(follower);
    drop(db);
    leader.shutdown().unwrap();
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
    let base = TestDir::new("sockrepl-latency");
    // A leader node commits under a 100 ms `wait_timeout`; the follower
    // node pumps and acks on the shipped cadence.
    let leader = ServingNode::open(
        "127.0.0.1:0",
        base.join("leader"),
        DbConfig::default(),
        NodeRole::Leader { local_replicas: 1 },
    )
    .unwrap();
    let addr = leader.local_addr();
    let follower = ServingNode::open(
        "127.0.0.1:0",
        base.join("follower"),
        DbConfig::default(),
        NodeRole::Follower {
            leader_addr: addr.to_string(),
            replica_id: 2,
        },
    )
    .unwrap();
    let mut client = Client::connect(addr);
    eventually("the follower to attach", || {
        client.cmd(&["WAIT", "1", "100"]) == RespValue::Integer(1)
    });
    let mut lat = Vec::new();
    let mut fails = 0u32;
    for i in 0..40 {
        let key = format!("ky{i:02}");
        let t0 = Instant::now();
        let r = client.cmd(&["SET", &key, "v"]);
        lat.push(t0.elapsed().as_millis());
        if r != RespValue::ok() {
            fails += 1;
        }
    }
    lat.sort();
    follower.shutdown().unwrap();
    leader.shutdown().unwrap();
    assert_eq!(fails, 0, "quorum writes failed (p50={}ms)", lat[20]);
    assert!(
        lat[20] < 50,
        "commit p50 rides the wait timeout again: {}ms",
        lat[20]
    );
}
