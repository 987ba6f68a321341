//! The serving node's life cycle, in one process: what `shutdown()` leaves
//! behind in every role, a follower node across its leader's restarts, TTLs
//! on the wall clock, and a housekeeping tick whose failures are counted.

mod common;

use abase::core::{NodeRole, ServingNode};
use abase::lavastore::DbConfig;
use abase::proto::RespValue;
use abase::util::failpoint::{self, FaultAction};
use abase::util::TestDir;
use common::{eventually, Client};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn open(addr: &str, dir: &Path, role: NodeRole) -> ServingNode {
    ServingNode::open(addr, dir, DbConfig::small_for_tests(), role).expect("open node")
}

fn leader() -> NodeRole {
    NodeRole::Leader { local_replicas: 1 }
}

fn follower_of(leader: &ServingNode) -> NodeRole {
    NodeRole::Follower {
        leader_addr: leader.local_addr().to_string(),
        replica_id: 2,
    }
}

/// `SET` through a leader whose follower may still be (re)attaching: a
/// quorum commit fails until the follower's ack can arrive.
fn quorum_set(client: &mut Client, key: &str, value: &str) {
    eventually(&format!("a quorum SET {key}"), || {
        client.cmd(&["SET", key, value]) == RespValue::ok()
    });
}

/// After `shutdown()` nothing of the node is left: the port refuses, no
/// thread holds the engine, and the directory opens again at once.
fn assert_stops_clean(node: ServingNode) {
    let addr = node.local_addr();
    let engine = Arc::clone(node.engine());
    let group = node.group().cloned();
    node.shutdown().expect("front end exits clean");
    assert!(TcpStream::connect(addr).is_err(), "port still open");
    assert_eq!(Arc::strong_count(&engine), 1, "a thread outlived shutdown");
    if let Some(group) = group {
        assert_eq!(Arc::strong_count(&group), 1, "a thread kept the group");
    }
}

#[test]
fn shutdown_stops_every_role_and_the_dir_reopens() {
    let dir = TestDir::new("node-lifecycle");
    for (name, role) in [
        ("plain", NodeRole::Plain),
        ("leader", leader()),
        ("local-group", NodeRole::Leader { local_replicas: 3 }),
    ] {
        let node = open("127.0.0.1:0", &dir.join(name), role.clone());
        let mut client = Client::connect(node.local_addr());
        assert_eq!(client.cmd(&["SET", "k", name]), RespValue::ok());
        // A connection parked off the event loop (`WAIT` on a leader) and an
        // idle one must both go down with the node.
        client.cmd(&["WAIT", "0", "10"]);
        assert_stops_clean(node);
        let node = open("127.0.0.1:0", &dir.join(name), role);
        let mut client = Client::connect(node.local_addr());
        assert_eq!(client.get("k"), RespValue::bulk(name), "{name} lost k");
        assert_stops_clean(node);
    }
    // A follower, with its replica stream open on the leader.
    let lead = open("127.0.0.1:0", &dir.join("lead"), leader());
    let node = open("127.0.0.1:0", &dir.join("follower"), follower_of(&lead));
    let mut writer = Client::connect(lead.local_addr());
    quorum_set(&mut writer, "k", "replicated");
    let mut reader = Client::connect(node.local_addr());
    eventually("the follower to serve k", || {
        reader.get("k") == RespValue::bulk("replicated")
    });
    assert_stops_clean(node);
    let node = open("127.0.0.1:0", &dir.join("follower"), follower_of(&lead));
    let mut reader = Client::connect(node.local_addr());
    eventually("the reopened follower to serve k", || {
        reader.get("k") == RespValue::bulk("replicated")
    });
    assert_stops_clean(node);
    // The leader goes last: its replica streams ended with their followers.
    assert_stops_clean(lead);
}

#[test]
fn a_follower_node_rides_out_leader_restarts() {
    let dir = TestDir::new("node-restarts");
    let lead = open("127.0.0.1:0", &dir.join("lead"), leader());
    let addr = lead.local_addr().to_string();
    let follower = open("127.0.0.1:0", &dir.join("follower"), follower_of(&lead));
    let mut reader = Client::connect(follower.local_addr());
    quorum_set(&mut Client::connect(&addr), "before", "1");
    eventually("the follower to serve `before`", || {
        reader.get("before") == RespValue::bulk("1")
    });
    match reader.cmd(&["SET", "rogue", "write"]) {
        RespValue::Error(e) => assert!(e.starts_with("READONLY"), "{e}"),
        other => panic!("a follower node accepted a write: {other:?}"),
    }

    // The leader restarts on its directory and address: the follower's
    // positional PSYNC is answered CONTINUE, and it keeps its store.
    let store = follower.engine().db();
    lead.shutdown().unwrap();
    eventually("the follower to see its link down", || {
        reader.repl_field("link_status").as_deref() == Some("down")
    });
    let lead = open(&addr, &dir.join("lead"), leader());
    quorum_set(&mut Client::connect(&addr), "after", "2");
    eventually("the follower to serve `after`", || {
        reader.get("after") == RespValue::bulk("2")
    });
    assert_eq!(reader.repl_field("link_status").as_deref(), Some("up"));
    assert!(
        Arc::ptr_eq(&store, &follower.engine().db()),
        "a restart inside retention must resume, not resync"
    );

    // While the follower cannot reach it, the leader rotates its WAL far past
    // retention. Back on its address it answers the follower's position with
    // FULLRESYNC; the follower pulls a checkpoint and serves the swapped store.
    lead.shutdown().unwrap();
    let away = open("127.0.0.1:0", &dir.join("lead"), leader());
    let db = away.engine().db();
    for round in 0..db.config().wal_retention_segments + 3 {
        for i in 0..25 {
            db.put(format!("r{round}-k{i}").as_bytes(), &[9u8; 64], None, 0)
                .unwrap();
        }
        db.flush().unwrap();
    }
    drop(db);
    Client::connect(away.local_addr()).cmd(&["SET", "while-away", "3"]);
    away.shutdown().unwrap();
    let lead = open(&addr, &dir.join("lead"), leader());
    eventually("the follower to serve `while-away`", || {
        reader.get("while-away") == RespValue::bulk("3")
    });
    assert!(
        !Arc::ptr_eq(&store, &follower.engine().db()),
        "falling off retention must swap in a checkpoint"
    );
    assert_eq!(reader.get("before"), RespValue::bulk("1"));
    drop(store);
    follower.shutdown().unwrap();
    lead.shutdown().unwrap();
}

/// Expiries are persisted as instants of the serving clock, so that clock
/// must mean the same thing after a restart and on a follower that started
/// later than its leader: the wall clock does, process uptime did not.
#[test]
fn ttls_expire_on_the_wall_clock_across_restarts_and_replicas() {
    let dir = TestDir::new("node-ttl");
    let lead = open("127.0.0.1:0", &dir.join("lead"), leader());
    // The follower starts well after its leader.
    std::thread::sleep(Duration::from_millis(700));
    let follower = open("127.0.0.1:0", &dir.join("follower"), follower_of(&lead));
    let mut writer = Client::connect(lead.local_addr());
    let mut reader = Client::connect(follower.local_addr());
    quorum_set(&mut writer, "kept", "v");
    eventually("a quorum SET with a TTL", || {
        writer.cmd(&["SET", "brief", "v", "EX", "1"]) == RespValue::ok()
    });
    assert_eq!(writer.get("brief"), RespValue::bulk("v"));
    eventually("the follower to serve `brief`", || {
        reader.get("brief") == RespValue::bulk("v")
    });
    std::thread::sleep(Duration::from_millis(1300));
    assert_eq!(writer.get("brief"), RespValue::Bulk(None));
    assert_eq!(
        reader.get("brief"),
        RespValue::Bulk(None),
        "the follower expires the key when its leader does"
    );
    follower.shutdown().unwrap();
    lead.shutdown().unwrap();
    // A restarted node reads it as expired from its first request on.
    let lead = open("127.0.0.1:0", &dir.join("lead"), leader());
    let mut client = Client::connect(lead.local_addr());
    assert_eq!(client.get("brief"), RespValue::Bulk(None));
    assert_eq!(client.get("kept"), RespValue::bulk("v"));
    lead.shutdown().unwrap();
}

/// A WAL flush that fails on the tick is counted, not dropped: a WAL
/// poisoned this way would otherwise fail every later write while `INFO`,
/// `METRICS` and the log said nothing.
#[test]
fn failed_tick_steps_are_counted() {
    let dir = TestDir::new("node-tick-errors");
    let node = open("127.0.0.1:0", dir.path(), NodeRole::Plain);
    let failed = || abase::obs::snapshot().value("abase_node_tick_errors_total{flush_wal}");
    let before = failed();
    let _injector = failpoint::ScopedInjector::enable();
    let wal = dir.path().to_str().expect("a UTF-8 path");
    failpoint::install("wal.flush", Some(wal), FaultAction::Error, 0, 3);
    eventually("three failed flushes to be counted", || {
        failed() >= before + 3.0
    });
    node.shutdown().unwrap();
}

/// A follower aimed at a node that refuses `PSYNC` fails every pump pass:
/// each failure is counted, and the log does not repeat it 20 times a
/// second.
#[test]
fn failed_follower_pump_passes_are_counted() {
    let dir = TestDir::new("node-pump-errors");
    let plain = open("127.0.0.1:0", &dir.join("plain"), NodeRole::Plain);
    let failed = || abase::obs::snapshot().value("abase_node_tick_errors_total{follower_pump}");
    let before = failed();
    let follower = open("127.0.0.1:0", &dir.join("follower"), follower_of(&plain));
    let deadline = Instant::now() + Duration::from_secs(1);
    while failed() < before + 1.0 {
        assert!(
            Instant::now() < deadline,
            "no follower pump failure counted within 1 s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    follower.shutdown().unwrap();
    plain.shutdown().unwrap();
}
