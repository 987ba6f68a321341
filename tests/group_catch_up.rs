//! A leader node's tick re-seeds a local follower that fell off the log, and
//! the checkpoint copy runs outside the group lock: the client requests that
//! take that lock answer while the copy is in flight.

mod common;

use abase::core::{NodeRole, ServingNode};
use abase::lavastore::DbConfig;
use abase::proto::RespValue;
use abase::util::failpoint::{self, FaultAction};
use abase::util::TestDir;
use common::{eventually, Client};
use std::time::{Duration, Instant};

#[test]
fn a_resync_on_the_node_tick_holds_up_no_client() {
    let _injector = failpoint::ScopedInjector::enable();
    let dir = TestDir::new("tick-resync");
    let role = NodeRole::Leader { local_replicas: 3 };
    let node = ServingNode::open("127.0.0.1:0", dir.path(), DbConfig::small_for_tests(), role)
        .expect("open node");
    let group = node.group().expect("a leader has a group");
    let mut client = Client::connect(node.local_addr());
    // Member 3 stalls while writes and flushes rotate its segment away;
    // each quorum SET keeps member 2 caught up.
    failpoint::install("group.pump", Some("p0-r3"), FaultAction::Stall, 0, u32::MAX);
    let db = node.engine().db();
    let value = "v".repeat(64);
    for round in 0..db.config().wal_retention_segments + 2 {
        for i in 0..20 {
            let key = format!("r{round}-k{i}");
            assert_eq!(client.cmd(&["SET", &key, &value]), RespValue::ok());
        }
        db.flush().unwrap();
    }
    // Slow the copy to at least 750 ms, then clear the stall. The group lock
    // keeps the tick off member 3 until the delay is armed.
    {
        let _group = group.lock();
        failpoint::clear();
        failpoint::install(
            "db.checkpoint",
            Some("p0-r1"),
            FaultAction::DelayMs(150),
            0,
            5,
        );
    }
    let copying = || {
        std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().starts_with("p0-r3.resync"))
    };
    eventually("the tick to start member 3's copy", copying);

    let started = Instant::now();
    assert_eq!(client.cmd(&["SET", "during", "2"]), RespValue::ok());
    let set_took = started.elapsed();
    let started = Instant::now();
    assert_eq!(client.repl_field("role").as_deref(), Some("leader"));
    let info_took = started.elapsed();
    assert!(
        set_took < Duration::from_millis(200),
        "quorum SET took {set_took:?}"
    );
    assert!(
        info_took < Duration::from_millis(200),
        "INFO took {info_took:?}"
    );
    assert!(
        copying(),
        "the copy ended before the requests: nothing was measured"
    );

    let resyncs = || group.lock().status().replicas[2].resyncs;
    eventually("member 3's resync to install", || resyncs() >= 1);
    assert_eq!(client.cmd(&["WAIT", "2", "1000"]), RespValue::Integer(2));
    node.shutdown().unwrap();
}
