//! Tenant isolation on the shipped serving path: one `ServingNode` over
//! sockets, two tenants with equal quotas, one of them offering ten times
//! its share. The node admits every command against its tenant's §4.2
//! partition quota and charges the §4.1 RU through the same
//! `abase_core::pipeline` the simulator runs.

mod common;

use abase::core::{NodeRole, Request, ServingNode};
use abase::lavastore::DbConfig;
use abase::proto::RespValue;
use abase::util::TestDir;
use common::Client;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Each tenant's quota, RU/s: a burst of three times this, refilled at
/// three times this per second.
const QUOTA_RU: f64 = 20.0;

fn open(tag: &str) -> (TestDir, ServingNode) {
    let dir = TestDir::new(tag);
    let node = ServingNode::open(
        "127.0.0.1:0",
        dir.path(),
        DbConfig::default(),
        NodeRole::Plain,
    )
    .expect("open node");
    (dir, node)
}

fn rejected(tenant: u32) -> f64 {
    abase::obs::snapshot().value(&format!("abase_tenant_rejected_total{{{tenant}}}"))
}

fn is_throttled(reply: &RespValue) -> bool {
    matches!(reply, RespValue::Error(e) if e.starts_with("THROTTLED"))
}

#[test]
fn a_tenant_over_its_quota_is_throttled_and_its_neighbour_is_not() {
    const A: u32 = 3101;
    const B: u32 = 3102;
    let (_dir, node) = open("noisy-neighbour");
    for tenant in [A, B] {
        node.pipeline()
            .add_partition(u64::from(tenant), tenant, QUOTA_RU, 0);
    }
    let addr = node.local_addr();
    let flooding = AtomicBool::new(true);
    let b_throttled = AtomicU64::new(0);
    let b_served = AtomicU64::new(0);
    std::thread::scope(|s| {
        // B: four connections, each a 2 KiB write (1 RU) every 20 ms —
        // 200 RU/s against a 60 RU/s ceiling.
        for conn in 0..4 {
            let (flooding, throttled, served) = (&flooding, &b_throttled, &b_served);
            s.spawn(move || {
                let mut client = Client::connect(addr);
                assert_eq!(client.cmd(&["AUTH", &B.to_string()]), RespValue::ok());
                let value = "b".repeat(2048);
                let mut i = 0;
                while flooding.load(Ordering::Relaxed) {
                    let key = format!("b{conn}-{i}");
                    let reply = client.cmd(&["SET", &key, &value]);
                    if is_throttled(&reply) {
                        throttled.fetch_add(1, Ordering::Relaxed);
                    } else {
                        assert_eq!(reply, RespValue::ok(), "B's admitted write failed");
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
        }
        // A, meanwhile: a small write and its read back every 50 ms, well
        // inside its quota. Every one of them must succeed.
        let mut client = Client::connect(addr);
        assert_eq!(client.cmd(&["AUTH", &A.to_string()]), RespValue::ok());
        let until = Instant::now() + Duration::from_millis(1500);
        let mut i = 0;
        while Instant::now() < until {
            let (key, value) = (format!("a{i}"), format!("value-{i}"));
            assert_eq!(client.cmd(&["SET", &key, &value]), RespValue::ok());
            assert_eq!(client.get(&key), RespValue::bulk(value));
            i += 1;
            std::thread::sleep(Duration::from_millis(50));
        }
        flooding.store(false, Ordering::Relaxed);
    });
    let (throttled, served) = (b_throttled.into_inner(), b_served.into_inner());
    assert!(
        throttled > 0,
        "B was never throttled ({served} writes served)"
    );
    assert!(served > 0, "B's first burst should have been admitted");
    assert!(
        rejected(B) >= throttled as f64,
        "B's rejections were not counted"
    );
    assert_eq!(rejected(A), 0.0, "A was throttled");

    // Once its bucket refills (a 60 RU burst at 60 RU/s, seen on the node's
    // 100 ms tick), B is admitted again.
    std::thread::sleep(Duration::from_millis(1300));
    let mut client = Client::connect(addr);
    assert_eq!(client.cmd(&["AUTH", &B.to_string()]), RespValue::ok());
    assert_eq!(client.cmd(&["SET", "after", "refill"]), RespValue::ok());
    node.shutdown().unwrap();
}

/// `HGETALL` is priced by the hash shape the pipeline saw the last one
/// return (§4.1's `HLEN` + scan), so a 100-field hash outweighs a point read.
#[test]
fn hgetall_of_a_big_hash_is_admitted_above_a_get() {
    const T: u32 = 3103;
    let (_dir, node) = open("hash-estimate");
    node.pipeline().add_partition(u64::from(T), T, 1e6, 0);
    let mut client = Client::connect(node.local_addr());
    assert_eq!(client.cmd(&["AUTH", &T.to_string()]), RespValue::ok());
    let fields: Vec<String> = (0..100).map(|i| format!("f{i:03}")).collect();
    let value = "v".repeat(100);
    let mut hset = vec!["HSET", "h"];
    for field in &fields {
        hset.extend([field.as_str(), value.as_str()]);
    }
    assert_eq!(client.cmd(&hset), RespValue::Integer(100));
    let RespValue::Array(Some(items)) = client.cmd(&["HGETALL", "h"]) else {
        panic!("HGETALL did not answer an array");
    };
    assert_eq!(items.len(), 200);
    let estimate = |request| node.pipeline().admit(u64::from(T), request, 0).unwrap();
    let (scan, get) = (estimate(Request::HashScan), estimate(Request::Read));
    assert!(scan > get, "HGETALL admitted at {scan} RU, GET at {get} RU");
    node.shutdown().unwrap();
}

/// A GET routed by `CONSISTENCY eventual` is charged by the same §4.1 rule
/// as a leader GET: the serving replica's cache outcome, not a flat miss.
/// A 16 KiB value held in every replica's memtable costs 2.4 RU as a hit
/// (8 RU as a miss), and each fresh connection counts the whole 2.
#[test]
fn an_eventual_get_is_charged_like_a_leader_get_of_the_same_key() {
    const T: u32 = 3104;
    let dir = TestDir::new("routed-get-ru");
    let node = ServingNode::open(
        "127.0.0.1:0",
        dir.path(),
        DbConfig::default(),
        NodeRole::Leader { local_replicas: 3 },
    )
    .expect("open node");
    let addr = node.local_addr();
    let read_ru = || abase::obs::snapshot().value(&format!("abase_tenant_read_ru_total{{{T}}}"));
    let value = "v".repeat(16 << 10);
    let mut writer = Client::connect(addr);
    assert_eq!(writer.cmd(&["AUTH", &T.to_string()]), RespValue::ok());
    assert_eq!(writer.cmd(&["SET", "k", &value]), RespValue::ok());
    // Every replica holds the value before any read is routed.
    assert_eq!(writer.cmd(&["WAIT", "2", "1000"]), RespValue::Integer(2));
    let get_on_a_fresh_connection = |consistency: &str| {
        let mut client = Client::connect(addr);
        assert_eq!(client.cmd(&["AUTH", &T.to_string()]), RespValue::ok());
        assert_eq!(client.cmd(&["CONSISTENCY", consistency]), RespValue::ok());
        let before = read_ru();
        assert_eq!(client.get("k"), RespValue::bulk(value.clone()));
        read_ru() - before
    };
    let leader = get_on_a_fresh_connection("leader");
    assert_eq!(leader, 2.0, "a memtable hit on the leader");
    // Eventual reads rotate over all three replicas.
    for _ in 0..3 {
        assert_eq!(get_on_a_fresh_connection("eventual"), leader);
    }
    node.shutdown().unwrap();
}
