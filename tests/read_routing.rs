//! Consistency-aware reads across failover: `Eventual` reads rotate over
//! every live replica and drain to survivors with zero errors when a serving
//! follower is killed; after a leader kill and promotion, `ReadYourWrites`
//! sessions never observe a rollback of their last acked write; and
//! follower reads land in the same per-replica split RU accounting the
//! rescheduler's loss function reads.

use abase::lavastore::DbConfig;
use abase::replication::{ReadConsistency, WriteConcern};
use abase::scheduler::{LoadVector, NodeState, PoolState, ReplicaLoad};
use abase::sim::cluster::{ReplicatedCluster, ReplicatedClusterConfig};
use abase::util::TestDir;
use std::collections::{HashMap, HashSet};

fn cluster(tag: &str, nodes: u32) -> (TestDir, ReplicatedCluster) {
    let dir = TestDir::new(tag);
    let cluster = ReplicatedCluster::new(
        dir.path(),
        nodes,
        ReplicatedClusterConfig {
            replication_factor: 3,
            write_concern: WriteConcern::Quorum,
            db: DbConfig::small_for_tests(),
            recovery_bandwidth: None,
            ..Default::default()
        },
    );
    (dir, cluster)
}

#[test]
fn eventual_reads_drain_to_survivors_after_follower_kill() {
    let (_d, mut c) = cluster("reroute-follower-kill", 4);
    c.create_partition(0).unwrap();
    for i in 0..30 {
        c.write(0, format!("k{i}").as_bytes(), b"v", 0).unwrap();
    }
    c.tick().unwrap(); // converge every follower
    let leader_before = c.group(0).unwrap().leader().unwrap();
    // Warm phase: eventual reads spread across every replica.
    let mut served_before: HashSet<u32> = HashSet::new();
    for i in 0..20 {
        let key = format!("k{}", i % 30);
        let r = c
            .read_routed(0, key.as_bytes(), ReadConsistency::Eventual, 0)
            .unwrap();
        assert_eq!(r.is_leader, r.node == leader_before);
        served_before.insert(r.node);
    }
    assert_eq!(
        served_before.len(),
        3,
        "reads did not spread: {served_before:?}"
    );
    // Kill one follower that was serving reads.
    let victim = served_before
        .iter()
        .copied()
        .filter(|&n| n != leader_before)
        .min()
        .unwrap();
    c.kill_node(victim).unwrap();
    // Every subsequent read succeeds and never lands on the dead node.
    let mut served_after: HashSet<u32> = HashSet::new();
    for i in 0..30 {
        let key = format!("k{}", i % 30);
        let r = c
            .read_routed(0, key.as_bytes(), ReadConsistency::Eventual, 0)
            .unwrap_or_else(|e| panic!("read {i} errored after follower kill: {e}"));
        assert!(r.result.value.is_some());
        assert_ne!(r.node, victim, "read routed to the dead follower");
        served_after.insert(r.node);
    }
    // The group was refilled by reconstruction, so reads spread again —
    // including onto the adopted replacement replica.
    assert!(
        !served_after.contains(&victim),
        "dead node still serving: {served_after:?}"
    );
    assert!(!served_after.is_empty());
    // Leadership never moved (only a follower died).
    assert_eq!(c.group(0).unwrap().leader(), Some(leader_before));
}

#[test]
fn ryw_sessions_survive_leader_kill_and_promotion() {
    let (_d, mut c) = cluster("reroute-leader-kill", 5);
    c.create_partition(0).unwrap();
    // Several "sessions", each remembering the LSN of its last acked write.
    let mut sessions: HashMap<u32, (String, u64, u64)> = HashMap::new();
    let mut op = 0u64;
    for s in 0..6u32 {
        for _ in 0..5 {
            op += 1;
            let key = format!("s{s}-key");
            let lsn = c
                .write(0, key.as_bytes(), format!("op{op:010}").as_bytes(), 0)
                .unwrap();
            sessions.insert(s, (key, lsn, op));
        }
    }
    let leader = c.group(0).unwrap().leader().unwrap();
    c.kill_node(leader).unwrap();
    // After promotion, every session's fenced read observes a value at or
    // after its last acked write — never a rollback.
    for (s, (key, lsn, last_op)) in &sessions {
        let r = c
            .read_routed(0, key.as_bytes(), ReadConsistency::ReadYourWrites(*lsn), 0)
            .unwrap_or_else(|e| panic!("session {s} fenced read failed after failover: {e}"));
        let value = r
            .result
            .value
            .expect("fenced read lost the session's write");
        let found: u64 = std::str::from_utf8(&value)
            .unwrap()
            .strip_prefix("op")
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            found >= *last_op,
            "session {s} observed a rollback: op {found} < acked op {last_op}"
        );
        assert_ne!(r.node, leader, "read served by the dead leader");
    }
    // Sessions keep writing through the new leader and fencing still holds.
    for s in 0..6u32 {
        op += 1;
        let key = format!("s{s}-key");
        let lsn = c
            .write(0, key.as_bytes(), format!("op{op:010}").as_bytes(), 0)
            .unwrap();
        let r = c
            .read_routed(0, key.as_bytes(), ReadConsistency::ReadYourWrites(lsn), 0)
            .unwrap();
        assert_eq!(
            r.result.value.as_deref(),
            Some(format!("op{op:010}").as_bytes()),
            "post-failover fenced read missed the write"
        );
    }
}

#[test]
fn follower_read_ru_feeds_the_reschedulers_loss_function() {
    let (_d, mut c) = cluster("reroute-accounting", 4);
    c.create_partition(0).unwrap();
    for i in 0..10 {
        c.write(0, format!("k{i}").as_bytes(), &[7u8; 256], 0)
            .unwrap();
    }
    c.tick().unwrap();
    for i in 0..40 {
        let key = format!("k{}", i % 10);
        c.read_routed(0, key.as_bytes(), ReadConsistency::Eventual, 0)
            .unwrap();
    }
    // Build the scheduler's pool view straight from the cluster's ledgers:
    // one NodeState per node, one ReplicaLoad per hosted replica, its RU the
    // ledger's read + write. The ledger's read share is kept per node.
    let members = c.replica_set(0).unwrap().members();
    let mut pool_nodes = Vec::new();
    let mut node_reads = Vec::new();
    let mut replica_id = 0u64;
    for &node_id in &members {
        let node = c.node(node_id).unwrap();
        let mut state = NodeState::new(node_id, 10_000.0, 1e9);
        let mut reads = 0.0;
        for (partition, split) in node.replica_ru_splits() {
            reads += split.read_ru;
            state.add_replica(ReplicaLoad::from_total(
                replica_id,
                1,
                partition,
                LoadVector::flat(split.total()),
                1.0,
            ));
            replica_id += 1;
        }
        node_reads.push((node_id, reads));
        pool_nodes.push(state);
    }
    let leader = c.group(0).unwrap().leader().unwrap();
    let pool = PoolState::new(pool_nodes);
    // Eventual reads rotate over every member, and every member carries the
    // write RU. The loss function therefore sees follower reads: a follower
    // node's read load is nonzero even though it took no client writes.
    for state in &pool.nodes {
        assert!(
            state.ru_load() > 0.0,
            "node {} invisible to Algorithm 2",
            state.id
        );
    }
    for &(node_id, reads) in &node_reads {
        assert!(
            reads > 0.0,
            "node {node_id} reads missing from the load view"
        );
    }
    let total_read: f64 = node_reads.iter().map(|&(_, reads)| reads).sum();
    let leader_read = node_reads.iter().find(|&&(id, _)| id == leader).unwrap().1;
    assert!(
        leader_read < total_read / 2.0,
        "eventual reads concentrated on the leader"
    );
    // And the optimal-point arithmetic consumes the combined vectors.
    let (r, s) = pool.optimal_load();
    assert!(r > 0.0 && s >= 0.0);
}
