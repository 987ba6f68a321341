//! End-to-end replication-plane test (the PR's acceptance scenario):
//! a 3-replica group takes quorum writes, loses its leader, promotes the
//! most-caught-up follower with zero acked-write loss, and a failed node's
//! replicas are reconstructed in parallel ≈N× faster than through a single
//! source — matching the §3.3 `RecoveryModel` within tolerance.

use abase::lavastore::DbConfig;
use abase::replication::{
    reconstruct_parallel, reconstruct_single_source, GroupConfig, ReadConsistency, ReplicaGroup,
    ReplicaId, ResyncTicket, WriteConcern,
};
use abase::sim::cluster::{ReplicatedCluster, ReplicatedClusterConfig};
use abase::sim::meta::RecoveryModel;
use abase::util::TestDir;
use std::path::Path;

#[test]
fn quorum_writes_survive_leader_failure() {
    let dir = TestDir::new("failover");
    let mut cluster = ReplicatedCluster::new(
        dir.path(),
        4,
        ReplicatedClusterConfig {
            replication_factor: 3,
            write_concern: WriteConcern::Quorum,
            db: DbConfig::small_for_tests(),
            recovery_bandwidth: None,
            ..Default::default()
        },
    );
    cluster.create_partition(100).unwrap();

    // Quorum writes: every returned LSN is acked by ≥2 of 3 replicas.
    let mut acked = Vec::new();
    for i in 0..200 {
        let key = format!("key-{i:05}");
        let lsn = cluster.write(100, key.as_bytes(), b"payload", 0).unwrap();
        acked.push((key, lsn));
    }
    let group = cluster.group(100).unwrap();
    let old_leader = group.leader().unwrap();
    let last_lsn = acked.last().unwrap().1;
    assert!(group.acked_count(last_lsn) >= 2, "quorum not honored");

    // Identify the most-caught-up follower before the crash.
    let followers: Vec<u32> = group
        .members()
        .into_iter()
        .filter(|&m| m != old_leader)
        .collect();
    let best_lsn = followers
        .iter()
        .map(|&f| group.acked_lsn(f).unwrap())
        .max()
        .unwrap();

    // Kill the leader's node: the failover plan promotes and reconstructs.
    let outcome = cluster.kill_node(old_leader).unwrap();
    let promotion = outcome
        .plan
        .promotions
        .iter()
        .find(|p| p.partition == 100)
        .expect("partition 100 must be promoted");
    assert_ne!(promotion.new_leader, old_leader);
    assert!(
        cluster
            .group(100)
            .unwrap()
            .acked_lsn(promotion.new_leader)
            .unwrap()
            >= best_lsn,
        "promotion must pick a most-caught-up follower"
    );
    assert_eq!(
        cluster.group(100).unwrap().leader(),
        Some(promotion.new_leader)
    );

    // Zero acked-write loss: every quorum-acked key reads back at Leader
    // consistency from the new leader.
    for (key, _lsn) in &acked {
        let r = cluster
            .read(100, key.as_bytes(), ReadConsistency::Leader, 0)
            .unwrap();
        assert!(r.value.is_some(), "acked write lost after failover: {key}");
    }

    // The group is back at full strength and keeps serving writes at quorum.
    let set = cluster.replica_set(100).unwrap();
    assert_eq!(set.members().len(), 3);
    assert!(!set.contains(old_leader));
    let lsn = cluster.write(100, b"post-failover", b"v", 0).unwrap();
    assert!(cluster.group(100).unwrap().acked_count(lsn) >= 2);
    let r = cluster
        .read(
            100,
            b"post-failover",
            ReadConsistency::ReadYourWrites(lsn),
            0,
        )
        .unwrap();
    assert_eq!(r.value.as_deref(), Some(&b"v"[..]));
}

/// A one-member group on node `node` (partition `node`) holding `keys`
/// records of 256 bytes that do not compress, so the bytes copied are what
/// the bandwidth model is fed.
fn seeded_source(dir: &Path, node: ReplicaId, keys: usize) -> ReplicaGroup {
    let config = GroupConfig::new(WriteConcern::Quorum, DbConfig::default());
    let mut group = ReplicaGroup::bootstrap(u64::from(node), dir, &[node], config).unwrap();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..keys {
        let value: Vec<u8> = (0..256)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        group
            .put(format!("key-{i:05}").as_bytes(), &value, None, 0)
            .unwrap();
    }
    group.db(node).unwrap().flush().unwrap();
    group
}

#[test]
fn parallel_reconstruction_matches_recovery_model() {
    let dir = TestDir::new("recovery-model");
    std::fs::create_dir_all(dir.path()).unwrap();
    const SURVIVORS: usize = 3;
    const DISK_BW: f64 = 3e6;
    // Each survivor leads a one-member group; a dead node's replica of it is
    // re-seeded by a staged join onto node `dest_base + i`.
    let mut sources: Vec<ReplicaGroup> = (0..SURVIVORS as ReplicaId)
        .map(|i| seeded_source(dir.path(), i, 500))
        .collect();
    let tickets = |sources: &mut [ReplicaGroup], dest_base: ReplicaId| -> Vec<ResyncTicket> {
        (dest_base..)
            .zip(sources.iter_mut())
            .map(|(dest, group)| group.begin_join(dest, dir.path(), None).unwrap())
            .collect()
    };

    let single = reconstruct_single_source(&mut tickets(&mut sources, 10), Some(DISK_BW)).unwrap();
    let mut rebuilt = tickets(&mut sources, 20);
    let parallel = reconstruct_parallel(&mut rebuilt, Some(DISK_BW)).unwrap();
    assert_eq!(single.bytes_copied, parallel.bytes_copied);
    assert_eq!(parallel.distinct_sources, SURVIVORS);

    // The paper's model predicts an N× speedup; timing noise (thread spawn,
    // filesystem) erodes it, so accept anything within ~40 % of the model.
    let model = RecoveryModel {
        failed_node_bytes: single.bytes_copied as f64,
        per_node_bandwidth: DISK_BW,
        surviving_nodes: SURVIVORS as u32,
    };
    let model_speedup = model.single_node_recovery_secs() / model.parallel_recovery_secs();
    assert!((model_speedup - SURVIVORS as f64).abs() < 1e-9);
    let measured_speedup = single.elapsed.as_secs_f64() / parallel.elapsed.as_secs_f64();
    assert!(
        measured_speedup > model_speedup * 0.6,
        "parallel reconstruction too slow: measured {measured_speedup:.2}× vs model {model_speedup:.2}×"
    );
    assert!(
        measured_speedup < model_speedup * 1.4,
        "parallel reconstruction implausibly fast: measured {measured_speedup:.2}× vs model {model_speedup:.2}×"
    );

    // The wall-clock times themselves should track the model's closed form.
    let rel_err = (single.elapsed.as_secs_f64() - model.single_node_recovery_secs()).abs()
        / model.single_node_recovery_secs();
    assert!(
        rel_err < 0.5,
        "single-source time {:.3}s deviates from model {:.3}s",
        single.elapsed.as_secs_f64(),
        model.single_node_recovery_secs()
    );

    // Rebuilt replicas are complete databases.
    for ((group, ticket), (i, dest)) in sources.iter_mut().zip(rebuilt).zip((0..).zip(20..)) {
        group.complete_join(ticket).unwrap();
        let db = group.db(dest).unwrap();
        assert_eq!(db.last_seq(), group.db(i).unwrap().last_seq());
        assert!(db.get(b"key-00499", 0).unwrap().value.is_some());
    }
}

#[test]
fn async_cluster_converges_on_tick_and_fences_reads() {
    let dir = TestDir::new("async-fence");
    let mut cluster = ReplicatedCluster::new(
        dir.path(),
        3,
        ReplicatedClusterConfig {
            replication_factor: 3,
            write_concern: WriteConcern::Async,
            db: DbConfig::small_for_tests(),
            recovery_bandwidth: None,
            ..Default::default()
        },
    );
    cluster.create_partition(1).unwrap();
    let lsn = cluster.write(1, b"k", b"v", 0).unwrap();
    // Fenced read routes around stale followers (only the leader qualifies).
    let r = cluster
        .read(1, b"k", ReadConsistency::ReadYourWrites(lsn), 0)
        .unwrap();
    assert_eq!(r.value.as_deref(), Some(&b"v"[..]));
    // After the replication tick every replica serves the write.
    cluster.tick().unwrap();
    let group = cluster.group_mut(1).unwrap();
    assert_eq!(group.acked_count(lsn), 3);
    for _ in 0..3 {
        let r = group.read(b"k", ReadConsistency::Eventual, 0).unwrap();
        assert_eq!(r.value.as_deref(), Some(&b"v"[..]));
    }
}
