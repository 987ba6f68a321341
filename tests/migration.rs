//! Live partition migration under load (the PR's acceptance scenarios):
//! scheduler-planned moves execute as real data movement through the shared
//! staged placement-change path — checkpoint copy throttled by the §3.3
//! recovery-bandwidth model, binlog catch-up, epoch-guarded cut-over — with
//! zero acked-write loss, RYW fences holding across the cut-over, and the
//! measured copy time matching the `RecoveryModel`/`Throttle` prediction.

use abase::lavastore::DbConfig;
use abase::replication::{GroupConfig, ReadConsistency, ReplicaGroup, WriteConcern};
use abase::scheduler::{Rescheduler, ReschedulerConfig};
use abase::sim::cluster::{ReplicatedCluster, ReplicatedClusterConfig};
use abase::sim::migration::MigrationError;
use abase::util::TestDir;

fn cluster_with(tag: &str, nodes: u32, bandwidth: Option<f64>) -> (TestDir, ReplicatedCluster) {
    let dir = TestDir::new(tag);
    let cluster = ReplicatedCluster::new(
        dir.path(),
        nodes,
        ReplicatedClusterConfig {
            replication_factor: 3,
            write_concern: WriteConcern::Quorum,
            db: DbConfig::small_for_tests(),
            recovery_bandwidth: bandwidth,
            ..Default::default()
        },
    );
    (dir, cluster)
}

/// Both replica-placement changes — a follower's gap resync and a
/// migration's destination staging — run through the same ticket API:
/// identical copy primitive, identical epoch guard, interchangeable installs.
#[test]
fn migration_staging_and_failover_resync_share_one_api() {
    let dir = TestDir::new("shared-staging");
    let mut g = ReplicaGroup::bootstrap(
        1,
        dir.path(),
        &[10, 20, 30],
        GroupConfig::new(WriteConcern::Async, DbConfig::small_for_tests()),
    )
    .unwrap();
    for i in 0..30 {
        g.put(format!("k{i}").as_bytes(), &[7u8; 128], None, 0)
            .unwrap();
    }
    g.tick().unwrap();
    // Resync path: refresh existing follower 20 from a staged checkpoint.
    let mut resync = g.begin_resync(20).unwrap();
    let resync_info = resync.copy(None).unwrap();
    // Join path: stage brand-new member 40 from the same machinery.
    let mut join = g.begin_join(40, dir.path(), None).unwrap();
    let join_info = join.copy(None).unwrap();
    // The same leader checkpoint feeds both targets.
    assert_eq!(resync_info.last_seq, join_info.last_seq);
    g.complete_resync(resync).unwrap();
    g.complete_join(join).unwrap();
    assert_eq!(g.members(), vec![10, 20, 30, 40]);
    // Both installed replicas serve the full history and tail the leader.
    let lsn = g.put(b"post", b"v", None, 0).unwrap();
    g.tick().unwrap();
    for id in [20u32, 40] {
        assert_eq!(g.acked_lsn(id).unwrap(), lsn, "replica {id} not tailing");
        let db = g.db(id).unwrap();
        assert!(db.get(b"k0", 0).unwrap().value.is_some());
        assert!(db.get(b"post", 0).unwrap().value.is_some());
    }
    // And both ticket kinds die under the same epoch guard: any membership
    // change supersedes copies still in flight, whichever path issued them.
    let mut stale_resync = g.begin_resync(20).unwrap();
    let mut stale_join = g.begin_join(50, dir.path(), None).unwrap();
    stale_resync.copy(None).unwrap();
    stale_join.copy(None).unwrap();
    g.remove_member(40).unwrap(); // epoch bump
    assert!(matches!(
        g.complete_resync(stale_resync),
        Err(abase::replication::Error::ResyncSuperseded)
    ));
    assert!(matches!(
        g.complete_join(stale_join),
        Err(abase::replication::Error::ResyncSuperseded)
    ));
}

/// Concurrent quorum writes during copy + catch-up + cut-over: zero acked
/// writes lost, and every session's RYW fence holds across the cut-over,
/// whichever replica serves the read.
#[test]
fn quorum_writes_survive_a_live_migration_with_ryw_fences() {
    let (_d, mut c) = cluster_with("migrate-under-load", 4, None);
    c.create_partition(0).unwrap();
    let mut acked: Vec<(String, u64)> = Vec::new();
    for i in 0..40 {
        let key = format!("pre-{i}");
        let lsn = c.write(0, key.as_bytes(), &[9u8; 256], 0).unwrap();
        acked.push((key, lsn));
    }
    let set = c.replica_set(0).unwrap();
    let from = set.followers[0];
    let to = (0..4u32).find(|n| !set.contains(*n)).unwrap();
    c.enqueue_migration(0, from, to).unwrap();
    // Writes keep landing while the move stages, catches up, and cuts over.
    let mut ticks = 0;
    while !c.migrations().idle() {
        ticks += 1;
        assert!(ticks < 50, "migration did not converge");
        for w in 0..5 {
            let key = format!("during-{ticks}-{w}");
            let lsn = c.write(0, key.as_bytes(), &[3u8; 128], 0).unwrap();
            acked.push((key.clone(), lsn));
            // The freshest session fence must hold mid-migration too.
            let r = c
                .read_routed(0, key.as_bytes(), ReadConsistency::ReadYourWrites(lsn), 0)
                .unwrap();
            assert!(
                r.result.value.is_some(),
                "fenced read lost {key} mid-migration"
            );
        }
        c.tick().unwrap();
    }
    assert_eq!(c.migrations().completed().len(), 1);
    assert!(c.migrations().aborted().is_empty());
    // Post-cut-over writes continue, and every acked write — pre-move and
    // mid-move — is still fenced-readable and leader-readable.
    for i in 0..5 {
        let key = format!("post-{i}");
        let lsn = c.write(0, key.as_bytes(), &[1u8; 64], 0).unwrap();
        acked.push((key, lsn));
    }
    for (key, lsn) in &acked {
        let leader = c
            .read(0, key.as_bytes(), ReadConsistency::Leader, 0)
            .unwrap();
        assert!(leader.value.is_some(), "acked write lost: {key}");
        let fenced = c
            .read_routed(0, key.as_bytes(), ReadConsistency::ReadYourWrites(*lsn), 0)
            .unwrap();
        assert!(
            fenced.result.value.is_some(),
            "RYW fence broken across cut-over: {key}"
        );
        assert_ne!(fenced.node, from, "departed replica served a fenced read");
    }
    // The departed replica is gone: from the group, and its RU ledger from
    // the source node.
    let set = c.replica_set(0).unwrap();
    assert!(!set.contains(from) && set.contains(to), "{set:?}");
    assert!(!c.group(0).unwrap().members().contains(&from));
    assert_eq!(c.node(from).unwrap().replica_ru_split(0).total(), 0.0);
}

/// The staged copy's measured wall-clock matches the §3.3
/// `RecoveryModel`/`Throttle` prediction: `bytes / per_disk_bandwidth`.
#[test]
fn migration_copy_time_matches_the_bandwidth_model() {
    let bw = 1.5e6;
    let (_d, mut c) = cluster_with("migrate-bandwidth", 4, Some(bw));
    c.create_partition(0).unwrap();
    // Values that do not compress, so the SSTs copied hold ~200 KB.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..400 {
        let value: Vec<u8> = (0..512)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        c.write(0, format!("k{i:05}").as_bytes(), &value, 0)
            .unwrap();
    }
    c.tick().unwrap();
    let set = c.replica_set(0).unwrap();
    let to = (0..4u32).find(|n| !set.contains(*n)).unwrap();
    c.enqueue_migration(0, set.followers[0], to).unwrap();
    let mut ticks = 0;
    while !c.migrations().idle() {
        ticks += 1;
        assert!(ticks < 50, "migration did not converge");
        c.tick().unwrap();
    }
    let report = &c.migrations().completed()[0];
    assert!(report.bytes_copied > 100_000, "copy too small to measure");
    let predicted_secs = report.bytes_copied as f64 / bw;
    // The throttle sleeps at least bytes/bw in total; real I/O adds a little
    // on top, and sleep granularity bounds the overshoot.
    assert!(
        report.copy_secs >= predicted_secs * 0.85,
        "copy finished faster than the §3.3 disk model allows: measured \
         {:.3}s, model {predicted_secs:.3}s",
        report.copy_secs
    );
    assert!(
        report.copy_secs <= predicted_secs * 2.0 + 0.25,
        "copy far slower than the model predicts: measured {:.3}s, model \
         {predicted_secs:.3}s",
        report.copy_secs
    );
}

/// Satellite regression: a slow (in-flight) migration blocks a second move
/// involving the same node until *its own* completion — the back-pressure
/// the old per-round `finish_migrations` sweep fictionalized.
#[test]
fn in_flight_migration_blocks_a_second_move_from_the_same_node() {
    // 5 nodes × 2 partitions × 3 replicas: some node hosts both partitions,
    // so two moves can contend for it.
    let (_d, mut c) = cluster_with("migrate-backpressure", 5, None);
    c.create_partition(0).unwrap();
    c.create_partition(1).unwrap();
    for p in 0..2u64 {
        for i in 0..20 {
            c.write(p, format!("p{p}-k{i}").as_bytes(), &[7u8; 128], 0)
                .unwrap();
        }
    }
    let shared = c
        .replica_set(0)
        .unwrap()
        .members()
        .into_iter()
        .find(|&n| c.replica_set(1).unwrap().contains(n))
        .expect("partitions share a node on a 5-node cluster");
    let spare0 = (0..5u32)
        .find(|n| !c.replica_set(0).unwrap().contains(*n))
        .unwrap();
    let spare1 = (0..5u32)
        .find(|n| !c.replica_set(1).unwrap().contains(*n) && *n != spare0)
        .unwrap();
    c.enqueue_migration(0, shared, spare0).unwrap();
    c.enqueue_migration(1, shared, spare1).unwrap();
    // Tick 1: the first move stages and holds both its nodes; the second
    // stays queued behind the shared source.
    c.tick().unwrap();
    assert!(c.is_node_migrating(shared));
    assert!(c.is_node_migrating(spare0));
    assert_eq!(c.migrations().in_flight().len(), 1);
    assert_eq!(c.migrations().queued().len(), 1);
    assert_eq!(c.migrations().in_flight()[0].req.partition, 0);
    // Only after the first move completes does the second start.
    let mut first_done_tick = None;
    let mut second_started_tick = None;
    for tick in 2..50 {
        c.tick().unwrap();
        if first_done_tick.is_none() && !c.migrations().completed().is_empty() {
            first_done_tick = Some(tick);
        }
        if second_started_tick.is_none()
            && c.migrations()
                .in_flight()
                .iter()
                .any(|m| m.req.partition == 1)
        {
            second_started_tick = Some(tick);
            assert!(
                first_done_tick.is_some(),
                "second move from node {shared} started before the first completed"
            );
        }
        if c.migrations().idle() {
            break;
        }
    }
    assert_eq!(c.migrations().completed().len(), 2, "both moves complete");
    assert!(!c.is_node_migrating(shared));
    // Duplicate-pending and bad-placement requests are refused outright.
    assert!(matches!(
        c.enqueue_migration(0, spare0, spare0),
        Err(MigrationError::DestAlreadyMember(_))
    ));
    assert!(matches!(
        c.enqueue_migration(9, 0, 1),
        Err(MigrationError::UnknownPartition(9))
    ));
}

/// Acceptance: an Algorithm-2 plan — produced by the real `Rescheduler` over
/// a pool view built from the cluster's split RU ledgers — executes as real
/// data movement and reduces the loss function it was planned against.
#[test]
fn scheduler_planned_migration_moves_real_bytes() {
    let nodes = 5u32;
    let (_d, mut c) = cluster_with("migrate-planned", nodes, None);
    for p in 0..5u64 {
        c.create_partition(p).unwrap();
    }
    // Heat exactly the partitions node 0 does NOT host: node 0 stays cold,
    // at least one other node co-hosts two hot replicas — a feasible,
    // positive-gain Algorithm-2 move must exist.
    let hot: Vec<u64> = (0..5u64)
        .filter(|&p| !c.replica_set(p).unwrap().contains(0))
        .collect();
    assert_eq!(hot.len(), 2, "each node misses exactly two partitions");
    for &p in &hot {
        for i in 0..60 {
            c.write(p, format!("p{p}-k{i:04}").as_bytes(), &[8u8; 256], 0)
                .unwrap();
        }
    }
    c.tick().unwrap();
    // One pool-view builder serves the scheduler, this test, and the
    // ablation bench: the cluster's own `scheduler_pool_view`.
    let std_before = c.scheduler_pool_view(1.25).ru_util_std();
    let plan = Rescheduler::new(ReschedulerConfig {
        theta: 0.02,
        min_gain: 1e-9,
    })
    .reschedule_round(&mut c.scheduler_pool_view(1.25));
    assert!(
        !plan.is_empty(),
        "Algorithm 2 found no move on a skewed pool"
    );
    let req = ReplicatedCluster::migration_request_from_plan(&plan[0]);
    assert!(hot.contains(&req.partition), "plan moved a cold replica");
    c.enqueue_migration(req.partition, req.from, req.to)
        .unwrap();
    let mut ticks = 0;
    while !c.migrations().idle() {
        ticks += 1;
        assert!(ticks < 50, "migration did not converge");
        c.tick().unwrap();
    }
    assert_eq!(c.migrations().completed().len(), 1);
    // Real bytes at the destination: the full hot keyspace is servable from
    // the destination's own storage.
    let db = c.group(req.partition).unwrap().db(req.to).unwrap();
    for i in 0..60 {
        assert!(
            db.get(format!("p{}-k{i:04}", req.partition).as_bytes(), 0)
                .unwrap()
                .value
                .is_some(),
            "moved replica is missing p{}-k{i:04}",
            req.partition
        );
    }
    // And the loss function the plan optimized actually improved — with the
    // moved replica's RU ledger travelling to the destination, so the gain
    // is genuine balancing, not deleted load.
    let std_after = c.scheduler_pool_view(1.25).ru_util_std();
    assert!(
        std_after < std_before,
        "executed plan did not reduce the loss: {std_before} -> {std_after}"
    );
}
