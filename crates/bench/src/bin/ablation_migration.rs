//! Migration ablation: routing-flip vs live-movement rescheduling.
//!
//! The same Algorithm-2 plan applied two ways against real 3-replica
//! WAL-shipping groups, emitting one JSON object:
//!
//! 1. **Routing flip** (the pre-engine behavior): `MetaServer::move_partition`
//!    repoints the partition instantly — zero seconds, zero bytes — and the
//!    destination holds nothing. Leader reads against the new routing fail,
//!    and the meta view diverges from the group's actual leadership: the
//!    "migration" was fiction.
//! 2. **Live movement** (the `MigrationEngine` path): staged checkpoint copy
//!    throttled by the §3.3 recovery-bandwidth model, binlog catch-up,
//!    epoch-guarded cut-over — while a tenant keeps writing and reading.
//!    Reports tenant read p99 before vs during the move, observed copy
//!    bandwidth vs the modeled throttle, the cut-over lag, and zero acked
//!    writes lost.
//!
//! The move itself comes out of Algorithm 2: the pool view is built from the
//! cluster's per-replica split RU ledgers, `Rescheduler::reschedule_round`
//! picks the replica and destination, and the plan is executed as real data
//! movement. The loss-function trajectory (per-node RU-utilization std/max)
//! is reported before and after.
//!
//! Set `ABASE_BENCH_SMOKE=1` to shrink the workload for a CI smoke run — the
//! JSON shape is identical.

use abase_bench::banner;
use abase_core::cluster::{ReplicatedCluster, ReplicatedClusterConfig};
use abase_lavastore::DbConfig;
use abase_replication::{ReadConsistency, WriteConcern};
use abase_scheduler::{Rescheduler, ReschedulerConfig};
use abase_util::{Histogram, TestDir};

const NODES: u32 = 5;
/// Pool-view capacity headroom over the observed peak node load (see
/// `ReplicatedCluster::scheduler_pool_view`).
const CAPACITY_HEADROOM: f64 = 1.25;
const PARTITIONS: u64 = 5;
const VALUE_BYTES: usize = 512;
/// Modeled per-disk copy bandwidth (bytes/sec) — both the §3.3 reconstruction
/// model and the migration copy throttle.
const DISK_BW: f64 = 2e6;

struct Sizes {
    hot_keys: usize,
    cold_keys: usize,
    reads_per_phase: usize,
}

fn sizes() -> Sizes {
    let smoke = std::env::var("ABASE_BENCH_SMOKE").is_ok_and(|v| v != "0");
    if smoke {
        Sizes {
            hot_keys: 80,
            cold_keys: 10,
            reads_per_phase: 120,
        }
    } else {
        Sizes {
            hot_keys: 600,
            cold_keys: 40,
            reads_per_phase: 1_500,
        }
    }
}

/// Build a cluster whose load shape gives Algorithm 2 a feasible move: with
/// 5 partitions × 3 replicas over 5 nodes, every node misses exactly two
/// partitions — making node 0's two absent partitions *hot* leaves node 0
/// cold, co-locates two hot replicas on at least one other node, and keeps
/// each hot replica small enough to fit under the destination's share of the
/// optimal point. Returns the cluster and the hot partitions.
fn build_cluster(tag: &str, sz: &Sizes) -> (TestDir, ReplicatedCluster, Vec<u64>) {
    let dir = TestDir::new(tag);
    let mut cluster = ReplicatedCluster::new(
        dir.path(),
        NODES,
        ReplicatedClusterConfig {
            replication_factor: 3,
            write_concern: WriteConcern::Quorum,
            db: DbConfig::small_for_tests(),
            recovery_bandwidth: Some(DISK_BW),
            ..Default::default()
        },
    );
    for p in 0..PARTITIONS {
        cluster.create_partition(1, p).expect("partition placement");
    }
    let hot: Vec<u64> = (0..PARTITIONS)
        .filter(|&p| !cluster.meta().replica_set(p).expect("placed").contains(0))
        .collect();
    for p in 0..PARTITIONS {
        let keys = if hot.contains(&p) {
            sz.hot_keys
        } else {
            sz.cold_keys
        };
        for i in 0..keys {
            cluster
                .write(
                    p,
                    format!("p{p}-k{i:06}").as_bytes(),
                    &vec![7u8; VALUE_BYTES],
                    0,
                )
                .expect("seed write");
        }
    }
    cluster.tick().expect("converge followers");
    (dir, cluster, hot)
}

/// One routed `Eventual` read phase; returns (p99 µs, errors).
fn read_phase(cluster: &mut ReplicatedCluster, sz: &Sizes, partition: u64) -> (f64, usize) {
    let mut hist = Histogram::new();
    let mut errors = 0usize;
    for i in 0..sz.reads_per_phase {
        let key = format!("p{partition}-k{:06}", i % sz.hot_keys);
        let t0 = std::time::Instant::now();
        match cluster.read_routed(partition, key.as_bytes(), ReadConsistency::Eventual, 0) {
            Ok(_) => hist.record(t0.elapsed().as_nanos() as u64),
            Err(_) => errors += 1,
        }
    }
    (hist.quantile(0.99).map_or(0.0, |ns| ns / 1e3), errors)
}

fn main() {
    banner(
        "ablation_migration",
        "routing-flip vs live-movement rescheduling on real replica groups",
        "live moves copy real bytes at the §3.3 bandwidth with zero acked-write loss",
    );
    let sz = sizes();

    // -- Plan the move with Algorithm 2 -----------------------------------
    let (_dir, mut cluster, hot) = build_cluster("abl-migr-live", &sz);
    let pool = cluster.scheduler_pool_view(CAPACITY_HEADROOM);
    let std_before = pool.ru_util_std();
    let max_before = pool.max_ru_util();
    let plan = Rescheduler::new(ReschedulerConfig {
        theta: 0.02,
        min_gain: 1e-9,
    })
    .reschedule_round(&mut cluster.scheduler_pool_view(CAPACITY_HEADROOM));
    // Fall back to the canonical hot move if the tiny smoke load is too flat
    // for the dead-band (the JSON records which path produced the plan).
    let (partition, from, to, planned_by_algorithm2) = match plan.first() {
        Some(m) => {
            let req = ReplicatedCluster::migration_request_from_plan(m);
            (req.partition, req.from, req.to, true)
        }
        None => {
            let p = hot[0];
            let set = cluster.meta().replica_set(p).expect("placed").clone();
            let spare = (0..NODES).find(|n| !set.contains(*n)).expect("spare node");
            (p, set.followers[0], spare, false)
        }
    };

    // -- Arm 1: routing flip (the pre-engine fiction) ----------------------
    let (flip_failures, flip_diverged, flip_dest_holds_data) = {
        let (_d, mut flip, _hot) = build_cluster("abl-migr-flip", &sz);
        let t = to;
        flip.meta_mut().move_partition(partition, t);
        let mut failures = 0usize;
        for i in 0..sz.reads_per_phase.min(200) {
            let key = format!("p{partition}-k{:06}", i % sz.hot_keys);
            if flip
                .read(partition, key.as_bytes(), ReadConsistency::Leader, 0)
                .is_err()
            {
                failures += 1;
            }
        }
        let diverged = flip.meta().route(partition) != flip.group(partition).unwrap().leader();
        let holds = flip.group(partition).unwrap().members().contains(&t);
        (failures, diverged, holds)
    };

    // -- Arm 2: live movement ---------------------------------------------
    let (p99_baseline_us, baseline_errors) = read_phase(&mut cluster, &sz, partition);
    cluster
        .enqueue_migration(partition, from, to)
        .expect("valid plan");
    let mut p99_during = Histogram::new();
    let mut reads_during = 0usize;
    let mut errors_during = 0usize;
    let mut writes_during = Vec::new();
    let mut ticks = 0usize;
    let move_started = std::time::Instant::now();
    while !cluster.migrations().idle() {
        ticks += 1;
        assert!(ticks < 100, "migration did not converge");
        // The tenant keeps writing and reading while the bytes move.
        for w in 0..4 {
            let key = format!("during-{ticks}-{w}");
            let lsn = cluster
                .write(partition, key.as_bytes(), &[3u8; 64], 0)
                .expect("write during migration");
            writes_during.push((key, lsn));
        }
        for i in 0..16 {
            let key = format!("p{partition}-k{:06}", (ticks * 16 + i) % sz.hot_keys);
            let t0 = std::time::Instant::now();
            reads_during += 1;
            match cluster.read_routed(partition, key.as_bytes(), ReadConsistency::Eventual, 0) {
                Ok(_) => p99_during.record(t0.elapsed().as_nanos() as u64),
                Err(_) => errors_during += 1,
            }
        }
        cluster.tick().expect("cluster tick");
    }
    let move_secs = move_started.elapsed().as_secs_f64();
    assert_eq!(
        cluster.migrations().completed().len(),
        1,
        "move not completed"
    );
    let report = cluster.migrations().completed()[0].clone();
    // Zero acked-write loss across copy + catch-up + cut-over, and every
    // write is fenced-readable at its own LSN.
    let mut acked_lost = 0usize;
    for (key, lsn) in &writes_during {
        let ok = cluster
            .read_routed(
                partition,
                key.as_bytes(),
                ReadConsistency::ReadYourWrites(*lsn),
                0,
            )
            .map(|r| r.result.value.is_some())
            .unwrap_or(false);
        if !ok {
            acked_lost += 1;
        }
    }
    let dest_holds_data = cluster
        .group(partition)
        .unwrap()
        .db(to)
        .map(|db| {
            (0..sz.hot_keys.min(50)).all(|i| {
                db.get(format!("p{partition}-k{i:06}").as_bytes(), 0)
                    .map(|r| r.value.is_some())
                    .unwrap_or(false)
            })
        })
        .unwrap_or(false);
    let pool_after = cluster.scheduler_pool_view(CAPACITY_HEADROOM);
    let observed_bw = report.bytes_copied as f64 / report.copy_secs.max(1e-9);

    // -- JSON report -------------------------------------------------------
    println!("{{");
    println!("  \"nodes\": {NODES},");
    println!("  \"partitions\": {PARTITIONS},");
    println!("  \"hot_keys\": {},", sz.hot_keys);
    println!("  \"value_bytes\": {VALUE_BYTES},");
    println!(
        "  \"plan\": {{\"partition\": {partition}, \"from_node\": {from}, \"to_node\": {to}, \
         \"planned_by_algorithm2\": {planned_by_algorithm2}}},"
    );
    println!("  \"routing_flip\": {{");
    println!("    \"move_secs\": 0.0,");
    println!("    \"bytes_copied\": 0,");
    println!("    \"dest_holds_data\": {flip_dest_holds_data},");
    println!("    \"leader_read_failures\": {flip_failures},");
    println!("    \"routing_diverged_from_group\": {flip_diverged}");
    println!("  }},");
    println!("  \"live_migration\": {{");
    println!("    \"move_secs\": {move_secs:.3},");
    println!("    \"copy_secs\": {:.3},", report.copy_secs);
    println!("    \"bytes_copied\": {},", report.bytes_copied);
    println!("    \"observed_copy_bandwidth_bps\": {observed_bw:.0},");
    println!("    \"modeled_bandwidth_bps\": {DISK_BW},");
    println!("    \"bandwidth_ratio\": {:.3},", observed_bw / DISK_BW);
    println!("    \"catchup_ticks\": {},", report.catchup_ticks);
    println!("    \"cutover_entry_lag\": {},", report.cutover_entry_lag);
    println!("    \"was_leader\": {},", report.was_leader);
    println!("    \"dest_holds_data\": {dest_holds_data},");
    println!("    \"acked_writes_during_move\": {},", writes_during.len());
    println!("    \"acked_writes_lost\": {acked_lost},");
    println!(
        "    \"reads\": {{\"baseline_p99_us\": {p99_baseline_us:.1}, \
         \"during_move_p99_us\": {:.1}, \"during_move_reads\": {reads_during}, \
         \"baseline_errors\": {baseline_errors}, \"during_move_errors\": {errors_during}}}",
        p99_during.quantile(0.99).map_or(0.0, |ns| ns / 1e3)
    );
    println!("  }},");
    println!("  \"loss_trajectory\": {{");
    println!("    \"ru_util_std_before\": {std_before:.5},");
    println!(
        "    \"ru_util_std_after\": {:.5},",
        pool_after.ru_util_std()
    );
    println!("    \"max_ru_util_before\": {max_before:.5},");
    println!("    \"max_ru_util_after\": {:.5}", pool_after.max_ru_util());
    println!("  }}");
    println!("}}");
}
