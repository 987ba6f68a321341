//! Migration ablation: an Algorithm-2 plan executed as live movement.
//!
//! One move applied to real 3-replica WAL-shipping groups through the
//! `MigrationEngine`, emitting one JSON object: staged checkpoint copy
//! throttled by the §3.3 recovery-bandwidth model, binlog catch-up,
//! epoch-guarded cut-over — while a tenant keeps writing and reading. It
//! reports tenant read p99 before vs during the move, observed copy
//! bandwidth vs the modeled throttle, the cut-over lag, and zero acked
//! writes lost.
//!
//! The move itself comes out of Algorithm 2: the pool view is built from the
//! cluster's per-replica split RU ledgers, `Rescheduler::reschedule_round`
//! picks the replica and destination, and the plan is executed as real data
//! movement. The loss-function trajectory (per-node RU-utilization std/max)
//! is reported before and after.
//!
//! A smoke run shrinks the workload — the JSON shape is identical. Every run
//! checks the facts `check` names.

use crate::banner;
use abase_sim::cluster::{ReplicatedCluster, ReplicatedClusterConfig};
use abase_sim::MigrationReport;
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

fn sizes(smoke: bool) -> Sizes {
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
        cluster.create_partition(p).expect("partition placement");
    }
    let hot: Vec<u64> = (0..PARTITIONS)
        .filter(|&p| !cluster.replica_set(p).expect("placed").contains(0))
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

/// What every run is held to.
#[derive(Debug, Clone)]
struct Facts {
    dest_holds_data: bool,
    bytes_copied: u64,
    acked_writes_lost: usize,
    during_move_errors: usize,
    /// Observed copy bandwidth over the modelled throttle.
    bandwidth_ratio: f64,
    cutover_entry_lag: u64,
    ru_util_std_before: f64,
    ru_util_std_after: f64,
}

/// The live move put data at the destination within the bandwidth model
/// (ratio in `(0, 1.35]`) and a cut-over lag of at most 64 entries, lost no
/// acked write, failed no read, and lowered the loss.
fn check(f: &Facts) -> Result<(), String> {
    ensure!(
        f.dest_holds_data && f.bytes_copied > 0,
        "the live move left no data at the destination: {f:?}"
    );
    ensure!(f.acked_writes_lost == 0, "the live move lost acked writes: {f:?}");
    ensure!(f.during_move_errors == 0, "reads failed during the move: {f:?}");
    ensure!(
        f.bandwidth_ratio > 0.0 && f.bandwidth_ratio <= 1.35,
        "copy bandwidth off the throttle model: {f:?}"
    );
    ensure!(f.cutover_entry_lag <= 64, "cut-over entered too far behind: {f:?}");
    ensure!(
        f.ru_util_std_after < f.ru_util_std_before,
        "migration did not reduce the loss: {f:?}"
    );
    Ok(())
}

/// Plan one move with Algorithm 2, run it, print the JSON report, and check
/// it.
pub fn run(smoke: bool) -> Result<(), String> {
    banner(
        "ablation_migration",
        "live-movement rescheduling on real replica groups",
        "live moves copy real bytes at the §3.3 bandwidth with zero acked-write loss",
    );
    let sz = sizes(smoke);

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
            let set = cluster.replica_set(p).expect("placed");
            let spare = (0..NODES).find(|n| !set.contains(*n)).expect("spare node");
            (p, set.followers[0], spare, false)
        }
    };

    // -- Live movement ----------------------------------------------------
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
    let MigrationReport {
        bytes_copied,
        copy_secs,
        catchup_ticks,
        cutover_entry_lag,
        was_leader,
        ..
    } = cluster.migrations().completed()[0].clone();
    let observed_bw = bytes_copied as f64 / copy_secs.max(1e-9);
    let (bandwidth_ratio, ru_util_std_after) = (observed_bw / DISK_BW, pool_after.ru_util_std());

    // -- JSON report -------------------------------------------------------
    let (hot_keys, acked_during) = (sz.hot_keys, writes_during.len());
    let p99_during_us = p99_during.quantile(0.99).map_or(0.0, |ns| ns / 1e3);
    let max_after = pool_after.max_ru_util();
    println!(
        r#"{{
  "nodes": {NODES},
  "partitions": {PARTITIONS},
  "hot_keys": {hot_keys},
  "value_bytes": {VALUE_BYTES},
  "plan": {{"partition": {partition}, "from_node": {from}, "to_node": {to},
    "planned_by_algorithm2": {planned_by_algorithm2}}},
  "live_migration": {{
    "move_secs": {move_secs:.3},
    "copy_secs": {copy_secs:.3},
    "bytes_copied": {bytes_copied},
    "observed_copy_bandwidth_bps": {observed_bw:.0},
    "modeled_bandwidth_bps": {DISK_BW},
    "bandwidth_ratio": {bandwidth_ratio:.3},
    "catchup_ticks": {catchup_ticks},
    "cutover_entry_lag": {cutover_entry_lag},
    "was_leader": {was_leader},
    "dest_holds_data": {dest_holds_data},
    "acked_writes_during_move": {acked_during},
    "acked_writes_lost": {acked_lost},
    "reads": {{"baseline_p99_us": {p99_baseline_us:.1}, "during_move_p99_us": {p99_during_us:.1},
      "during_move_reads": {reads_during}, "baseline_errors": {baseline_errors},
      "during_move_errors": {errors_during}}}
  }},
  "loss_trajectory": {{
    "ru_util_std_before": {std_before:.5},
    "ru_util_std_after": {ru_util_std_after:.5},
    "max_ru_util_before": {max_before:.5},
    "max_ru_util_after": {max_after:.5}
  }}
}}"#
    );
    check(&Facts {
        dest_holds_data,
        bytes_copied,
        acked_writes_lost: acked_lost,
        during_move_errors: errors_during,
        bandwidth_ratio,
        cutover_entry_lag,
        ru_util_std_before: std_before,
        ru_util_std_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_refuses_each_doctored_fact() {
        let healthy = Facts {
            dest_holds_data: true,
            bytes_copied: 1 << 20,
            acked_writes_lost: 0,
            during_move_errors: 0,
            bandwidth_ratio: 0.95,
            cutover_entry_lag: 3,
            ru_util_std_before: 0.2,
            ru_util_std_after: 0.1,
        };
        crate::refuses_each(
            healthy,
            check,
            &[
                |f| f.dest_holds_data = false,
                |f| f.bytes_copied = 0,
                |f| f.acked_writes_lost = 1,
                |f| f.during_move_errors = 1,
                |f| f.bandwidth_ratio = 0.0,
                |f| f.bandwidth_ratio = 1.4,
                |f| f.cutover_entry_lag = 65,
                |f| f.ru_util_std_after = 0.2,
            ],
        );
    }
}
