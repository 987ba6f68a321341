//! Replication walkthrough: leader/follower groups, consistency levels, and
//! planned failover with parallel reconstruction (paper §3.2–§3.3).
//!
//! A four-node cluster hosts three partitions at replication factor 3. The
//! example writes at `Quorum`, shows LSN-fenced reads, kills the busiest
//! node, and walks through what the failover plan did: who got promoted, where
//! each lost replica was re-seeded from, and how the parallel copy compares
//! to the closed-form §3.3 recovery model. It exits with an error if an acked
//! key is lost, a re-seeded replica is not a caught-up member of its group,
//! or the first write after the failover misses its write concern.
//!
//! Run with: `cargo run --example replication_failover`

use abase::lavastore::DbConfig;
use abase::replication::{ReadConsistency, WriteConcern};
use abase::sim::cluster::{ReplicatedCluster, ReplicatedClusterConfig};
use abase::sim::meta::RecoveryModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("abase-repl-example-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // --- A cluster of 4 DataNodes, every partition on 3 of them. ---
    let mut cluster = ReplicatedCluster::new(
        &dir,
        4,
        ReplicatedClusterConfig {
            replication_factor: 3,
            write_concern: WriteConcern::Quorum,
            db: DbConfig::default(),
            // Model 8 MB/s per disk so the reconstruction timing is visible.
            recovery_bandwidth: Some(8e6),
            ..Default::default()
        },
    );
    for partition in 0..3u64 {
        cluster.create_partition(partition)?;
        let group = cluster.group(partition).unwrap();
        println!(
            "partition {partition}: leader node {:?}, members {:?}",
            group.leader().unwrap(),
            group.members()
        );
    }

    // --- Quorum writes: acked once a majority holds them. ---
    let mut last_lsn = 0;
    for partition in 0..3u64 {
        for i in 0..500 {
            let key = format!("p{partition}-key-{i:04}");
            last_lsn = cluster.write(partition, key.as_bytes(), &[42u8; 512], 0)?;
        }
        let group = cluster.group(partition).unwrap();
        println!(
            "partition {partition}: wrote 500 keys, lsn {last_lsn}, acked by {} of 3 replicas",
            group.acked_count(last_lsn)
        );
    }

    // --- Read consistency levels. ---
    // Leader: always current. ReadYourWrites(lsn): any replica at/past the
    // LSN (load spreads once followers catch up). Eventual: anyone alive.
    let r = cluster.read(0, b"p0-key-0000", ReadConsistency::Leader, 0)?;
    println!(
        "leader read: {} bytes",
        r.value.map(|v| v.len()).unwrap_or(0)
    );
    let r = cluster.read(
        0,
        b"p0-key-0499",
        ReadConsistency::ReadYourWrites(last_lsn),
        0,
    )?;
    println!(
        "fenced read at lsn {last_lsn}: {} bytes (never stale)",
        r.value.map(|v| v.len()).unwrap_or(0)
    );

    // --- Kill the node that leads partition 0. ---
    let victim = cluster.group(0).unwrap().leader().unwrap();
    println!("\nkilling node {victim} …");
    let outcome = cluster.kill_node(victim)?;
    for p in &outcome.plan.promotions {
        println!(
            "  promoted node {} to lead partition {} (most-caught-up follower)",
            p.new_leader, p.partition
        );
    }
    for r in &outcome.plan.reconstructions {
        println!(
            "  re-seeded partition {} replica onto node {} from node {}",
            r.partition, r.dest, r.source
        );
        let group = cluster.group(r.partition).unwrap();
        if !group.members().contains(&r.dest) || !group.is_alive(r.dest) {
            return Err(format!("node {} is not a live member of p{}", r.dest, r.partition).into());
        }
        let (lsn, leader_lsn) = (group.acked_lsn(r.dest)?, group.leader_lsn()?);
        if lsn != leader_lsn {
            return Err(format!(
                "p{} re-seed at lsn {lsn}, leader at {leader_lsn}",
                r.partition
            )
            .into());
        }
    }
    if let Some(rec) = &outcome.reconstruction {
        let model = RecoveryModel {
            failed_node_bytes: rec.bytes_copied as f64,
            per_node_bandwidth: 8e6,
            surviving_nodes: rec.distinct_sources as u32,
        };
        println!(
            "  parallel reconstruction: {} replicas, {:.1} MB in {:.2}s from {} source disks",
            rec.copies.len(),
            rec.bytes_copied as f64 / 1e6,
            rec.elapsed.as_secs_f64(),
            rec.distinct_sources,
        );
        println!(
            "  §3.3 model: single-source {:.2}s vs parallel {:.2}s ({}× speedup)",
            model.single_node_recovery_secs(),
            model.parallel_recovery_secs(),
            rec.distinct_sources,
        );
    }

    // --- No acked write was lost; the cluster keeps serving. ---
    let mut survivors = 0;
    for i in 0..500 {
        let key = format!("p0-key-{i:04}");
        if cluster
            .read(0, key.as_bytes(), ReadConsistency::Leader, 0)?
            .value
            .is_some()
        {
            survivors += 1;
        }
    }
    println!("\nafter failover: {survivors}/500 quorum-acked keys still readable");
    if survivors != 500 {
        return Err(format!("{} acked keys lost in the failover", 500 - survivors).into());
    }
    let lsn = cluster.write(0, b"back-in-business", b"yes", 0)?;
    let group = cluster.group(0).unwrap();
    let (acked, need) = (group.acked_count(lsn), group.commit_need());
    println!("new write at lsn {lsn} acked by {acked} replicas");
    if acked < need {
        return Err(
            format!("the new write has {acked} acks, its write concern needs {need}").into(),
        );
    }

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
