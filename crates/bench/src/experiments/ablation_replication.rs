//! Replication ablation: write-concern cost, recovery parallelism, and
//! follower-read routing.
//!
//! Three experiments over real 3-replica WAL-shipping groups, emitting one
//! JSON object so downstream tooling can diff runs:
//!
//! 1. **Write concern** — identical write streams against `Async`, `Quorum`,
//!    and `All` groups; reports throughput and latency percentiles. `Async`
//!    acks at the leader WAL, `Quorum` ships to one follower synchronously,
//!    `All` to both — the classic durability/latency trade.
//! 2. **Recovery parallelism** — reconstruct a failed node's replicas from
//!    one source disk vs. in parallel from N survivors under the same
//!    modeled per-disk bandwidth, next to the §3.3 closed-form
//!    [`RecoveryModel`] prediction the measurement should reproduce.
//! 3. **Follower reads** — the read-routing ablation: the same read stream
//!    against the leader replica only vs. routed across every replica,
//!    reporting read throughput, p50/p99, per-replica-count scaling, and the
//!    observed staleness (LSN lag at read time) of `Eventual` routed reads
//!    under an async write trickle.
//!
//! A smoke run shrinks every workload — the JSON shape is identical, only the
//! sample counts drop. Every run checks the follower-read facts `check` names.

use crate::banner;
use abase_sim::cluster::{ReplicatedCluster, ReplicatedClusterConfig};
use abase_sim::meta::RecoveryModel;
use abase_sim::node::DataNodeConfig;
use abase_lavastore::{Db, DbConfig};
use abase_replication::{
    reconstruct_parallel, reconstruct_single_source, GroupConfig, ReadConsistency, ReplicaGroup,
    ReplicaId, ResyncTicket, WriteConcern,
};
use abase_util::Histogram;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const VALUE_BYTES: usize = 256;
/// Modeled per-node disk bandwidth for the recovery experiment (bytes/sec).
const DISK_BW: f64 = 4e6;
/// Surviving source nodes in the recovery experiment.
const SURVIVORS: usize = 3;
/// Replicas in the follower-read experiment's group.
const READ_REPLICAS: usize = 3;

/// Workload sizes, shrunk for a smoke run.
struct Sizes {
    writes: usize,
    recovery_keys: usize,
    read_keys: usize,
    reads_per_thread: usize,
    staleness_writes: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            writes: 60,
            recovery_keys: 120,
            read_keys: 200,
            reads_per_thread: 1_000,
            staleness_writes: 40,
        }
    } else {
        Sizes {
            writes: 400,
            recovery_keys: 800,
            read_keys: 2_000,
            reads_per_thread: 20_000,
            staleness_writes: 200,
        }
    }
}

struct ConcernResult {
    name: &'static str,
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
    acked_all: bool,
}

fn bench_concern(
    base: &Path,
    concern: WriteConcern,
    name: &'static str,
    writes: usize,
) -> ConcernResult {
    let dir = base.join(name);
    std::fs::remove_dir_all(&dir).ok();
    let mut group = ReplicaGroup::bootstrap(
        1,
        &dir,
        &[1, 2, 3],
        GroupConfig::new(concern, DbConfig::default()),
    )
    .expect("bootstrap group");
    let value = vec![7u8; VALUE_BYTES];
    let mut latencies = Histogram::new();
    let started = Instant::now();
    let mut last_lsn = 0;
    for i in 0..writes {
        let key = format!("key-{i:06}");
        let t0 = Instant::now();
        last_lsn = group
            .put(key.as_bytes(), &value, None, 0)
            .expect("replicated write");
        latencies.record(t0.elapsed().as_nanos() as u64);
    }
    let elapsed = started.elapsed().as_secs_f64();
    // Async leaves followers behind by design; verify convergence afterwards.
    group.tick().expect("final pump");
    let acked_all = group.acked_count(last_lsn) == 3;
    std::fs::remove_dir_all(&dir).ok();
    ConcernResult {
        name,
        throughput: writes as f64 / elapsed,
        p50_us: latencies.quantile(0.50).map_or(0.0, |ns| ns / 1e3),
        p99_us: latencies.quantile(0.99).map_or(0.0, |ns| ns / 1e3),
        acked_all,
    }
}

/// Measured outcome of one read-routing mode.
#[derive(Debug, Clone)]
struct ReadModeResult {
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Hammer `dbs` with `threads` concurrent readers (thread `t` pinned to
/// replica `t % dbs.len()` — leader-only passes a single-element slice) and
/// report aggregate throughput plus latency percentiles.
fn bench_reads(
    dbs: &[Arc<Db>],
    threads: usize,
    keys: usize,
    reads_per_thread: usize,
) -> ReadModeResult {
    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let db = Arc::clone(&dbs[t % dbs.len()]);
            std::thread::spawn(move || {
                let mut hist = Histogram::new();
                for i in 0..reads_per_thread {
                    let key = format!("key-{:06}", (i * 31 + t * 7) % keys);
                    let t0 = Instant::now();
                    let r = db.get(key.as_bytes(), 0).expect("replica read");
                    assert!(r.value.is_some(), "seeded key missing on replica");
                    hist.record(t0.elapsed().as_nanos() as u64);
                }
                hist
            })
        })
        .collect();
    let mut merged = Histogram::new();
    for handle in handles {
        merged.merge(&handle.join().expect("reader thread"));
    }
    let elapsed = started.elapsed().as_secs_f64();
    ReadModeResult {
        throughput: (threads * reads_per_thread) as f64 / elapsed,
        p50_us: merged.quantile(0.50).map_or(0.0, |ns| ns / 1e3),
        p99_us: merged.quantile(0.99).map_or(0.0, |ns| ns / 1e3),
    }
}

/// Modeled sustainable read throughput for one routing mode: route `reads`
/// through a real cluster, then divide a node's RU/s budget by the *hottest*
/// replica's share of the read RU — the node that saturates first caps the
/// aggregate. Leader-only routing pins every read on one node; routed
/// `Eventual` reads rotate over every replica, so capacity grows with the
/// replica count.
fn modeled_read_capacity(base: &Path, replicas: u32, reads: usize, leader_only: bool) -> f64 {
    let dir = base.join(format!(
        "capacity-{replicas}-{}",
        if leader_only { "leader" } else { "routed" }
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut cluster = ReplicatedCluster::new(
        &dir,
        replicas,
        ReplicatedClusterConfig {
            replication_factor: replicas as usize,
            write_concern: WriteConcern::All,
            db: DbConfig::small_for_tests(),
            recovery_bandwidth: None,
            ..Default::default()
        },
    );
    cluster.create_partition(0).expect("partition");
    let keys = 64usize;
    for i in 0..keys {
        cluster
            .write(0, format!("key-{i:03}").as_bytes(), &[5u8; 128], 0)
            .expect("seed write");
    }
    cluster.tick().expect("converge");
    let consistency = if leader_only {
        ReadConsistency::Leader
    } else {
        ReadConsistency::Eventual
    };
    for i in 0..reads {
        cluster
            .read_routed(0, format!("key-{:03}", i % keys).as_bytes(), consistency, 0)
            .expect("routed read");
    }
    let members = cluster.replica_set(0).expect("set").members();
    let max_node_read_ru = members
        .iter()
        .map(|&n| cluster.node(n).expect("node").replica_ru_split(0).read_ru)
        .fold(0.0f64, f64::max);
    let node_ru_per_sec = DataNodeConfig::default().cpu_ru_per_sec;
    std::fs::remove_dir_all(&dir).ok();
    node_ru_per_sec * reads as f64 / max_node_read_ru.max(1e-9)
}

/// Observed staleness of `Eventual` routed reads under an async write
/// trickle: after each un-pumped write, one routed read records the serving
/// replica's LSN lag. After a final pump the lag must collapse to zero.
#[derive(Debug, Clone)]
struct StalenessResult {
    reads: usize,
    mean_lag: f64,
    max_lag: u64,
    lag_after_converge: u64,
}

fn bench_staleness(base: &Path, writes: usize) -> StalenessResult {
    let dir = base.join("staleness");
    std::fs::remove_dir_all(&dir).ok();
    let mut group = ReplicaGroup::bootstrap(
        1,
        &dir,
        &[1, 2, 3],
        GroupConfig::new(WriteConcern::Async, DbConfig::default()),
    )
    .expect("bootstrap group");
    let mut lag_sum = 0u64;
    let mut max_lag = 0u64;
    for i in 0..writes {
        group
            .put(format!("s-{i:06}").as_bytes(), &[3u8; 64], None, 0)
            .expect("async write");
        let routed = group
            .read_routed(b"s-000000", ReadConsistency::Eventual, 0)
            .expect("routed read");
        lag_sum += routed.lag;
        max_lag = max_lag.max(routed.lag);
    }
    group.tick().expect("converge");
    let after = group
        .read_routed(b"s-000000", ReadConsistency::Eventual, 0)
        .expect("routed read after converge");
    std::fs::remove_dir_all(&dir).ok();
    StalenessResult {
        reads: writes,
        mean_lag: lag_sum as f64 / writes.max(1) as f64,
        max_lag,
        lag_after_converge: after.lag,
    }
}

/// A one-member group on node `node` (partition `node`) holding `keys`
/// records: a survivor whose replica of a dead node's partition is re-seeded.
fn seeded_source(base: &Path, node: ReplicaId, keys: usize) -> ReplicaGroup {
    let config = GroupConfig::new(WriteConcern::Quorum, DbConfig::default());
    let mut group =
        ReplicaGroup::bootstrap(u64::from(node), base, &[node], config).expect("open source");
    for i in 0..keys {
        group
            .put(format!("key-{i:06}").as_bytes(), &[3u8; 512], None, 0)
            .expect("seed put");
    }
    group
        .db(node)
        .expect("source db")
        .flush()
        .expect("seed flush");
    group
}

/// One staged join per survivor's group, onto node `dest_base + i`.
fn recovery_tickets(
    base: &Path,
    sources: &mut [ReplicaGroup],
    dest_base: ReplicaId,
) -> Vec<ResyncTicket> {
    (dest_base..)
        .zip(sources.iter_mut())
        .map(|(dest, group)| group.begin_join(dest, base, None).expect("stage join"))
        .collect()
}

/// The follower-read facts: both routing modes served reads, routed reads
/// were timed, the followers converged after the async trickle, and modelled
/// read capacity grows from 2 to 4 replicas.
fn check(
    leader_only: &ReadModeResult,
    routed: &ReadModeResult,
    scaling: &[(u32, f64)],
    staleness: &StalenessResult,
) -> Result<(), String> {
    ensure!(leader_only.throughput > 0.0, "leader-only reads stalled: {leader_only:?}");
    ensure!(
        routed.throughput > 0.0 && routed.p99_us > 0.0,
        "routed reads stalled or went untimed: {routed:?}"
    );
    ensure!(
        staleness.lag_after_converge == 0,
        "followers did not converge: {staleness:?}"
    );
    let capacity = |n| scaling.iter().find(|&&(k, _)| k == n).map(|&(_, rps)| rps);
    ensure!(
        matches!((capacity(2), capacity(4)), (Some(two), Some(four)) if four > two),
        "read capacity does not scale with replicas: {scaling:?}"
    );
    Ok(())
}

/// Run the three studies, print the JSON report, and check it.
pub fn run(smoke: bool) -> Result<(), String> {
    banner(
        "ablation_replication",
        "write-concern cost, §3.3 recovery parallelism, follower-read routing",
        "parallel reconstruction is ≈N× faster; routed reads scale with replica count",
    );
    let sz = sizes(smoke);
    let base: PathBuf = std::env::temp_dir().join(format!("abase-ablrepl-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).expect("create bench dir");

    // -- Experiment 1: write concerns ------------------------------------
    let concerns = [
        bench_concern(&base, WriteConcern::Async, "async", sz.writes),
        bench_concern(&base, WriteConcern::Quorum, "quorum", sz.writes),
        bench_concern(&base, WriteConcern::All, "all", sz.writes),
    ];

    // -- Experiment 2: recovery parallelism ------------------------------
    let recovery_dir = base.join("recovery");
    let mut sources: Vec<ReplicaGroup> = (0..SURVIVORS as ReplicaId)
        .map(|i| seeded_source(&recovery_dir, i, sz.recovery_keys))
        .collect();
    let mut tickets = |dest_base| recovery_tickets(&recovery_dir, &mut sources, dest_base);
    let single = reconstruct_single_source(&mut tickets(10), Some(DISK_BW))
        .expect("single-source reconstruction");
    let parallel =
        reconstruct_parallel(&mut tickets(20), Some(DISK_BW)).expect("parallel reconstruction");
    let measured_speedup = single.elapsed.as_secs_f64() / parallel.elapsed.as_secs_f64();
    let model = RecoveryModel {
        failed_node_bytes: single.bytes_copied as f64,
        per_node_bandwidth: DISK_BW,
        surviving_nodes: SURVIVORS as u32,
    };
    let model_speedup = model.single_node_recovery_secs() / model.parallel_recovery_secs();

    // -- Experiment 3: follower-read routing ------------------------------
    // Seed a fully converged group (All: every put lands on every replica),
    // then run the identical read stream leader-only vs routed.
    let read_dir = base.join("follower-reads");
    let mut read_group = ReplicaGroup::bootstrap(
        1,
        &read_dir,
        &[1, 2, 3],
        GroupConfig::new(WriteConcern::All, DbConfig::default()),
    )
    .expect("bootstrap read group");
    for i in 0..sz.read_keys {
        read_group
            .put(
                format!("key-{i:06}").as_bytes(),
                &[9u8; VALUE_BYTES],
                None,
                0,
            )
            .expect("seed write");
    }
    let replica_dbs: Vec<Arc<Db>> = [1, 2, 3]
        .iter()
        .map(|&id| read_group.db(id).expect("replica db"))
        .collect();
    let leader_only = bench_reads(
        &replica_dbs[..1],
        READ_REPLICAS,
        sz.read_keys,
        sz.reads_per_thread,
    );
    let routed = bench_reads(
        &replica_dbs,
        READ_REPLICAS,
        sz.read_keys,
        sz.reads_per_thread,
    );
    drop(read_group);
    // Scaling curve (cost model): sustainable aggregate read throughput
    // before the hottest replica saturates its node's RU budget, at growing
    // replica counts — routed `Eventual` reads rotate over every replica, so
    // the capacity grows where leader-only routing stays flat.
    let capacity_reads = sz.staleness_writes * 6;
    let leader_capacity = modeled_read_capacity(&base, 3, capacity_reads, true);
    let scaling: Vec<(u32, f64)> = [2u32, 3, 4]
        .iter()
        .map(|&n| (n, modeled_read_capacity(&base, n, capacity_reads, false)))
        .collect();
    let staleness = bench_staleness(&base, sz.staleness_writes);
    std::fs::remove_dir_all(&base).ok();

    // -- JSON report ------------------------------------------------------
    let write_concerns = concerns
        .iter()
        .map(|c| {
            format!(
                "    \"{}\": {{\"throughput_wps\": {:.1}, \"p50_us\": {:.1}, \
                 \"p99_us\": {:.1}, \"converged\": {}}}",
                c.name, c.throughput, c.p50_us, c.p99_us, c.acked_all
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let mode = |r: &ReadModeResult| {
        format!(
            "{{\"read_throughput_rps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
            r.throughput, r.p50_us, r.p99_us
        )
    };
    let scaling_rps = scaling
        .iter()
        .map(|(n, rps)| format!("      \"{n}\": {rps:.1}"))
        .collect::<Vec<_>>()
        .join(",\n");
    println!(
        r#"{{
  "writes": {writes},
  "value_bytes": {VALUE_BYTES},
  "write_concerns": {{
{write_concerns}
  }},
  "recovery": {{
    "disk_bandwidth_bytes_per_sec": {DISK_BW},
    "bytes_per_replica": {per_replica},
    "total_bytes": {total_bytes},
    "single_source_secs": {single_secs:.3},
    "parallel_secs": {parallel_secs:.3},
    "parallel_sources": {sources},
    "measured_speedup": {measured_speedup:.2},
    "model_speedup": {model_speedup:.2},
    "model_single_secs": {model_single:.3},
    "model_parallel_secs": {model_parallel:.3}
  }},
  "follower_reads": {{
    "replicas": {READ_REPLICAS},
    "reads_per_mode": {reads_per_mode},
    "leader_only": {leader_mode},
    "routed": {routed_mode},
    "model_leader_only_capacity_rps": {leader_capacity:.1},
    "scaling_read_capacity_rps": {{
{scaling_rps}
    }},
    "observed_staleness": {{"reads": {reads}, "mean_lag_records": {mean_lag:.2},
      "max_lag_records": {max_lag}, "lag_after_converge": {lag_after_converge}}}
  }}
}}"#,
        writes = sz.writes,
        leader_mode = mode(&leader_only),
        routed_mode = mode(&routed),
        per_replica = single.bytes_copied / SURVIVORS as u64,
        total_bytes = single.bytes_copied,
        single_secs = single.elapsed.as_secs_f64(),
        parallel_secs = parallel.elapsed.as_secs_f64(),
        sources = parallel.distinct_sources,
        model_single = model.single_node_recovery_secs(),
        model_parallel = model.parallel_recovery_secs(),
        reads_per_mode = READ_REPLICAS * sz.reads_per_thread,
        reads = staleness.reads,
        mean_lag = staleness.mean_lag,
        max_lag = staleness.max_lag,
        lag_after_converge = staleness.lag_after_converge,
    );
    check(&leader_only, &routed, &scaling, &staleness)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_refuses_each_doctored_fact() {
        let mode = ReadModeResult {
            throughput: 1e5,
            p50_us: 2.0,
            p99_us: 9.0,
        };
        let staleness = StalenessResult {
            reads: 40,
            mean_lag: 1.5,
            max_lag: 3,
            lag_after_converge: 0,
        };
        let scaling = vec![(2, 1e4), (3, 1.5e4), (4, 2e4)];
        crate::refuses_each(
            (mode.clone(), mode, scaling, staleness),
            |(leader_only, routed, scaling, staleness)| {
                check(leader_only, routed, scaling, staleness)
            },
            &[
                |(leader_only, ..)| leader_only.throughput = 0.0,
                |(_, routed, ..)| routed.throughput = 0.0,
                |(_, routed, ..)| routed.p99_us = 0.0,
                |(.., scaling, _)| scaling[2].1 = 1e4,
                |(.., scaling, _)| scaling.truncate(2),
                |(.., staleness)| staleness.lag_after_converge = 2,
            ],
        );
    }
}
