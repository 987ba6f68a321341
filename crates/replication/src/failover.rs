//! Parallel replica reconstruction (paper §3.3).
//!
//! When a DataNode fails, every replica it hosted must be rebuilt elsewhere.
//! A single-tenant deployment restores them one after another through a
//! single replacement node's disk; ABase's failover plan instead spreads the
//! copies across the *surviving* members of each affected group, "effectively
//! utilizing multi-node disk I/O bandwidth": with N distinct source nodes,
//! recovery runs ≈N× faster — the claim `abase-sim`'s `RecoveryModel`
//! states in closed form and these functions measure.
//!
//! Bandwidth is modeled by a per-node [`Throttle`] applied to each copied
//! chunk, so wall-clock comparisons between the two strategies reflect disk
//! parallelism rather than incidental filesystem noise.

use crate::{Binlog, Error, LogTransport, Result};
use abase_lavastore::Db;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A per-disk bandwidth limiter: sleeps long enough after each chunk that the
/// long-run copy rate is `bytes_per_sec`.
#[derive(Debug, Clone, Copy)]
pub struct Throttle {
    bytes_per_sec: f64,
}

impl Throttle {
    /// A throttle at `bytes_per_sec`.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0);
        Self { bytes_per_sec }
    }

    /// Account one copied chunk (sleeps to enforce the rate).
    pub fn on_chunk(&self, bytes: usize) {
        let secs = bytes as f64 / self.bytes_per_sec;
        std::thread::sleep(Duration::from_secs_f64(secs));
    }
}

/// One replica to rebuild: stage a checkpoint of `source` into `dest_dir` —
/// the replica's final directory for a raw store, a
/// [`ResyncTicket::staging`](crate::ResyncTicket::staging) directory for a
/// group member (whose install then goes through the ticket's epoch guard).
pub struct ReconstructionTask {
    /// The partition whose replica is being rebuilt.
    pub partition: u64,
    /// A surviving group member to copy from.
    pub source: Arc<Db>,
    /// The node hosting `source` — tasks sharing a node share its disk.
    pub source_node: u32,
    /// Directory the checkpoint is staged into (replaced if it exists).
    pub dest_dir: PathBuf,
}

/// What a reconstruction run did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructionReport {
    /// Replicas rebuilt.
    pub replicas: usize,
    /// Total bytes copied.
    pub bytes_copied: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Distinct source nodes used (the parallelism degree).
    pub distinct_sources: usize,
}

impl ReconstructionReport {
    /// Effective aggregate copy bandwidth in bytes/second.
    pub fn effective_bandwidth(&self) -> f64 {
        self.bytes_copied as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

fn run_tasks(tasks: Vec<ReconstructionTask>, throttle: Option<Throttle>) -> Result<(usize, u64)> {
    let mut replicas = 0usize;
    let mut bytes = 0u64;
    for task in tasks {
        let mut on_chunk = |n: usize| {
            if let Some(t) = throttle {
                t.on_chunk(n);
            }
        };
        let info = Binlog::attach(task.source).fetch_checkpoint(&task.dest_dir, &mut on_chunk)?;
        replicas += 1;
        bytes += info.bytes_copied;
    }
    Ok((replicas, bytes))
}

/// Rebuild every task through **one** node's disk, sequentially — the
/// single-tenant replacement-node strategy the paper's §3.3 argues against.
/// `per_node_bandwidth` is the modeled disk bandwidth (None = unthrottled).
pub fn reconstruct_single_source(
    tasks: Vec<ReconstructionTask>,
    per_node_bandwidth: Option<f64>,
) -> Result<ReconstructionReport> {
    let start = Instant::now();
    let (replicas, bytes_copied) = run_tasks(tasks, per_node_bandwidth.map(Throttle::new))?;
    Ok(ReconstructionReport {
        replicas,
        bytes_copied,
        elapsed: start.elapsed(),
        distinct_sources: 1,
    })
}

/// Rebuild the tasks in parallel, one worker per distinct source node, each
/// with its own disk-bandwidth throttle — the strategy a failover plan's
/// spread sources call for.
/// With balanced assignments over N source nodes this is ≈N× faster than
/// [`reconstruct_single_source`].
pub fn reconstruct_parallel(
    tasks: Vec<ReconstructionTask>,
    per_node_bandwidth: Option<f64>,
) -> Result<ReconstructionReport> {
    let start = Instant::now();
    // Partition tasks by the node whose disk serves them.
    let mut by_node: std::collections::BTreeMap<u32, Vec<ReconstructionTask>> =
        std::collections::BTreeMap::new();
    for task in tasks {
        by_node.entry(task.source_node).or_default().push(task);
    }
    let distinct_sources = by_node.len();
    let throttle = per_node_bandwidth.map(Throttle::new);
    let mut handles = Vec::with_capacity(distinct_sources);
    for (_node, node_tasks) in by_node {
        handles.push(std::thread::spawn(move || run_tasks(node_tasks, throttle)));
    }
    let mut replicas = 0usize;
    let mut bytes_copied = 0u64;
    for handle in handles {
        let (r, b) = handle
            .join()
            .map_err(|_| Error::Transport("reconstruction worker panicked".into()))??;
        replicas += r;
        bytes_copied += b;
    }
    Ok(ReconstructionReport {
        replicas,
        bytes_copied,
        elapsed: start.elapsed(),
        distinct_sources,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_lavastore::DbConfig;
    use abase_util::TestDir;
    use std::path::Path;

    fn seeded_db(dir: &Path, keys: usize) -> Arc<Db> {
        let db = Db::open(dir, DbConfig::small_for_tests()).unwrap();
        for i in 0..keys {
            db.put(format!("key-{i:05}").as_bytes(), &[9u8; 128], None, 0)
                .unwrap();
        }
        db.flush().unwrap();
        Arc::new(db)
    }

    fn tasks(base: &Path, sources: &[Arc<Db>]) -> Vec<ReconstructionTask> {
        sources
            .iter()
            .enumerate()
            .map(|(i, src)| ReconstructionTask {
                partition: i as u64,
                source: Arc::clone(src),
                source_node: i as u32,
                dest_dir: base.join(format!("rebuilt-{i}")),
            })
            .collect()
    }

    #[test]
    fn rebuilt_replicas_are_complete() {
        let dir = TestDir::new("complete");
        let sources: Vec<_> = (0..2)
            .map(|i| seeded_db(&dir.join(format!("src-{i}")), 50))
            .collect();
        let report = reconstruct_parallel(tasks(dir.path(), &sources), None).unwrap();
        assert_eq!(report.replicas, 2);
        assert_eq!(report.distinct_sources, 2);
        assert!(report.bytes_copied > 0);
        for i in 0..2 {
            let db = Db::open(
                dir.join(format!("rebuilt-{i}")),
                DbConfig::small_for_tests(),
            )
            .unwrap();
            for k in 0..50 {
                let key = format!("key-{k:05}");
                assert!(db.get(key.as_bytes(), 0).unwrap().value.is_some(), "{key}");
            }
        }
    }

    #[test]
    fn parallel_beats_single_source_by_about_n() {
        let dir = TestDir::new("speedup");
        // Enough data that the bandwidth throttle's sleeps dominate the
        // wall-clock even when the test suite saturates every core.
        let sources: Vec<_> = (0..3)
            .map(|i| seeded_db(&dir.join(format!("src-{i}")), 1200))
            .collect();
        let bw = Some(1e6);
        let single = reconstruct_single_source(tasks(dir.path(), &sources), bw).unwrap();
        let parallel = reconstruct_parallel(tasks(dir.path(), &sources), bw).unwrap();
        assert_eq!(single.bytes_copied, parallel.bytes_copied);
        let ratio = single.elapsed.as_secs_f64() / parallel.elapsed.as_secs_f64();
        assert!(
            ratio > 1.8,
            "parallel reconstruction should be ≈3× faster, measured {ratio:.2}×"
        );
    }

    #[test]
    fn throttle_enforces_rate() {
        let t = Throttle::new(1e6); // 1 MB/s
        let start = Instant::now();
        t.on_chunk(100_000); // 100 KB -> ≥ 100 ms
        assert!(start.elapsed() >= Duration::from_millis(95));
    }
}
