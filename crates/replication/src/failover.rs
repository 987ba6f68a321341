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
//! Each rebuilt replica is a staged join, and what runs here is the tickets'
//! own [`ResyncTicket::copy`]. Bandwidth is modeled by a per-node
//! [`Throttle`] applied to each copied chunk, so wall-clock comparisons
//! between the two strategies reflect disk parallelism rather than
//! incidental filesystem noise.

use crate::{Error, ReplicaId, Result, ResyncTicket};
use abase_lavastore::CheckpointInfo;
use std::collections::BTreeMap;
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

/// What a reconstruction run did.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructionReport {
    /// Each ticket's copy, in the order the tickets were passed.
    pub copies: Vec<CheckpointInfo>,
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

/// Copy every ticket through **one** node's disk, sequentially — the
/// single-tenant replacement-node strategy the paper's §3.3 argues against.
/// `per_node_bandwidth` is the modeled disk bandwidth (None = unthrottled).
pub fn reconstruct_single_source(
    tickets: &mut [ResyncTicket],
    per_node_bandwidth: Option<f64>,
) -> Result<ReconstructionReport> {
    reconstruct(tickets, per_node_bandwidth, |_| 0)
}

/// Copy the tickets in parallel, one worker per distinct source member
/// ([`ResyncTicket::source`]; in a cluster, the node whose disk serves the
/// copy), each with its own disk-bandwidth throttle — the strategy a
/// failover plan's spread sources call for. With balanced assignments over N
/// source nodes this is ≈N× faster than [`reconstruct_single_source`].
pub fn reconstruct_parallel(
    tickets: &mut [ResyncTicket],
    per_node_bandwidth: Option<f64>,
) -> Result<ReconstructionReport> {
    reconstruct(tickets, per_node_bandwidth, ResyncTicket::source)
}

/// Run each ticket's copy on the worker of the disk `disk` names for it,
/// one ticket after another per disk, each disk under its own throttle.
fn reconstruct(
    tickets: &mut [ResyncTicket],
    per_node_bandwidth: Option<f64>,
    disk: fn(&ResyncTicket) -> ReplicaId,
) -> Result<ReconstructionReport> {
    let start = Instant::now();
    let mut by_disk: BTreeMap<ReplicaId, Vec<(usize, &mut ResyncTicket)>> = BTreeMap::new();
    for (i, ticket) in tickets.iter_mut().enumerate() {
        by_disk.entry(disk(ticket)).or_default().push((i, ticket));
    }
    let distinct_sources = by_disk.len();
    let throttle = per_node_bandwidth.map(Throttle::new);
    let mut copies = std::thread::scope(|scope| {
        let workers: Vec<_> = by_disk
            .into_values()
            .map(|turn| {
                scope.spawn(move || {
                    let copy =
                        |(i, t): (usize, &mut ResyncTicket)| Ok((i, t.copy(throttle.as_ref())?));
                    turn.into_iter().map(copy).collect::<Result<Vec<_>>>()
                })
            })
            .collect();
        let panicked = || Error::Transport("reconstruction worker panicked".into());
        workers
            .into_iter()
            .map(|worker| worker.join().unwrap_or_else(|_| Err(panicked())))
            .collect::<Result<Vec<_>>>()
    })?
    .concat();
    copies.sort_unstable_by_key(|&(i, _)| i);
    let copies: Vec<CheckpointInfo> = copies.into_iter().map(|(_, info)| info).collect();
    Ok(ReconstructionReport {
        bytes_copied: copies.iter().map(|c| c.bytes_copied).sum(),
        copies,
        elapsed: start.elapsed(),
        distinct_sources,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupConfig, ReplicaGroup, WriteConcern};
    use abase_lavastore::DbConfig;
    use abase_util::TestDir;
    use std::path::Path;

    /// A one-member group on node `node` (partition `node`) holding `keys`
    /// records, flushed to disk.
    fn seeded_group(dir: &Path, node: ReplicaId, keys: usize) -> ReplicaGroup {
        let config = GroupConfig::new(WriteConcern::Quorum, DbConfig::small_for_tests());
        let mut group = ReplicaGroup::bootstrap(u64::from(node), dir, &[node], config).unwrap();
        for i in 0..keys {
            group
                .put(format!("key-{i:05}").as_bytes(), &[9u8; 128], None, 0)
                .unwrap();
        }
        group.db(node).unwrap().flush().unwrap();
        group
    }

    /// One join ticket per group, staging a new member `dest_base + i` from
    /// its leader.
    fn tickets(dir: &Path, groups: &mut [ReplicaGroup], dest_base: ReplicaId) -> Vec<ResyncTicket> {
        (0..)
            .zip(groups.iter_mut())
            .map(|(i, g)| g.begin_join(dest_base + i, dir, None).unwrap())
            .collect()
    }

    #[test]
    fn rebuilt_replicas_are_complete() {
        let dir = TestDir::new("complete");
        let mut groups: Vec<_> = (0..2).map(|i| seeded_group(dir.path(), i, 50)).collect();
        let mut staged = tickets(dir.path(), &mut groups, 10);
        let report = reconstruct_parallel(&mut staged, None).unwrap();
        assert_eq!(report.copies.len(), 2);
        assert_eq!(report.distinct_sources, 2);
        assert!(report.bytes_copied > 0);
        for ((group, ticket), dest) in groups.iter_mut().zip(staged).zip(10..) {
            group.complete_join(ticket).unwrap();
            let db = group.db(dest).unwrap();
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
        let mut groups: Vec<_> = (0..3).map(|i| seeded_group(dir.path(), i, 1200)).collect();
        let bw = Some(1e6);
        let single =
            reconstruct_single_source(&mut tickets(dir.path(), &mut groups, 10), bw).unwrap();
        let parallel = reconstruct_parallel(&mut tickets(dir.path(), &mut groups, 20), bw).unwrap();
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
