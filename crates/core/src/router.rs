//! Consistency-aware read routing: the single layer that owns the
//! read-consistency decision end to end.
//!
//! The paper's geo-distributed tenants let `Eventual` and `ReadYourWrites`
//! reads land on follower replicas while only `Leader` reads pay for leader
//! locality. The [`ReadRouter`] makes that a *routing-tier* decision, in the
//! FoundationDB-Record-Layer tradition of separating stateless routing from
//! stateful storage:
//!
//! * `Leader` — route to the partition's leader, always.
//! * `Eventual` — spread over followers whose **reported** LSN lag is within
//!   [`ReadRouterConfig::max_eventual_lag`], least recently served first
//!   ([`Rotation`]); fall back to the leader when no follower is caught up
//!   enough.
//! * `ReadYourWrites(lsn)` — route to a follower whose reported LSN has
//!   reached the session's fence; fall back to the leader (which, as the
//!   write's origin, always satisfies it).
//!
//! The router decides from the [`MetaServer`]'s per-replica health/LSN
//! reports, which may trail the group by one heartbeat — so the replica group
//! re-validates every fence on `read_at` and the caller re-routes to the
//! leader on [`abase_replication::Error::StaleReplica`] /
//! [`abase_replication::Error::ReplicaUnavailable`]. Stale routing costs a
//! retry, never a stale read.

use crate::meta::MetaServer;
use crate::types::{NodeId, PartitionId};
use abase_replication::{ReadConsistency, Rotation};
use std::collections::HashMap;

/// Router tuning.
#[derive(Debug, Clone, Copy)]
pub struct ReadRouterConfig {
    /// Maximum reported LSN lag (in records) a follower may trail by and
    /// still take `Eventual` reads. Beyond it the replica is considered too
    /// stale to be useful and reads concentrate on fresher copies.
    pub max_eventual_lag: u64,
}

impl Default for ReadRouterConfig {
    fn default() -> Self {
        Self {
            max_eventual_lag: 512,
        }
    }
}

/// Where one read should go, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Node whose replica should serve the read.
    pub node: NodeId,
    /// True when the chosen replica is the partition's leader.
    pub is_leader: bool,
    /// The chosen replica's reported LSN lag at decision time (0 for the
    /// leader). The *observed* lag at read time is stamped by the group.
    pub reported_lag: u64,
}

/// Routing counters: how many reads went where.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Reads routed to the leader because the consistency level required it.
    pub leader_reads: u64,
    /// Reads routed to a follower replica.
    pub follower_reads: u64,
    /// Reads that wanted a follower but fell back to the leader (no follower
    /// healthy/caught-up enough, or a fence re-route after a stale decision).
    pub leader_fallbacks: u64,
}

/// The replica-aware read router.
#[derive(Debug, Default)]
pub struct ReadRouter {
    config: ReadRouterConfig,
    /// Per-partition rotation: each spread read goes to the
    /// least-recently-served candidate.
    rotations: HashMap<PartitionId, Rotation>,
    stats: RouterStats,
}

impl ReadRouter {
    /// A router with the given tuning.
    pub fn new(config: ReadRouterConfig) -> Self {
        Self {
            config,
            rotations: HashMap::new(),
            stats: RouterStats::default(),
        }
    }

    /// Routing counters accumulated so far.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Record that a follower decision had to be re-routed to the leader
    /// (fence failure or replica death discovered at the group). Keeps the
    /// follower/fallback attribution correct when the caller retries.
    pub fn note_fallback(&mut self) {
        self.stats.follower_reads = self.stats.follower_reads.saturating_sub(1);
        self.stats.leader_fallbacks += 1;
    }

    /// Decide which node serves a read of `partition` at `consistency`,
    /// from the meta server's replica-set + health view. `None` when the
    /// partition is unknown.
    pub fn route(
        &mut self,
        meta: &MetaServer,
        partition: PartitionId,
        consistency: ReadConsistency,
    ) -> Option<RouteDecision> {
        let leader = meta.route(partition)?;
        let leader_decision = |stats: &mut RouterStats, fallback: bool| {
            if fallback {
                stats.leader_fallbacks += 1;
            } else {
                stats.leader_reads += 1;
            }
            RouteDecision {
                node: leader,
                is_leader: true,
                reported_lag: 0,
            }
        };
        let min_lsn = match consistency {
            ReadConsistency::Leader => {
                return Some(leader_decision(&mut self.stats, false));
            }
            ReadConsistency::Eventual => None,
            ReadConsistency::ReadYourWrites(lsn) => Some(lsn),
        };
        // Follower candidates: alive, fenced (RYW) or within the staleness
        // budget (Eventual). `read_candidates` lists the leader first.
        let max_lag = self.config.max_eventual_lag;
        let candidates = meta
            .read_candidates(partition, min_lsn)
            .into_iter()
            .filter(|&n| n != leader)
            .filter(|&n| {
                min_lsn.is_some()
                    || meta
                        .replica_lag(partition, n)
                        .is_some_and(|lag| lag <= max_lag)
            });
        let Some(node) = self
            .rotations
            .entry(partition)
            .or_default()
            .pick(candidates)
        else {
            return Some(leader_decision(&mut self.stats, true));
        };
        self.stats.follower_reads += 1;
        Some(RouteDecision {
            node,
            is_leader: false,
            reported_lag: meta.replica_lag(partition, node).unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::ReplicaSet;
    use abase_util::clock::secs;

    fn meta_with_group() -> MetaServer {
        let mut m = MetaServer::new(secs(1));
        m.assign_replica_group(
            1,
            7,
            ReplicaSet {
                leader: 0,
                followers: vec![1, 2],
            },
        );
        m.report_replica_health(7, 0, true, 100);
        m.report_replica_health(7, 1, true, 100);
        m.report_replica_health(7, 2, true, 100);
        m
    }

    #[test]
    fn leader_consistency_always_routes_to_leader() {
        let meta = meta_with_group();
        let mut router = ReadRouter::default();
        for _ in 0..5 {
            let d = router.route(&meta, 7, ReadConsistency::Leader).unwrap();
            assert_eq!(d.node, 0);
            assert!(d.is_leader);
        }
        assert_eq!(router.stats().leader_reads, 5);
        assert_eq!(router.stats().follower_reads, 0);
    }

    #[test]
    fn eventual_spreads_over_caught_up_followers() {
        let meta = meta_with_group();
        let mut router = ReadRouter::default();
        let mut served = std::collections::HashSet::new();
        for _ in 0..4 {
            let d = router.route(&meta, 7, ReadConsistency::Eventual).unwrap();
            assert!(!d.is_leader, "eventual read went to the leader");
            served.insert(d.node);
        }
        assert_eq!(served, [1, 2].into_iter().collect());
        assert_eq!(router.stats().follower_reads, 4);
    }

    #[test]
    fn eventual_skips_laggy_and_dead_followers() {
        let mut meta = meta_with_group();
        // Follower 2 is dead; follower 1 starts caught up, then falls behind.
        meta.report_replica_health(7, 1, true, 100); // caught up
        meta.report_replica_health(7, 2, false, 100);
        let mut router = ReadRouter::new(ReadRouterConfig {
            max_eventual_lag: 10,
        });
        let d = router.route(&meta, 7, ReadConsistency::Eventual).unwrap();
        assert_eq!(d.node, 1);
        meta.report_replica_health(7, 1, true, 5);
        let d = router.route(&meta, 7, ReadConsistency::Eventual).unwrap();
        assert!(d.is_leader, "laggy follower should be skipped");
        assert_eq!(router.stats().leader_fallbacks, 1);
    }

    #[test]
    fn ryw_routes_to_fenced_follower_or_leader() {
        let mut meta = meta_with_group();
        meta.report_replica_health(7, 1, true, 50); // behind the fence
        meta.report_replica_health(7, 2, true, 120); // past the fence
        let mut router = ReadRouter::default();
        for _ in 0..3 {
            let d = router
                .route(&meta, 7, ReadConsistency::ReadYourWrites(100))
                .unwrap();
            assert_eq!(d.node, 2, "only follower 2 satisfies the fence");
        }
        // Fence beyond every follower: the leader takes it.
        let d = router
            .route(&meta, 7, ReadConsistency::ReadYourWrites(500))
            .unwrap();
        assert!(d.is_leader);
    }

    #[test]
    fn unreplicated_partitions_route_to_their_single_node() {
        let mut meta = MetaServer::new(secs(1));
        meta.assign_partition(1, 9, 4);
        let mut router = ReadRouter::default();
        let d = router.route(&meta, 9, ReadConsistency::Eventual).unwrap();
        assert_eq!(d.node, 4);
        assert!(router.route(&meta, 999, ReadConsistency::Leader).is_none());
    }

    #[test]
    fn rotation_survives_shrinking_candidate_sets() {
        // Follower 1 is fully caught up; follower 2 trails a little, so a
        // RYW fence at 100 shrinks the candidate set to {1} while Eventual
        // still sees {1, 2}. With the old `cursor % len` arithmetic the
        // interleaved RYW reads advanced the shared cursor by one each,
        // locking the Eventual reads onto a single parity — one follower
        // took *all* the spread traffic. Least-recently-served must balance
        // the combined load across both followers.
        let mut meta = meta_with_group();
        meta.report_replica_health(7, 1, true, 100);
        meta.report_replica_health(7, 2, true, 60);
        let mut router = ReadRouter::default();
        let mut served: std::collections::HashMap<NodeId, u32> = std::collections::HashMap::new();
        for _ in 0..8 {
            let d = router
                .route(&meta, 7, ReadConsistency::ReadYourWrites(100))
                .unwrap();
            assert_eq!(d.node, 1, "only follower 1 satisfies the fence");
            *served.entry(d.node).or_default() += 1;
            let d = router.route(&meta, 7, ReadConsistency::Eventual).unwrap();
            assert!(!d.is_leader);
            *served.entry(d.node).or_default() += 1;
        }
        let n1 = served.get(&1).copied().unwrap_or(0);
        let n2 = served.get(&2).copied().unwrap_or(0);
        assert_eq!(n1 + n2, 16);
        assert!(
            n1.abs_diff(n2) <= 1,
            "spread traffic skewed onto one follower: {served:?}"
        );
        // A candidate dying mid-rotation (the set shrinks, then grows back)
        // must not wedge the rotation either.
        meta.report_replica_health(7, 2, false, 60);
        for _ in 0..3 {
            let d = router.route(&meta, 7, ReadConsistency::Eventual).unwrap();
            assert_eq!(d.node, 1);
        }
        meta.report_replica_health(7, 2, true, 60);
        let mut revived = std::collections::HashSet::new();
        for _ in 0..4 {
            revived.insert(
                router
                    .route(&meta, 7, ReadConsistency::Eventual)
                    .unwrap()
                    .node,
            );
        }
        assert_eq!(
            revived,
            [1, 2].into_iter().collect(),
            "rotation never recovered follower 2"
        );
    }

    #[test]
    fn fallback_note_reattributes_the_read() {
        let meta = meta_with_group();
        let mut router = ReadRouter::default();
        router.route(&meta, 7, ReadConsistency::Eventual).unwrap();
        assert_eq!(router.stats().follower_reads, 1);
        router.note_fallback();
        assert_eq!(router.stats().follower_reads, 0);
        assert_eq!(router.stats().leader_fallbacks, 1);
    }
}
