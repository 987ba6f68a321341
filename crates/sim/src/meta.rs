//! The meta server's §3.3 decisions: the failover planner and the recovery
//! arithmetic.
//!
//! The paper's MetaServer (§3.2) keeps the routing table because ABase's
//! replica groups live on other machines. The simulator holds its groups in
//! process, so a group is its own placement record (see
//! `ReplicatedCluster::replica_set`) and what is left of the meta server is
//! its job on a DataNode failure: [`plan_node_failure`] picks leader
//! promotions (the most-caught-up follower wins) and **parallel replica
//! reconstruction** — each lost replica is re-seeded from a different
//! surviving node so the copies saturate many disks at once, the behavior
//! [`RecoveryModel`] states in closed form and `abase-replication`'s
//! failover module measures.

use crate::types::NodeId;
use abase_core::types::PartitionId;
use std::collections::HashMap;

/// The replicas serving one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSet {
    /// Node hosting the live leader replica, if one is alive.
    pub leader: Option<NodeId>,
    /// Nodes hosting live follower replicas.
    pub followers: Vec<NodeId>,
}

impl ReplicaSet {
    /// Leader followed by followers.
    pub fn members(&self) -> Vec<NodeId> {
        self.leader
            .into_iter()
            .chain(self.followers.iter().copied())
            .collect()
    }

    /// Does `node` host a replica of this set?
    pub fn contains(&self, node: NodeId) -> bool {
        self.leader == Some(node) || self.followers.contains(&node)
    }
}

/// One leader promotion in a failover plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Promotion {
    /// Partition whose leader died.
    pub partition: PartitionId,
    /// Surviving follower (most-caught-up by acked LSN) to promote.
    pub new_leader: NodeId,
}

/// One replica copy in a failover plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconstructionAssignment {
    /// Partition whose replica was lost.
    pub partition: PartitionId,
    /// Surviving group member to copy from.
    pub source: NodeId,
    /// Node that will host the rebuilt replica.
    pub dest: NodeId,
}

/// Everything [`plan_node_failure`] decided about one node failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverPlan {
    /// The failed node.
    pub failed: NodeId,
    /// Leader promotions, one per partition the failed node led.
    pub promotions: Vec<Promotion>,
    /// Replica copies, sources spread across surviving nodes.
    pub reconstructions: Vec<ReconstructionAssignment>,
}

impl FailoverPlan {
    /// Distinct source nodes — the reconstruction parallelism degree.
    pub fn distinct_sources(&self) -> usize {
        let mut nodes: Vec<NodeId> = self.reconstructions.iter().map(|r| r.source).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }
}

/// Plan recovery from the failure of `failed` (§3.3) over `sets`, the
/// replica sets of the partitions it served as they stood before it failed.
///
/// For every affected partition, in ascending order, the plan contains a
/// leader promotion when the failed node led it — the surviving follower
/// with the highest `promotable_lsn(partition, node)` wins, ties broken
/// deterministically toward the lowest node id — and one reconstruction
/// assignment re-seeding the lost replica on a spare node drawn from
/// `available`. A follower reporting `None` (dead, or carrying unreconciled
/// divergent history — see `ReplicaGroup::promotable_lsn`) is never
/// promoted: its raw LSN may count records the group's acked history
/// already replaced. Copy *sources* rotate across each group's survivors and
/// *destinations* balance across the spares, so the recovery I/O spreads
/// over as many disks as the cluster can offer (the multi-tenant advantage
/// [`RecoveryModel::multi_tenant_max_utilization`] prices).
pub fn plan_node_failure(
    failed: NodeId,
    sets: &[(PartitionId, ReplicaSet)],
    promotable_lsn: impl Fn(PartitionId, NodeId) -> Option<u64>,
    available: &[NodeId],
) -> FailoverPlan {
    let mut affected: Vec<(PartitionId, ReplicaSet)> = sets
        .iter()
        .filter(|(_, set)| set.contains(failed))
        .cloned()
        .collect();
    affected.sort_unstable_by_key(|&(p, _)| p);
    let mut promotions = Vec::new();
    let mut reconstructions = Vec::new();
    let mut source_load: HashMap<NodeId, usize> = HashMap::new();
    let mut dest_load: HashMap<NodeId, usize> = HashMap::new();
    for (partition, mut set) in affected {
        // 1. Promote if the dead node led this partition.
        if set.leader == Some(failed) {
            set.leader = set
                .followers
                .iter()
                .copied()
                .filter(|&n| n != failed)
                .filter_map(|n| promotable_lsn(partition, n).map(|lsn| (n, lsn)))
                .max_by_key(|&(n, lsn)| (lsn, std::cmp::Reverse(n)))
                .map(|(n, _)| n);
            if let Some(new_leader) = set.leader {
                set.followers.retain(|&n| n != new_leader);
                promotions.push(Promotion {
                    partition,
                    new_leader,
                });
            }
        }
        // The dead member leaves the set (its slot is re-seeded below).
        set.followers.retain(|&n| n != failed);
        // 2. Re-seed the lost replica: source rotates across survivors,
        //    destination balances across spare nodes outside the group.
        let Some(source) = set
            .members()
            .into_iter()
            .min_by_key(|&n| (source_load.get(&n).copied().unwrap_or(0), n))
        else {
            continue; // no survivor: data loss, nothing to plan
        };
        let dest = available
            .iter()
            .copied()
            .filter(|&n| n != failed && !set.contains(n))
            .min_by_key(|&n| (dest_load.get(&n).copied().unwrap_or(0), n));
        let Some(dest) = dest else { continue };
        *source_load.entry(source).or_default() += 1;
        *dest_load.entry(dest).or_default() += 1;
        reconstructions.push(ReconstructionAssignment {
            partition,
            source,
            dest,
        });
    }
    FailoverPlan {
        failed,
        promotions,
        reconstructions,
    }
}

/// The §3.3 recovery model.
///
/// When a DataNode fails, "the MetaServer coordinates parallel replica
/// reconstruction across operational nodes, thereby effectively utilizing
/// multi-node disk I/O bandwidth". A single-tenant replacement node instead
/// restores every replica through its own disk alone.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryModel {
    /// Bytes of replica data the failed node held.
    pub failed_node_bytes: f64,
    /// Per-node rebuild bandwidth (bytes/second).
    pub per_node_bandwidth: f64,
    /// Surviving nodes able to participate in reconstruction.
    pub surviving_nodes: u32,
}

impl RecoveryModel {
    /// Recovery time when one replacement node must ingest everything.
    pub fn single_node_recovery_secs(&self) -> f64 {
        self.failed_node_bytes / self.per_node_bandwidth
    }

    /// Recovery time with parallel reconstruction across survivors (both the
    /// read and write sides spread across `surviving_nodes` disks).
    pub fn parallel_recovery_secs(&self) -> f64 {
        self.failed_node_bytes / (self.per_node_bandwidth * f64::from(self.surviving_nodes))
    }

    /// §3.3 utilization bound for a single-tenant 3-replica system: a node
    /// failure moves 3/2 of a node's load onto the survivors, so utilization
    /// must stay below 2/3.
    pub fn single_tenant_max_utilization() -> f64 {
        2.0 / 3.0
    }

    /// §3.3 utilization bound for an N-node multi-tenant pool: failure load
    /// spreads as 1/N per survivor, allowing utilization up to `N/(N+1)`.
    // LINT: allow(A009): §3.3's bound for any pool size; this file's utilization_bounds_match_paper checks 3 nodes
    pub fn multi_tenant_max_utilization(n_nodes: u32) -> f64 {
        let n = f64::from(n_nodes);
        n / (n + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(leader: NodeId, followers: &[NodeId]) -> ReplicaSet {
        ReplicaSet {
            leader: Some(leader),
            followers: followers.to_vec(),
        }
    }

    #[test]
    fn failover_promotes_most_caught_up_and_spreads_sources() {
        // Node 0 leads partitions 1..=3; each group spans three of nodes 0-3.
        let sets = [
            (1, set(0, &[1, 2])),
            (2, set(0, &[2, 3])),
            (3, set(0, &[3, 1])),
        ];
        // Follower LSNs: per partition, the higher node id is further ahead.
        let acked = |partition: u64, node: u32| Some(partition * 100 + u64::from(node));
        let plan = plan_node_failure(0, &sets, acked, &[1, 2, 3, 4]);
        assert_eq!(plan.failed, 0);
        assert_eq!(plan.promotions.len(), 3);
        // Most-caught-up follower (highest acked LSN) wins each promotion.
        assert_eq!(
            plan.promotions[0],
            Promotion {
                partition: 1,
                new_leader: 2
            }
        );
        assert_eq!(
            plan.promotions[1],
            Promotion {
                partition: 2,
                new_leader: 3
            }
        );
        assert_eq!(
            plan.promotions[2],
            Promotion {
                partition: 3,
                new_leader: 3
            }
        );
        // Every lost replica is re-seeded, from more than one source disk,
        // onto a node outside its set.
        assert_eq!(plan.reconstructions.len(), 3);
        assert!(
            plan.distinct_sources() >= 2,
            "sources must spread: {plan:?}"
        );
        for (r, (p, set)) in plan.reconstructions.iter().zip(&sets) {
            assert_eq!(r.partition, *p);
            assert!(set.contains(r.source) && r.source != 0, "{r:?}");
            assert!(!set.contains(r.dest), "{r:?}");
        }
    }

    #[test]
    fn failover_never_promotes_a_gapped_replica() {
        // Node 1 reports the higher LSN but is gapped/divergent (None):
        // node 2 must win despite being behind.
        let sets = [(5, set(0, &[1, 2]))];
        let plan = plan_node_failure(
            0,
            &sets,
            |_, n| if n == 1 { None } else { Some(3) },
            &[1, 2, 3],
        );
        assert_eq!(plan.promotions.len(), 1);
        assert_eq!(plan.promotions[0].new_leader, 2);
    }

    #[test]
    fn failover_with_no_spare_still_promotes() {
        let sets = [(9, set(0, &[1, 2]))];
        let plan = plan_node_failure(0, &sets, |_, n| Some(u64::from(n)), &[1, 2]);
        assert_eq!(plan.promotions.len(), 1);
        assert_eq!(plan.promotions[0].new_leader, 2);
        // No node outside the group: nothing to re-seed onto.
        assert!(plan.reconstructions.is_empty());
    }

    #[test]
    fn parallel_recovery_is_n_times_faster() {
        let model = RecoveryModel {
            failed_node_bytes: 1e12,
            per_node_bandwidth: 100e6,
            surviving_nodes: 20,
        };
        let single = model.single_node_recovery_secs();
        let parallel = model.parallel_recovery_secs();
        assert!((single / parallel - 20.0).abs() < 1e-9);
        assert!((single - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_bounds_match_paper() {
        assert!((RecoveryModel::single_tenant_max_utilization() - 2.0 / 3.0).abs() < 1e-12);
        // Large pools sustain near-full utilization.
        assert!(RecoveryModel::multi_tenant_max_utilization(20) > 0.95);
        assert!(
            RecoveryModel::multi_tenant_max_utilization(3)
                > RecoveryModel::single_tenant_max_utilization()
        );
    }
}
