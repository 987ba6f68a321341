//! The meta server: centralized management (paper §3.2) and the recovery /
//! robustness arithmetic of §3.3.
//!
//! The meta server owns the tenant→partition→replica-set routing table,
//! monitors per-tenant traffic to drive the asynchronous proxy-quota
//! clawback, and — on a DataNode failure — plans leader promotion (the
//! most-caught-up follower wins) plus **parallel replica reconstruction**:
//! each lost replica is re-seeded from a different surviving node so the
//! copies saturate many disks at once, the behavior [`RecoveryModel`] states
//! in closed form and `abase-replication`'s failover module measures.

use crate::types::NodeId;
use abase_core::types::{PartitionId, TenantId};
use abase_quota::TenantQuotaMonitor;
use abase_util::clock::SimTime;
use std::collections::HashMap;

/// The replicas serving one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSet {
    /// Node hosting the leader replica.
    pub leader: NodeId,
    /// Nodes hosting follower replicas.
    pub followers: Vec<NodeId>,
}

impl ReplicaSet {
    /// Leader followed by followers.
    pub fn members(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(1 + self.followers.len());
        out.push(self.leader);
        out.extend_from_slice(&self.followers);
        out
    }

    /// Does `node` host a replica of this set?
    pub fn contains(&self, node: NodeId) -> bool {
        self.leader == node || self.followers.contains(&node)
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

/// Everything the meta server decided about one node failure.
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

/// Routing and control state.
#[derive(Debug)]
pub struct MetaServer {
    /// partition → primary (leader) node.
    routing: HashMap<PartitionId, NodeId>,
    /// partition → full replica set (absent for unreplicated partitions).
    replica_sets: HashMap<PartitionId, ReplicaSet>,
    /// tenant → its partitions.
    tenant_partitions: HashMap<TenantId, Vec<PartitionId>>,
    /// Traffic monitor backing the proxy boost decision.
    pub monitor: TenantQuotaMonitor,
}

impl MetaServer {
    /// A meta server whose traffic monitor uses the given sliding window.
    pub fn new(monitor_window: SimTime) -> Self {
        Self {
            routing: HashMap::new(),
            replica_sets: HashMap::new(),
            tenant_partitions: HashMap::new(),
            monitor: TenantQuotaMonitor::new(monitor_window),
        }
    }

    /// Register a partition on a node.
    pub fn assign_partition(&mut self, tenant: TenantId, partition: PartitionId, node: NodeId) {
        self.routing.insert(partition, node);
        self.tenant_partitions
            .entry(tenant)
            .or_default()
            .push(partition);
    }

    /// Register a replicated partition: writes route to `set.leader`, and the
    /// full membership is retained for failover planning.
    pub fn assign_replica_group(
        &mut self,
        tenant: TenantId,
        partition: PartitionId,
        set: ReplicaSet,
    ) {
        self.assign_partition(tenant, partition, set.leader);
        self.replica_sets.insert(partition, set);
    }

    /// Node currently serving `partition`.
    pub fn route(&self, partition: PartitionId) -> Option<NodeId> {
        self.routing.get(&partition).copied()
    }

    /// Full replica membership of `partition`, when replicated.
    pub fn replica_set(&self, partition: PartitionId) -> Option<&ReplicaSet> {
        self.replica_sets.get(&partition)
    }

    /// Partitions with a replica (leader or follower) on `node`, ascending.
    pub fn partitions_on_node(&self, node: NodeId) -> Vec<PartitionId> {
        let mut out: Vec<PartitionId> = self
            .replica_sets
            .iter()
            .filter(|(_, set)| set.contains(node))
            .map(|(&p, _)| p)
            .collect();
        out.sort_unstable();
        out
    }

    /// Partitions of `tenant`.
    pub fn partitions_of(&self, tenant: TenantId) -> &[PartitionId] {
        self.tenant_partitions
            .get(&tenant)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Move a partition's routing to another node (the instant routing flip;
    /// live migrations go through [`MetaServer::begin_migration`] /
    /// [`MetaServer::complete_migration`] instead). A tracked replica set
    /// follows the flip.
    pub fn move_partition(&mut self, partition: PartitionId, to: NodeId) {
        let from = self.routing.insert(partition, to);
        let Some(from) = from.filter(|&f| f != to) else {
            return;
        };
        if let Some(set) = self.replica_sets.get_mut(&partition) {
            if set.leader == from {
                set.leader = to;
            }
            for f in &mut set.followers {
                if *f == from {
                    *f = to;
                }
            }
            // `to` may have been a member already: it must appear exactly
            // once, and never both as leader and follower.
            let leader = set.leader;
            let mut seen = Vec::with_capacity(set.followers.len());
            set.followers.retain(|&n| {
                let keep = n != leader && !seen.contains(&n);
                seen.push(n);
                keep
            });
        }
    }

    /// Start a live migration: the destination joins the partition's replica
    /// set as a staging follower, so failover planning sees it.
    pub fn begin_migration(&mut self, partition: PartitionId, dest: NodeId) {
        if let Some(set) = self.replica_sets.get_mut(&partition) {
            if !set.contains(dest) {
                set.followers.push(dest);
            }
        }
    }

    /// Atomic cut-over of a live migration: the source leaves the replica
    /// set (taking the leadership slot with it when it led), and routing
    /// follows the set's leader.
    pub fn complete_migration(&mut self, partition: PartitionId, from: NodeId, to: NodeId) {
        if let Some(set) = self.replica_sets.get_mut(&partition) {
            if set.leader == from {
                set.leader = to;
                set.followers.retain(|&n| n != to && n != from);
            } else {
                set.followers.retain(|&n| n != from);
                if !set.contains(to) {
                    set.followers.push(to);
                }
            }
            self.routing.insert(partition, set.leader);
        } else {
            self.routing.insert(partition, to);
        }
    }

    /// Abort a live migration: the staging destination leaves the replica
    /// set (the source never moved).
    pub fn abort_migration(&mut self, partition: PartitionId, dest: NodeId) {
        if let Some(set) = self.replica_sets.get_mut(&partition) {
            if set.leader != dest {
                set.followers.retain(|&n| n != dest);
            }
        }
    }

    /// Plan recovery from the failure of `failed` and update the routing
    /// tables to match the plan (§3.3).
    ///
    /// For every affected partition the plan contains a leader promotion when
    /// the failed node led it — the surviving follower with the highest
    /// `acked_lsn(partition, node)` wins, ties broken deterministically toward
    /// the lowest node id — and one reconstruction assignment re-seeding the
    /// lost replica on a spare node drawn from `available_nodes`. A follower
    /// reporting `None` (dead, or carrying unreconciled divergent history —
    /// see `ReplicaGroup::promotable_lsn`) is never promoted: its raw LSN may
    /// count records the group's acked history already replaced. Copy
    /// *sources* rotate across each group's survivors and *destinations*
    /// balance across the spares, so the recovery I/O spreads over as many
    /// disks as the cluster can offer (the multi-tenant advantage
    /// [`RecoveryModel::multi_tenant_max_utilization`] prices).
    pub fn plan_node_failure(
        &mut self,
        failed: NodeId,
        acked_lsn: impl Fn(PartitionId, NodeId) -> Option<u64>,
        available_nodes: &[NodeId],
    ) -> FailoverPlan {
        let mut affected: Vec<PartitionId> = self
            .replica_sets
            .iter()
            .filter(|(_, set)| set.contains(failed))
            .map(|(&p, _)| p)
            .collect();
        affected.sort_unstable();
        let mut promotions = Vec::new();
        let mut reconstructions = Vec::new();
        let mut source_load: HashMap<NodeId, usize> = HashMap::new();
        let mut dest_load: HashMap<NodeId, usize> = HashMap::new();
        for &partition in &affected {
            // INVARIANT: `affected` was collected from this map's keys above.
            let set = self.replica_sets.get_mut(&partition).expect("affected");
            // 1. Promote if the dead node led this partition.
            if set.leader == failed {
                let winner = set
                    .followers
                    .iter()
                    .copied()
                    .filter(|&n| n != failed)
                    .filter_map(|n| acked_lsn(partition, n).map(|lsn| (n, lsn)))
                    .max_by_key(|&(n, lsn)| (lsn, std::cmp::Reverse(n)))
                    .map(|(n, _)| n);
                if let Some(new_leader) = winner {
                    set.followers.retain(|&n| n != new_leader);
                    set.leader = new_leader;
                    promotions.push(Promotion {
                        partition,
                        new_leader,
                    });
                    self.routing.insert(partition, new_leader);
                }
            }
            // The dead member leaves the set (its slot is re-seeded below).
            set.followers.retain(|&n| n != failed);
            // 2. Re-seed the lost replica: source rotates across survivors,
            //    destination balances across spare nodes outside the group.
            let survivors: Vec<NodeId> =
                set.members().into_iter().filter(|&n| n != failed).collect();
            let Some(&source) = survivors
                .iter()
                .min_by_key(|&&n| (source_load.get(&n).copied().unwrap_or(0), n))
            else {
                continue; // no survivor: data loss, nothing to plan
            };
            let dest = available_nodes
                .iter()
                .copied()
                .filter(|&n| n != failed && !set.contains(n))
                .min_by_key(|&n| (dest_load.get(&n).copied().unwrap_or(0), n));
            let Some(dest) = dest else { continue };
            *source_load.entry(source).or_default() += 1;
            *dest_load.entry(dest).or_default() += 1;
            set.followers.push(dest);
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
    pub fn multi_tenant_max_utilization(n_nodes: u32) -> f64 {
        let n = f64::from(n_nodes);
        n / (n + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_util::clock::secs;

    #[test]
    fn routing_roundtrip() {
        let mut m = MetaServer::new(secs(1));
        m.assign_partition(1, 100, 5);
        m.assign_partition(1, 101, 6);
        assert_eq!(m.route(100), Some(5));
        assert_eq!(m.route(999), None);
        assert_eq!(m.partitions_of(1), &[100, 101]);
        assert!(m.partitions_of(2).is_empty());
        m.move_partition(100, 9);
        assert_eq!(m.route(100), Some(9));
    }

    #[test]
    fn replica_group_routing() {
        let mut m = MetaServer::new(secs(1));
        m.assign_replica_group(
            1,
            100,
            ReplicaSet {
                leader: 5,
                followers: vec![6, 7],
            },
        );
        assert_eq!(m.route(100), Some(5));
        assert_eq!(m.replica_set(100).unwrap().members(), vec![5, 6, 7]);
        assert_eq!(m.partitions_on_node(6), vec![100]);
        assert!(m.partitions_on_node(9).is_empty());
    }

    #[test]
    fn failover_promotes_most_caught_up_and_spreads_sources() {
        let mut m = MetaServer::new(secs(1));
        // Node 0 leads partitions 1..=3; each group spans three of nodes 0-3.
        m.assign_replica_group(
            1,
            1,
            ReplicaSet {
                leader: 0,
                followers: vec![1, 2],
            },
        );
        m.assign_replica_group(
            1,
            2,
            ReplicaSet {
                leader: 0,
                followers: vec![2, 3],
            },
        );
        m.assign_replica_group(
            1,
            3,
            ReplicaSet {
                leader: 0,
                followers: vec![3, 1],
            },
        );
        // Follower LSNs: per partition, the higher node id is further ahead.
        let acked = |partition: u64, node: u32| Some(partition * 100 + u64::from(node));
        let plan = m.plan_node_failure(0, acked, &[1, 2, 3, 4]);
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
        // Every lost replica is re-seeded, from more than one source disk.
        assert_eq!(plan.reconstructions.len(), 3);
        assert!(
            plan.distinct_sources() >= 2,
            "sources must spread: {plan:?}"
        );
        // Routing follows the promotions, and the dead node left every set.
        assert_eq!(m.route(1), Some(2));
        assert_eq!(m.route(2), Some(3));
        for p in 1..=3 {
            let set = m.replica_set(p).unwrap();
            assert!(!set.contains(0), "node 0 still in set of {p}: {set:?}");
            assert_eq!(set.members().len(), 3, "set of {p} not refilled");
        }
    }

    #[test]
    fn move_partition_follows_the_set() {
        let mut m = MetaServer::new(secs(1));
        m.assign_replica_group(
            1,
            100,
            ReplicaSet {
                leader: 5,
                followers: vec![6, 7],
            },
        );
        m.move_partition(100, 9);
        assert_eq!(m.route(100), Some(9));
        assert_eq!(m.replica_set(100).unwrap().members(), vec![9, 6, 7]);
    }

    #[test]
    fn move_partition_to_an_existing_follower_never_duplicates_it() {
        let mut m = MetaServer::new(secs(1));
        m.assign_replica_group(
            1,
            100,
            ReplicaSet {
                leader: 5,
                followers: vec![6, 7],
            },
        );
        // Flip onto follower 6: it becomes the leader and appears exactly
        // once.
        m.move_partition(100, 6);
        let set = m.replica_set(100).unwrap();
        assert_eq!(set.leader, 6);
        assert_eq!(set.members(), vec![6, 7]);
    }

    #[test]
    fn migration_cutover_swaps_membership_and_routing() {
        let mut m = MetaServer::new(secs(1));
        m.assign_replica_group(
            1,
            7,
            ReplicaSet {
                leader: 0,
                followers: vec![1, 2],
            },
        );
        // Stage node 3, then cut over follower 2 → 3.
        m.begin_migration(7, 3);
        assert!(m.replica_set(7).unwrap().contains(3));
        m.complete_migration(7, 2, 3);
        let set = m.replica_set(7).unwrap();
        assert!(!set.contains(2), "source lingers in the set: {set:?}");
        assert!(set.contains(3));
        assert_eq!(set.members().len(), 3);
        assert!(m.partitions_on_node(2).is_empty());
        assert_eq!(m.route(7), Some(0), "leader must not move");
        // Leader migration: routing follows the destination.
        m.begin_migration(7, 4);
        m.complete_migration(7, 0, 4);
        assert_eq!(m.route(7), Some(4));
        assert!(!m.replica_set(7).unwrap().contains(0));
        assert_eq!(m.replica_set(7).unwrap().members().len(), 3);
    }

    #[test]
    fn migration_abort_removes_the_staging_destination() {
        let mut m = MetaServer::new(secs(1));
        m.assign_replica_group(
            1,
            7,
            ReplicaSet {
                leader: 0,
                followers: vec![1, 2],
            },
        );
        m.begin_migration(7, 3);
        m.abort_migration(7, 3);
        assert!(!m.replica_set(7).unwrap().contains(3));
        assert!(m.partitions_on_node(3).is_empty());
    }

    #[test]
    fn failover_never_promotes_a_gapped_replica() {
        let mut m = MetaServer::new(secs(1));
        m.assign_replica_group(
            1,
            5,
            ReplicaSet {
                leader: 0,
                followers: vec![1, 2],
            },
        );
        // Node 1 reports the higher LSN but is gapped/divergent (None):
        // node 2 must win despite being behind.
        let plan = m.plan_node_failure(0, |_, n| if n == 1 { None } else { Some(3) }, &[1, 2, 3]);
        assert_eq!(plan.promotions.len(), 1);
        assert_eq!(plan.promotions[0].new_leader, 2);
    }

    #[test]
    fn failover_with_no_spare_still_promotes() {
        let mut m = MetaServer::new(secs(1));
        m.assign_replica_group(
            1,
            9,
            ReplicaSet {
                leader: 0,
                followers: vec![1, 2],
            },
        );
        let plan = m.plan_node_failure(0, |_, n| Some(u64::from(n)), &[1, 2]);
        assert_eq!(plan.promotions.len(), 1);
        assert_eq!(plan.promotions[0].new_leader, 2);
        // No node outside the group: nothing to re-seed onto.
        assert!(plan.reconstructions.is_empty());
        assert_eq!(m.replica_set(9).unwrap().members().len(), 2);
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
