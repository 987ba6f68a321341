//! Intra-pool workload rescheduling — Algorithm 2 (paper §5.3).
//!
//! For each resource (RU, then Storage), divide nodes into S_L / S_M / S_H by
//! utilization against the optimal point; for each non-migrating high-load
//! node, find the replica and low-load destination maximizing the gain
//! `G = max(L(src), L(dst)) − max(L(src−RE), L(dst+RE))`,
//! and migrate when the gain is positive. `CanPlace` enforces that the
//! destination neither takes a second replica of the same partition nor gets
//! pushed into the high-load set.

use crate::load::{NodeState, PoolState, ReplicaLoad};

/// Which resource dimension a migration balanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// Request units (CPU-ish).
    Ru,
    /// Storage bytes.
    Storage,
}

/// A replica movement decided by the rescheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct Migration {
    /// Replica that moved.
    pub replica_id: u64,
    /// Source node.
    pub from_node: u32,
    /// Destination node.
    pub to_node: u32,
    /// Dimension whose pass produced the move.
    pub resource: Resource,
    /// The gain `G` realized.
    pub gain: f64,
}

/// Rescheduler tuning.
#[derive(Debug, Clone, Copy)]
pub struct ReschedulerConfig {
    /// `θ`: the dead-band below the optimal point separating S_L from S_M
    /// ("manually set threshold, such as 5 %").
    pub theta: f64,
    /// Minimum gain for a migration to be worth its cost.
    pub min_gain: f64,
}

impl Default for ReschedulerConfig {
    fn default() -> Self {
        Self {
            theta: 0.05,
            min_gain: 1e-4,
        }
    }
}

/// The intra-pool rescheduler.
#[derive(Debug, Clone, Default)]
pub struct Rescheduler {
    config: ReschedulerConfig,
}

impl Rescheduler {
    /// A rescheduler with the given tuning.
    pub fn new(config: ReschedulerConfig) -> Self {
        Self { config }
    }

    /// One round of Algorithm 2 over both resources. At most one
    /// migration is started per source node per round (`IsMigrating` guards),
    /// mirroring the production constraint that migrations are slow.
    pub fn reschedule_round(&self, pool: &mut PoolState) -> Vec<Migration> {
        let mut out = Vec::new();
        let (r, s) = pool.optimal_load();
        for resource in [Resource::Ru, Resource::Storage] {
            let (low, _medium, high) = self.divide(pool, resource, r, s);
            for src_idx in high {
                if pool.nodes[src_idx].is_migrating {
                    continue;
                }
                let mut best_gain = 0.0_f64;
                let mut best: Option<(u64, usize)> = None;
                for re in &pool.nodes[src_idx].replicas {
                    for &dst_idx in &low {
                        if dst_idx == src_idx {
                            continue;
                        }
                        let dst = &pool.nodes[dst_idx];
                        if dst.is_migrating || !self.can_place(dst, re, r, s, resource) {
                            continue;
                        }
                        let g = gain(&pool.nodes[src_idx], dst, re, r, s);
                        if g > best_gain {
                            best_gain = g;
                            best = Some((re.id, dst_idx));
                        }
                    }
                }
                if let Some((replica_id, dst_idx)) = best {
                    if best_gain < self.config.min_gain {
                        continue;
                    }
                    let replica = pool.nodes[src_idx]
                        .remove_replica(replica_id)
                        .expect("chosen replica present");
                    let from = pool.nodes[src_idx].id;
                    let to = pool.nodes[dst_idx].id;
                    pool.nodes[dst_idx].add_replica(replica);
                    pool.nodes[src_idx].is_migrating = true;
                    pool.nodes[dst_idx].is_migrating = true;
                    out.push(Migration {
                        replica_id,
                        from_node: from,
                        to_node: to,
                        resource,
                        gain: best_gain,
                    });
                }
            }
        }
        out
    }

    /// Run rounds until no migration fires or 400 rounds have run, modeling
    /// the offline regime where every move started in round N has finished
    /// before round N+1 begins: each in-flight migration is completed
    /// *individually* (its two nodes unblocked) rather than by a wholesale
    /// flag sweep, so the completion semantics match the live engine's
    /// per-migration callbacks. Returns all migrations.
    pub fn rebalance_to_convergence(&self, pool: &mut PoolState) -> Vec<Migration> {
        const MAX_ROUNDS: usize = 400;
        let mut all = Vec::new();
        let mut inflight: Vec<Migration> = Vec::new();
        for _ in 0..MAX_ROUNDS {
            for m in inflight.drain(..) {
                pool.complete_migration(m.from_node, m.to_node);
            }
            let moved = self.reschedule_round(pool);
            if moved.is_empty() {
                break;
            }
            inflight.clone_from(&moved);
            all.extend(moved);
        }
        for m in inflight {
            pool.complete_migration(m.from_node, m.to_node);
        }
        all
    }

    /// `Division({DataNodes}, resource)`: indices of S_L, S_M, S_H.
    fn divide(
        &self,
        pool: &PoolState,
        resource: Resource,
        r: f64,
        s: f64,
    ) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        let optimal = match resource {
            Resource::Ru => r,
            Resource::Storage => s,
        };
        let theta = self.config.theta;
        let mut low = Vec::new();
        let mut medium = Vec::new();
        let mut high = Vec::new();
        for (i, node) in pool.nodes.iter().enumerate() {
            let util = match resource {
                Resource::Ru => node.ru_util(),
                Resource::Storage => node.storage_util(),
            };
            if util <= optimal - theta {
                low.push(i);
            } else if util <= optimal {
                medium.push(i);
            } else {
                high.push(i);
            }
        }
        (low, medium, high)
    }

    /// `DN.CanPlace(RE)`: replica-distribution and overload constraints.
    fn can_place(
        &self,
        dst: &NodeState,
        re: &ReplicaLoad,
        r: f64,
        s: f64,
        resource: Resource,
    ) -> bool {
        if dst.hosts_partition(re.partition) {
            return false; // replicas of one partition must stay on distinct nodes
        }
        // Must not push the destination into the high-load set.
        match resource {
            Resource::Ru => dst.ru_util_with(re) <= r,
            Resource::Storage => dst.storage_util_with(re) <= s,
        }
    }
}

/// `G(RE, Des_DN) = max(L(src), L(dst)) − max(L(src − RE), L(dst + RE))`.
pub fn gain(src: &NodeState, dst: &NodeState, re: &ReplicaLoad, r: f64, s: f64) -> f64 {
    let before = src.loss(r, s).max(dst.loss(r, s));
    let after = src.loss_without(re, r, s).max(dst.loss_with(re, r, s));
    before - after
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadVector;

    fn replica(id: u64, tenant: u32, partition: u64, ru_peak: f64, storage: f64) -> ReplicaLoad {
        ReplicaLoad::from_total(id, tenant, partition, LoadVector::flat(ru_peak), storage)
    }

    /// A pool with one overloaded node and one idle node.
    fn skewed_pool() -> PoolState {
        let mut hot = NodeState::new(1, 100.0, 1000.0);
        for i in 0..8 {
            hot.add_replica(replica(i, 1, i, 10.0, 100.0));
        }
        let cold = NodeState::new(2, 100.0, 1000.0);
        PoolState::new(vec![hot, cold])
    }

    #[test]
    fn gain_positive_for_balancing_move() {
        let pool = skewed_pool();
        let (r, s) = pool.optimal_load();
        let re = &pool.nodes[0].replicas[0];
        let g = gain(&pool.nodes[0], &pool.nodes[1], re, r, s);
        assert!(g > 0.0, "gain={g}");
    }

    #[test]
    fn gain_negative_for_unbalancing_move() {
        let pool = skewed_pool();
        let (r, s) = pool.optimal_load();
        let re = replica(100, 1, 100, 10.0, 100.0);
        // Moving INTO the hot node from the cold one.
        let g = gain(&pool.nodes[1], &pool.nodes[0], &re, r, s);
        assert!(g <= 0.0, "gain={g}");
    }

    #[test]
    fn round_moves_replicas_from_high_to_low() {
        let mut pool = skewed_pool();
        let before_std = pool.ru_util_std();
        let moves = Rescheduler::default().reschedule_round(&mut pool);
        assert!(!moves.is_empty());
        assert!(moves.iter().all(|m| m.from_node == 1 && m.to_node == 2));
        assert!(pool.ru_util_std() < before_std);
    }

    #[test]
    fn is_migrating_limits_one_move_per_node_per_round() {
        let mut pool = skewed_pool();
        let moves = Rescheduler::default().reschedule_round(&mut pool);
        // Both nodes flagged after the first move → exactly one migration.
        assert_eq!(moves.len(), 1);
        // Next round without completing the move does nothing.
        let more = Rescheduler::default().reschedule_round(&mut pool);
        assert!(more.is_empty());
        // Completing that migration re-enables its nodes.
        pool.complete_migration(moves[0].from_node, moves[0].to_node);
        assert!(!Rescheduler::default()
            .reschedule_round(&mut pool)
            .is_empty());
    }

    #[test]
    fn slow_migration_blocks_a_second_move_from_the_same_node() {
        // A migration that has not completed must keep blocking its source
        // across arbitrarily many rounds — the regression the old wholesale
        // `finish_migrations` sweep hid (every round cleared every flag, so
        // a "slow" move never actually back-pressured the scheduler).
        let mut pool = skewed_pool();
        let first = Rescheduler::default().reschedule_round(&mut pool);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].from_node, 1);
        for round in 0..5 {
            let moves = Rescheduler::default().reschedule_round(&mut pool);
            assert!(
                moves.is_empty(),
                "round {round} migrated off node 1 while its move was still in flight: {moves:?}"
            );
            assert!(pool.nodes[0].is_migrating, "source flag dropped early");
        }
        // Only the engine's per-migration completion unblocks the node.
        pool.complete_migration(first[0].from_node, first[0].to_node);
        assert!(!pool.nodes[0].is_migrating && !pool.nodes[1].is_migrating);
        let next = Rescheduler::default().reschedule_round(&mut pool);
        assert_eq!(next.len(), 1, "completed nodes should migrate again");
        assert_eq!(next[0].from_node, 1);
        // Completing an unrelated pair must not unblock a busy node.
        pool.complete_migration(7, 9);
        assert!(pool.nodes[0].is_migrating);
    }

    #[test]
    fn convergence_balances_utilization() {
        let mut pool = skewed_pool();
        let before = pool.ru_util_std();
        let moves = Rescheduler::default().rebalance_to_convergence(&mut pool);
        let after = pool.ru_util_std();
        assert!(moves.len() >= 3);
        assert!(after < before * 0.35, "std {before} -> {after}");
    }

    #[test]
    fn can_place_rejects_same_partition() {
        let resched = Rescheduler::default();
        let mut dst = NodeState::new(2, 100.0, 1000.0);
        dst.add_replica(replica(50, 1, 7, 1.0, 1.0));
        let re = replica(51, 1, 7, 1.0, 1.0); // same partition 7
        assert!(!resched.can_place(&dst, &re, 1.0, 1.0, Resource::Ru));
        let other = replica(52, 1, 8, 1.0, 1.0);
        assert!(resched.can_place(&dst, &other, 1.0, 1.0, Resource::Ru));
    }

    #[test]
    fn can_place_rejects_overloading_destination() {
        let resched = Rescheduler::default();
        let mut dst = NodeState::new(2, 100.0, 1000.0);
        dst.add_replica(replica(1, 1, 1, 40.0, 10.0));
        // Optimal R = 0.5; adding 20 RU → util 0.6 > R.
        let re = replica(2, 1, 2, 20.0, 10.0);
        assert!(!resched.can_place(&dst, &re, 0.5, 0.5, Resource::Ru));
    }

    #[test]
    fn storage_dimension_also_balances() {
        let mut fat = NodeState::new(1, 1000.0, 1000.0);
        for i in 0..6 {
            fat.add_replica(replica(i, 1, i, 1.0, 150.0)); // storage heavy
        }
        let thin = NodeState::new(2, 1000.0, 1000.0);
        let mut pool = PoolState::new(vec![fat, thin]);
        let before = pool.storage_util_std();
        Rescheduler::default().rebalance_to_convergence(&mut pool);
        assert!(pool.storage_util_std() < before * 0.5);
    }

    #[test]
    fn balanced_pool_needs_no_moves() {
        let mut n1 = NodeState::new(1, 100.0, 1000.0);
        let mut n2 = NodeState::new(2, 100.0, 1000.0);
        n1.add_replica(replica(1, 1, 1, 30.0, 300.0));
        n2.add_replica(replica(2, 1, 2, 30.0, 300.0));
        let mut pool = PoolState::new(vec![n1, n2]);
        assert!(Rescheduler::default()
            .reschedule_round(&mut pool)
            .is_empty());
    }

    #[test]
    fn larger_pool_converges_and_respects_partition_constraint() {
        // 12 nodes; tenant partitions with 2 replicas each must never co-locate.
        let mut nodes: Vec<NodeState> = (0..12)
            .map(|i| NodeState::new(i, 500.0, 10_000.0))
            .collect();
        let mut id = 0u64;
        for p in 0..30u64 {
            for copy in 0..2 {
                // Pile replicas onto the first 3 nodes.
                let n = ((p as usize) + copy) % 3;
                nodes[n].add_replica(replica(id, (p % 5) as u32, p, 20.0, 300.0));
                id += 1;
            }
        }
        let mut pool = PoolState::new(nodes);
        Rescheduler::default().rebalance_to_convergence(&mut pool);
        // Constraint: no node hosts two replicas of one partition.
        for node in &pool.nodes {
            for p in 0..30u64 {
                let c = node.replicas.iter().filter(|r| r.partition == p).count();
                assert!(
                    c <= 1,
                    "node {} hosts {c} replicas of partition {p}",
                    node.id
                );
            }
        }
        assert!(pool.ru_util_std() < 0.2);
    }
}
