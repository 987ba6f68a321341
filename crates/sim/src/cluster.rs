//! The replicated cluster: real WAL-shipping replica groups placed across
//! simulated DataNodes, with planned failover, parallel reconstruction and
//! live migration.
//!
//! The groups are the only placement record: a partition's leader is its
//! group's [`ReplicaGroup::leader`], its replica set a view of the group's
//! live members ([`ReplicatedCluster::replica_set`]), and a node's load is
//! the groups it is a member of. A read's replica is picked by the group
//! itself ([`ReplicaGroup::read_routed`]), the decision `abase-server` runs;
//! the cluster adds placement, the §3.3 failover plan
//! ([`plan_node_failure`]) and per-replica RU accounting around it.

use crate::meta::{plan_node_failure, FailoverPlan, ReplicaSet};
use crate::migration::{MigrationConfig, MigrationEngine, MigrationError, MigrationRequest};
use crate::types::NodeId;
use abase_core::types::PartitionId;
use abase_lavastore::DbConfig;
use abase_quota::ru::{charge_read, write_ru, ReadOutcome};
use abase_replication::{
    catchup, reconstruct_parallel, Error as ReplError, GroupConfig, Lsn, ReadConsistency,
    ReconstructionReport, ReplicaGroup, Throttle, WriteConcern,
};
use abase_util::clock::SimTime;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Configuration for a [`ReplicatedCluster`].
#[derive(Debug, Clone, Copy)]
pub struct ReplicatedClusterConfig {
    /// Replicas per partition (the paper's deployments use 3).
    pub replication_factor: usize,
    /// Write concern for every group.
    pub write_concern: WriteConcern,
    /// Storage engine configuration for every replica.
    pub db: DbConfig,
    /// Modeled per-node disk bandwidth for reconstruction (None = disk speed).
    pub recovery_bandwidth: Option<f64>,
    /// Commit retry budget per group (see `GroupConfig::wait_timeout`).
    pub wait_timeout: std::time::Duration,
    /// Live-migration engine tuning (cut-over lag budget, catch-up cap).
    /// Migration copies are throttled by `recovery_bandwidth` — data
    /// movement and failover re-seeding charge the same §3.3 disk model.
    pub migration: MigrationConfig,
}

impl Default for ReplicatedClusterConfig {
    fn default() -> Self {
        Self {
            replication_factor: 3,
            write_concern: WriteConcern::Quorum,
            db: DbConfig::default(),
            recovery_bandwidth: None,
            wait_timeout: std::time::Duration::from_millis(100),
            migration: MigrationConfig::default(),
        }
    }
}

/// What [`ReplicatedCluster::kill_node`] did, for assertions and reports.
#[derive(Debug)]
pub struct FailoverOutcome {
    /// The planned promotions and copy assignments.
    pub plan: FailoverPlan,
    /// Measured parallel-reconstruction run, when replicas were re-seeded.
    pub reconstruction: Option<ReconstructionReport>,
}

/// Split read/write RU accumulated against one hosted replica — the
/// per-replica load replicated reads spread, Algorithm 2's loss function
/// weighs, and the autoscaler's `LoadVector` aggregates: routing and
/// rebalancing reason about replicas, not tenants.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplicaRuSplit {
    /// RU charged for reads served by this replica (leader or follower).
    pub read_ru: f64,
    /// RU charged for writes applied by this replica.
    pub write_ru: f64,
}

impl ReplicaRuSplit {
    /// Combined RU.
    pub fn total(&self) -> f64 {
        self.read_ru + self.write_ru
    }
}

/// One node's RU ledger: the split RU charged against each replica it hosts
/// (§4.1: each replica pays a write once, a read is paid by the replica that
/// served it), and what its migration and reconstruction copies cost.
#[derive(Debug, Default)]
pub struct NodeLedger {
    replicas: HashMap<PartitionId, ReplicaRuSplit>,
    copy_ru: f64,
}

impl NodeLedger {
    /// The split RU charged against this node's replica of `partition` so
    /// far (zero when nothing was charged).
    pub fn replica_ru_split(&self, partition: PartitionId) -> ReplicaRuSplit {
        self.replicas.get(&partition).copied().unwrap_or_default()
    }

    /// Every hosted replica's split RU, ascending by partition.
    pub fn replica_ru_splits(&self) -> Vec<(PartitionId, ReplicaRuSplit)> {
        let mut out: Vec<_> = self.replicas.iter().map(|(&p, &s)| (p, s)).collect();
        out.sort_unstable_by_key(|&(p, _)| p);
        out
    }

    /// Total RU this node has spent on migration and reconstruction copy
    /// traffic (both directions) — the share of the §3.3 bandwidth model
    /// that data movement, rather than tenant traffic, consumed.
    pub fn migration_copy_ru(&self) -> f64 {
        self.copy_ru
    }
}

/// A multi-node cluster where every partition is served by a real
/// WAL-shipping [`ReplicaGroup`], placed on the least-loaded nodes and failed
/// over by [`plan_node_failure`] — the live counterpart of the closed-form
/// §3.3 model.
pub struct ReplicatedCluster {
    base_dir: PathBuf,
    config: ReplicatedClusterConfig,
    nodes: HashMap<NodeId, NodeLedger>,
    node_ids: Vec<NodeId>,
    dead_nodes: std::collections::HashSet<NodeId>,
    groups: HashMap<PartitionId, ReplicaGroup>,
    /// The live-migration engine: scheduler plans become staged checkpoint
    /// copies + binlog catch-up + epoch-guarded cut-overs, drained by `tick`.
    migrations: MigrationEngine,
    /// Registry snapshot taken at construction — the baseline
    /// [`ReplicatedCluster::metrics_delta`] subtracts, so one process can
    /// run many clusters and still ask "what did *this* one do".
    obs_baseline: abase_obs::Snapshot,
}

/// One routed cluster read, with serving provenance.
#[derive(Debug, Clone)]
pub struct ClusterRead {
    /// The storage read.
    pub result: abase_lavastore::ReadResult,
    /// Node whose replica served it.
    pub node: NodeId,
    /// Whether the serving replica led its group at read time.
    pub is_leader: bool,
    /// LSN records the serving replica trailed the leader by at read time —
    /// the observed staleness of this read.
    pub lag: Lsn,
}

impl ReplicatedCluster {
    /// A cluster of `n_nodes` empty DataNodes rooted at `base_dir`.
    pub fn new(base_dir: impl AsRef<Path>, n_nodes: u32, config: ReplicatedClusterConfig) -> Self {
        assert!(
            (config.replication_factor as u32) <= n_nodes,
            "replication factor exceeds node count"
        );
        let node_ids: Vec<NodeId> = (0..n_nodes).collect();
        let nodes = node_ids
            .iter()
            .map(|&id| (id, NodeLedger::default()))
            .collect();
        Self {
            base_dir: base_dir.as_ref().to_path_buf(),
            config,
            nodes,
            node_ids,
            dead_nodes: std::collections::HashSet::new(),
            groups: HashMap::new(),
            migrations: MigrationEngine::new(config.migration),
            obs_baseline: abase_obs::snapshot(),
        }
    }

    /// Monotone-counter growth since this cluster was constructed. Counters
    /// are process-global, so the delta over-counts when other clusters run
    /// concurrently — `≥` assertions stay safe, equalities do not.
    pub fn metrics_delta(&self) -> abase_obs::Snapshot {
        abase_obs::snapshot().delta(&self.obs_baseline)
    }

    /// Nodes currently alive, ascending.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.node_ids
            .iter()
            .copied()
            .filter(|n| !self.dead_nodes.contains(n))
            .collect()
    }

    /// The live-migration engine's state (queue, in-flight, history).
    pub fn migrations(&self) -> &MigrationEngine {
        &self.migrations
    }

    /// Does `node` have an in-flight replica move (source or destination)?
    /// The scheduler's `NodeState::is_migrating` should mirror this.
    pub fn is_node_migrating(&self, node: NodeId) -> bool {
        self.migrations.is_migrating(node)
    }

    /// The rescheduler's view of this cluster, built from the per-replica
    /// split RU ledgers: one `NodeState` per node (capacity sized to the
    /// observed peak node load × `capacity_headroom`, so utilizations land
    /// in the regime where Algorithm 2's S_L/S_M/S_H division is
    /// meaningful), one `ReplicaLoad` per hosted replica, `is_migrating`
    /// mirrored from the engine (dead nodes are marked migrating so no plan
    /// targets them). Replica ids encode `(partition << 32) | node`; an
    /// Algorithm-2 `Migration` over this view maps back onto the cluster
    /// via [`ReplicatedCluster::migration_request_from_plan`].
    pub fn scheduler_pool_view(&self, capacity_headroom: f64) -> abase_scheduler::PoolState {
        let peak = self
            .nodes
            .values()
            .map(|n| {
                n.replica_ru_splits()
                    .iter()
                    .map(|(_, s)| s.total())
                    .sum::<f64>()
            })
            .fold(0.0f64, f64::max);
        let capacity = peak * capacity_headroom + 1.0;
        let nodes = self
            .node_ids
            .iter()
            .map(|&id| {
                let mut state = abase_scheduler::NodeState::new(id, capacity, 1e9);
                state.is_migrating =
                    self.migrations.is_migrating(id) || self.dead_nodes.contains(&id);
                if let Some(node) = self.nodes.get(&id) {
                    for (partition, split) in node.replica_ru_splits() {
                        state.add_replica(abase_scheduler::ReplicaLoad::split(
                            (partition << 32) | u64::from(id),
                            1,
                            partition,
                            abase_scheduler::LoadVector::flat(split.read_ru),
                            abase_scheduler::LoadVector::flat(split.write_ru),
                            1.0,
                        ));
                    }
                }
                state
            })
            .collect();
        abase_scheduler::PoolState::new(nodes)
    }

    /// Decode an Algorithm-2 plan over a [`ReplicatedCluster::scheduler_pool_view`]
    /// back into the engine's request shape.
    pub fn migration_request_from_plan(m: &abase_scheduler::Migration) -> MigrationRequest {
        MigrationRequest {
            partition: m.replica_id >> 32,
            from: m.from_node,
            to: m.to_node,
        }
    }

    /// A node's RU ledger.
    pub fn node(&self, id: NodeId) -> Option<&NodeLedger> {
        self.nodes.get(&id)
    }

    /// The replica group serving `partition`.
    pub fn group(&self, partition: PartitionId) -> Option<&ReplicaGroup> {
        self.groups.get(&partition)
    }

    /// Mutable access to a partition's group (tests, WAIT wiring).
    pub fn group_mut(&mut self, partition: PartitionId) -> Option<&mut ReplicaGroup> {
        self.groups.get_mut(&partition)
    }

    /// Who serves `partition`, read off its group: the live members, leader
    /// first, then the rest in group order.
    pub fn replica_set(&self, partition: PartitionId) -> Option<ReplicaSet> {
        let status = self.groups.get(&partition)?.status();
        let followers = status
            .replicas
            .iter()
            .filter(|r| r.alive && Some(r.id) != status.leader)
            .map(|r| r.id)
            .collect();
        Some(ReplicaSet {
            leader: status.leader,
            followers,
        })
    }

    /// Create a replicated partition, placing its replicas on the
    /// least-loaded nodes (leaders additionally balance across nodes so the
    /// write path spreads).
    pub fn create_partition(&mut self, partition: PartitionId) -> abase_replication::Result<()> {
        // Least-loaded placement over *live* nodes by the number of groups
        // each is a member of, ties by id.
        let mut candidates: Vec<NodeId> = self.live_nodes();
        assert!(
            candidates.len() >= self.config.replication_factor,
            "not enough live nodes to place a {}-replica group",
            self.config.replication_factor
        );
        let groups = || self.groups.values();
        candidates.sort_by_key(|&id| (groups().filter(|g| g.members().contains(&id)).count(), id));
        let mut chosen: Vec<NodeId> = candidates
            .into_iter()
            .take(self.config.replication_factor)
            .collect();
        // Leader = the chosen node with the fewest leaders.
        chosen.sort_by_key(|&id| (groups().filter(|g| g.leader() == Some(id)).count(), id));
        let group = ReplicaGroup::bootstrap(
            partition,
            &self.base_dir,
            &chosen,
            GroupConfig {
                write_concern: self.config.write_concern,
                db: self.config.db,
                wait_timeout: self.config.wait_timeout,
            },
        )?;
        self.groups.insert(partition, group);
        Ok(())
    }

    /// Write through the partition's leader under the group write concern.
    /// Every live member's replica is charged the write RU (§4.1's write
    /// amplification shows up per replica, not once at the leader).
    pub fn write(
        &mut self,
        partition: PartitionId,
        key: &[u8],
        value: &[u8],
        now: SimTime,
    ) -> abase_replication::Result<Lsn> {
        let group = self
            .groups
            .get_mut(&partition)
            .ok_or(abase_replication::Error::NoLeader)?;
        let lsn = group.put(key, value, None, now)?;
        let write_ru = write_ru(key.len() + value.len(), 1);
        // Dead members never applied the write; their ledgers stay flat.
        let live: Vec<NodeId> = group
            .members()
            .into_iter()
            .filter(|&m| group.is_alive(m))
            .collect();
        for member in live {
            self.charge(member, partition, 0.0, write_ru);
        }
        Ok(lsn)
    }

    /// Read from the partition at the requested consistency level (see
    /// [`ReplicatedCluster::read_routed`]).
    pub fn read(
        &mut self,
        partition: PartitionId,
        key: &[u8],
        consistency: ReadConsistency,
        now: SimTime,
    ) -> abase_replication::Result<abase_lavastore::ReadResult> {
        self.read_routed(partition, key, consistency, now)
            .map(|r| r.result)
    }

    /// Read from the partition at `consistency`: the group picks the replica
    /// ([`ReplicaGroup::read_routed`], the same decision `abase-server`
    /// makes) and serves, and the read RU is charged to the serving node's
    /// replica ledger.
    pub fn read_routed(
        &mut self,
        partition: PartitionId,
        key: &[u8],
        consistency: ReadConsistency,
        now: SimTime,
    ) -> abase_replication::Result<ClusterRead> {
        let group = self.groups.get_mut(&partition).ok_or(ReplError::NoLeader)?;
        let routed = group.read_routed(key, consistency, now)?;
        let is_leader = group.leader() == Some(routed.replica);
        let bytes = routed.result.value.as_ref().map_or(0, |v| v.len());
        let outcome = if routed.result.is_cache_hit() {
            ReadOutcome::NodeCacheHit
        } else {
            ReadOutcome::Miss
        };
        self.charge(routed.replica, partition, charge_read(bytes, outcome), 0.0);
        Ok(ClusterRead {
            node: routed.replica,
            is_leader,
            lag: routed.lag,
            result: routed.result,
        })
    }

    /// Ship pending log on every group (the per-tick replication pump that
    /// drains `Async` writes to followers), then drain the migration queue
    /// one step. A group whose tick fails stops nothing: every group ticks
    /// and the migrations step, and the first failure is returned.
    pub fn tick(&mut self) -> abase_replication::Result<()> {
        let ticked = self
            .groups
            .values_mut()
            .map(ReplicaGroup::tick)
            .fold(Ok(()), Result::and);
        self.step_migrations();
        ticked
    }

    /// Accept a live migration of `partition`'s replica off `from` onto
    /// `to`. Validated against the current placement; executed by subsequent
    /// [`ReplicatedCluster::tick`]s (staged copy → binlog catch-up →
    /// epoch-guarded cut-over → source teardown), at most one in-flight move
    /// per node.
    pub fn enqueue_migration(
        &mut self,
        partition: PartitionId,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), MigrationError> {
        let group = self
            .groups
            .get(&partition)
            .ok_or(MigrationError::UnknownPartition(partition))?;
        if !group.members().contains(&from) {
            return Err(MigrationError::SourceNotMember(from));
        }
        if group.members().contains(&to) {
            return Err(MigrationError::DestAlreadyMember(to));
        }
        for node in [from, to] {
            if self.dead_nodes.contains(&node) || !self.nodes.contains_key(&node) {
                return Err(MigrationError::NodeDead(node));
            }
        }
        self.migrations.enqueue(MigrationRequest {
            partition,
            from,
            to,
        })
    }

    /// One engine step: progress in-flight moves toward cut-over, then start
    /// queued moves whose nodes are idle. A move started this tick never
    /// cuts over before the next tick, so `is_migrating` back-pressure is
    /// observable for at least one full tick.
    fn step_migrations(&mut self) {
        self.migrations.advance_tick();
        self.progress_inflight_migrations();
        self.start_queued_migrations();
    }

    /// Stage every startable queued move: epoch-guarded join via the shared
    /// resync ticket machinery, checkpoint copy throttled by the §3.3
    /// recovery-bandwidth model, copy RU charged to both ends.
    fn start_queued_migrations(&mut self) {
        let throttle = self.config.recovery_bandwidth.map(Throttle::new);
        for req in self.migrations.take_startable() {
            match self.stage_migration(req, throttle.as_ref()) {
                Ok((bytes, secs)) => {
                    // The destination is a group member from here on, so
                    // failover planning sees it.
                    self.migrations.note_joined(req, bytes, secs);
                    self.charge_copy(req.partition, req.from, req.to, bytes);
                }
                Err(e) => {
                    // Copy or join failed before the destination became a
                    // member: the source replica is untouched, the staging
                    // tree is cleaned by the ticket, and the busy flags the
                    // start acquired are released.
                    self.migrations
                        .note_staging_failed(req, format!("staging failed: {e}"));
                }
            }
        }
    }

    /// The staged copy for one move: `begin_join` → throttled checkpoint
    /// stream → `complete_join`. Returns (bytes copied, wall-clock seconds).
    fn stage_migration(
        &mut self,
        req: MigrationRequest,
        throttle: Option<&Throttle>,
    ) -> abase_replication::Result<(u64, f64)> {
        let base_dir = self.base_dir.clone();
        let group = self
            .groups
            .get_mut(&req.partition)
            .ok_or(ReplError::NoLeader)?;
        let mut ticket = group.begin_join(req.to, &base_dir, None)?;
        let t0 = std::time::Instant::now();
        let info = ticket.copy(throttle)?;
        let secs = t0.elapsed().as_secs_f64();
        group.complete_join(ticket)?;
        // No fallible work after the join: an error here would leave the
        // destination installed in the group while the caller's abort path
        // assumes membership never changed. Catch-up starts with the next
        // tick's pump (`progress_inflight_migrations`), whose failures run
        // the full staged-destination teardown.
        Ok((info.bytes_copied, secs))
    }

    /// Advance every in-flight move: pump the destination, and once its lag
    /// is within the cut-over budget (and it has been in flight for at least
    /// one tick), drain to lag 0 and cut over atomically.
    fn progress_inflight_migrations(&mut self) {
        let now_tick = self.migrations.tick();
        let inflight: Vec<crate::migration::ActiveMigration> = self.migrations.in_flight().to_vec();
        // The engine's copy of the tuning is authoritative (the cluster
        // config only seeds it at construction).
        let budget = self.migrations.config().cutover_lag_budget;
        let max_catchup = self.migrations.config().max_catchup_ticks;
        for m in inflight {
            let req = m.req;
            let Some(group) = self.groups.get_mut(&req.partition) else {
                self.migrations.note_aborted(req, "partition dropped");
                continue;
            };
            if let Err(e) = catchup::pump(&mut *group, req.to) {
                self.migrations
                    .note_aborted(req, format!("catch-up pump failed: {e}"));
                self.abort_staged_destination(req);
                continue;
            }
            let lag = match group.replica_lag(req.to) {
                Ok(lag) => lag,
                Err(e) => {
                    self.migrations
                        .note_aborted(req, format!("lag unobservable: {e}"));
                    self.abort_staged_destination(req);
                    continue;
                }
            };
            // Never cut over in the joining tick: back-pressure must be
            // observable, and the destination gets one pump cycle to settle.
            if now_tick <= m.joined_at_tick {
                continue;
            }
            if lag > budget {
                if max_catchup > 0 && now_tick.saturating_sub(m.joined_at_tick) > max_catchup {
                    self.migrations
                        .note_aborted(req, format!("catch-up stuck at lag {lag}"));
                    self.abort_staged_destination(req);
                }
                continue;
            }
            match self.cut_over(req, m.bytes_copied) {
                Ok(was_leader) => self.migrations.note_completed(req, lag, was_leader),
                Err(e) => {
                    self.migrations
                        .note_aborted(req, format!("cut-over failed: {e}"));
                    self.abort_staged_destination(req);
                }
            }
        }
    }

    /// The atomic cut-over: drain the destination to lag 0, hand leadership
    /// over if the source led, and retire the source member (epoch bump).
    /// Returns whether the moving replica led the group.
    fn cut_over(
        &mut self,
        req: MigrationRequest,
        bytes_copied: u64,
    ) -> abase_replication::Result<bool> {
        let group = self
            .groups
            .get_mut(&req.partition)
            .ok_or(ReplError::NoLeader)?;
        let was_leader = group.leader() == Some(req.from);
        if was_leader {
            // handover drains `to` to the leader's exact LSN before any role
            // changes; a failure leaves every role as it was.
            group.handover(req.to)?;
        } else {
            // Final drain for a follower move: the same bounded drain the
            // leadership handover uses internally.
            group.drain_to_leader(req.to)?;
        }
        let source_dir = group.remove_member(req.from)?;
        // Source teardown: the bytes moved; reclaim the disk. The replica's
        // RU ledger moves with it — deleting it would make the (hot) replica
        // look freshly cold at the destination and invite a second move —
        // but the copy-out RU this migration charged the source stays out of
        // the transfer: the destination already paid its own copy-in, and
        // carrying both sides would bias Algorithm 2 against the new home.
        std::fs::remove_dir_all(&source_dir).ok();
        let copy_ru = write_ru(bytes_copied as usize, 1);
        let moved = self.take_ledger(req.from, req.partition);
        let read_ru = (moved.read_ru - copy_ru).max(0.0);
        self.charge(req.to, req.partition, read_ru, moved.write_ru);
        Ok(was_leader)
    }

    /// Tear a staged (joined but not cut-over) destination back out of the
    /// group, and drop its RU ledger, after an abort — the source replica
    /// still serves, so the move simply never happened. Exception: if an
    /// unrelated failover already *promoted* the staged destination (it was
    /// the most-caught-up candidate), the group depends on it — the
    /// migration is abandoned as a migration but the destination stays a
    /// full member with its leader role intact.
    fn abort_staged_destination(&mut self, req: MigrationRequest) {
        if let Some(group) = self.groups.get_mut(&req.partition) {
            if group.leader() == Some(req.to) {
                return;
            }
            if group.members().contains(&req.to) {
                if let Ok(dir) = group.remove_member(req.to) {
                    std::fs::remove_dir_all(dir).ok();
                }
            }
        }
        self.take_ledger(req.to, req.partition);
    }

    /// Charge `read_ru` and `write_ru` against `node`'s replica of
    /// `partition`.
    fn charge(&mut self, node: NodeId, partition: PartitionId, read_ru: f64, write_ru: f64) {
        if let Some(ledger) = self.nodes.get_mut(&node) {
            let split = ledger.replicas.entry(partition).or_default();
            split.read_ru += read_ru;
            split.write_ru += write_ru;
        }
    }

    /// Charge a checkpoint copy of `bytes` to both ends: the source streams
    /// them off its disk (read RU), the destination ingests them (write RU),
    /// and both count them as copy traffic — how migration and re-seed copies
    /// become visible to Algorithm 2's loss function.
    fn charge_copy(&mut self, partition: PartitionId, from: NodeId, to: NodeId, bytes: u64) {
        let copy_ru = write_ru(bytes as usize, 1);
        self.charge(from, partition, copy_ru, 0.0);
        self.charge(to, partition, 0.0, copy_ru);
        for node in [from, to] {
            if let Some(ledger) = self.nodes.get_mut(&node) {
                ledger.copy_ru += copy_ru;
            }
        }
    }

    /// Remove and return `node`'s ledger for its replica of `partition`: the
    /// replica moved off the node, was aborted, or died with it.
    fn take_ledger(&mut self, node: NodeId, partition: PartitionId) -> ReplicaRuSplit {
        let ledger = self.nodes.get_mut(&node);
        ledger
            .and_then(|l| l.replicas.remove(&partition))
            .unwrap_or_default()
    }

    /// Kill a DataNode: fail its replicas, plan promotions and
    /// reconstruction over the replica sets it served, execute the
    /// promotions, and re-seed the lost replicas **in parallel** from the
    /// planned sources.
    pub fn kill_node(&mut self, failed: NodeId) -> abase_replication::Result<FailoverOutcome> {
        self.dead_nodes.insert(failed);
        // 0. Cancel every pending migration touching the dead node. An
        //    in-flight move's staged destination is torn back out of the
        //    group (the source replica — or, if the source died, the normal
        //    failover re-seed below — keeps the partition at full strength),
        //    so the failure plan runs against the original membership.
        for (req, joined) in self.migrations.pending_involving(failed) {
            let side = if req.to == failed {
                "destination died"
            } else {
                "source died"
            };
            self.migrations.note_aborted(req, side);
            if joined {
                self.abort_staged_destination(req);
            }
        }
        // 1. The replica sets the node served, as they stand, and then its
        //    replicas become unreachable (their RU ledgers leave with them).
        let sets: Vec<(PartitionId, ReplicaSet)> = self
            .groups
            .keys()
            .filter_map(|&p| Some((p, self.replica_set(p)?)))
            .filter(|(_, set)| set.contains(failed))
            .collect();
        for (partition, _) in &sets {
            // INVARIANT: `sets` was built from this map's keys above.
            self.groups
                .get_mut(partition)
                .expect("affected partition exists")
                .fail_replica(failed)?;
            self.take_ledger(failed, *partition);
        }
        // 2. Plan from real acked LSNs, re-seeding only onto nodes that are
        //    still alive.
        let groups = &self.groups;
        let plan = plan_node_failure(
            failed,
            &sets,
            // `promotable_lsn` is None for dead or divergent replicas, so the
            // plan can never elect a follower whose LSN counts unacked
            // history (the group's own `promote` applies the same filter).
            |partition, node| groups.get(&partition).and_then(|g| g.promotable_lsn(node)),
            &self.live_nodes(),
        );
        // 3. Execute promotions (the group elects by the same max-LSN rule).
        for promotion in &plan.promotions {
            let group = self
                .groups
                .get_mut(&promotion.partition)
                // INVARIANT: the plan was built from this map's entries.
                .expect("planned partition exists");
            let elected = group.promote()?;
            debug_assert_eq!(elected, promotion.new_leader, "plan/group disagree");
        }
        // 4. Parallel reconstruction from the planned sources: each rebuilt
        //    replica is a staged join whose source is the planned surviving
        //    member, and the tickets' own copies run on one worker per
        //    source node.
        let mut tickets = plan
            .reconstructions
            .iter()
            .map(|assignment| {
                self.groups
                    .get_mut(&assignment.partition)
                    // INVARIANT: the plan was built from this map's entries.
                    .expect("planned partition exists")
                    .begin_join(assignment.dest, &self.base_dir, Some(assignment.source))
            })
            .collect::<abase_replication::Result<Vec<_>>>()?;
        let reconstruction = if tickets.is_empty() {
            None
        } else {
            Some(reconstruct_parallel(
                &mut tickets,
                self.config.recovery_bandwidth,
            )?)
        };
        // Re-seed copies consume the same disks migrations do: charge each
        // copy's RU to both of its ends, so a pool view built after a
        // failover sees the recovery traffic in the loss function.
        for (assignment, copy) in plan
            .reconstructions
            .iter()
            .zip(reconstruction.iter().flat_map(|rec| &rec.copies))
        {
            let (source, dest) = (assignment.source, assignment.dest);
            self.charge_copy(assignment.partition, source, dest, copy.bytes_copied);
        }
        // 5. Rebuilt replicas join their groups in the dead member's stead
        //    (the join is refused if the group's epoch moved under the copy)
        //    and catch up to the leader's current position.
        for (assignment, ticket) in plan.reconstructions.iter().zip(tickets) {
            let group = self
                .groups
                .get_mut(&assignment.partition)
                // INVARIANT: the plan was built from this map's entries.
                .expect("planned partition exists");
            group.complete_join(ticket)?;
            group.remove_member(failed)?;
            catchup::pump(&mut *group, assignment.dest)?;
        }
        Ok(FailoverOutcome {
            plan,
            reconstruction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_util::TestDir;

    fn small_cluster(tag: &str) -> (TestDir, ReplicatedCluster) {
        let dir = TestDir::new(tag);
        let cluster = ReplicatedCluster::new(
            dir.path(),
            4,
            ReplicatedClusterConfig {
                replication_factor: 3,
                write_concern: WriteConcern::Quorum,
                db: DbConfig::small_for_tests(),
                recovery_bandwidth: None,
                ..Default::default()
            },
        );
        (dir, cluster)
    }

    #[test]
    fn placement_spreads_replicas_and_leaders() {
        let (_d, mut cluster) = small_cluster("placement");
        for p in 0..4u64 {
            cluster.create_partition(p).unwrap();
        }
        // 4 partitions × 3 replicas over 4 nodes → 3 replicas per node.
        for n in 0..4u32 {
            let hosted = (0..4u64)
                .filter(|&p| cluster.replica_set(p).unwrap().contains(n))
                .count();
            assert_eq!(hosted, 3, "node {n}");
        }
        // Leaders spread: 4 leaders over 4 nodes, no node leads more than 2.
        for n in 0..4u32 {
            let led = (0..4u64)
                .filter(|&p| cluster.group(p).unwrap().leader() == Some(n))
                .count();
            assert!(led <= 2, "node {n}");
        }
    }

    #[test]
    fn eventual_reads_rotate_over_every_replica_with_split_accounting() {
        let (_d, mut cluster) = small_cluster("routed-reads");
        cluster.create_partition(0).unwrap();
        for i in 0..10 {
            cluster
                .write(0, format!("k{i}").as_bytes(), b"v", 0)
                .unwrap();
        }
        cluster.tick().unwrap(); // all followers converge
        let leader = cluster.group(0).unwrap().leader().unwrap();
        let mut served: HashMap<NodeId, u32> = HashMap::new();
        for i in 0..12 {
            let key = format!("k{}", i % 10);
            let r = cluster
                .read_routed(0, key.as_bytes(), ReadConsistency::Eventual, 0)
                .unwrap();
            assert!(r.result.value.is_some());
            assert_eq!(r.lag, 0, "converged replica reported lag");
            assert_eq!(r.is_leader, r.node == leader);
            *served.entry(r.node).or_default() += 1;
        }
        // Every replica, the leader included, took its turn, and its replica
        // ledger shows the reads beside the writes it applied.
        assert_eq!(served.len(), 3, "reads did not spread: {served:?}");
        for (&node, &reads) in &served {
            assert_eq!(reads, 4, "uneven rotation: {served:?}");
            let split = cluster.node(node).unwrap().replica_ru_split(0);
            assert!(split.read_ru > 0.0, "read RU not charged on {node}");
            assert!(split.write_ru > 0.0, "write RU not charged on {node}");
        }
    }

    #[test]
    fn ryw_reads_fence_on_the_session_lsn() {
        let (_d, mut cluster) = small_cluster("routed-ryw");
        cluster.create_partition(0).unwrap();
        // Quorum write: one follower has it, one may lag.
        let lsn = cluster.write(0, b"k", b"v1", 0).unwrap();
        for _ in 0..6 {
            let r = cluster
                .read_routed(0, b"k", ReadConsistency::ReadYourWrites(lsn), 0)
                .unwrap();
            assert_eq!(
                r.result.value.as_deref(),
                Some(&b"v1"[..]),
                "fenced read missed the session's write (served by node {})",
                r.node
            );
        }
    }

    #[test]
    fn a_failing_group_tick_does_not_skip_the_migration_step() {
        use abase_util::failpoint::{self, FaultAction};
        let _guard = failpoint::ScopedInjector::enable();
        let (dir, mut cluster) = small_cluster("tick-failure");
        cluster.create_partition(0).unwrap();
        cluster.create_partition(1).unwrap();
        // Quorum shipped partition 1's write to one follower; the other
        // catches up on the tick, and its disk refuses the record.
        cluster.write(1, b"k", b"v", 0).unwrap();
        let partition1 = dir.path().join("p1-r");
        let partition1 = partition1.to_str().unwrap();
        failpoint::install("wal.append", Some(partition1), FaultAction::Error, 0, 1);
        let set = cluster.replica_set(0).unwrap();
        let to = (0..4u32).find(|n| !set.contains(*n)).unwrap();
        cluster.enqueue_migration(0, set.followers[0], to).unwrap();
        assert!(
            cluster.tick().is_err(),
            "the follower's failure is returned"
        );
        assert_eq!(failpoint::fired("wal.append"), 1);
        assert_eq!(
            cluster.migrations().in_flight().len(),
            1,
            "the failing group skipped the migration step"
        );
    }

    #[test]
    fn live_migration_moves_a_follower_replica() {
        let (_d, mut cluster) = small_cluster("migrate-follower");
        cluster.create_partition(0).unwrap();
        for i in 0..20 {
            cluster
                .write(0, format!("k{i}").as_bytes(), b"v", 0)
                .unwrap();
        }
        let set = cluster.replica_set(0).unwrap();
        let from = set.followers[0];
        let to = (0..4u32).find(|n| !set.contains(*n)).unwrap();
        cluster.enqueue_migration(0, from, to).unwrap();
        // Tick 1 stages (copy + join); tick 2 cuts over.
        cluster.tick().unwrap();
        assert!(cluster.is_node_migrating(from));
        assert!(cluster.is_node_migrating(to));
        cluster.tick().unwrap();
        assert!(cluster.migrations().idle());
        assert_eq!(cluster.migrations().completed().len(), 1);
        let report = &cluster.migrations().completed()[0];
        assert!(report.bytes_copied > 0);
        assert!(!report.was_leader);
        // Placement switched: the destination follows, the source left the
        // group, and its RU ledger went with it.
        let set = cluster.replica_set(0).unwrap();
        assert!(!set.contains(from));
        assert!(set.followers.contains(&to));
        assert_eq!(
            cluster.group(0).unwrap().members().len(),
            3,
            "group not back to full strength"
        );
        assert!(!cluster.group(0).unwrap().members().contains(&from));
        assert_eq!(
            cluster.node(from).unwrap().replica_ru_split(0),
            ReplicaRuSplit::default()
        );
        for i in 0..6 {
            let r = cluster
                .read_routed(0, b"k0", ReadConsistency::Eventual, 0)
                .unwrap();
            assert_ne!(r.node, from, "read {i} served by the departed replica");
        }
        // The moved bytes are really at the destination, and copy RU was
        // charged to both ends.
        let db = cluster.group(0).unwrap().db(to).unwrap();
        for i in 0..20 {
            assert!(db
                .get(format!("k{i}").as_bytes(), 0)
                .unwrap()
                .value
                .is_some());
        }
        assert!(cluster.node(from).unwrap().migration_copy_ru() > 0.0);
        assert!(cluster.node(to).unwrap().migration_copy_ru() > 0.0);
        // Writes and reads keep flowing against the new placement.
        cluster.write(0, b"post-move", b"w", 0).unwrap();
        let r = cluster
            .read(0, b"post-move", ReadConsistency::Leader, 0)
            .unwrap();
        assert!(r.value.is_some());
    }

    #[test]
    fn live_migration_of_a_leader_hands_over_leadership() {
        let (_d, mut cluster) = small_cluster("migrate-leader");
        cluster.create_partition(0).unwrap();
        for i in 0..10 {
            cluster
                .write(0, format!("k{i}").as_bytes(), b"v", 0)
                .unwrap();
        }
        let set = cluster.replica_set(0).unwrap();
        let from = set.leader.unwrap();
        let to = (0..4u32).find(|n| !set.contains(*n)).unwrap();
        cluster.enqueue_migration(0, from, to).unwrap();
        cluster.tick().unwrap();
        cluster.tick().unwrap();
        assert_eq!(cluster.migrations().completed().len(), 1);
        assert!(cluster.migrations().completed()[0].was_leader);
        assert_eq!(cluster.group(0).unwrap().leader(), Some(to));
        assert_eq!(cluster.replica_set(0).unwrap().leader, Some(to));
        // No acked write lost across the handover, and writes continue.
        for i in 0..10 {
            let r = cluster
                .read(0, format!("k{i}").as_bytes(), ReadConsistency::Leader, 0)
                .unwrap();
            assert!(r.value.is_some(), "k{i} lost across leader migration");
        }
        cluster.write(0, b"after", b"w", 0).unwrap();
    }

    #[test]
    fn cluster_failover_preserves_quorum_writes() {
        let (_d, mut cluster) = small_cluster("failover");
        for p in 0..3u64 {
            cluster.create_partition(p).unwrap();
        }
        let mut lsns = Vec::new();
        for p in 0..3u64 {
            for i in 0..20 {
                let lsn = cluster
                    .write(p, format!("p{p}-k{i}").as_bytes(), b"v", 0)
                    .unwrap();
                lsns.push((p, i, lsn));
            }
        }
        // Kill the node leading partition 0.
        let victim = cluster.group(0).unwrap().leader().unwrap();
        let outcome = cluster.kill_node(victim).unwrap();
        assert!(!outcome.plan.promotions.is_empty());
        // Every partition still serves every acked write.
        for p in 0..3u64 {
            for i in 0..20 {
                let key = format!("p{p}-k{i}");
                let r = cluster
                    .read(p, key.as_bytes(), ReadConsistency::Leader, 0)
                    .unwrap();
                assert!(r.value.is_some(), "acked write lost: {key}");
            }
        }
        // The dead node is out of every replica set and every set is full
        // strength again.
        for p in 0..3u64 {
            let set = cluster.replica_set(p).unwrap();
            assert!(!set.contains(victim));
            assert_eq!(set.members().len(), 3);
            // And writes keep flowing.
            cluster.write(p, b"after-failover", b"v", 0).unwrap();
        }
    }

    #[test]
    fn each_reseed_is_charged_its_own_copy() {
        let (_d, mut cluster) = small_cluster("reseed-ru");
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for (p, keys) in [(0u64, 10), (1, 200), (2, 800)] {
            cluster.create_partition(p).unwrap();
            for i in 0..keys {
                // Values that do not compress, so the copies differ in size.
                let value: Vec<u8> = (0..256)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u8
                    })
                    .collect();
                cluster
                    .write(p, format!("k{i}").as_bytes(), &value, 0)
                    .unwrap();
            }
        }
        let victim = (0..4u32)
            .max_by_key(|&n| {
                (0..3)
                    .filter(|&p| cluster.replica_set(p).unwrap().contains(n))
                    .count()
            })
            .unwrap();
        let outcome = cluster.kill_node(victim).unwrap();
        let copies = &outcome.reconstruction.as_ref().unwrap().copies;
        assert!(copies.len() >= 2, "the victim hosted several partitions");
        assert_eq!(copies.len(), outcome.plan.reconstructions.len());
        assert!(
            copies
                .iter()
                .any(|c| c.bytes_copied != copies[0].bytes_copied),
            "the partitions must differ in size"
        );
        for (assignment, copy) in outcome.plan.reconstructions.iter().zip(copies) {
            let p = assignment.partition;
            let copy_ru = write_ru(copy.bytes_copied as usize, 1);
            let dest = cluster.node(assignment.dest).unwrap().replica_ru_split(p);
            assert_eq!(dest.write_ru, copy_ru, "p{p}'s destination");
            let source = cluster.node(assignment.source).unwrap().replica_ru_split(p);
            assert_eq!(source.read_ru, copy_ru, "p{p}'s source");
        }
    }

    /// After a leader handover the group's order (old followers, then the
    /// migrated-in leader) differs from the order the replicas were placed
    /// in; a failover of that leader still promotes whom the group elects,
    /// and the view lists the new leader first.
    #[test]
    fn failover_after_a_leader_handover_follows_the_group() {
        let (_d, mut cluster) = small_cluster("handover-failover");
        cluster.create_partition(0).unwrap();
        let mut acked = Vec::new();
        for i in 0..20 {
            let key = format!("k{i}");
            cluster.write(0, key.as_bytes(), b"v", 0).unwrap();
            acked.push(key);
        }
        let set = cluster.replica_set(0).unwrap();
        let from = set.leader.unwrap();
        let to = (0..4u32).find(|n| !set.contains(*n)).unwrap();
        cluster.enqueue_migration(0, from, to).unwrap();
        while !cluster.migrations().idle() {
            cluster.tick().unwrap();
        }
        assert_eq!(cluster.group(0).unwrap().leader(), Some(to));
        assert_eq!(cluster.group(0).unwrap().members().last(), Some(&to));
        for i in 20..30 {
            let key = format!("k{i}");
            cluster.write(0, key.as_bytes(), b"v", 0).unwrap();
            acked.push(key);
        }
        let outcome = cluster.kill_node(to).unwrap();
        let leader = cluster.group(0).unwrap().leader();
        assert_eq!(outcome.plan.promotions.len(), 1);
        assert_eq!(Some(outcome.plan.promotions[0].new_leader), leader);
        let set = cluster.replica_set(0).unwrap();
        assert_eq!(set.members()[0], leader.unwrap());
        assert!(!set.contains(to));
        for key in &acked {
            let r = cluster
                .read(0, key.as_bytes(), ReadConsistency::Leader, 0)
                .unwrap();
            assert!(r.value.is_some(), "acked write lost: {key}");
        }
    }
}
