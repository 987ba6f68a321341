//! The discrete-time cluster simulation driver.
//!
//! Ties together workload generators (per-tenant traffic shapes and key
//! streams), the proxy plane, and a DataNode, advancing virtual time in fixed
//! ticks and emitting per-minute metric points — the series plotted in
//! Figures 5, 6, and 7.

use crate::meta::{MetaServer, ReplicaSet};
use crate::migration::{MigrationConfig, MigrationEngine, MigrationError, MigrationRequest};
use crate::node::{DataNodeConfig, DataNodeSim};
use crate::proxy::{ProxyDecision, ProxyPlane, ProxyPlaneConfig};
use crate::router::{ReadRouter, ReadRouterConfig, RouterStats};
use crate::types::{Disposition, NodeId, PartitionId, ServedFrom, SimRequest, TenantId};
use abase_lavastore::DbConfig;
use abase_quota::ru::{charge_read, write_ru, ReadOutcome};
use abase_quota::TenantQuotaMonitor;
use abase_replication::{
    reconstruct_parallel, Error as ReplError, GroupConfig, Lsn, ReadConsistency,
    ReconstructionReport, ReconstructionTask, ReplicaGroup, Role, Throttle, WriteConcern,
};
use abase_util::clock::{mins, SimTime};
use abase_util::Histogram;
use abase_workload::{KeyspaceConfig, RequestGen, TrafficShape};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Latency charged to a proxy-cache hit (never reaches a data node).
const PROXY_HIT_LATENCY: SimTime = 150;

/// Everything needed to drive one tenant in an experiment.
#[derive(Debug)]
pub struct TenantSpec {
    /// Tenant id.
    pub id: TenantId,
    /// Tenant quota in RU/s (the proxy plane divides it across proxies).
    pub tenant_quota_ru: f64,
    /// The tenant's (single) partition in the experiment node.
    pub partition: PartitionId,
    /// Partition quota in RU/s.
    pub partition_quota_ru: f64,
    /// Traffic intensity over time.
    pub shape: TrafficShape,
    /// Key popularity / sizes / read mix.
    pub keyspace: KeyspaceConfig,
    /// Proxy plane settings.
    pub proxy: ProxyPlaneConfig,
}

/// One tenant's metrics for one minute of virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct MinutePoint {
    /// Minute index from experiment start.
    pub minute: u64,
    /// Tenant.
    pub tenant: TenantId,
    /// Successful requests per second.
    pub success_qps: f64,
    /// Rejected requests per second (proxy + node).
    pub error_qps: f64,
    /// Mean success latency in milliseconds.
    pub mean_latency_ms: f64,
    /// P99 success latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Combined cache hit ratio over reads (proxy hits + node-cache hits).
    pub cache_hit_ratio: f64,
    /// Share of reads answered by the proxy cache alone.
    pub proxy_hit_ratio: f64,
}

#[derive(Debug)]
struct MinuteAcc {
    success: u64,
    errors: u64,
    reads: u64,
    proxy_hits: u64,
    node_hits: u64,
    /// Success latencies, µs.
    latency: Histogram,
}

impl MinuteAcc {
    fn new() -> Self {
        Self {
            success: 0,
            errors: 0,
            reads: 0,
            proxy_hits: 0,
            node_hits: 0,
            latency: Histogram::new(),
        }
    }

    fn reset(&mut self) {
        self.success = 0;
        self.errors = 0;
        self.reads = 0;
        self.proxy_hits = 0;
        self.node_hits = 0;
        self.latency.clear();
    }

    fn point(&self, minute: u64, tenant: TenantId, secs: f64) -> MinutePoint {
        MinutePoint {
            minute,
            tenant,
            success_qps: self.success as f64 / secs,
            error_qps: self.errors as f64 / secs,
            mean_latency_ms: self.latency.mean() / 1000.0,
            p99_latency_ms: self.latency.quantile(0.99).unwrap_or(0.0) / 1000.0,
            cache_hit_ratio: if self.reads == 0 {
                0.0
            } else {
                (self.proxy_hits + self.node_hits) as f64 / self.reads as f64
            },
            proxy_hit_ratio: if self.reads == 0 {
                0.0
            } else {
                self.proxy_hits as f64 / self.reads as f64
            },
        }
    }
}

struct TenantRuntime {
    shape: TrafficShape,
    gen: RequestGen,
    plane: ProxyPlane,
    partition: PartitionId,
    carry: f64,
    acc: MinuteAcc,
}

/// A single-node, multi-tenant isolation experiment (Figures 6–7) — also the
/// engine behind the dynamism panels of Figure 5.
pub struct IsolationExperiment {
    node: DataNodeSim,
    tenants: HashMap<TenantId, TenantRuntime>,
    order: Vec<TenantId>,
    monitor: TenantQuotaMonitor,
    clock: SimTime,
    tick_len: SimTime,
    /// Virtual seconds per reported "minute" — figures compress time so a
    /// 45-minute paper timeline replays in a few virtual minutes while keeping
    /// the original minute labels.
    minute_secs: u64,
}

impl IsolationExperiment {
    /// Build an experiment over `node` and `specs`, with 100 ms ticks.
    pub fn new(node: DataNodeSim, specs: Vec<TenantSpec>, seed: u64) -> Self {
        let mut tenants = HashMap::new();
        let mut order = Vec::new();
        let mut monitor = TenantQuotaMonitor::new(mins(1));
        for (i, spec) in specs.into_iter().enumerate() {
            node.pipeline()
                .add_partition(spec.partition, spec.id, spec.partition_quota_ru, 0);
            monitor.set_tenant_quota(spec.id, spec.tenant_quota_ru);
            let plane = ProxyPlane::new(
                spec.id,
                ProxyPlaneConfig {
                    tenant_quota_ru: spec.tenant_quota_ru,
                    ..spec.proxy
                },
                0,
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
            );
            order.push(spec.id);
            tenants.insert(
                spec.id,
                TenantRuntime {
                    shape: spec.shape,
                    gen: RequestGen::new(spec.keyspace, seed.wrapping_add(i as u64)),
                    plane,
                    partition: spec.partition,
                    carry: 0.0,
                    acc: MinuteAcc::new(),
                },
            );
        }
        Self {
            node,
            tenants,
            order,
            monitor,
            clock: 0,
            tick_len: 100_000, // 100 ms
            minute_secs: 60,
        }
    }

    /// Compress each reported minute to `secs` virtual seconds (default 60).
    pub fn set_minute_secs(&mut self, secs: u64) {
        assert!(secs > 0);
        self.minute_secs = secs;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Mutable access to the node (phase toggles: partition quota on/off,
    /// through its [`DataNodeSim::pipeline`]).
    pub fn node_mut(&mut self) -> &mut DataNodeSim {
        &mut self.node
    }

    /// Mutable access to a tenant's proxy plane (quota/cache toggles).
    pub fn plane_mut(&mut self, tenant: TenantId) -> &mut ProxyPlane {
        // INVARIANT: tenants are registered at construction and never removed.
        &mut self.tenants.get_mut(&tenant).expect("known tenant").plane
    }

    /// Mutable access to a tenant's request generator (skew/window shifts).
    pub fn gen_mut(&mut self, tenant: TenantId) -> &mut RequestGen {
        // INVARIANT: tenants are registered at construction and never removed.
        &mut self.tenants.get_mut(&tenant).expect("known tenant").gen
    }

    /// Replace a tenant's traffic shape (for multi-phase scenarios).
    pub fn set_shape(&mut self, tenant: TenantId, shape: TrafficShape) {
        // INVARIANT: tenants are registered at construction and never removed.
        self.tenants.get_mut(&tenant).expect("known tenant").shape = shape;
    }

    /// Advance `n` minutes; returns one [`MinutePoint`] per tenant per minute.
    pub fn run_minutes(&mut self, n: u64) -> Vec<MinutePoint> {
        let mut out = Vec::new();
        let minute_len = self.minute_secs * 1_000_000;
        for _ in 0..n {
            let minute_index = self.clock / minute_len;
            let minute_end = (minute_index + 1) * minute_len;
            while self.clock < minute_end {
                self.run_tick();
            }
            self.end_of_minute(minute_index, &mut out);
        }
        out
    }

    fn run_tick(&mut self) {
        let now = self.clock;
        let tick_len = self.tick_len;
        // 1. Generate and route this tick's requests, tenant by tenant.
        for &tenant in &self.order {
            // INVARIANT: `order` only holds tenants present in `tenants`.
            let rt = self.tenants.get_mut(&tenant).expect("known tenant");
            let want = rt.shape.requests_in_tick(now, tick_len) + rt.carry;
            let count = want.floor() as u64;
            rt.carry = want - count as f64;
            for j in 0..count {
                // Arrivals spread uniformly across the tick.
                let issued_at = now + (j * tick_len) / count.max(1);
                let spec = rt.gen.next_request();
                let key = (u64::from(tenant) << 40) ^ spec.key_rank as u64;
                if !spec.is_write {
                    rt.acc.reads += 1;
                }
                let est_ru = rt.plane.estimate_ru(spec.is_write);
                match rt.plane.submit(key, spec.is_write, now) {
                    ProxyDecision::CacheHit { .. } => {
                        // Served at the proxy: no quota, no node traffic.
                        rt.acc.success += 1;
                        rt.acc.proxy_hits += 1;
                        rt.acc.latency.record(PROXY_HIT_LATENCY);
                    }
                    ProxyDecision::Rejected { .. } => {
                        rt.acc.errors += 1;
                    }
                    ProxyDecision::Forward { proxy } => {
                        self.monitor.record_traffic(tenant, now, est_ru);
                        let req = SimRequest {
                            tenant,
                            partition: rt.partition,
                            key,
                            is_write: spec.is_write,
                            value_bytes: spec.value_bytes,
                            issued_at,
                            proxy: Some(proxy),
                        };
                        if let Some(Disposition::RejectedAtNode) = self.node.submit(req, issued_at)
                        {
                            rt.acc.errors += 1;
                        }
                    }
                }
            }
        }
        // 2. Node advances one tick; completions feed proxy caches + metrics.
        for (req, disp) in self.node.tick(now, tick_len) {
            // INVARIANT: every request was generated for a registered tenant.
            let rt = self.tenants.get_mut(&req.tenant).expect("known tenant");
            if let Disposition::Success {
                latency,
                served_from,
            } = disp
            {
                rt.acc.success += 1;
                rt.acc.latency.record(latency);
                if !req.is_write {
                    if served_from == ServedFrom::NodeCache {
                        rt.acc.node_hits += 1;
                    }
                    if let Some(proxy) = req.proxy {
                        rt.plane.on_read_complete(
                            proxy,
                            req.key,
                            req.value_bytes,
                            served_from == ServedFrom::NodeCache,
                            now,
                        );
                    }
                }
            }
        }
        self.clock += tick_len;
    }

    fn end_of_minute(&mut self, minute: u64, out: &mut Vec<MinutePoint>) {
        let now = self.clock;
        // Control-plane actions: boost clawback and active cache refresh.
        for &tenant in &self.order {
            let allowed = self.monitor.boost_allowed(tenant, now);
            // INVARIANT: `order` only holds tenants present in `tenants`.
            let rt = self.tenants.get_mut(&tenant).expect("known tenant");
            rt.plane.set_boost(allowed, now);
            for (proxy, key) in rt.plane.refresh_candidates(now) {
                // The refresh re-read is an internal request; the simulator
                // grants it the keyspace's typical size.
                let size = 1024;
                rt.plane.complete_refresh(proxy, key, size, now);
            }
            out.push(rt.acc.point(minute, tenant, self.minute_secs as f64));
            rt.acc.reset();
        }
    }
}

// ---------------------------------------------------------------------------
// Replicated cluster: real replica groups placed across DataNodes.
// ---------------------------------------------------------------------------

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
    /// Read-router tuning (staleness budget for `Eventual` follower reads).
    pub router: ReadRouterConfig,
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
            router: ReadRouterConfig::default(),
            migration: MigrationConfig::default(),
        }
    }
}

/// What [`ReplicatedCluster::kill_node`] did, for assertions and reports.
#[derive(Debug)]
pub struct FailoverOutcome {
    /// The meta server's decisions (promotions + copy assignments).
    pub plan: crate::meta::FailoverPlan,
    /// Measured parallel-reconstruction run, when replicas were re-seeded.
    pub reconstruction: Option<ReconstructionReport>,
}

/// A multi-node cluster where every partition is served by a real
/// WAL-shipping [`ReplicaGroup`], placed and failed over by the
/// [`MetaServer`] — the live counterpart of the closed-form §3.3 model.
pub struct ReplicatedCluster {
    base_dir: PathBuf,
    config: ReplicatedClusterConfig,
    meta: MetaServer,
    nodes: HashMap<NodeId, DataNodeSim>,
    node_ids: Vec<NodeId>,
    dead_nodes: std::collections::HashSet<NodeId>,
    groups: HashMap<PartitionId, ReplicaGroup>,
    /// The consistency-aware read router (tentpole): every cluster read goes
    /// through it, so `Eventual` reads spread over caught-up followers and
    /// fenced reads pick a replica that holds the session's write.
    router: ReadRouter,
    /// The live-migration engine: scheduler plans become staged checkpoint
    /// copies + binlog catch-up + epoch-guarded cut-overs, drained by `tick`.
    migrations: MigrationEngine,
    /// Registry snapshot taken at construction — the baseline
    /// [`ReplicatedCluster::metrics_delta`] subtracts, so one process can
    /// run many clusters and still ask "what did *this* one do".
    obs_baseline: abase_obs::Snapshot,
    /// Registry snapshot refreshed by each [`ReplicatedCluster::tick`].
    obs_last: abase_obs::Snapshot,
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
            .map(|&id| (id, DataNodeSim::new(id, DataNodeConfig::default())))
            .collect();
        Self {
            base_dir: base_dir.as_ref().to_path_buf(),
            config,
            meta: MetaServer::new(mins(1)),
            nodes,
            node_ids,
            dead_nodes: std::collections::HashSet::new(),
            groups: HashMap::new(),
            router: ReadRouter::new(config.router),
            migrations: MigrationEngine::new(config.migration),
            obs_baseline: abase_obs::snapshot(),
            obs_last: abase_obs::Snapshot::default(),
        }
    }

    /// The registry snapshot captured by the last [`ReplicatedCluster::tick`]
    /// (empty before the first tick).
    pub fn metrics(&self) -> &abase_obs::Snapshot {
        &self.obs_last
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

    /// The meta server (routing tables, failover planning).
    pub fn meta(&self) -> &MetaServer {
        &self.meta
    }

    /// Mutable meta-server access (routing experiments, ablation baselines).
    pub fn meta_mut(&mut self) -> &mut MetaServer {
        &mut self.meta
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

    /// A node's placement bookkeeping.
    pub fn node(&self, id: NodeId) -> Option<&DataNodeSim> {
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

    /// Create a replicated partition, placing its replicas on the
    /// least-loaded nodes (leaders additionally balance across nodes so the
    /// write path spreads).
    pub fn create_partition(
        &mut self,
        tenant: TenantId,
        partition: PartitionId,
    ) -> abase_replication::Result<()> {
        // Least-loaded placement over *live* nodes by hosted replica count,
        // ties by id.
        let mut candidates: Vec<NodeId> = self.live_nodes();
        assert!(
            candidates.len() >= self.config.replication_factor,
            "not enough live nodes to place a {}-replica group",
            self.config.replication_factor
        );
        candidates.sort_by_key(|id| (self.nodes[id].hosted_replica_count(), *id));
        let mut chosen: Vec<NodeId> = candidates
            .into_iter()
            .take(self.config.replication_factor)
            .collect();
        // Leader = the chosen node with the fewest leaders.
        chosen.sort_by_key(|id| (self.nodes[id].hosted_leader_count(), *id));
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
        self.meta.assign_replica_group(
            tenant,
            partition,
            ReplicaSet {
                leader: chosen[0],
                followers: chosen[1..].to_vec(),
            },
        );
        for (i, id) in chosen.iter().enumerate() {
            let role = if i == 0 { Role::Leader } else { Role::Follower };
            self.nodes
                .get_mut(id)
                // INVARIANT: `chosen` was drawn from `self.nodes` keys above.
                .expect("placed on known node")
                .host_replica(partition, role);
        }
        self.groups.insert(partition, group);
        self.sync_replica_state(partition);
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
            if let Some(node) = self.nodes.get_mut(&member) {
                node.record_replica_write(partition, write_ru);
            }
        }
        self.sync_replica_state(partition);
        Ok(lsn)
    }

    /// Read from the partition at the requested consistency level, through
    /// the read router (see [`ReplicatedCluster::read_routed`]).
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

    /// Read from the partition through the consistency-aware router: the
    /// router picks a node from the MetaServer's replica health/LSN view,
    /// the group re-validates the choice (fence + liveness) and serves, and
    /// the read RU is charged to the serving node's replica ledger. A stale
    /// routing decision (replica died or fell behind since its last health
    /// report) re-routes to the leader instead of surfacing an error or a
    /// stale value.
    pub fn read_routed(
        &mut self,
        partition: PartitionId,
        key: &[u8],
        consistency: ReadConsistency,
        now: SimTime,
    ) -> abase_replication::Result<ClusterRead> {
        self.sync_replica_state(partition);
        let decision = self
            .router
            .route(&self.meta, partition, consistency)
            .ok_or(ReplError::NoLeader)?;
        let fence = match consistency {
            ReadConsistency::ReadYourWrites(lsn) => Some(lsn),
            ReadConsistency::Eventual | ReadConsistency::Leader => None,
        };
        let group = self.groups.get(&partition).ok_or(ReplError::NoLeader)?;
        let (routed, is_leader) = match group.read_at(decision.node, key, fence, now) {
            Ok(r) => (r, decision.is_leader),
            // UnknownReplica covers a routing view that still names a
            // migrated-away source: the cut-over removed the member between
            // the router's decision and the group's check.
            Err(ReplError::StaleReplica { .. })
            | Err(ReplError::ReplicaUnavailable(_))
            | Err(ReplError::UnknownReplica(_))
                if !decision.is_leader =>
            {
                // The router's health view trailed reality; the leader holds
                // every acked write, so it can always take the read.
                self.router.note_fallback();
                let leader = group.leader().ok_or(ReplError::NoLeader)?;
                (group.read_at(leader, key, fence, now)?, true)
            }
            Err(e) => return Err(e),
        };
        let bytes = routed.result.value.as_ref().map(|v| v.len()).unwrap_or(0);
        let outcome = if routed.result.from_memtable || routed.result.from_row_cache {
            ReadOutcome::NodeCacheHit
        } else {
            ReadOutcome::Miss
        };
        let read_ru = charge_read(bytes, outcome);
        if let Some(node) = self.nodes.get_mut(&routed.replica) {
            node.record_replica_read(partition, read_ru);
        }
        Ok(ClusterRead {
            node: routed.replica,
            is_leader,
            lag: routed.lag,
            result: routed.result,
        })
    }

    /// The read router's counters (leader vs follower vs fallback).
    pub fn router_stats(&self) -> RouterStats {
        self.router.stats()
    }

    /// Push a group's authoritative replica state into the MetaServer's
    /// health view — the simulator's stand-in for the production heartbeat.
    fn sync_replica_state(&mut self, partition: PartitionId) {
        let Some(group) = self.groups.get(&partition) else {
            return;
        };
        // A replica awaiting a full resync reports dead for routing: its
        // history may be divergent, so no read may land on it.
        let readable = group.readable_replicas(None);
        for replica in group.status().replicas {
            let serving = replica.alive && readable.contains(&replica.id);
            self.meta
                .report_replica_health(partition, replica.id, serving, replica.acked_lsn);
        }
    }

    /// Ship pending log on every group (the per-tick replication pump that
    /// drains `Async` writes to followers), drain the migration queue one
    /// step, then refresh the meta server's replica health view.
    pub fn tick(&mut self) -> abase_replication::Result<()> {
        for group in self.groups.values_mut() {
            group.tick()?;
        }
        self.step_migrations();
        let partitions: Vec<PartitionId> = self.groups.keys().copied().collect();
        for partition in partitions {
            self.sync_replica_state(partition);
        }
        // Observability hook: each tick republishes the registry view, so
        // anything driving the cluster can read a fresh snapshot without
        // knowing about the registry itself.
        self.obs_last = abase_obs::snapshot();
        Ok(())
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
                    self.migrations.note_joined(req, bytes, secs);
                    // The destination is a group member from here on: meta's
                    // set and the node registry learn about it immediately so
                    // health reports and failover planning see it.
                    self.meta.begin_migration(req.partition, req.to);
                    if let Some(node) = self.nodes.get_mut(&req.to) {
                        node.host_replica(req.partition, Role::Follower);
                    }
                    let copy_ru = write_ru(bytes as usize, 1);
                    if let Some(node) = self.nodes.get_mut(&req.from) {
                        node.record_copy_out(req.partition, copy_ru);
                    }
                    if let Some(node) = self.nodes.get_mut(&req.to) {
                        node.record_copy_in(req.partition, copy_ru);
                    }
                    self.sync_replica_state(req.partition);
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
            if let Err(e) = group.pump_follower(req.to) {
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
    /// over if the source led, retire the source member (epoch bump), and
    /// switch the MetaServer's routing + replica set + health view together.
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
        let dest_lsn = group.acked_lsn(req.to)?;
        // The registry role comes from the group's *current* leadership, not
        // from `was_leader`: an unrelated failover during catch-up may have
        // promoted the (most-caught-up) staged destination already.
        let dest_role = if group.leader() == Some(req.to) {
            Role::Leader
        } else {
            Role::Follower
        };
        // Source teardown: the bytes moved; reclaim the disk. The replica's
        // RU ledger moves with it — deleting it would make the (hot) replica
        // look freshly cold at the destination and invite a second move —
        // but the copy-out RU this migration charged the source stays out of
        // the transfer: the destination already paid its own copy-in, and
        // carrying both sides would bias Algorithm 2 against the new home.
        std::fs::remove_dir_all(&source_dir).ok();
        self.meta
            .complete_migration(req.partition, req.from, req.to, dest_lsn);
        let copy_ru = write_ru(bytes_copied as usize, 1);
        let ledger = self
            .nodes
            .get_mut(&req.from)
            .map(|node| {
                let mut ledger = node.take_replica_ru(req.partition);
                ledger.read_ru = (ledger.read_ru - copy_ru).max(0.0);
                node.drop_replica(req.partition);
                ledger
            })
            .unwrap_or_default();
        if let Some(node) = self.nodes.get_mut(&req.to) {
            node.host_replica(req.partition, dest_role);
            node.absorb_replica_ru(req.partition, ledger);
        }
        self.sync_replica_state(req.partition);
        Ok(was_leader)
    }

    /// Tear a staged (joined but not cut-over) destination back out of the
    /// group and the meta view after an abort — the source replica still
    /// serves, so the move simply never happened. Exception: if an unrelated
    /// failover already *promoted* the staged destination (it was the
    /// most-caught-up candidate), the group depends on it — the migration is
    /// abandoned as a migration but the destination stays a full member with
    /// its leader role intact.
    fn abort_staged_destination(&mut self, req: MigrationRequest) {
        if let Some(group) = self.groups.get_mut(&req.partition) {
            if group.leader() == Some(req.to) {
                self.sync_replica_state(req.partition);
                return;
            }
            if group.members().contains(&req.to) {
                if let Ok(dir) = group.remove_member(req.to) {
                    std::fs::remove_dir_all(dir).ok();
                }
            }
        }
        self.meta.abort_migration(req.partition, req.to);
        if let Some(node) = self.nodes.get_mut(&req.to) {
            node.drop_replica(req.partition);
        }
        self.sync_replica_state(req.partition);
    }

    /// Kill a DataNode: fail its replicas, let the meta server plan
    /// promotions and reconstruction, execute the promotions, and re-seed the
    /// lost replicas **in parallel** from the planned sources.
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
        // 1. The node's replicas become unreachable.
        for group in self.groups.values_mut() {
            if group.members().contains(&failed) {
                group.fail_replica(failed)?;
            }
        }
        if let Some(node) = self.nodes.get_mut(&failed) {
            for partition in self.meta.partitions_on_node(failed) {
                node.drop_replica(partition);
            }
        }
        // 2. The meta server plans from real acked LSNs, re-seeding only
        //    onto nodes that are still alive.
        let alive: Vec<NodeId> = self.live_nodes();
        let groups = &self.groups;
        let plan = self.meta.plan_node_failure(
            failed,
            // `promotable_lsn` is None for dead or divergent replicas, so the
            // plan can never elect a follower whose LSN counts unacked
            // history (the group's own `promote` applies the same filter).
            |partition, node| groups.get(&partition).and_then(|g| g.promotable_lsn(node)),
            &alive,
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
            if let Some(node) = self.nodes.get_mut(&elected) {
                node.host_replica(promotion.partition, Role::Leader);
            }
        }
        // 4. Parallel reconstruction from the planned sources: each rebuilt
        //    replica is a staged join whose source is the planned surviving
        //    member, copied into the ticket's staging directory by one
        //    worker per source node.
        let mut tickets = Vec::with_capacity(plan.reconstructions.len());
        let mut tasks = Vec::with_capacity(plan.reconstructions.len());
        for assignment in &plan.reconstructions {
            let group = self
                .groups
                .get_mut(&assignment.partition)
                // INVARIANT: the plan was built from this map's entries.
                .expect("planned partition exists");
            let ticket =
                group.begin_join(assignment.dest, &self.base_dir, Some(assignment.source))?;
            tasks.push(ReconstructionTask {
                partition: assignment.partition,
                source: group.db(assignment.source)?,
                source_node: assignment.source,
                dest_dir: ticket.staging().to_path_buf(),
            });
            tickets.push(ticket);
        }
        let reconstruction = if tasks.is_empty() {
            None
        } else {
            Some(reconstruct_parallel(tasks, self.config.recovery_bandwidth)?)
        };
        // Re-seed copies consume the same disks migrations do: charge the
        // copy RU to both ends of every reconstruction (per-task bytes
        // approximated as an even share of the run), so a pool view built
        // after a failover sees the recovery traffic in the loss function.
        if let Some(rec) = &reconstruction {
            let per_task = rec.bytes_copied / rec.replicas.max(1) as u64;
            let copy_ru = write_ru(per_task as usize, 1);
            for assignment in &plan.reconstructions {
                if let Some(node) = self.nodes.get_mut(&assignment.source) {
                    node.record_copy_out(assignment.partition, copy_ru);
                }
                if let Some(node) = self.nodes.get_mut(&assignment.dest) {
                    node.record_copy_in(assignment.partition, copy_ru);
                }
            }
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
            group.pump_follower(assignment.dest)?;
            if let Some(node) = self.nodes.get_mut(&assignment.dest) {
                node.host_replica(assignment.partition, Role::Follower);
            }
        }
        // 6. Every partition's routing view reflects the new world before
        //    the next read is routed.
        let partitions: Vec<PartitionId> = self.groups.keys().copied().collect();
        for partition in partitions {
            self.sync_replica_state(partition);
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
    use crate::node::DataNodeConfig;
    use abase_util::clock::mins;
    use abase_util::TestDir;

    fn spec(id: TenantId, qps: f64) -> TenantSpec {
        TenantSpec {
            id,
            tenant_quota_ru: 2_000.0,
            partition: u64::from(id) * 100,
            partition_quota_ru: 1_000.0,
            shape: TrafficShape::Steady(qps),
            keyspace: KeyspaceConfig {
                n_keys: 5_000,
                zipf_s: 0.99,
                read_ratio: 0.9,
                ..Default::default()
            },
            proxy: ProxyPlaneConfig {
                n_proxies: 4,
                n_groups: 2,
                ..Default::default()
            },
        }
    }

    #[test]
    fn steady_load_completes_with_low_latency() {
        let node = DataNodeSim::new(1, DataNodeConfig::default());
        let mut exp = IsolationExperiment::new(node, vec![spec(1, 500.0), spec(2, 500.0)], 7);
        let points = exp.run_minutes(3);
        assert_eq!(points.len(), 6); // 2 tenants × 3 minutes
        for p in &points[2..] {
            assert!(
                (p.success_qps - 500.0).abs() < 50.0,
                "minute {} tenant {} qps {}",
                p.minute,
                p.tenant,
                p.success_qps
            );
            assert!(p.error_qps < 5.0, "errors {}", p.error_qps);
            assert!(p.p99_latency_ms < 50.0, "p99 {}", p.p99_latency_ms);
        }
    }

    #[test]
    fn cache_hit_ratio_climbs_on_zipf_reads() {
        let node = DataNodeSim::new(1, DataNodeConfig::default());
        let mut exp = IsolationExperiment::new(node, vec![spec(1, 500.0)], 3);
        let points = exp.run_minutes(4);
        let last = points.last().unwrap();
        assert!(
            last.cache_hit_ratio > 0.5,
            "hit ratio {} after warmup",
            last.cache_hit_ratio
        );
    }

    #[test]
    fn burst_without_proxy_quota_starves_the_neighbour() {
        // Figure 6's first phase in miniature.
        let node = DataNodeSim::new(
            1,
            DataNodeConfig {
                cpu_ru_per_sec: 2_000.0,
                rejection_cost_ru: 0.5,
                ..Default::default()
            },
        );
        let mut t1 = spec(1, 200.0);
        t1.proxy.quota_enabled = false; // proxy not intercepting
        t1.proxy.cache_enabled = false;
        t1.keyspace.read_ratio = 1.0;
        let mut t2 = spec(2, 200.0);
        t2.proxy.cache_enabled = false;
        let mut exp = IsolationExperiment::new(node, vec![t1, t2], 11);
        let warm = exp.run_minutes(2);
        let t2_before: f64 = warm
            .iter()
            .filter(|p| p.tenant == 2 && p.minute == 1)
            .map(|p| p.success_qps)
            .sum();
        // Tenant 1 bursts to 20k QPS — far over its quota.
        exp.set_shape(1, TrafficShape::Steady(20_000.0));
        let burst = exp.run_minutes(3);
        let t2_during: f64 = burst
            .iter()
            .filter(|p| p.tenant == 2 && p.minute == 4)
            .map(|p| p.success_qps)
            .sum();
        assert!(
            t2_during < t2_before * 0.5,
            "tenant 2 unaffected: {t2_before} -> {t2_during}"
        );
    }

    #[test]
    fn proxy_quota_shields_the_neighbour_from_bursts() {
        // Figure 6's second phase: same burst, but the proxy intercepts.
        let node = DataNodeSim::new(
            1,
            DataNodeConfig {
                cpu_ru_per_sec: 2_000.0,
                rejection_cost_ru: 0.5,
                ..Default::default()
            },
        );
        let mut t1 = spec(1, 200.0);
        t1.proxy.cache_enabled = false;
        t1.keyspace.read_ratio = 1.0;
        t1.tenant_quota_ru = 800.0; // proxy caps tenant 1 below node capacity
        let mut t2 = spec(2, 200.0);
        t2.proxy.cache_enabled = false;
        let mut exp = IsolationExperiment::new(node, vec![t1, t2], 11);
        exp.run_minutes(2);
        exp.set_shape(1, TrafficShape::Steady(20_000.0));
        let burst = exp.run_minutes(3);
        let t2_during: f64 = burst
            .iter()
            .filter(|p| p.tenant == 2 && p.minute == 4)
            .map(|p| p.success_qps)
            .sum();
        assert!(
            t2_during > 150.0,
            "tenant 2 starved despite proxy quota: {t2_during}"
        );
    }

    #[test]
    fn minute_points_are_emitted_in_order() {
        let node = DataNodeSim::new(1, DataNodeConfig::default());
        let mut exp = IsolationExperiment::new(node, vec![spec(1, 100.0)], 5);
        let points = exp.run_minutes(2);
        assert_eq!(points[0].minute, 0);
        assert_eq!(points[1].minute, 1);
        assert_eq!(exp.now(), mins(2));
    }

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
            cluster.create_partition(1, p).unwrap();
        }
        // 4 partitions × 3 replicas over 4 nodes → 3 replicas per node.
        for n in 0..4u32 {
            assert_eq!(
                cluster.node(n).unwrap().hosted_replica_count(),
                3,
                "node {n}"
            );
        }
        // Leaders spread: no node leads more than... 4 leaders over 4 nodes.
        for n in 0..4u32 {
            assert!(
                cluster.node(n).unwrap().hosted_leader_count() <= 2,
                "node {n}"
            );
        }
        // Meta routing agrees with group leadership.
        for p in 0..4u64 {
            assert_eq!(cluster.meta().route(p), cluster.group(p).unwrap().leader());
        }
    }

    #[test]
    fn eventual_reads_are_served_by_followers_with_split_accounting() {
        let (_d, mut cluster) = small_cluster("routed-reads");
        cluster.create_partition(1, 0).unwrap();
        for i in 0..10 {
            cluster
                .write(0, format!("k{i}").as_bytes(), b"v", 0)
                .unwrap();
        }
        cluster.tick().unwrap(); // all followers converge
        let mut served = std::collections::HashSet::new();
        for i in 0..12 {
            let key = format!("k{}", i % 10);
            let r = cluster
                .read_routed(0, key.as_bytes(), ReadConsistency::Eventual, 0)
                .unwrap();
            assert!(r.result.value.is_some());
            assert_eq!(r.lag, 0, "converged follower reported lag");
            assert!(!r.is_leader, "eventual read went to the leader");
            served.insert(r.node);
        }
        // Both followers took reads, and their replica ledgers show it.
        assert_eq!(served.len(), 2, "reads did not spread: {served:?}");
        let leader = cluster.meta().route(0).unwrap();
        for node in served {
            assert_ne!(node, leader);
            let split = cluster.node(node).unwrap().replica_ru_split(0);
            assert!(split.read_ru > 0.0, "follower read RU not charged");
            assert!(split.write_ru > 0.0, "replica write RU not charged");
        }
        // The leader carried the writes but none of these reads.
        let leader_split = cluster.node(leader).unwrap().replica_ru_split(0);
        assert!(leader_split.write_ru > 0.0);
        assert_eq!(leader_split.read_ru, 0.0);
        assert_eq!(cluster.router_stats().follower_reads, 12);
    }

    #[test]
    fn ryw_reads_fence_on_the_session_lsn() {
        let (_d, mut cluster) = small_cluster("routed-ryw");
        cluster.create_partition(1, 0).unwrap();
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
    fn live_migration_moves_a_follower_replica() {
        let (_d, mut cluster) = small_cluster("migrate-follower");
        cluster.create_partition(1, 0).unwrap();
        for i in 0..20 {
            cluster
                .write(0, format!("k{i}").as_bytes(), b"v", 0)
                .unwrap();
        }
        let set = cluster.meta().replica_set(0).unwrap().clone();
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
        // Placement switched everywhere together: meta set, group members,
        // node registries, health view.
        let set = cluster.meta().replica_set(0).unwrap();
        assert!(!set.contains(from));
        assert!(set.contains(to));
        assert_eq!(
            cluster.group(0).unwrap().members().len(),
            3,
            "group not back to full strength"
        );
        assert!(!cluster.group(0).unwrap().members().contains(&from));
        assert!(cluster.node(from).unwrap().replica_role(0).is_none());
        assert_eq!(
            cluster.node(to).unwrap().replica_role(0),
            Some(Role::Follower)
        );
        assert!(!cluster.meta().read_candidates(0, None).contains(&from));
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
        cluster.create_partition(1, 0).unwrap();
        for i in 0..10 {
            cluster
                .write(0, format!("k{i}").as_bytes(), b"v", 0)
                .unwrap();
        }
        let set = cluster.meta().replica_set(0).unwrap().clone();
        let from = set.leader;
        let to = (0..4u32).find(|n| !set.contains(*n)).unwrap();
        cluster.enqueue_migration(0, from, to).unwrap();
        cluster.tick().unwrap();
        cluster.tick().unwrap();
        assert_eq!(cluster.migrations().completed().len(), 1);
        assert!(cluster.migrations().completed()[0].was_leader);
        assert_eq!(cluster.meta().route(0), Some(to));
        assert_eq!(cluster.group(0).unwrap().leader(), Some(to));
        assert_eq!(
            cluster.node(to).unwrap().replica_role(0),
            Some(Role::Leader)
        );
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
            cluster.create_partition(1, p).unwrap();
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
        let victim = cluster.meta().route(0).unwrap();
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
        // The dead node is out of every routing entry and every set is full
        // strength again.
        for p in 0..3u64 {
            let set = cluster.meta().replica_set(p).unwrap();
            assert!(!set.contains(victim));
            assert_eq!(set.members().len(), 3);
            // And writes keep flowing.
            cluster.write(p, b"after-failover", b"v", 0).unwrap();
        }
    }
}
