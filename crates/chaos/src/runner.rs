//! The chaos runner: seeded episodes of faulty life for a replicated cluster.
//!
//! One **episode** = fresh [`ReplicatedCluster`] + mixed tenant workload
//! (Table-1 profiles via `abase-workload`) + one seed-determined
//! [`FaultPlan`], followed by invariant checks:
//!
//! 1. **Zero acked-write loss** — every write acknowledged under the group
//!    write concern is still readable (at-or-after its op) from the leader
//!    after all faults and failovers.
//! 2. **No split brain** — every group has exactly one live leader, every
//!    tick.
//! 3. **LSN monotonicity** — a replica's applied LSN never goes backwards
//!    except across an explicit full resync (counted) or replacement.
//! 4. **Read-your-writes fencing** — a fenced read at an acked write's LSN
//!    never observes earlier state. Fenced reads go through the cluster's
//!    routed read, whose replica pick is the one `abase-server` runs.
//! 5. **Recovery bandwidth** — parallel reconstruction never exceeds the
//!    §3.3 multi-node budget (`per-node bandwidth × distinct sources`).
//! 6. **Bounded-fault liveness** — a write-concern commit never fails while
//!    a quorum of replicas is alive and every active fault is transient
//!    (this is the invariant that catches reverting the `WAIT`-timeout fix).
//!
//! Violations carry a replayable `CHAOS_SEED=<n>` line; pinned regression
//! seeds live in the workspace's `tests/chaos.rs`.

use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use abase_lavastore::DbConfig;
use abase_replication::{Error as ReplError, ReadConsistency, ReplicaGroup, WriteConcern};
use abase_sim::cluster::{FailoverOutcome, ReplicatedCluster, ReplicatedClusterConfig};
use abase_util::failpoint::{self, FaultAction};
use abase_util::TestDir;
use abase_workload::{KeyspaceConfig, LogNormal, RequestGen, TABLE1_PROFILES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Requests per partition per tick.
const OPS_PER_TICK: usize = 8;
/// Replicas per partition.
pub(crate) const REPLICATION_FACTOR: usize = 3;
/// Write concern under test: the acked-durability invariants assume a
/// quorum.
const WRITE_CONCERN: WriteConcern = WriteConcern::Quorum;
/// Modeled per-node disk bandwidth for reconstruction (bytes/second); the
/// §3.3 invariant bounds measured recovery bandwidth against it.
const RECOVERY_BANDWIDTH: f64 = 24e6;
/// Commit retry budget (see `GroupConfig::wait_timeout`).
const WAIT_TIMEOUT: Duration = Duration::from_millis(25);

/// Episode shape and cluster sizing.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// DataNodes in the cluster.
    pub nodes: u32,
    /// Replicated partitions (each mapped to a Table-1 workload profile).
    pub partitions: u64,
    /// Ticks per episode.
    pub ticks: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            nodes: 6,
            partitions: 4,
            ticks: 30,
        }
    }
}

/// Durability bookkeeping for one key.
#[derive(Debug, Default)]
struct KeyState {
    /// Highest op id acknowledged under the write concern.
    last_acked_op: Option<u64>,
    /// Every op id ever written to this key (acked or attempted).
    written_ops: BTreeSet<u64>,
}

/// What one episode did and whether its invariants held.
#[derive(Debug, Clone)]
pub struct EpisodeReport {
    /// The episode's seed (replay with `--seed <n> --episodes 1`).
    pub seed: u64,
    /// Writes acknowledged under the write concern.
    pub writes_acked: u64,
    /// Writes that failed (injected faults, quorum loss windows).
    pub writes_failed: u64,
    /// Reads issued.
    pub reads: u64,
    /// Reads served from follower replicas.
    pub follower_reads: u64,
    /// `Eventual` reads that observed a value older than the key's last
    /// acked op (legal staleness, counted for the lag-attribution check).
    pub stale_reads: u64,
    /// Highest LSN lag observed at read time across routed reads.
    pub max_observed_lag: u64,
    /// Fenced read-your-writes checks performed.
    pub ryw_checks: u64,
    /// Live migrations started by the plan's migration events.
    pub migrations_started: u64,
    /// Live migrations that completed a cut-over during the episode.
    pub migrations_completed: u64,
    /// Live migrations the engine aborted (killed endpoint, torn copy).
    pub migrations_aborted: u64,
    /// Nodes killed (direct events plus torn-tail / mid-resync escalations).
    pub kills: u64,
    /// Full resyncs observed across all groups by episode end.
    pub resyncs: u64,
    /// Fault events armed from the plan.
    pub faults_armed: usize,
    /// Fail points that actually fired, with counts — accumulated across the
    /// episode's attribution resets (the registry itself is cleared at every
    /// kill), so the report can say which injected faults did real damage.
    pub faults_fired: BTreeMap<String, u64>,
    /// Invariant violations (empty = episode green).
    pub violations: Vec<String>,
}

impl EpisodeReport {
    /// Did every invariant hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Aggregate over a run of episodes.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Per-episode outcomes, in seed order.
    pub episodes: Vec<EpisodeReport>,
}

/// Per-episode fault-attribution state: which partitions currently carry an
/// armed fault that explains a write/tick error.
#[derive(Debug, Default)]
struct ActiveFaults {
    /// Partitions whose leader WAL was torn (poisoned until the leader dies).
    torn: BTreeSet<u64>,
    /// Partitions with a pending checkpoint-failure (mid-resync death).
    ckpt_fail: BTreeSet<u64>,
    /// Armed transient flush failures that have not surfaced yet. A count,
    /// not a set of partitions: one partition can carry several, and one
    /// tripped inside the cluster tick surfaces without a partition — the
    /// error's own text ties it to the fault.
    flush_fail: u32,
}

impl ActiveFaults {
    /// Whether `error` is an armed `FlushFail` surfacing (in a write's commit
    /// or the tick's pump), which consumes it. Transient: nothing escalates.
    fn absorbs_flush_failure(&mut self, error: &ReplError) -> bool {
        let armed = self.flush_fail > 0
            && matches!(error, ReplError::Storage(e)
                if e.to_string().contains("injected fault: wal flush failed"));
        self.flush_fail -= u32::from(armed);
        armed
    }
}

/// Runs seeded chaos episodes and checks invariants.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosRunner {
    /// Episode configuration.
    pub config: ChaosConfig,
}

impl ChaosRunner {
    /// A runner over `config`.
    pub fn new(config: ChaosConfig) -> Self {
        Self { config }
    }

    /// Run `episodes` episodes with seeds `base_seed..base_seed + episodes`.
    ///
    /// Episodes share the process-global fail-point registry and therefore
    /// run strictly sequentially; callers embedding the runner in a test
    /// binary must not run two runners concurrently.
    pub fn run(&self, base_seed: u64, episodes: u64) -> ChaosReport {
        let mut report = ChaosReport::default();
        for i in 0..episodes {
            report.episodes.push(self.run_episode(base_seed + i));
        }
        report
    }

    /// Run one seeded episode and check every invariant.
    pub fn run_episode(&self, seed: u64) -> EpisodeReport {
        // Clean registry in, clean registry out: a panicking episode must not
        // leak rules into the next (or into unrelated tests).
        failpoint::disable();
        failpoint::enable();
        let report = self.episode_inner(seed);
        failpoint::disable();
        report
    }

    fn episode_inner(&self, seed: u64) -> EpisodeReport {
        let cfg = &self.config;
        let dir = TestDir::new(&format!("chaos-{seed}"));
        let mut cluster = ReplicatedCluster::new(
            dir.path(),
            cfg.nodes,
            ReplicatedClusterConfig {
                replication_factor: REPLICATION_FACTOR,
                write_concern: WRITE_CONCERN,
                db: DbConfig::small_for_tests(),
                recovery_bandwidth: Some(RECOVERY_BANDWIDTH),
                wait_timeout: WAIT_TIMEOUT,
            },
        );
        let mut gens: Vec<RequestGen> = Vec::new();
        for p in 0..cfg.partitions {
            cluster.create_partition(p).expect("partition placement");
            // Mixed tenant workload: cycle diverse Table-1 profiles (pure
            // reads, write-heavy joiner, mixed dedup), clamped to chaos-sized
            // values and enough writes to exercise durability.
            let profile = &TABLE1_PROFILES[[0usize, 4, 5][(p % 3) as usize]];
            gens.push(RequestGen::new(
                KeyspaceConfig {
                    n_keys: 256,
                    zipf_s: 0.9,
                    read_ratio: profile.read_ratio.min(0.5),
                    value_size: LogNormal::from_median_p90(
                        (profile.mean_kv_bytes as f64).min(384.0),
                        2.0,
                    ),
                    key_prefix: format!("p{p}"),
                },
                seed ^ (p.wrapping_mul(0x9E37_79B9)),
            ));
        }
        let plan = FaultPlan::generate(seed, cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE_F00D);
        let mut report = EpisodeReport {
            seed,
            writes_acked: 0,
            writes_failed: 0,
            reads: 0,
            follower_reads: 0,
            stale_reads: 0,
            max_observed_lag: 0,
            ryw_checks: 0,
            migrations_started: 0,
            migrations_completed: 0,
            migrations_aborted: 0,
            kills: 0,
            resyncs: 0,
            faults_armed: plan.events.len(),
            faults_fired: BTreeMap::new(),
            violations: Vec::new(),
        };
        let mut active = ActiveFaults::default();
        let mut keys: BTreeMap<u64, BTreeMap<String, KeyState>> = BTreeMap::new();
        let mut watermarks: BTreeMap<(u64, u32), (u64, u64)> = BTreeMap::new();
        let mut op_counter = 0u64;
        // Node deaths scheduled one tick after their migration started
        // (kill-destination-mid-copy / kill-source-mid-catch-up). Kept
        // outside `ActiveFaults` so an unrelated kill's attribution reset
        // cannot cancel a planned migration death.
        let mut delayed_kills: Vec<(u64, u32)> = Vec::new();
        let mut aborts_seen = 0usize;

        for tick in 0..cfg.ticks {
            let now = tick * 100_000;
            let due: Vec<u32> = delayed_kills
                .iter()
                .filter(|&&(t, _)| t <= tick)
                .map(|&(_, n)| n)
                .collect();
            delayed_kills.retain(|&(t, _)| t > tick);
            for node in due {
                if cluster.live_nodes().contains(&node) {
                    self.kill(&mut cluster, node, &mut active, &mut report);
                }
            }
            for event in plan.events_at(tick) {
                self.arm_event(
                    event,
                    &mut cluster,
                    &mut active,
                    &mut delayed_kills,
                    tick,
                    &mut rng,
                    &mut report,
                );
            }
            for p in 0..cfg.partitions {
                for _ in 0..OPS_PER_TICK {
                    let spec = gens[p as usize].next_request();
                    if spec.is_write {
                        op_counter += 1;
                        let op = op_counter;
                        let value = encode_value(op, spec.value_bytes.min(512));
                        let state = keys.entry(p).or_default().entry(spec.key.clone());
                        let state = state.or_default();
                        state.written_ops.insert(op);
                        match cluster.write(p, spec.key.as_bytes(), &value, now) {
                            Ok(lsn) => {
                                report.writes_acked += 1;
                                state.last_acked_op = Some(op);
                                if rng.gen_bool(0.25) {
                                    report.ryw_checks += 1;
                                    check_ryw(
                                        &mut cluster,
                                        p,
                                        &spec.key,
                                        op,
                                        lsn,
                                        now,
                                        &mut report,
                                    );
                                }
                            }
                            Err(e) => {
                                report.writes_failed += 1;
                                self.on_write_error(p, e, &mut cluster, &mut active, &mut report);
                            }
                        }
                    } else {
                        report.reads += 1;
                        match cluster.read_routed(
                            p,
                            spec.key.as_bytes(),
                            ReadConsistency::Eventual,
                            now,
                        ) {
                            Ok(read) => {
                                report.max_observed_lag = report.max_observed_lag.max(read.lag);
                                if !read.is_leader {
                                    report.follower_reads += 1;
                                }
                                let found = read.result.value.as_deref().and_then(parse_op);
                                let state = keys.get(&p).and_then(|m| m.get(&spec.key));
                                if let (Some(op), Some(state)) = (found, state) {
                                    if !state.written_ops.contains(&op) {
                                        report.violations.push(format!(
                                            "PHANTOM READ: {} on p{p} served op {op} that was \
                                             never written (replica {})",
                                            spec.key, read.node
                                        ));
                                    }
                                }
                                // Stale-follower attribution: staleness is
                                // legal for Eventual, but a replica that
                                // reported lag 0 has applied every acked
                                // write — older state at lag 0 is a routing
                                // bug, not staleness.
                                let acked = state.and_then(|s| s.last_acked_op);
                                let is_stale = match (acked, found) {
                                    (Some(a), Some(f)) => f < a,
                                    (Some(_), None) => true,
                                    _ => false,
                                };
                                if is_stale {
                                    report.stale_reads += 1;
                                    if read.lag == 0 {
                                        report.violations.push(format!(
                                            "STALE READ AT LAG 0: {} on p{p} tick {tick} served \
                                             {found:?} below acked {acked:?} by replica {}",
                                            spec.key, read.node
                                        ));
                                    }
                                }
                            }
                            Err(e) => {
                                report.violations.push(format!(
                                    "eventual read failed on p{p} at tick {tick}: {e}"
                                ));
                            }
                        }
                    }
                }
            }
            if let Err(e) = cluster.tick() {
                self.on_tick_error(e, &mut cluster, &mut active, &mut report);
            }
            // Migration aborts are handled inside the engine (the source
            // replica keeps serving); attribute each new one so a consumed
            // torn-checkpoint rule does not linger as armed state.
            let aborted = cluster.migrations().aborted();
            for abort in &aborted[aborts_seen..] {
                report.migrations_aborted += 1;
                if abort.reason.contains("staging failed") {
                    active.ckpt_fail.remove(&abort.req.partition);
                }
            }
            aborts_seen = aborted.len();
            self.check_tick_invariants(&cluster, &mut watermarks, tick, &mut report);
        }

        // Quiesce: drop every remaining rule and let followers converge.
        harvest_fired(&mut report);
        failpoint::clear();
        active = ActiveFaults::default();
        let _ = &active;
        for _ in 0..4 {
            if let Err(e) = cluster.tick() {
                report
                    .violations
                    .push(format!("tick failed after faults were cleared: {e}"));
            }
        }
        self.check_final_invariants(&mut cluster, &keys, &mut report);
        self.check_metrics_invariants(&cluster, &mut report);
        report
    }

    /// Invariant 7 (metrics-derived): the observability registry must agree
    /// with the episode's own bookkeeping. Every full resync a group records
    /// also increments `abase_repl_resyncs_total`, and counters are global
    /// and monotone, so the registry's growth since this cluster was built
    /// can never be *below* the resyncs still visible in surviving group
    /// state — a shortfall means an instrumentation regression (a resync
    /// path that skips the counter), which is exactly what fault attribution
    /// would later mis-blame on the workload.
    fn check_metrics_invariants(&self, cluster: &ReplicatedCluster, report: &mut EpisodeReport) {
        let delta = cluster.metrics_delta();
        let counted = delta.counter("abase_repl_resyncs_total");
        if counted < report.resyncs {
            report.violations.push(format!(
                "METRICS UNDERCOUNT: registry saw {counted} resyncs but surviving group \
                 state shows {} — a resync path is missing its counter",
                report.resyncs
            ));
        }
    }

    /// Install a plan event into the cluster / fail-point registry.
    #[allow(clippy::too_many_arguments)]
    fn arm_event(
        &self,
        event: &FaultEvent,
        cluster: &mut ReplicatedCluster,
        active: &mut ActiveFaults,
        delayed_kills: &mut Vec<(u64, u32)>,
        tick: u64,
        rng: &mut StdRng,
        report: &mut EpisodeReport,
    ) {
        match event.kind {
            FaultKind::KillLeader { partition } => {
                if let Some(node) = cluster.group(partition).and_then(ReplicaGroup::leader) {
                    self.kill(cluster, node, active, report);
                }
            }
            FaultKind::KillRandomNode => {
                let live = cluster.live_nodes();
                if live.len() > REPLICATION_FACTOR {
                    let victim = live[rng.gen_range(0..live.len())];
                    self.kill(cluster, victim, active, report);
                }
            }
            FaultKind::FollowerStall { partition, polls } => {
                for dir in follower_dirs(cluster, partition) {
                    failpoint::install("group.pump", Some(&dir), FaultAction::Stall, 0, polls);
                }
            }
            FaultKind::BinlogGap { partition } => {
                if let Some(dir) = leader_dir(cluster, partition) {
                    failpoint::install("binlog.poll", Some(&dir), FaultAction::Gap, 0, 1);
                }
            }
            FaultKind::TornLeaderTail {
                partition,
                keep_bytes,
            } => {
                if let Some(dir) = leader_dir(cluster, partition) {
                    failpoint::install(
                        "wal.append",
                        Some(&dir),
                        FaultAction::TornWrite { keep_bytes },
                        0,
                        1,
                    );
                    active.torn.insert(partition);
                }
            }
            FaultKind::FlushFail { partition } => {
                if let Some(dir) = leader_dir(cluster, partition) {
                    failpoint::install("wal.flush", Some(&dir), FaultAction::Error, 0, 1);
                    active.flush_fail += 1;
                }
            }
            FaultKind::FsyncDelay { partition, ms } => {
                if let Some(dir) = leader_dir(cluster, partition) {
                    failpoint::install("wal.flush", Some(&dir), FaultAction::DelayMs(ms), 0, 3);
                }
            }
            FaultKind::MidResyncLeaderDeath {
                partition,
                after_chunks,
            } => {
                if let Some(dir) = leader_dir(cluster, partition) {
                    failpoint::install("binlog.poll", Some(&dir), FaultAction::Gap, 0, 1);
                    failpoint::install(
                        "db.checkpoint",
                        Some(&dir),
                        FaultAction::Error,
                        after_chunks,
                        1,
                    );
                    active.ckpt_fail.insert(partition);
                }
            }
            FaultKind::MigrateKillDest { partition } => {
                if let Some((_, to)) = self.start_migration(cluster, partition, rng, report) {
                    delayed_kills.push((tick + 1, to));
                }
            }
            FaultKind::MigrateKillSource { partition } => {
                if let Some((from, _)) = self.start_migration(cluster, partition, rng, report) {
                    delayed_kills.push((tick + 1, from));
                }
            }
            FaultKind::MigrateLive { partition } => {
                self.start_migration(cluster, partition, rng, report);
            }
            FaultKind::MigrateTornCheckpoint { partition } => {
                if let Some(dir) = leader_dir(cluster, partition) {
                    if self
                        .start_migration(cluster, partition, rng, report)
                        .is_some()
                    {
                        // The staged copy (next cluster tick) dies mid-stream.
                        // The rule is attributed as a checkpoint failure until
                        // the engine's abort consumes it — if an unrelated
                        // resync on the same leader trips it first, the
                        // standard mid-resync escalation applies.
                        failpoint::install("db.checkpoint", Some(&dir), FaultAction::Error, 0, 1);
                        active.ckpt_fail.insert(partition);
                    }
                }
            }
        }
    }

    /// Start a live migration of one of `partition`'s replicas to a random
    /// live node outside its replica set. Returns the (source, destination)
    /// pair if a move was enqueued.
    fn start_migration(
        &self,
        cluster: &mut ReplicatedCluster,
        partition: u64,
        rng: &mut StdRng,
        report: &mut EpisodeReport,
    ) -> Option<(u32, u32)> {
        let set = cluster.replica_set(partition)?;
        let members = set.members();
        let from = members[rng.gen_range(0..members.len())];
        let spares: Vec<u32> = cluster
            .live_nodes()
            .into_iter()
            .filter(|n| !set.contains(*n))
            .collect();
        if spares.is_empty() {
            return None;
        }
        let to = spares[rng.gen_range(0..spares.len())];
        match cluster.enqueue_migration(partition, from, to) {
            Ok(()) => {
                report.migrations_started += 1;
                Some((from, to))
            }
            // A dead source, pending move, or similar: the event degrades to
            // a no-op, which the plan's budget already tolerates.
            Err(_) => None,
        }
    }

    /// Kill a node through the cluster's failover (plan, promote, re-seed)
    /// and check the §3.3 recovery invariant on the resulting
    /// reconstruction.
    fn kill(
        &self,
        cluster: &mut ReplicatedCluster,
        node: u32,
        active: &mut ActiveFaults,
        report: &mut EpisodeReport,
    ) {
        // Chaos rules must not leak into the failover machinery itself: the
        // plan's faults target steady-state traffic, and a rule firing inside
        // reconstruction would make attribution ambiguous. The attribution
        // sets are cleared with the rules: every armed fault here surfaces
        // (and is removed) at the same call that fires it, so a lingering
        // entry always refers to a not-yet-fired rule that no longer exists —
        // keeping it would let a later *genuine* bug masquerade as injected.
        harvest_fired(report);
        failpoint::clear();
        *active = ActiveFaults::default();
        match cluster.kill_node(node) {
            Ok(outcome) => {
                report.kills += 1;
                self.check_recovery(&outcome, report);
            }
            Err(e) => report
                .violations
                .push(format!("kill_node({node}) failed: {e}")),
        }
    }

    /// Invariant 5: measured recovery bandwidth within the §3.3 budget.
    fn check_recovery(&self, outcome: &FailoverOutcome, report: &mut EpisodeReport) {
        let Some(rec) = &outcome.reconstruction else {
            return;
        };
        if rec.distinct_sources > rec.copies.len().max(1) {
            report.violations.push(format!(
                "reconstruction claims {} sources for {} replicas",
                rec.distinct_sources,
                rec.copies.len()
            ));
        }
        let budget = RECOVERY_BANDWIDTH * rec.distinct_sources as f64;
        // 35% headroom for throttle sleep granularity on small copies.
        let limit = budget * 1.35 + 256e3;
        let measured = rec.effective_bandwidth();
        if measured > limit {
            report.violations.push(format!(
                "recovery bandwidth {measured:.0} B/s exceeds §3.3 budget {budget:.0} B/s \
                 across {} sources",
                rec.distinct_sources
            ));
        }
    }

    /// Attribute a write failure to an armed fault, escalating torn tails and
    /// failed resync copies into the planned leader death. An unexplained
    /// quorum failure while a quorum is alive is invariant 6's violation.
    fn on_write_error(
        &self,
        partition: u64,
        error: ReplError,
        cluster: &mut ReplicatedCluster,
        active: &mut ActiveFaults,
        report: &mut EpisodeReport,
    ) {
        if active.absorbs_flush_failure(&error) {
            return;
        }
        match error {
            ReplError::Storage(_) => {
                if active.torn.remove(&partition) || active.ckpt_fail.remove(&partition) {
                    // The planned escalation: the broken leader dies, the
                    // group fails over against a torn log / half-copied
                    // checkpoint.
                    if let Some(node) = cluster.group(partition).and_then(ReplicaGroup::leader) {
                        self.kill(cluster, node, active, report);
                    }
                } else {
                    report.violations.push(format!(
                        "unexplained storage error on p{partition}: no armed fault"
                    ));
                }
            }
            ReplError::NoQuorum { need, acked } => {
                let alive = cluster
                    .group(partition)
                    .map(|g| g.status().replicas.iter().filter(|r| r.alive).count())
                    .unwrap_or(0);
                if alive >= need {
                    report.violations.push(format!(
                        "quorum write failed ({acked}/{need}) on p{partition} with {alive} \
                         replicas alive and only transient faults armed"
                    ));
                }
            }
            ReplError::NoLeader => {
                // Acceptable only in the window before a planned kill lands;
                // the cluster always promotes inside kill_node, so a
                // persistent NoLeader shows up in the final split-brain check.
            }
            other => report
                .violations
                .push(format!("unexpected write error on p{partition}: {other}")),
        }
    }

    /// A tick (async catch-up pump) failure must be explained by an armed
    /// flush failure, which is transient, or by a pending checkpoint-failure
    /// fault, whose escalation is the leader's death.
    fn on_tick_error(
        &self,
        error: ReplError,
        cluster: &mut ReplicatedCluster,
        active: &mut ActiveFaults,
        report: &mut EpisodeReport,
    ) {
        if active.absorbs_flush_failure(&error) {
            return;
        }
        if let Some(&partition) = active.ckpt_fail.iter().next() {
            active.ckpt_fail.remove(&partition);
            if let Some(node) = cluster.group(partition).and_then(ReplicaGroup::leader) {
                self.kill(cluster, node, active, report);
            }
            return;
        }
        report
            .violations
            .push(format!("unexplained tick failure: {error}"));
    }

    /// Invariants 2 and 3, checked every tick: exactly one live leader per
    /// group, and per-replica LSNs that only move backwards across an
    /// explicit resync or replacement.
    fn check_tick_invariants(
        &self,
        cluster: &ReplicatedCluster,
        watermarks: &mut BTreeMap<(u64, u32), (u64, u64)>,
        tick: u64,
        report: &mut EpisodeReport,
    ) {
        for p in 0..self.config.partitions {
            let Some(group) = cluster.group(p) else {
                continue;
            };
            let status = group.status();
            let live_leaders = status
                .replicas
                .iter()
                .filter(|r| r.alive && r.role == abase_replication::Role::Leader)
                .count();
            if live_leaders != 1 {
                report.violations.push(format!(
                    "split brain on p{p} at tick {tick}: {live_leaders} live leaders"
                ));
            }
            for r in &status.replicas {
                match watermarks.get(&(p, r.id)) {
                    Some(&(last_lsn, last_resyncs))
                        if r.acked_lsn < last_lsn && r.resyncs == last_resyncs =>
                    {
                        report.violations.push(format!(
                            "LSN regression on p{p} replica {} at tick {tick}: \
                             {last_lsn} -> {} without a resync",
                            r.id, r.acked_lsn
                        ));
                    }
                    _ => {}
                }
                watermarks.insert((p, r.id), (r.acked_lsn, r.resyncs));
            }
        }
    }

    /// Invariant 1 (and final convergence): after quiescing, the leader
    /// serves every acked write at-or-after its acked op, and followers have
    /// converged to the leader's LSN.
    fn check_final_invariants(
        &self,
        cluster: &mut ReplicatedCluster,
        keys: &BTreeMap<u64, BTreeMap<String, KeyState>>,
        report: &mut EpisodeReport,
    ) {
        report.migrations_completed = cluster.migrations().completed().len() as u64;
        for p in 0..self.config.partitions {
            let Some(group) = cluster.group(p) else {
                continue;
            };
            let status = group.status();
            report.resyncs += status.replicas.iter().map(|r| r.resyncs).sum::<u64>();
            if let Some(leader_lsn) = status.leader.and_then(|id| {
                status
                    .replicas
                    .iter()
                    .find(|r| r.id == id)
                    .map(|r| r.acked_lsn)
            }) {
                for r in status.replicas.iter().filter(|r| r.alive) {
                    if r.acked_lsn != leader_lsn {
                        report.violations.push(format!(
                            "p{p} replica {} did not converge: {} != leader {}",
                            r.id, r.acked_lsn, leader_lsn
                        ));
                    }
                }
            } else {
                report
                    .violations
                    .push(format!("p{p} finished the episode without a live leader"));
            }
            let Some(partition_keys) = keys.get(&p) else {
                continue;
            };
            for (key, state) in partition_keys {
                let read = match cluster.read(p, key.as_bytes(), ReadConsistency::Leader, 0) {
                    Ok(r) => r,
                    Err(e) => {
                        report
                            .violations
                            .push(format!("final leader read of {key} failed: {e}"));
                        continue;
                    }
                };
                let found_op = read.value.as_deref().and_then(parse_op);
                match (state.last_acked_op, found_op) {
                    (Some(acked), None) => report.violations.push(format!(
                        "ACKED WRITE LOST: {key} acked op {acked} but reads as absent"
                    )),
                    (Some(acked), Some(op)) if op < acked => report.violations.push(format!(
                        "ACKED WRITE LOST: {key} acked op {acked} but reads op {op}"
                    )),
                    (_, Some(op)) if !state.written_ops.contains(&op) => report.violations.push(
                        format!("PHANTOM WRITE: {key} reads op {op} that was never written"),
                    ),
                    _ => {}
                }
            }
        }
    }
}

/// Invariant 4: a fenced read at an acked LSN must observe the write,
/// whichever replica the group picked.
fn check_ryw(
    cluster: &mut ReplicatedCluster,
    partition: u64,
    key: &str,
    op: u64,
    lsn: u64,
    now: u64,
    report: &mut EpisodeReport,
) {
    match cluster.read_routed(
        partition,
        key.as_bytes(),
        ReadConsistency::ReadYourWrites(lsn),
        now,
    ) {
        Ok(read) => {
            if !read.is_leader {
                report.follower_reads += 1;
            }
            match read.result.value.as_deref().and_then(parse_op) {
                Some(found) if found >= op => {}
                found => report.violations.push(format!(
                    "STALE FENCED READ: {key} fenced at lsn {lsn} (op {op}) returned {found:?} \
                     from replica {}",
                    read.node
                )),
            }
        }
        Err(e) => report.violations.push(format!(
            "fenced read of {key} at acked lsn {lsn} failed: {e}"
        )),
    }
}

/// Fold the injector's current fired counts into the report. Must be called
/// immediately before any `failpoint::clear()` (which zeroes them) — the
/// counts are cumulative-since-last-clear, so harvesting anywhere else would
/// double count.
fn harvest_fired(report: &mut EpisodeReport) {
    for (point, fired) in failpoint::fired_counts() {
        *report.faults_fired.entry(point.to_string()).or_default() += fired;
    }
}

/// The leader replica's data directory for `partition` (fail-point matcher).
fn leader_dir(cluster: &ReplicatedCluster, partition: u64) -> Option<String> {
    let group = cluster.group(partition)?;
    let leader = group.leader()?;
    group
        .replica_dir(leader)
        .ok()
        .map(|d| d.display().to_string())
}

/// Data directories of every live follower of `partition`.
fn follower_dirs(cluster: &ReplicatedCluster, partition: u64) -> Vec<String> {
    let Some(group) = cluster.group(partition) else {
        return Vec::new();
    };
    let Some(leader) = group.leader() else {
        return Vec::new();
    };
    group
        .members()
        .into_iter()
        .filter(|&m| m != leader && group.is_alive(m))
        .filter_map(|m| group.replica_dir(m).ok())
        .map(|d| d.display().to_string())
        .collect()
}

/// Value payload: a parseable op id followed by padding to the profile size.
fn encode_value(op: u64, len: usize) -> Vec<u8> {
    let mut v = format!("op{op:010}|").into_bytes();
    let target = len.max(v.len());
    v.resize(target, b'x');
    v
}

/// Recover the op id from a stored value.
fn parse_op(value: &[u8]) -> Option<u64> {
    let head = std::str::from_utf8(value.get(..13)?).ok()?;
    head.strip_prefix("op")?.strip_suffix('|')?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_roundtrip_op_ids() {
        let v = encode_value(42, 128);
        assert_eq!(v.len(), 128);
        assert_eq!(parse_op(&v), Some(42));
        assert_eq!(parse_op(b"garbage"), None);
        // Minimum-size values still carry the op id.
        assert_eq!(parse_op(&encode_value(7, 0)), Some(7));
    }
}
