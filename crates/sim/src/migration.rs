//! Live partition migration: Algorithm-2 plans executed as real data
//! movement (paper §5.3 meets §3.3).
//!
//! The rescheduler emits `Migration` plans; this module is the engine that
//! turns each plan into an actual replica move through the shared staged
//! placement-change path in `abase-replication`:
//!
//! ```text
//! enqueue ──▶ [queued] ──(source & dest idle)──▶ stage:
//!     begin_join → ResyncTicket::copy (§3.3 Throttle,
//!     copy RU charged to both nodes) → complete_join
//!   ──▶ [catch-up] binlog tailing until lag ≤ cut-over budget
//!   ──▶ cut-over: drain to lag 0, epoch-bumped membership swap
//!       (handover first when the source led): placement, health and
//!       read candidates are the group's, so they switch together
//!   ──▶ source teardown (directory reclaimed) ──▶ [done]
//! ```
//!
//! The engine itself is pure bookkeeping — queue, per-node in-flight caps,
//! and reports; [`crate::cluster::ReplicatedCluster`] owns the groups and
//! nodes, and drives the state machine from its `tick`. At most
//! **one in-flight move per node** (source or destination side): this is
//! what gives the scheduler's `is_migrating` back-pressure real semantics —
//! a node stays busy until the engine's completion (or abort) callback
//! clears it, not until an arbitrary round boundary.

use crate::types::NodeId;
use abase_core::types::PartitionId;
use std::collections::{HashSet, VecDeque};
use std::time::Duration;

/// One planned replica move: take `partition`'s replica off `from`, land it
/// on `to`. The scheduler's `Migration` maps onto this 1:1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRequest {
    /// Partition whose replica moves.
    pub partition: PartitionId,
    /// Node currently hosting the moving replica.
    pub from: NodeId,
    /// Node that will host it after cut-over.
    pub to: NodeId,
}

/// Why a migration could not be accepted or completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationError {
    /// The partition has no replica group.
    UnknownPartition(PartitionId),
    /// The source node does not host a replica of the partition.
    SourceNotMember(NodeId),
    /// The destination already hosts a replica of the partition (two
    /// replicas of one partition must never share a node).
    DestAlreadyMember(NodeId),
    /// The node is dead.
    NodeDead(NodeId),
    /// An identical or conflicting move for this partition is already
    /// queued or in flight.
    AlreadyPending(PartitionId),
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::UnknownPartition(p) => write!(f, "partition {p} has no replica group"),
            MigrationError::SourceNotMember(n) => {
                write!(f, "source node {n} hosts no replica of the partition")
            }
            MigrationError::DestAlreadyMember(n) => {
                write!(f, "destination node {n} already hosts a replica")
            }
            MigrationError::NodeDead(n) => write!(f, "node {n} is dead"),
            MigrationError::AlreadyPending(p) => {
                write!(f, "partition {p} already has a pending migration")
            }
        }
    }
}

impl std::error::Error for MigrationError {}

/// An accepted migration the engine is executing: its staged checkpoint
/// copy completed and the destination joined the group, whose binlog it is
/// now tailing toward the cut-over budget.
#[derive(Debug, Clone)]
pub struct ActiveMigration {
    /// The move.
    pub req: MigrationRequest,
    /// Engine tick at which the staged copy completed (cut-over is never
    /// attempted in the same tick, so an in-flight move is observable).
    pub joined_at_tick: u64,
    /// Bytes the staged checkpoint copy moved.
    pub bytes_copied: u64,
    /// Wall-clock seconds the (throttled) copy took.
    pub copy_secs: f64,
}

/// A completed migration, for assertions and the ablation bench.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The move.
    pub req: MigrationRequest,
    /// Bytes the staged checkpoint copy moved.
    pub bytes_copied: u64,
    /// Wall-clock seconds the (throttled) copy took.
    pub copy_secs: f64,
    /// Ticks spent in binlog catch-up between join and cut-over.
    pub catchup_ticks: u64,
    /// Destination LSN lag when cut-over was entered (≤ the configured
    /// budget; drained to 0 before the membership swap).
    pub cutover_entry_lag: u64,
    /// Whether the moving replica led the group (leadership was handed over
    /// as part of the cut-over).
    pub was_leader: bool,
}

/// A migration the engine gave up on (copy failure, node death), with the
/// reason — the source replica is untouched in every abort case.
#[derive(Debug, Clone)]
pub struct AbortedMigration {
    /// The move that was abandoned.
    pub req: MigrationRequest,
    /// Why.
    pub reason: String,
}

/// Engine tuning.
#[derive(Debug, Clone, Copy)]
pub struct MigrationConfig {
    /// Maximum LSN records the destination may trail by to enter cut-over
    /// (the final drain still brings it to 0 before the swap).
    pub cutover_lag_budget: u64,
    /// Safety valve: abort a migration that has not reached the cut-over
    /// budget after this many catch-up ticks (0 = never).
    pub max_catchup_ticks: u64,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        Self {
            cutover_lag_budget: 64,
            max_catchup_ticks: 0,
        }
    }
}

/// The migration engine: queue, per-node in-flight caps, and history. The
/// cluster drives it; benches and tests observe it.
#[derive(Debug, Default)]
pub struct MigrationEngine {
    config: MigrationConfig,
    queue: VecDeque<MigrationRequest>,
    inflight: Vec<ActiveMigration>,
    /// Nodes with an in-flight move (source or destination side). Cleared
    /// per migration by the completion/abort callbacks — never wholesale.
    busy: HashSet<NodeId>,
    completed: Vec<MigrationReport>,
    aborted: Vec<AbortedMigration>,
    tick: u64,
}

impl MigrationEngine {
    /// An engine with the given tuning.
    pub fn new(config: MigrationConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> MigrationConfig {
        self.config
    }

    /// Does `node` have an in-flight move (as source or destination)? This
    /// is the live counterpart of the scheduler's `NodeState::is_migrating`.
    pub fn is_migrating(&self, node: NodeId) -> bool {
        self.busy.contains(&node)
    }

    /// Queued (not yet started) moves, FIFO.
    pub fn queued(&self) -> Vec<MigrationRequest> {
        self.queue.iter().copied().collect()
    }

    /// Moves currently executing.
    pub fn in_flight(&self) -> &[ActiveMigration] {
        &self.inflight
    }

    /// Completed moves, oldest first.
    pub fn completed(&self) -> &[MigrationReport] {
        &self.completed
    }

    /// Abandoned moves, oldest first.
    pub fn aborted(&self) -> &[AbortedMigration] {
        &self.aborted
    }

    /// True when nothing is queued or in flight.
    pub fn idle(&self) -> bool {
        self.queue.is_empty() && self.inflight.is_empty()
    }

    /// Accept a move into the queue. Per-partition exclusivity is enforced
    /// here (one pending move per partition); per-node caps are enforced at
    /// start time.
    pub fn enqueue(&mut self, req: MigrationRequest) -> Result<(), MigrationError> {
        if req.from == req.to {
            return Err(MigrationError::DestAlreadyMember(req.to));
        }
        let pending = self.queue.iter().any(|q| q.partition == req.partition)
            || self
                .inflight
                .iter()
                .any(|m| m.req.partition == req.partition);
        if pending {
            return Err(MigrationError::AlreadyPending(req.partition));
        }
        self.queue.push_back(req);
        Ok(())
    }

    /// Advance the engine clock one tick.
    pub(crate) fn advance_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The current engine tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Queued moves whose source and destination are both idle, in FIFO
    /// order; marks their nodes busy and removes them from the queue. The
    /// cluster stages each one (copy + join) and reports back with
    /// [`MigrationEngine::note_joined`] or [`MigrationEngine::note_aborted`].
    pub(crate) fn take_startable(&mut self) -> Vec<MigrationRequest> {
        let mut started = Vec::new();
        let mut rest = VecDeque::new();
        while let Some(req) = self.queue.pop_front() {
            if self.busy.contains(&req.from) || self.busy.contains(&req.to) {
                rest.push_back(req);
                continue;
            }
            self.busy.insert(req.from);
            self.busy.insert(req.to);
            started.push(req);
        }
        self.queue = rest;
        started
    }

    /// The staged copy completed and the destination joined the group.
    pub(crate) fn note_joined(&mut self, req: MigrationRequest, bytes_copied: u64, copy_secs: f64) {
        crate::metrics::MIGRATION_COPIED_BYTES.add(bytes_copied);
        crate::metrics::MIGRATION_PHASE_MICROS
            .with("copy")
            .record_duration(Duration::from_secs_f64(copy_secs));
        self.inflight.push(ActiveMigration {
            req,
            joined_at_tick: self.tick,
            bytes_copied,
            copy_secs,
        });
    }

    /// Cut-over completed: free both nodes and record the report.
    pub(crate) fn note_completed(
        &mut self,
        req: MigrationRequest,
        cutover_entry_lag: u64,
        was_leader: bool,
    ) {
        if let Some(pos) = self.inflight.iter().position(|m| m.req == req) {
            let active = self.inflight.remove(pos);
            self.busy.remove(&req.from);
            self.busy.remove(&req.to);
            crate::metrics::MIGRATIONS_COMPLETED.inc();
            self.completed.push(MigrationReport {
                req,
                bytes_copied: active.bytes_copied,
                copy_secs: active.copy_secs,
                catchup_ticks: self.tick.saturating_sub(active.joined_at_tick),
                cutover_entry_lag,
                was_leader,
            });
        }
    }

    /// A queued or in-flight move was abandoned: record why, and free its
    /// nodes only if it actually held them (an in-flight move — a queued one
    /// never acquired the busy flags, and clearing them here would release
    /// nodes a *different* in-flight move still owns).
    pub(crate) fn note_aborted(&mut self, req: MigrationRequest, reason: impl Into<String>) {
        let held_nodes = self.inflight.iter().any(|m| m.req == req);
        self.inflight.retain(|m| m.req != req);
        self.queue.retain(|q| *q != req);
        if held_nodes {
            self.busy.remove(&req.from);
            self.busy.remove(&req.to);
        }
        crate::metrics::MIGRATIONS_ABORTED.inc();
        self.aborted.push(AbortedMigration {
            req,
            reason: reason.into(),
        });
    }

    /// A move taken by [`MigrationEngine::take_startable`] failed before its
    /// destination joined the group: the busy flags it acquired at start are
    /// released (it was never in flight, so `note_aborted` would not).
    pub(crate) fn note_staging_failed(&mut self, req: MigrationRequest, reason: impl Into<String>) {
        self.busy.remove(&req.from);
        self.busy.remove(&req.to);
        crate::metrics::MIGRATIONS_ABORTED.inc();
        self.aborted.push(AbortedMigration {
            req,
            reason: reason.into(),
        });
    }

    /// Every pending (queued or in-flight) move touching `node`, for the
    /// cluster's node-death cancellation sweep.
    pub(crate) fn pending_involving(&self, node: NodeId) -> Vec<(MigrationRequest, bool)> {
        let mut out: Vec<(MigrationRequest, bool)> = self
            .inflight
            .iter()
            .filter(|m| m.req.from == node || m.req.to == node)
            .map(|m| (m.req, true))
            .collect();
        out.extend(
            self.queue
                .iter()
                .filter(|q| q.from == node || q.to == node)
                .map(|q| (*q, false)),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(partition: u64, from: u32, to: u32) -> MigrationRequest {
        MigrationRequest {
            partition,
            from,
            to,
        }
    }

    #[test]
    fn per_node_cap_blocks_a_second_move_until_completion() {
        let mut e = MigrationEngine::default();
        e.enqueue(req(1, 0, 3)).unwrap();
        e.enqueue(req(2, 0, 4)).unwrap(); // shares source node 0
        let started = e.take_startable();
        assert_eq!(started, vec![req(1, 0, 3)]);
        assert!(e.is_migrating(0) && e.is_migrating(3));
        assert!(!e.is_migrating(4));
        e.note_joined(req(1, 0, 3), 1024, 0.1);
        // The second move stays queued while node 0 is busy.
        assert!(e.take_startable().is_empty());
        assert_eq!(e.queued(), vec![req(2, 0, 4)]);
        // Completion — not a round boundary — frees the node.
        e.note_completed(req(1, 0, 3), 0, false);
        assert!(!e.is_migrating(0));
        assert_eq!(e.take_startable(), vec![req(2, 0, 4)]);
        assert_eq!(e.completed().len(), 1);
    }

    #[test]
    fn one_pending_move_per_partition() {
        let mut e = MigrationEngine::default();
        e.enqueue(req(1, 0, 3)).unwrap();
        assert_eq!(
            e.enqueue(req(1, 1, 4)),
            Err(MigrationError::AlreadyPending(1))
        );
        assert_eq!(
            e.enqueue(req(2, 5, 5)),
            Err(MigrationError::DestAlreadyMember(5))
        );
    }

    #[test]
    fn abort_frees_nodes_and_records_the_reason() {
        let mut e = MigrationEngine::default();
        e.enqueue(req(1, 0, 3)).unwrap();
        assert_eq!(e.take_startable().len(), 1);
        e.note_joined(req(1, 0, 3), 64, 0.0);
        e.note_aborted(req(1, 0, 3), "destination died");
        assert!(!e.is_migrating(0) && !e.is_migrating(3));
        assert!(e.idle());
        assert_eq!(e.aborted().len(), 1);
        assert_eq!(e.aborted()[0].reason, "destination died");
    }

    #[test]
    fn aborting_a_queued_move_never_frees_another_moves_nodes() {
        let mut e = MigrationEngine::default();
        e.enqueue(req(1, 0, 3)).unwrap();
        e.enqueue(req(2, 0, 4)).unwrap(); // queued behind busy node 0
        assert_eq!(e.take_startable().len(), 1);
        e.note_joined(req(1, 0, 3), 64, 0.0);
        // Dropping the *queued* move (say its destination died) must not
        // release node 0, which the in-flight move still owns.
        e.note_aborted(req(2, 0, 4), "destination died");
        assert!(e.is_migrating(0), "in-flight move's source was freed");
        assert!(e.is_migrating(3));
        assert!(!e.is_migrating(4));
        assert!(e.take_startable().is_empty());
    }

    #[test]
    fn staging_failure_releases_the_started_moves_nodes() {
        let mut e = MigrationEngine::default();
        e.enqueue(req(1, 0, 3)).unwrap();
        assert_eq!(e.take_startable().len(), 1);
        // The copy failed before the destination ever joined: the busy flags
        // acquired at start must come back.
        e.note_staging_failed(req(1, 0, 3), "staging failed: io");
        assert!(!e.is_migrating(0) && !e.is_migrating(3));
        assert!(e.idle());
        assert_eq!(e.aborted().len(), 1);
    }

    #[test]
    fn pending_involving_finds_queued_and_inflight() {
        let mut e = MigrationEngine::default();
        e.enqueue(req(1, 0, 3)).unwrap();
        e.enqueue(req(2, 0, 4)).unwrap();
        e.take_startable();
        e.note_joined(req(1, 0, 3), 64, 0.0);
        let involving = e.pending_involving(0);
        assert_eq!(involving.len(), 2);
        assert!(involving.contains(&(req(1, 0, 3), true)));
        assert!(involving.contains(&(req(2, 0, 4), false)));
        assert!(e.pending_involving(9).is_empty());
    }
}
