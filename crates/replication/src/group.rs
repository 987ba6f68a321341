//! Replica groups: one leader, N−1 followers, WAL shipping in between.
//!
//! A [`ReplicaGroup`] owns a full [`Db`] per replica (in production these
//! live on different DataNodes; the group object is the control-plane view).
//! Writes go to the leader; every other member is a [`Follower`] tailing the
//! leader's WAL through a [`Binlog`] and applying records with their original
//! sequence numbers, so a follower's acked LSN *is* its `Db::last_seq`. The
//! write path enforces a [`WriteConcern`] through the one catch-up routine,
//! [`crate::catchup`]; the read path picks a replica per
//! [`ReadConsistency`]; failover promotes the most-caught-up live follower,
//! which — because WAL shipping applies records in order (prefix property) —
//! retains every write any follower ever acked below its LSN.
//!
//! The group adds to a follower only what is group business: liveness and
//! role, the divergent-history flag, and *placement changes*. Every one of
//! those — gap resync, migration join, failover re-seed — is a
//! [`ResyncTicket`]: a cursor of its own on the source member's log, a
//! staging directory, and the epoch it was issued in. The ticket's cursor
//! stages the checkpoint while the group is unlocked; the follower's own
//! cursor is never touched by a copy in flight. On install the follower
//! takes the ticket's cursor over, already at the checkpoint's edge.

use crate::binlog::Binlog;
use crate::catchup;
use crate::failover::Throttle;
use crate::follower::{Follower, PumpStatus};
use crate::rotation::Rotation;
use crate::transport::LogTransport;
use crate::{Error, Lsn, Result};
use abase_lavastore::{CheckpointInfo, Db, DbConfig, ReadResult};
use abase_util::clock::SimTime;
use abase_util::failpoint::{self, FaultAction};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Replica identifier (the DataNode hosting it, in cluster terms).
pub type ReplicaId = u32;

/// How many replicas must hold a write before it is acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteConcern {
    /// Leader only; followers catch up on [`ReplicaGroup::tick`].
    Async,
    /// A majority of the group's membership (leader included).
    Quorum,
    /// Every live replica.
    All,
}

/// Which replica may serve a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadConsistency {
    /// Any live replica; may be stale.
    Eventual,
    /// Any replica that has applied at least this LSN (LSN fencing): a client
    /// that remembers the LSN of its last write never reads before it.
    ReadYourWrites(Lsn),
    /// The leader only.
    Leader,
}

/// A replica's role within its group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes; its WAL is the group's log.
    Leader,
    /// Tails the leader's WAL.
    Follower,
}

/// Group construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct GroupConfig {
    /// Write concern applied by [`ReplicaGroup::put`]/[`ReplicaGroup::delete`].
    pub write_concern: WriteConcern,
    /// Storage engine configuration shared by every replica.
    pub db: DbConfig,
    /// How long a commit ([`WriteConcern`] enforcement) keeps retrying the
    /// pump before giving up with `NoQuorum` — Redis `WAIT` semantics: a dead
    /// or stalled follower bounds the wait, it does not block forever.
    /// `Duration::ZERO` means a single non-blocking pass.
    pub wait_timeout: Duration,
}

impl GroupConfig {
    /// A config with the default commit timeout.
    pub fn new(write_concern: WriteConcern, db: DbConfig) -> Self {
        Self {
            write_concern,
            db,
            wait_timeout: Duration::from_millis(100),
        }
    }
}

/// Shared accounting for a follower living in **another process**, reached
/// over a socket: the replica connection thread records `REPLCONF ACK`
/// frames here and flips the connected flag, while the group's write-concern
/// and `WAIT` arithmetic read it — same `acked_lsn` math as local followers,
/// different source of truth.
#[derive(Debug, Default)]
pub struct RemoteFollowerState {
    acked: AtomicU64,
    connected: AtomicBool,
    /// Bumped on every (re-)registration. A replica connection records the
    /// generation it was registered under and may only clear the connected
    /// flag for that generation — a stale connection's slow death (e.g. a
    /// partitioned socket whose writes error minutes later) must not mark
    /// the follower's *new* connection down.
    generation: AtomicU64,
}

impl RemoteFollowerState {
    /// Record a follower ack from the connection registered as
    /// `generation` (monotonic: a late/duplicated ack never lowers the
    /// watermark). A superseded connection's acks are discarded — a
    /// follower that lost its disk and re-registered must not have a
    /// pre-wipe ack, drained late from the old socket, resurrect a
    /// watermark covering records it no longer holds.
    pub fn record_ack(&self, generation: u64, lsn: Lsn) {
        // ORDER: SeqCst; `generation`/`acked`/`connected` share one total
        // order with `register_remote_follower`'s bump-then-reset, so a
        // stale connection that passes this check can never have its ack
        // land after the new generation's `acked.store(0)`.
        if self.generation.load(Ordering::SeqCst) == generation {
            self.acked.fetch_max(lsn, Ordering::SeqCst);
        }
    }

    /// Highest LSN the remote follower has acknowledged.
    pub fn acked(&self) -> Lsn {
        // ORDER: SeqCst; reads the same total order `record_ack` and the
        // reconnect reset write into (quorum math must not see a pre-reset
        // watermark after observing the new generation).
        self.acked.load(Ordering::SeqCst)
    }

    /// Mark the connection for `generation` down. A no-op when a newer
    /// registration superseded that connection — the live link keeps
    /// counting. Disconnected remotes stop counting toward write concerns
    /// immediately.
    pub fn disconnect(&self, generation: u64) {
        // ORDER: SeqCst; same total order as `register_remote_follower` —
        // a superseded connection's late death must observe the bumped
        // generation and become a no-op.
        if self.generation.load(Ordering::SeqCst) == generation {
            self.connected.store(false, Ordering::SeqCst);
        }
    }

    /// Is the replica connection currently up?
    pub fn is_connected(&self) -> bool {
        // ORDER: SeqCst; pairs with the stores in `disconnect` and
        // `register_remote_follower` so liveness flips are totally ordered
        // against generation bumps.
        self.connected.load(Ordering::SeqCst)
    }
}

/// A registered remote (cross-process) follower.
struct RemoteFollower {
    id: ReplicaId,
    state: Arc<RemoteFollowerState>,
}

/// A member's store: the leader's, or the [`Follower`] tailing it.
enum Node {
    Leader(Arc<Db>),
    Follower(Follower),
}

struct Replica {
    id: ReplicaId,
    alive: bool,
    /// Forces a checkpoint resync before the next pump (set when a demoted
    /// ex-leader may hold a divergent unacked tail whose sequence numbers
    /// would wrongly dedup against the new leader's history).
    needs_full_resync: bool,
    /// Full resynchronizations performed (roles change and rebuild the
    /// [`Follower`]; the replica's history does not).
    resyncs: u64,
    node: Node,
}

impl Replica {
    fn db(&self) -> &Arc<Db> {
        match &self.node {
            Node::Leader(db) => db,
            Node::Follower(f) => &f.db,
        }
    }

    /// Highest LSN applied.
    fn lsn(&self) -> Lsn {
        self.db().last_seq()
    }

    fn role(&self) -> Role {
        match self.node {
            Node::Leader(_) => Role::Leader,
            Node::Follower(_) => Role::Follower,
        }
    }

    fn leads(&self) -> bool {
        self.alive && self.role() == Role::Leader
    }

    fn follows(&self) -> bool {
        self.alive && self.role() == Role::Follower
    }

    /// Take (or keep) the follower role, tailing through `cursor`.
    fn follow(&mut self, config: DbConfig, cursor: Binlog) {
        let db = Arc::clone(self.db());
        self.node = Node::Follower(Follower::over(db, config, Box::new(cursor)));
    }
}

/// Observability snapshot for one replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Replica id.
    pub id: ReplicaId,
    /// Current role.
    pub role: Role,
    /// Reachability.
    pub alive: bool,
    /// Highest LSN applied (`Db::last_seq`).
    pub acked_lsn: Lsn,
    /// Full resyncs performed.
    pub resyncs: u64,
}

/// One served read with the provenance a routing layer needs: which replica
/// answered and how far behind the leader it was at read time. The `lag`
/// field is the *observed staleness* the follower-read ablation reports and
/// the chaos harness's stale-read attribution consumes.
#[derive(Debug, Clone)]
pub struct RoutedRead {
    /// The storage read itself.
    pub result: ReadResult,
    /// Replica that served the read.
    pub replica: ReplicaId,
    /// The serving replica's applied LSN at read time.
    pub replica_lsn: Lsn,
    /// Records the serving replica trailed the live leader by at read time
    /// (0 when the leader served, or when no live leader exists to compare).
    pub lag: Lsn,
}

/// Observability snapshot for the group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupStatus {
    /// The partition this group serves.
    pub partition: u64,
    /// Current leader, if one is alive.
    pub leader: Option<ReplicaId>,
    /// Per-replica state.
    pub replicas: Vec<ReplicaStatus>,
    /// Remote (cross-process) followers: `(id, acked LSN, connected)`.
    pub remote_followers: Vec<(ReplicaId, Lsn, bool)>,
}

/// A leader/follower replica group shipping the leader's WAL.
pub struct ReplicaGroup {
    partition: u64,
    config: GroupConfig,
    replicas: Vec<Replica>,
    /// Followers in other processes, fed over sockets; they count toward
    /// write concerns and `WAIT` through their shared ack state.
    remotes: Vec<RemoteFollower>,
    /// Spreads `Eventual`/fenced reads over the replicas that qualify.
    rotation: Rotation,
    /// Bumped on every leadership/membership change; an in-flight
    /// [`ResyncTicket`] from an older epoch is refused at install time.
    epoch: u64,
}

/// A prepared, staged replica-placement change whose (long) checkpoint copy
/// runs without borrowing the group: [`ReplicaGroup::begin_resync`] (refresh
/// an existing follower) or [`ReplicaGroup::begin_join`] (stage a new member
/// — migration and failover re-seeding) hands one out, [`ResyncTicket::copy`]
/// streams a checkpoint of the source member into a staging directory, and
/// [`ReplicaGroup::complete_resync`] / [`ReplicaGroup::complete_join`]
/// atomically installs it. [`catchup::pump`] runs `copy` without the group,
/// so behind the server's mutex no `WAIT` or commit waits for the transfer.
#[derive(Debug)]
pub struct ResyncTicket {
    follower: ReplicaId,
    epoch: u64,
    /// The follower's resync count at issue: a copy that another ticket's
    /// install overtook is refused, never installed over the newer one.
    resyncs: u64,
    /// The member the checkpoint is copied from.
    source: ReplicaId,
    /// The ticket's own cursor on the source member's log.
    cursor: Binlog,
    /// Does `source` tail the leader? Only then does the checkpoint's edge
    /// name a position in the log the installed follower will tail.
    source_leads: bool,
    staging: PathBuf,
    /// Directory a joining member's staged copy is renamed into.
    install_dir: PathBuf,
}

impl ResyncTicket {
    /// The replica this staged copy is for (an existing follower for a
    /// resync, the joining member's id for a join).
    pub fn follower(&self) -> ReplicaId {
        self.follower
    }

    /// The member the checkpoint is copied from — in a cluster, the node
    /// whose disk serves the copy.
    pub fn source(&self) -> ReplicaId {
        self.source
    }

    /// Where the copy is staged until the ticket is installed.
    pub fn staging(&self) -> &Path {
        &self.staging
    }

    /// Stream a checkpoint of the source into the staging directory under an
    /// optional per-disk bandwidth [`Throttle`] — the §3.3 recovery-bandwidth
    /// model: resync, migration and reconstruction copies charge the same
    /// modeled disk budget. Does not touch the follower's live state: a
    /// failure mid-copy (source died, disk error) leaves the follower exactly
    /// as it was, still serving its (valid prefix) history.
    pub fn copy(&mut self, throttle: Option<&Throttle>) -> Result<CheckpointInfo> {
        self.cursor.fetch_checkpoint(&self.staging, &mut |chunk| {
            if let Some(t) = throttle {
                t.on_chunk(chunk);
            }
        })
    }
}

impl Drop for ResyncTicket {
    fn drop(&mut self) {
        // Abandoned or completed, the staging tree must not outlive the
        // ticket (after a successful install the rename already moved it, so
        // this is a no-op there).
        std::fs::remove_dir_all(&self.staging).ok();
    }
}

impl std::fmt::Debug for ReplicaGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaGroup")
            .field("partition", &self.partition)
            .field("status", &self.status())
            .finish()
    }
}

impl ReplicaGroup {
    /// Wrap the group in its ranked mutex ([`rank::REPLICA_GROUP`]): held
    /// across shallow follower pumps into their stores (never across a
    /// checkpoint copy), it sits *outside* every storage-engine lock in the
    /// global lock order. Every shared `Mutex<ReplicaGroup>` in the workspace
    /// is built through this so the rank is declared in exactly one place.
    ///
    /// [`rank::REPLICA_GROUP`]: abase_util::lockrank::rank::REPLICA_GROUP
    pub fn into_mutex(self) -> abase_util::lockrank::RankedMutex<ReplicaGroup> {
        abase_util::lockrank::RankedMutex::new(abase_util::lockrank::rank::REPLICA_GROUP, self)
    }

    /// Create a fresh group for `partition` under `base_dir`: the first id in
    /// `replica_ids` starts as leader, the rest as followers, each replica in
    /// `base_dir/p<partition>-r<id>`.
    pub fn bootstrap(
        partition: u64,
        base_dir: impl AsRef<Path>,
        replica_ids: &[ReplicaId],
        config: GroupConfig,
    ) -> Result<Self> {
        assert!(
            !replica_ids.is_empty(),
            "a group needs at least one replica"
        );
        let base_dir = base_dir.as_ref();
        let mut replicas: Vec<Replica> = Vec::with_capacity(replica_ids.len());
        for &id in replica_ids {
            let db = Arc::new(Db::open(replica_dir(base_dir, partition, id), config.db)?);
            let mut replica = Replica {
                id,
                alive: true,
                needs_full_resync: false,
                resyncs: 0,
                node: Node::Leader(db),
            };
            if let Some(leader) = replicas.first() {
                replica.follow(config.db, Binlog::attach(Arc::clone(leader.db())));
            }
            replicas.push(replica);
        }
        Ok(Self {
            partition,
            config,
            replicas,
            remotes: Vec::new(),
            rotation: Rotation::default(),
            epoch: 0,
        })
    }

    /// The partition this group serves.
    pub fn partition(&self) -> u64 {
        self.partition
    }

    /// The configured write concern.
    pub fn write_concern(&self) -> WriteConcern {
        self.config.write_concern
    }

    /// The group configuration.
    pub fn config(&self) -> &GroupConfig {
        &self.config
    }

    /// Group membership in declaration order.
    pub fn members(&self) -> Vec<ReplicaId> {
        self.replicas.iter().map(|r| r.id).collect()
    }

    /// The live leader's id.
    pub fn leader(&self) -> Option<ReplicaId> {
        self.replicas.iter().find(|r| r.leads()).map(|r| r.id)
    }

    /// The live leader's database handle.
    pub fn leader_db(&self) -> Result<Arc<Db>> {
        self.replicas
            .iter()
            .find(|r| r.leads())
            .map(|r| Arc::clone(r.db()))
            .ok_or(Error::NoLeader)
    }

    /// A replica's current database handle (replaced wholesale on resync).
    pub fn db(&self, id: ReplicaId) -> Result<Arc<Db>> {
        self.find(id).map(|r| Arc::clone(r.db()))
    }

    /// A replica's on-disk directory.
    pub fn replica_dir(&self, id: ReplicaId) -> Result<PathBuf> {
        self.find(id).map(|r| r.db().dir().to_path_buf())
    }

    /// Is the replica marked reachable?
    pub fn is_alive(&self, id: ReplicaId) -> bool {
        self.find(id).map(|r| r.alive).unwrap_or(false)
    }

    /// Highest LSN `id` has applied.
    pub fn acked_lsn(&self, id: ReplicaId) -> Result<Lsn> {
        self.find(id).map(Replica::lsn)
    }

    /// The live leader's current LSN (what followers converge toward).
    pub fn leader_lsn(&self) -> Result<Lsn> {
        self.leader_db().map(|db| db.last_seq())
    }

    /// Records replica `id` currently trails the live leader by (0 for the
    /// leader itself). `Err(NoLeader)` while a failover is pending.
    pub fn replica_lag(&self, id: ReplicaId) -> Result<Lsn> {
        let leader = self.leader_lsn()?;
        Ok(leader.saturating_sub(self.acked_lsn(id)?))
    }

    /// Live replicas (leader included) whose applied LSN is at least `lsn`,
    /// plus connected remote followers whose `REPLCONF ACK` reached it.
    ///
    /// A replica flagged for full resync never counts: its `last_seq` may
    /// include divergent records the group's acked history replaced, so
    /// counting it would let a write concern ack on state the replica does
    /// not actually hold.
    pub fn acked_count(&self, lsn: Lsn) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.alive && !r.needs_full_resync && r.lsn() >= lsn)
            .count()
            + self.remote_acked(lsn)
    }

    /// Connected remote followers whose acked LSN reached `lsn`.
    fn remote_acked(&self, lsn: Lsn) -> usize {
        self.remotes
            .iter()
            .filter(|r| r.state.is_connected() && r.state.acked() >= lsn)
            .count()
    }

    /// Register (or re-register after a reconnect) a follower living in
    /// another process. The returned state is shared with the replica
    /// connection thread: acks recorded there immediately count toward
    /// write concerns and `WAIT`. The second element is this registration's
    /// *generation*, which the connection hands back to
    /// [`RemoteFollowerState::disconnect`] at teardown — a superseded
    /// connection's slow death must never mark the live one down. The id
    /// must not collide with a local member. Re-registration resets the ack
    /// watermark — the follower re-acks its true LSN on its first pump.
    pub fn register_remote_follower(
        &mut self,
        id: ReplicaId,
    ) -> Result<(Arc<RemoteFollowerState>, u64)> {
        if self.find(id).is_ok() {
            return Err(Error::AlreadyMember(id));
        }
        // Prune disconnected strangers: anonymous followers reconnect under
        // fresh ids, and their dead registrations must not linger.
        self.remotes
            .retain(|r| r.state.is_connected() || r.id == id);
        if let Some(existing) = self.remotes.iter().find(|r| r.id == id) {
            // Bump the generation *before* resetting the watermark: from
            // that instant the old connection's generation-checked acks are
            // refused, so they cannot land after the reset.
            // ORDER: SeqCst; the bump-then-reset must be totally ordered
            // against `record_ack`'s check-then-fetch_max — with anything
            // weaker an old-generation ack could interleave after the reset.
            let generation = existing.state.generation.fetch_add(1, Ordering::SeqCst) + 1;
            existing.state.acked.store(0, Ordering::SeqCst);
            existing.state.connected.store(true, Ordering::SeqCst);
            return Ok((Arc::clone(&existing.state), generation));
        }
        let state = Arc::new(RemoteFollowerState::default());
        // ORDER: SeqCst; same total order as the reconnect arm above.
        let generation = state.generation.fetch_add(1, Ordering::SeqCst) + 1;
        state.connected.store(true, Ordering::SeqCst);
        self.remotes.push(RemoteFollower {
            id,
            state: Arc::clone(&state),
        });
        Ok((state, generation))
    }

    /// `(id, acked LSN, connected)` per registered remote follower.
    pub fn remote_followers(&self) -> Vec<(ReplicaId, Lsn, bool)> {
        self.remotes
            .iter()
            .map(|r| (r.id, r.state.acked(), r.state.is_connected()))
            .collect()
    }

    /// Write `key = value` through the leader and enforce the group's write
    /// concern; returns the write's LSN.
    pub fn put(
        &mut self,
        key: &[u8],
        value: &[u8],
        expires_at: Option<SimTime>,
        now: SimTime,
    ) -> Result<Lsn> {
        let leader = self.leader_db()?;
        // The write's own returned LSN, not `last_seq()`: with the striped
        // engine, concurrent writers can leave the visible watermark
        // momentarily behind this write's seq (or ahead of it, crediting us
        // with someone else's write).
        let lsn = leader.put(key, value, expires_at, now)?;
        catchup::commit(&mut *self, lsn)?;
        Ok(lsn)
    }

    /// Delete `key` through the leader under the group's write concern.
    pub fn delete(&mut self, key: &[u8], now: SimTime) -> Result<Lsn> {
        let leader = self.leader_db()?;
        let lsn = leader.delete(key, now)?;
        catchup::commit(&mut *self, lsn)?;
        Ok(lsn)
    }

    /// Replicas (leader included) the configured write concern requires.
    /// *Connected* remote followers are members — a quorum spans processes —
    /// while disconnected ones drop out of the denominator (Redis
    /// `min-replicas-to-write` semantics): a follower that went away, or a
    /// stale registration from a reconnect, must not inflate the quorum
    /// until writes can never commit.
    pub fn commit_need(&self) -> usize {
        let connected_remotes = self
            .remotes
            .iter()
            .filter(|r| r.state.is_connected())
            .count();
        match self.config.write_concern {
            WriteConcern::Quorum => (self.replicas.len() + connected_remotes) / 2 + 1,
            WriteConcern::Async => 1,
            WriteConcern::All => {
                self.replicas.iter().filter(|r| r.alive).count() + connected_remotes
            }
        }
    }

    /// Live followers that have not applied `lsn`. A divergent (needs-resync)
    /// follower is lagging regardless of its raw LSN: it cannot ack until a
    /// resync replaces its history.
    pub(crate) fn lagging(&self, lsn: Lsn) -> Vec<ReplicaId> {
        self.replicas
            .iter()
            .filter(|r| r.follows() && (r.lsn() < lsn || r.needs_full_resync))
            .map(|r| r.id)
            .collect()
    }

    /// Followers (local and remote, the leader excluded) that have durably
    /// applied `lsn` — the number a `WAIT` reply reports.
    pub fn followers_acked(&self, lsn: Lsn) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.follows() && !r.needs_full_resync && r.lsn() >= lsn)
            .count()
            + self.remote_acked(lsn)
    }

    /// [`catchup::tick`]: pump every live follower once. `abase-server`
    /// runs it through the group's mutex every 100 ms.
    pub fn tick(&mut self) -> Result<()> {
        catchup::tick(self)
    }

    /// Publish the per-follower LSN lag gauges (local replicas and remote
    /// socket followers alike) from the current group state.
    pub(crate) fn refresh_lag_gauges(&self) {
        let Ok(leader_lsn) = self.leader_lsn() else {
            return;
        };
        for r in &self.replicas {
            if r.follows() {
                crate::metrics::FOLLOWER_LAG
                    .set(&r.id.to_string(), leader_lsn.saturating_sub(r.lsn()) as i64);
            }
        }
        for &(id, acked, connected) in &self.status().remote_followers {
            if connected {
                crate::metrics::FOLLOWER_LAG
                    .set(&id.to_string(), leader_lsn.saturating_sub(acked) as i64);
            }
        }
    }

    /// Read `key` at the requested consistency level.
    pub fn read(
        &mut self,
        key: &[u8],
        consistency: ReadConsistency,
        now: SimTime,
    ) -> Result<ReadResult> {
        self.read_routed(key, consistency, now).map(|r| r.result)
    }

    /// Read `key` at the requested consistency level, reporting which replica
    /// served it and the LSN lag observed at read time. `Eventual` and fenced
    /// reads round-robin over qualifying replicas; a replica awaiting a full
    /// resync never serves (its history may be divergent).
    pub fn read_routed(
        &mut self,
        key: &[u8],
        consistency: ReadConsistency,
        now: SimTime,
    ) -> Result<RoutedRead> {
        let replica = match consistency {
            ReadConsistency::Leader => self
                .replicas
                .iter()
                .position(|r| r.leads())
                .ok_or(Error::NoLeader)?,
            ReadConsistency::Eventual => self
                .pick_replica(|r| !r.needs_full_resync)
                .ok_or(Error::NoLeader)?,
            ReadConsistency::ReadYourWrites(lsn) => self
                .pick_replica(|r| !r.needs_full_resync && r.lsn() >= lsn)
                .ok_or(Error::NoQuorum { need: 1, acked: 0 })?,
        };
        self.serve_from(replica, key, now)
    }

    /// Serve a read from the replica at `idx`, stamping provenance.
    fn serve_from(&self, idx: usize, key: &[u8], now: SimTime) -> Result<RoutedRead> {
        let r = &self.replicas[idx];
        let replica_lsn = r.lsn();
        let leader_lsn = self.leader_lsn().unwrap_or(replica_lsn);
        Ok(RoutedRead {
            result: r.db().get(key, now)?,
            replica: r.id,
            replica_lsn,
            lag: leader_lsn.saturating_sub(replica_lsn),
        })
    }

    /// The least recently served live replica passing `filter`.
    fn pick_replica(&mut self, filter: impl Fn(&Replica) -> bool) -> Option<usize> {
        let candidates = self.replicas.iter().filter(|r| r.alive && filter(r));
        let id = self.rotation.pick(candidates.map(|r| r.id))?;
        self.find_index(id).ok()
    }

    /// Mark a replica unreachable (node failure). Writes and leader reads
    /// fail until [`ReplicaGroup::promote`] if the leader died.
    pub fn fail_replica(&mut self, id: ReplicaId) -> Result<()> {
        self.find_mut(id)?.alive = false;
        Ok(())
    }

    /// Mark a previously failed replica reachable again. Its next pump either
    /// resumes WAL tailing or, if it fell off the log, full-resyncs.
    pub fn revive_replica(&mut self, id: ReplicaId) -> Result<()> {
        self.find_mut(id)?.alive = true;
        Ok(())
    }

    /// A replica's LSN for promotion planning: `None` when it is dead or
    /// carries unreconciled (divergent) history — its `last_seq` counts
    /// records the group never acked, so electing it could resurrect writes
    /// the current history already replaced. A failover plan never promotes
    /// a `None` candidate.
    pub fn promotable_lsn(&self, id: ReplicaId) -> Option<Lsn> {
        self.find(id)
            .ok()
            .filter(|r| r.alive && !r.needs_full_resync)
            .map(Replica::lsn)
    }

    /// Elect the most-caught-up live follower as leader after the old leader
    /// died. Followers re-attach their binlogs to the new leader. Because log
    /// application is strictly in order, the follower with the highest
    /// applied LSN holds a superset of every write any follower ever acked —
    /// so no acknowledged write is lost. A follower flagged for full resync
    /// (a revived ex-leader with a divergent tail) is never a candidate: its
    /// LSN counts history the group may have replaced.
    pub fn promote(&mut self) -> Result<ReplicaId> {
        if self.replicas.iter().any(|r| r.leads()) {
            return Err(Error::LeaderStillAlive);
        }
        let winner = self
            .replicas
            .iter()
            .filter(|r| r.follows() && !r.needs_full_resync)
            .max_by(|a, b| {
                a.lsn()
                    .cmp(&b.lsn())
                    // Deterministic tie-break: prefer the lowest id.
                    .then(b.id.cmp(&a.id))
            })
            .map(|r| r.id)
            .ok_or(Error::NoPromotionCandidate)?;
        // A dead ex-leader may carry unacked records that share sequence
        // numbers with the new leader's history; WAL shipping alone cannot
        // reconcile that, so force a checkpoint resync before it ever serves
        // again.
        for r in &mut self.replicas {
            r.needs_full_resync |= r.role() == Role::Leader;
        }
        // Everyone else — including the dead ex-leader — becomes a follower
        // of the winner. Demoting the old leader here is what prevents split
        // brain: if it is later revived it tails the new leader instead of
        // silently resuming leadership. Fresh attach: duplicate records dedup
        // on apply; if the new leader already rotated past what a follower
        // needs, the gap path triggers a full resync.
        self.install_leader(winner, |_| None)?;
        Ok(winner)
    }

    /// Switch roles: `leader` leads, every other member follows it through a
    /// fresh cursor, seeked where `seek` says that member may skip to. Bumps
    /// the epoch: an in-flight ticket staged under the old leadership must
    /// not install.
    fn install_leader(
        &mut self,
        leader: ReplicaId,
        seek: impl Fn(&Replica) -> Option<(u64, u64)>,
    ) -> Result<()> {
        let config = self.config.db;
        let leader_db = Arc::clone(self.find(leader)?.db());
        for r in &mut self.replicas {
            if r.id == leader {
                r.node = Node::Leader(Arc::clone(r.db()));
            } else {
                let mut cursor = Binlog::attach(Arc::clone(&leader_db));
                if let Some((segment, offset)) = seek(r) {
                    cursor.seek(segment, offset);
                }
                r.follow(config, cursor);
            }
        }
        self.epoch += 1;
        Ok(())
    }

    /// One [`Follower`] pass for member `id`, *without* resolving gaps:
    /// [`PumpStatus::NeedsResync`] tells [`catchup::pump`] a full resync is
    /// due.
    pub(crate) fn pump_shallow(&mut self, id: ReplicaId) -> Result<PumpStatus> {
        let r = self.find_mut(id)?;
        let Node::Follower(follower) = &mut r.node else {
            return Ok(PumpStatus::Idle);
        };
        if !r.alive {
            return Ok(PumpStatus::Idle);
        }
        if r.needs_full_resync {
            return Ok(PumpStatus::NeedsResync);
        }
        // Chaos site: one follower's pump stalls (its peers still ship).
        if failpoint::enabled()
            && failpoint::check("group.pump", &follower.db.dir().display().to_string())
                == Some(FaultAction::Stall)
        {
            return Ok(PumpStatus::Idle);
        }
        follower.pump_shallow()
    }

    /// Prepare a full resync of `id` from the current leader. The returned
    /// ticket owns a staging directory next to the follower's; nothing about
    /// the follower changes until [`ReplicaGroup::complete_resync`].
    pub fn begin_resync(&mut self, id: ReplicaId) -> Result<ResyncTicket> {
        let dir = self.replica_dir(id)?;
        self.stage_ticket(id, dir, None)
    }

    /// Prepare staging a **new** member `new_id` (its replica directory will
    /// live under `base_dir`, laid out by [`replica_dir`]) from a checkpoint
    /// of `source` — a live member picked to spread recovery reads (§3.3), or
    /// `None` for the leader. Live partition migration and failover
    /// re-seeding share this with the gap-resync path: same ticket, same
    /// staged copy, same epoch guard. Nothing about the group changes until
    /// [`ReplicaGroup::complete_join`].
    pub fn begin_join(
        &mut self,
        new_id: ReplicaId,
        base_dir: &Path,
        source: Option<ReplicaId>,
    ) -> Result<ResyncTicket> {
        if self.find(new_id).is_ok() {
            return Err(Error::AlreadyMember(new_id));
        }
        let dir = replica_dir(base_dir, self.partition, new_id);
        self.stage_ticket(new_id, dir, source)
    }

    /// The shared staging entry: a ticket copying a checkpoint of `source`
    /// (default: the leader) toward `install_dir`, valid for the current
    /// epoch only.
    fn stage_ticket(
        &mut self,
        id: ReplicaId,
        install_dir: PathBuf,
        source: Option<ReplicaId>,
    ) -> Result<ResyncTicket> {
        let leader = self.leader().ok_or(Error::NoLeader)?;
        let source = self.find(source.unwrap_or(leader))?;
        if !source.alive || source.needs_full_resync {
            // A dead disk cannot be read; divergent history must not spread.
            return Err(Error::ReplicaUnavailable(source.id));
        }
        // Unique per ticket: two connections may race resyncs for the same
        // follower with their group lock dropped, and sharing one staging
        // path would let one copy clobber the other mid-stream.
        static STAGING_SEQ: AtomicU64 = AtomicU64::new(0);
        let staging = install_dir.with_extension(format!(
            "resync-{}",
            STAGING_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        Ok(ResyncTicket {
            follower: id,
            epoch: self.epoch,
            resyncs: self.find(id).map_or(0, |r| r.resyncs),
            source: source.id,
            cursor: Binlog::attach(Arc::clone(source.db())),
            source_leads: source.id == leader,
            staging,
            install_dir,
        })
    }

    /// The epoch guard both installs share, and the cursor the installed
    /// follower tails through: the ticket's own when it staged from the
    /// leader (already at the checkpoint's edge), else a fresh one on the
    /// leader — the checkpoint's edge then names a position in the *source's*
    /// log, so the follower re-reads the leader's retained log and dedups
    /// forward. A refused ticket is dropped by the caller's `?`, which
    /// removes its staging tree.
    fn admit(&self, ticket: &ResyncTicket) -> Result<Box<dyn LogTransport>> {
        if ticket.epoch != self.epoch {
            return Err(Error::ResyncSuperseded);
        }
        Ok(Box::new(if ticket.source_leads {
            ticket.cursor.clone()
        } else {
            Binlog::attach(self.leader_db()?)
        }))
    }

    /// Atomically install a completed resync copy: swap the staged checkpoint
    /// into the follower's directory, reopen it, and tail on from where the
    /// checkpoint ends. Refuses a ticket from an older epoch (the leadership
    /// or membership changed while the copy ran), or one another ticket's
    /// install overtook — the caller simply retries against the new state.
    pub fn complete_resync(&mut self, ticket: ResyncTicket) -> Result<()> {
        let cursor = self.admit(&ticket)?;
        let r = self.find_mut(ticket.follower)?;
        let Node::Follower(follower) = &mut r.node else {
            return Err(Error::ResyncSuperseded);
        };
        if r.resyncs != ticket.resyncs {
            return Err(Error::ResyncSuperseded);
        }
        follower.install(&ticket.staging, Some(cursor))?;
        r.needs_full_resync = false;
        r.resyncs += 1;
        Ok(())
    }

    /// Atomically install a staged **join**: swap the staged checkpoint into
    /// the new member's directory, open it, and add it to the group as a
    /// follower of the leader. Refuses a ticket from an older epoch —
    /// leadership or membership changed while the copy ran, so the staged
    /// bytes may descend from a deposed leader. Membership changes, so the
    /// epoch bumps (any other in-flight ticket is thereby superseded).
    pub fn complete_join(&mut self, ticket: ResyncTicket) -> Result<()> {
        let cursor = self.admit(&ticket)?;
        if self.find(ticket.follower).is_ok() {
            return Err(Error::AlreadyMember(ticket.follower));
        }
        let follower =
            Follower::from_staged(&ticket.staging, &ticket.install_dir, self.config.db, cursor)?;
        self.replicas.push(Replica {
            id: ticket.follower,
            alive: true,
            needs_full_resync: false,
            resyncs: 0,
            node: Node::Follower(follower),
        });
        self.epoch += 1;
        Ok(())
    }

    /// Remove a member from the group (migration source teardown, the dead
    /// member a failover re-seed replaced, or discarding an aborted staged
    /// join). The member may be dead or alive, but never the live leader —
    /// transfer leadership with [`ReplicaGroup::handover`] first. Returns the
    /// removed replica's data directory so the caller can reclaim the disk.
    /// Membership changes, so the epoch bumps.
    pub fn remove_member(&mut self, id: ReplicaId) -> Result<PathBuf> {
        let idx = self.find_index(id)?;
        if self.replicas[idx].leads() {
            return Err(Error::MemberIsLeader(id));
        }
        if self.replicas.len() <= 1 {
            return Err(Error::NoPromotionCandidate);
        }
        let removed = self.replicas.remove(idx);
        self.epoch += 1;
        Ok(removed.db().dir().to_path_buf())
    }

    /// Planned leadership transfer (the migration cut-over path when the
    /// moving replica leads): drain `to` to the leader's exact LSN, then
    /// switch roles — `to` leads, the old leader follows. Unlike crash
    /// [`ReplicaGroup::promote`], both sides are alive and byte-identical at
    /// the handover LSN, so no history diverges and nobody needs a resync.
    /// Fails with [`Error::StaleReplica`] if `to` cannot be drained to the
    /// leader's LSN (it keeps its old role and nothing changes).
    pub fn handover(&mut self, to: ReplicaId) -> Result<()> {
        let old_leader = self.leader().ok_or(Error::NoLeader)?;
        if to == old_leader {
            return Ok(());
        }
        {
            let r = self.find(to)?;
            if !r.follows() || r.needs_full_resync {
                return Err(Error::ReplicaUnavailable(to));
            }
        }
        // Final drain: no new writes can land mid-handover (the caller owns
        // the group), so a bounded pump loop converges or the target is
        // genuinely stuck.
        self.drain_to_leader(to)?;
        let need = self.leader_lsn()?;
        // Flush the new leader's group-commit buffer first: `wal_position`
        // reports only flushed bytes, and frames still sitting in the buffer
        // must land below the seek point, not after it — a follower seeking
        // past them would silently skip records until the gap check fired.
        let new_leader = self.db(to)?;
        new_leader.flush_wal()?;
        let wal_position = new_leader.wal_position();
        // Followers that already hold the full history (the drained old
        // leader — the drain made the LSNs equal before any role changed, so
        // it has no divergent tail and needs no resync — and any caught-up
        // bystander) seek straight to the new leader's live append position;
        // laggards re-attach from the retained log and dedup forward (the
        // same catch-up path a crash promotion uses). A divergent replica's
        // raw LSN lies; it resyncs regardless.
        self.install_leader(to, |r| {
            (!r.needs_full_resync && r.lsn() >= need).then_some(wal_position)
        })
    }

    /// Drain `id` to the live leader's exact LSN: flush the leader's log and
    /// pump the follower in a bounded loop (the caller owns the group, so no
    /// new writes land mid-drain). Both cut-over paths — the leadership
    /// [`ReplicaGroup::handover`] and a follower move's final catch-up —
    /// share this one drain. [`Error::StaleReplica`] if it cannot converge.
    pub fn drain_to_leader(&mut self, id: ReplicaId) -> Result<()> {
        let need = self.leader_lsn()?;
        self.leader_db()?.flush_wal()?;
        for _ in 0..8 {
            if self.acked_lsn(id)? >= need {
                return Ok(());
            }
            catchup::pump(&mut *self, id)?;
        }
        let lsn = self.acked_lsn(id)?;
        if lsn >= need {
            return Ok(());
        }
        Err(Error::StaleReplica {
            replica: id,
            lsn,
            need,
        })
    }

    /// Snapshot of the group's replication state.
    pub fn status(&self) -> GroupStatus {
        GroupStatus {
            partition: self.partition,
            leader: self.leader(),
            replicas: self
                .replicas
                .iter()
                .map(|r| ReplicaStatus {
                    id: r.id,
                    role: r.role(),
                    alive: r.alive,
                    acked_lsn: r.lsn(),
                    resyncs: r.resyncs,
                })
                .collect(),
            remote_followers: self.remote_followers(),
        }
    }

    fn find(&self, id: ReplicaId) -> Result<&Replica> {
        self.replicas
            .iter()
            .find(|r| r.id == id)
            .ok_or(Error::UnknownReplica(id))
    }

    fn find_mut(&mut self, id: ReplicaId) -> Result<&mut Replica> {
        self.replicas
            .iter_mut()
            .find(|r| r.id == id)
            .ok_or(Error::UnknownReplica(id))
    }

    fn find_index(&self, id: ReplicaId) -> Result<usize> {
        self.replicas
            .iter()
            .position(|r| r.id == id)
            .ok_or(Error::UnknownReplica(id))
    }
}

/// Directory layout: one subdirectory per (partition, replica).
pub fn replica_dir(base: &Path, partition: u64, id: ReplicaId) -> PathBuf {
    base.join(format!("p{partition}-r{id}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_util::TestDir;
    use std::time::Instant;

    /// The failpoint registry is process-global: tests arming it run one at
    /// a time.
    static FAILPOINTS: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    fn group(tag: &str, concern: WriteConcern) -> (TestDir, ReplicaGroup) {
        let dir = TestDir::new(tag);
        let g = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[10, 20, 30],
            GroupConfig {
                write_concern: concern,
                db: DbConfig::small_for_tests(),
                // Keep deliberate quorum failures fast in tests.
                wait_timeout: Duration::from_millis(10),
            },
        )
        .unwrap();
        (dir, g)
    }

    #[test]
    fn quorum_write_lands_on_majority() {
        let (_d, mut g) = group("quorum", WriteConcern::Quorum);
        let lsn = g.put(b"k", b"v", None, 0).unwrap();
        assert_eq!(lsn, 1);
        assert!(g.acked_count(lsn) >= 2);
        // Quorum pumps only as many followers as needed: the laggard catches
        // up on tick.
        g.tick().unwrap();
        assert_eq!(g.acked_count(lsn), 3);
    }

    #[test]
    fn all_concern_reaches_every_replica() {
        let (_d, mut g) = group("all", WriteConcern::All);
        let lsn = g.put(b"k", b"v", None, 0).unwrap();
        assert_eq!(g.acked_count(lsn), 3);
    }

    #[test]
    fn async_defers_shipping_to_tick() {
        let (_d, mut g) = group("async", WriteConcern::Async);
        let lsn = g.put(b"k", b"v", None, 0).unwrap();
        assert_eq!(g.acked_count(lsn), 1); // leader only
        g.tick().unwrap();
        assert_eq!(g.acked_count(lsn), 3);
    }

    #[test]
    fn read_consistency_levels() {
        let (_d, mut g) = group("consistency", WriteConcern::Async);
        let lsn = g.put(b"k", b"v", None, 0).unwrap();
        // Leader always sees its own write.
        let r = g.read(b"k", ReadConsistency::Leader, 0).unwrap();
        assert_eq!(r.value.as_deref(), Some(&b"v"[..]));
        // Fenced read never returns pre-write state: with lagging followers
        // it must route to a replica at/above the LSN (here: the leader).
        let r = g
            .read(b"k", ReadConsistency::ReadYourWrites(lsn), 0)
            .unwrap();
        assert_eq!(r.value.as_deref(), Some(&b"v"[..]));
        // Eventual may hit a stale follower — after tick it converges.
        g.tick().unwrap();
        for _ in 0..3 {
            let r = g.read(b"k", ReadConsistency::Eventual, 0).unwrap();
            assert_eq!(r.value.as_deref(), Some(&b"v"[..]));
        }
    }

    #[test]
    fn fenced_reads_prefer_caught_up_followers() {
        let (_d, mut g) = group("fence", WriteConcern::All);
        let lsn = g.put(b"k", b"v", None, 0).unwrap();
        // All three replicas qualify; reads rotate across them.
        let mut served = std::collections::HashSet::new();
        for _ in 0..3 {
            let r = g
                .read_routed(b"k", ReadConsistency::ReadYourWrites(lsn), 0)
                .unwrap();
            served.insert(r.replica);
        }
        assert_eq!(served.len(), 3, "fenced reads did not spread load");
    }

    #[test]
    fn interleaved_fenced_and_eventual_reads_rotate_over_every_qualifying_replica() {
        // Quorum ships to one follower: 10 leads, 20 is caught up and 30 is
        // behind the write's fence.
        let (_d, mut g) = group("rotation", WriteConcern::Quorum);
        let lsn = g.put(b"k", b"v", None, 0).unwrap();
        assert!(g.acked_lsn(30).unwrap() < lsn);
        let mut ryw = std::collections::BTreeMap::new();
        let mut eventual = std::collections::BTreeMap::new();
        for _ in 0..8 {
            let r = g
                .read_routed(b"k", ReadConsistency::ReadYourWrites(lsn), 0)
                .unwrap();
            *ryw.entry(r.replica).or_insert(0) += 1;
            let r = g.read_routed(b"k", ReadConsistency::Eventual, 0).unwrap();
            *eventual.entry(r.replica).or_insert(0) += 1;
        }
        // A shared `cursor % n` sent RYW → {10: 8} and Eventual → {20: 8}.
        assert_eq!(ryw.keys().copied().collect::<Vec<_>>(), [10, 20], "{ryw:?}");
        assert_eq!(
            eventual.keys().copied().collect::<Vec<_>>(),
            [10, 20, 30],
            "{eventual:?}"
        );
        let mut total = ryw.clone();
        for (id, n) in eventual {
            *total.entry(id).or_insert(0) += n;
        }
        assert_eq!(total, [(10, 6), (20, 6), (30, 4)].into(), "{total:?}");
    }

    #[test]
    fn quorum_fails_without_majority() {
        let (_d, mut g) = group("noquorum", WriteConcern::Quorum);
        g.fail_replica(20).unwrap();
        g.fail_replica(30).unwrap();
        match g.put(b"k", b"v", None, 0) {
            Err(Error::NoQuorum { need: 2, acked: 1 }) => {}
            other => panic!("expected NoQuorum, got {other:?}"),
        }
    }

    #[test]
    fn promotion_picks_most_caught_up_follower() {
        let (_d, mut g) = group("promote", WriteConcern::Async);
        for i in 0..10 {
            g.put(format!("k{i}").as_bytes(), b"v", None, 0).unwrap();
        }
        // Ship everything to follower 20 only; 30 stays at LSN 0.
        g.leader_db().unwrap().flush_wal().unwrap();
        catchup::pump(&mut g, 20).unwrap();
        assert_eq!(g.acked_lsn(20).unwrap(), 10);
        assert_eq!(g.acked_lsn(30).unwrap(), 0);
        g.fail_replica(10).unwrap();
        assert_eq!(g.promote().unwrap(), 20);
        assert_eq!(g.leader(), Some(20));
        // The laggard re-attaches to the new leader and converges.
        g.tick().unwrap();
        assert_eq!(g.acked_lsn(30).unwrap(), 10);
        // Writes continue through the new leader.
        let lsn = g.put(b"after", b"x", None, 0).unwrap();
        assert_eq!(lsn, 11);
    }

    #[test]
    fn revived_ex_leader_does_not_reclaim_leadership() {
        let (_d, mut g) = group("splitbrain", WriteConcern::Async);
        // Leader 10 writes 5 records; followers fully caught up.
        for i in 0..5 {
            g.put(format!("k{i}").as_bytes(), b"v", None, 0).unwrap();
        }
        g.tick().unwrap();
        // Leader 10 writes 2 more that never ship (unacked divergent tail),
        // then dies.
        g.leader_db()
            .unwrap()
            .put(b"unacked-1", b"x", None, 0)
            .unwrap();
        g.leader_db()
            .unwrap()
            .put(b"unacked-2", b"x", None, 0)
            .unwrap();
        g.fail_replica(10).unwrap();
        let new_leader = g.promote().unwrap();
        assert_eq!(new_leader, 20);
        // The new leader writes its own history over the same LSNs.
        g.put(b"new-6", b"y", None, 0).unwrap();
        g.put(b"new-7", b"y", None, 0).unwrap();
        // Node 10 comes back: it must NOT be leader, and its divergent tail
        // must be discarded in favor of the new leader's history.
        g.revive_replica(10).unwrap();
        assert_eq!(
            g.leader(),
            Some(20),
            "revived ex-leader reclaimed leadership"
        );
        g.tick().unwrap();
        let db10 = g.db(10).unwrap();
        assert!(
            db10.get(b"unacked-1", 0).unwrap().value.is_none(),
            "divergent tail survived"
        );
        assert!(
            db10.get(b"new-6", 0).unwrap().value.is_some(),
            "new history missing"
        );
        assert_eq!(db10.last_seq(), g.leader_db().unwrap().last_seq());
        let s10 = g
            .status()
            .replicas
            .iter()
            .find(|r| r.id == 10)
            .cloned()
            .unwrap();
        assert_eq!(s10.role, Role::Follower);
        assert!(s10.resyncs >= 1, "ex-leader must full-resync");
    }

    #[test]
    fn promotion_requires_dead_leader_and_live_follower() {
        let (_d, mut g) = group("promote-guard", WriteConcern::Async);
        match g.promote() {
            Err(Error::LeaderStillAlive) => {}
            other => panic!("{other:?}"),
        }
        g.fail_replica(10).unwrap();
        g.fail_replica(20).unwrap();
        g.fail_replica(30).unwrap();
        match g.promote() {
            Err(Error::NoPromotionCandidate) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn follower_that_fell_off_the_log_resyncs() {
        let (_d, mut g) = group("resync", WriteConcern::Async);
        // First shipment establishes follower cursors.
        g.put(b"seed", b"v", None, 0).unwrap();
        g.tick().unwrap();
        // Leader flushes past the retention backlog without follower 20
        // pumping: its cursor's segment is rotated away.
        g.fail_replica(20).unwrap();
        let backlog = g.leader_db().unwrap().config().wal_retention_segments;
        let rounds = backlog + 2;
        for round in 0..rounds {
            for i in 0..30 {
                g.put(format!("r{round}-k{i}").as_bytes(), &[0u8; 64], None, 0)
                    .unwrap();
            }
            g.leader_db().unwrap().flush().unwrap();
        }
        // Node 20 comes back; catching up requires a full resync.
        g.revive_replica(20).unwrap();
        g.tick().unwrap();
        let status = g.status();
        let s20 = status.replicas.iter().find(|r| r.id == 20).unwrap();
        assert!(s20.resyncs >= 1, "expected a full resync");
        assert_eq!(s20.acked_lsn, g.leader_db().unwrap().last_seq());
        // And the data is really there.
        let last = format!("r{}-k29", rounds - 1);
        let r = g.db(20).unwrap().get(last.as_bytes(), 0).unwrap();
        assert!(r.value.is_some());
    }

    #[test]
    fn wait_timeout_returns_acked_so_far() {
        let (_d, mut g) = group("wait-timeout", WriteConcern::Async);
        let lsn = g.put(b"k", b"v", None, 0).unwrap();
        g.fail_replica(30).unwrap();
        // Asking for 2 follower acks with one follower dead: a single pass
        // reports 1 immediately...
        assert_eq!(catchup::wait(&mut g, lsn, 2, Duration::ZERO).unwrap(), 1);
        // ...and a bounded wait returns the same count once the timeout
        // expires rather than blocking forever.
        let start = Instant::now();
        let waited = catchup::wait(&mut g, lsn, 2, Duration::from_millis(30));
        assert_eq!(waited.unwrap(), 1);
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(25), "returned early");
        assert!(elapsed < Duration::from_secs(5), "did not respect timeout");
    }

    #[test]
    fn promote_skips_divergent_ex_leader() {
        let (_d, mut g) = group("promote-divergent", WriteConcern::Async);
        for i in 0..5 {
            g.put(format!("k{i}").as_bytes(), b"v", None, 0).unwrap();
        }
        g.tick().unwrap();
        // Leader 10 accumulates an unacked tail (LSN 7 > everyone's 5), dies.
        g.leader_db().unwrap().put(b"u1", b"x", None, 0).unwrap();
        g.leader_db().unwrap().put(b"u2", b"x", None, 0).unwrap();
        g.fail_replica(10).unwrap();
        assert_eq!(g.promote().unwrap(), 20);
        // 10 revives flagged for resync but is never pumped before the new
        // leader also dies. Its raw LSN (7) beats 30's (5) — promoting it
        // would resurrect the divergent tail.
        g.revive_replica(10).unwrap();
        g.fail_replica(20).unwrap();
        assert_eq!(
            g.promote().unwrap(),
            30,
            "divergent ex-leader must not win promotion"
        );
        assert!(g.db(30).unwrap().get(b"u1", 0).unwrap().value.is_none());
    }

    #[test]
    fn divergent_replica_never_counts_toward_write_concern() {
        let (_d, mut g) = group("divergent-ack", WriteConcern::Quorum);
        for i in 0..5 {
            g.put(format!("k{i}").as_bytes(), b"v", None, 0).unwrap();
        }
        g.tick().unwrap();
        // Leader 10 gains an unacked divergent tail (seq 6..7) and dies;
        // 20 takes over at seq 5.
        g.leader_db().unwrap().put(b"u1", b"x", None, 0).unwrap();
        g.leader_db().unwrap().put(b"u2", b"x", None, 0).unwrap();
        g.fail_replica(10).unwrap();
        assert_eq!(g.promote().unwrap(), 20);
        // 10 revives flagged for resync with a raw LSN (7) *above* the next
        // write's LSN (6); 30 is down, so the quorum hinges on 10.
        g.revive_replica(10).unwrap();
        g.fail_replica(30).unwrap();
        let lsn = g.put(b"k6", b"w", None, 0).unwrap();
        assert_eq!(lsn, 6);
        // The ack must be honest: 10 satisfied the quorum by actually
        // resyncing to the new history (divergent tail discarded), not by
        // counting its stale LSN.
        let db10 = g.db(10).unwrap();
        assert_eq!(
            db10.get(b"k6", 0).unwrap().value.as_deref(),
            Some(&b"w"[..]),
            "quorum acked on a replica that does not hold the write"
        );
        assert!(db10.get(b"u1", 0).unwrap().value.is_none());
        let s10 = g
            .status()
            .replicas
            .iter()
            .find(|r| r.id == 10)
            .cloned()
            .unwrap();
        assert!(s10.resyncs >= 1, "divergent replica must resync to ack");
    }

    #[test]
    fn stale_resync_ticket_is_refused_after_promotion() {
        let (_d, mut g) = group("stale-ticket", WriteConcern::Async);
        g.put(b"k", b"v", None, 0).unwrap();
        g.tick().unwrap();
        let mut ticket = g.begin_resync(30).unwrap();
        ticket.copy(None).unwrap();
        // Leadership changes while the copy was (conceptually) in flight.
        g.fail_replica(10).unwrap();
        g.promote().unwrap();
        match g.complete_resync(ticket) {
            Err(Error::ResyncSuperseded) => {}
            other => panic!("expected ResyncSuperseded, got {other:?}"),
        }
        // The follower still works and converges against the new leader.
        g.put(b"after", b"w", None, 0).unwrap();
        g.tick().unwrap();
        assert_eq!(g.acked_lsn(30).unwrap(), g.leader_db().unwrap().last_seq());
    }

    #[test]
    fn a_tick_pumps_every_follower_past_a_failing_one() {
        let _serial = FAILPOINTS.lock();
        let _guard = failpoint::ScopedInjector::enable();
        let (dir, mut g) = group("tick-past-failure", WriteConcern::Async);
        let lsn = g.put(b"k", b"v", None, 0).unwrap();
        // Member 2's disk refuses the record; member 3's is fine.
        let member2 = dir.path().join("p1-r20");
        let member2 = member2.to_str().unwrap();
        failpoint::install("wal.append", Some(member2), FaultAction::Error, 0, 1);
        match g.tick() {
            Err(Error::Storage(_)) => {}
            other => panic!("expected member 2's storage error, got {other:?}"),
        }
        assert_eq!(
            g.acked_lsn(30).unwrap(),
            lsn,
            "the tick stopped at member 2 and left member 3 unpumped"
        );
    }

    #[test]
    fn an_overtaken_resync_ticket_is_refused() {
        let (_d, mut g) = group("overtaken-ticket", WriteConcern::Async);
        g.put(b"k1", b"v", None, 0).unwrap();
        g.tick().unwrap();
        // Two callers stage copies of follower 30, and the newer installs
        // first: the older one must not roll 30 back.
        let mut older = g.begin_resync(30).unwrap();
        older.copy(None).unwrap();
        let lsn = g.put(b"k2", b"v", None, 0).unwrap();
        let mut newer = g.begin_resync(30).unwrap();
        newer.copy(None).unwrap();
        g.complete_resync(newer).unwrap();
        match g.complete_resync(older) {
            Err(Error::ResyncSuperseded) => {}
            other => panic!("expected ResyncSuperseded, got {other:?}"),
        }
        assert_eq!(g.acked_lsn(30).unwrap(), lsn);
    }

    #[test]
    fn failed_resync_copy_leaves_follower_intact() {
        let _serial = FAILPOINTS.lock();
        let _guard = failpoint::ScopedInjector::enable();
        let (dir, mut g) = group("resync-fp", WriteConcern::Async);
        for i in 0..8 {
            g.put(format!("k{i}").as_bytes(), b"v", None, 0).unwrap();
        }
        g.tick().unwrap();
        let leader_dir = dir.path().join("p1-r10");
        // Follower 20's next poll reports a gap; the resulting checkpoint
        // copy dies mid-stream.
        failpoint::install(
            "binlog.poll",
            Some(leader_dir.to_str().unwrap()),
            FaultAction::Gap,
            0,
            1,
        );
        failpoint::install(
            "db.checkpoint",
            Some(leader_dir.to_str().unwrap()),
            FaultAction::Error,
            0,
            1,
        );
        let err = catchup::pump(&mut g, 20);
        assert!(err.is_err(), "injected checkpoint failure must surface");
        // The follower's previous state survived the failed copy (the old
        // code deleted the live directory before copying).
        assert!(
            g.db(20).unwrap().get(b"k0", 0).unwrap().value.is_some(),
            "follower state destroyed by failed resync"
        );
        let staging_leaks: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("p1-r20.resync"))
            .collect();
        assert!(
            staging_leaks.is_empty(),
            "staging directories leaked: {staging_leaks:?}"
        );
        // With the fault gone the follower catches right back up.
        failpoint::clear();
        g.tick().unwrap();
        assert_eq!(g.acked_lsn(20).unwrap(), g.leader_db().unwrap().last_seq());
    }

    #[test]
    fn routed_reads_report_replica_and_lag() {
        let (_d, mut g) = group("routed", WriteConcern::Async);
        let lsn = g.put(b"k", b"v", None, 0).unwrap();
        // Nothing shipped yet: a leader read reports lag 0, and a follower
        // serving Eventual reports the real staleness.
        let r = g.read_routed(b"k", ReadConsistency::Leader, 0).unwrap();
        assert_eq!(r.replica, 10);
        assert_eq!(r.lag, 0);
        let mut follower_lags = Vec::new();
        for _ in 0..3 {
            let r = g.read_routed(b"k", ReadConsistency::Eventual, 0).unwrap();
            if r.replica != 10 {
                follower_lags.push(r.lag);
                assert!(r.result.value.is_none(), "unshipped write visible");
            }
        }
        assert!(follower_lags.iter().all(|&l| l == lsn));
        g.tick().unwrap();
        assert_eq!(g.replica_lag(20).unwrap(), 0);
        let r = g.read_routed(b"k", ReadConsistency::Eventual, 0).unwrap();
        assert_eq!(r.lag, 0);
        assert!(r.result.value.is_some());
    }

    #[test]
    fn routed_reads_never_land_on_a_stale_or_dead_replica() {
        let (_d, mut g) = group("read-routed-fence", WriteConcern::Async);
        let lsn = g.put(b"k", b"v", None, 0).unwrap();
        // Followers have not applied the write: only the leader satisfies
        // the fence, so every fenced read lands there and sees the write.
        for _ in 0..4 {
            let r = g
                .read_routed(b"k", ReadConsistency::ReadYourWrites(lsn), 0)
                .unwrap();
            assert_eq!(r.replica, 10);
            assert_eq!(r.result.value.as_deref(), Some(&b"v"[..]));
        }
        // A dead replica never serves; the live ones share the reads.
        g.fail_replica(20).unwrap();
        let mut served = std::collections::BTreeSet::new();
        for _ in 0..6 {
            let r = g.read_routed(b"k", ReadConsistency::Eventual, 0).unwrap();
            served.insert(r.replica);
        }
        assert_eq!(served.into_iter().collect::<Vec<_>>(), [10, 30]);
    }

    #[test]
    fn eventual_reads_never_served_by_divergent_replicas() {
        let (_d, mut g) = group("no-divergent-reads", WriteConcern::Async);
        for i in 0..5 {
            g.put(format!("k{i}").as_bytes(), b"v", None, 0).unwrap();
        }
        g.tick().unwrap();
        // Leader 10 takes a divergent unacked tail and dies; 20 leads.
        g.leader_db()
            .unwrap()
            .put(b"unacked", b"x", None, 0)
            .unwrap();
        g.fail_replica(10).unwrap();
        g.promote().unwrap();
        // 10 revives flagged for resync: until the resync runs, no read may
        // land on it (its history contains records the group never acked).
        g.revive_replica(10).unwrap();
        for _ in 0..6 {
            let r = g
                .read_routed(b"unacked", ReadConsistency::Eventual, 0)
                .unwrap();
            assert_ne!(r.replica, 10, "divergent replica served a read");
            assert!(r.result.value.is_none(), "divergent tail leaked to a read");
        }
    }

    #[test]
    fn staged_join_adds_a_caught_up_member() {
        let (dir, mut g) = group("join", WriteConcern::Quorum);
        for i in 0..10 {
            g.put(format!("k{i}").as_bytes(), b"v", None, 0).unwrap();
        }
        // Stage node 40 through the same ticket API gap resyncs use.
        let mut ticket = g.begin_join(40, dir.path(), None).unwrap();
        assert_eq!(ticket.follower(), 40);
        let info = ticket.copy(None).unwrap();
        assert!(info.bytes_copied > 0);
        g.complete_join(ticket).unwrap();
        assert_eq!(g.members(), vec![10, 20, 30, 40]);
        // Writes after the join ship to the newcomer too; quorum over 4 = 3.
        assert_eq!(g.commit_need(), 3);
        let lsn = g.put(b"after-join", b"w", None, 0).unwrap();
        g.tick().unwrap();
        assert_eq!(g.acked_lsn(40).unwrap(), lsn);
        assert!(g.db(40).unwrap().get(b"k0", 0).unwrap().value.is_some());
        // Double-join of the same id is refused.
        match g.begin_join(40, dir.path(), None) {
            Err(Error::AlreadyMember(40)) => {}
            other => panic!("expected AlreadyMember, got {other:?}"),
        }
    }

    #[test]
    fn stale_join_ticket_is_refused_like_a_stale_resync() {
        let (dir, mut g) = group("join-epoch", WriteConcern::Async);
        g.put(b"k", b"v", None, 0).unwrap();
        g.tick().unwrap();
        let mut ticket = g.begin_join(40, dir.path(), None).unwrap();
        ticket.copy(None).unwrap();
        // Leadership changes while the copy was in flight: the shared epoch
        // guard refuses the install, exactly as for a resync ticket.
        g.fail_replica(10).unwrap();
        g.promote().unwrap();
        match g.complete_join(ticket) {
            Err(Error::ResyncSuperseded) => {}
            other => panic!("expected ResyncSuperseded, got {other:?}"),
        }
        assert_eq!(g.members(), vec![10, 20, 30]);
    }

    #[test]
    fn failover_reseed_is_refused_when_leadership_changes_mid_copy() {
        use crate::failover::reconstruct_parallel;
        let (dir, mut g) = group("reseed-epoch", WriteConcern::All);
        for i in 0..10 {
            g.put(format!("k{i}").as_bytes(), b"v", None, 0).unwrap();
        }
        // Node 30 died. Its replacement 40 is re-seeded from the surviving
        // *follower* 20 (never from the dead disk), staged by a failover
        // worker into the join ticket's staging directory.
        g.fail_replica(30).unwrap();
        match g.begin_join(40, dir.path(), Some(30)) {
            Err(Error::ReplicaUnavailable(30)) => {}
            other => panic!("expected ReplicaUnavailable, got {other:?}"),
        }
        let mut tickets = [g.begin_join(40, dir.path(), Some(20)).unwrap()];
        assert_eq!(tickets[0].source(), 20);
        let staging = tickets[0].staging().to_path_buf();
        reconstruct_parallel(&mut tickets, None).unwrap();
        assert!(staging.is_dir(), "the copy must land in staging");
        let [ticket] = tickets;
        // Leadership moves while the copy ran: the staged bytes may descend
        // from a deposed leader, so the install is refused — nothing joins,
        // nothing appears at the final path, nothing is left in staging.
        g.handover(20).unwrap();
        match g.complete_join(ticket) {
            Err(Error::ResyncSuperseded) => {}
            other => panic!("expected ResyncSuperseded, got {other:?}"),
        }
        assert_eq!(g.members(), vec![10, 20, 30]);
        assert!(!dir.path().join("p1-r40").exists());
        assert!(!staging.exists());
    }

    #[test]
    fn remove_member_tears_down_a_follower_but_never_the_leader() {
        let (_d, mut g) = group("remove", WriteConcern::Async);
        g.put(b"k", b"v", None, 0).unwrap();
        match g.remove_member(10) {
            Err(Error::MemberIsLeader(10)) => {}
            other => panic!("expected MemberIsLeader, got {other:?}"),
        }
        let dir = g.remove_member(30).unwrap();
        assert!(dir.ends_with("p1-r30"));
        assert_eq!(g.members(), vec![10, 20]);
        // The group still writes (quorum over 2 = 2) and reads never land on
        // the departed member.
        let lsn = g.put(b"after", b"w", None, 0).unwrap();
        g.tick().unwrap();
        assert_eq!(g.acked_lsn(20).unwrap(), lsn);
        for _ in 0..4 {
            let r = g.read_routed(b"k", ReadConsistency::Eventual, 0).unwrap();
            assert_ne!(r.replica, 30, "the departed member served a read");
        }
    }

    #[test]
    fn handover_transfers_leadership_without_divergence() {
        let (_d, mut g) = group("handover", WriteConcern::Async);
        for i in 0..8 {
            g.put(format!("k{i}").as_bytes(), b"v", None, 0).unwrap();
        }
        // Follower 20 lags at handover time: the drain inside handover must
        // bring it to the leader's exact LSN before roles switch.
        g.handover(20).unwrap();
        assert_eq!(g.leader(), Some(20));
        assert_eq!(g.acked_lsn(20).unwrap(), 8);
        // The old leader follows the new one — no resync, no divergence.
        let s10 = g.status().replicas.iter().find(|r| r.id == 10).cloned();
        let s10 = s10.unwrap();
        assert_eq!(s10.role, Role::Follower);
        assert_eq!(s10.resyncs, 0);
        // Writes flow through the new leader and reach the old one.
        let lsn = g.put(b"post", b"w", None, 0).unwrap();
        g.tick().unwrap();
        assert_eq!(g.acked_lsn(10).unwrap(), lsn);
        assert!(g.db(10).unwrap().get(b"post", 0).unwrap().value.is_some());
    }

    #[test]
    fn acked_records_have_left_the_follower_wal_buffer_before_handover_seeks() {
        // Handover captures the new leader's *flushed* WAL position as the
        // seek point for caught-up followers, so every frame the new leader
        // applied as a follower must be below it. Nothing here reaches the
        // group-commit byte trigger and the interval trigger is cranked up,
        // so only the follower pass's own flush-before-ack can have moved
        // the records out of the buffer.
        let dir = TestDir::new("handover-buf");
        let mut g = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[10, 20],
            GroupConfig {
                write_concern: WriteConcern::All,
                db: DbConfig {
                    group_commit_interval_ms: 60_000,
                    ..DbConfig::small_for_tests()
                },
                wait_timeout: Duration::from_millis(10),
            },
        )
        .unwrap();
        for i in 0..10 {
            g.put(format!("k{i}").as_bytes(), b"v", None, 0).unwrap();
        }
        let acked_position = g.db(20).unwrap().wal_position();
        g.db(20).unwrap().flush_wal().unwrap();
        assert_eq!(
            g.db(20).unwrap().wal_position(),
            acked_position,
            "an acked record was still only in the follower's WAL buffer"
        );
        g.handover(20).unwrap();
        // The old leader re-attached at the flushed position: the next write
        // ships to it without a gap or a forced resync.
        let lsn = g.put(b"post", b"w", None, 0).unwrap();
        g.tick().unwrap();
        assert_eq!(g.acked_lsn(10).unwrap(), lsn);
        let s10 = g
            .status()
            .replicas
            .iter()
            .find(|r| r.id == 10)
            .cloned()
            .unwrap();
        assert_eq!(s10.role, Role::Follower);
        assert_eq!(s10.resyncs, 0, "bad seek position forced a resync");
        assert!(g.db(10).unwrap().get(b"post", 0).unwrap().value.is_some());
    }

    #[test]
    fn stale_connection_teardown_never_hides_a_reconnected_remote() {
        let (_d, mut g) = group("remote-gen", WriteConcern::Quorum);
        let (state1, gen1) = g.register_remote_follower(99).unwrap();
        state1.record_ack(gen1, 5);
        // The follower reconnects: the new registration supersedes the old
        // connection but shares the same state object.
        let (state2, gen2) = g.register_remote_follower(99).unwrap();
        assert!(Arc::ptr_eq(&state1, &state2));
        assert_eq!(state2.acked(), 0, "re-registration resets the watermark");
        // A pre-reconnect ack drained late from the old socket must not
        // resurrect the watermark the re-registration just reset.
        state1.record_ack(gen1, 100);
        assert_eq!(
            state2.acked(),
            0,
            "stale-generation ack resurrected the watermark"
        );
        state2.record_ack(gen2, 7);
        // The superseded connection dies late (partitioned socket finally
        // erroring): its teardown must not mark the live connection down.
        state1.disconnect(gen1);
        assert!(state2.is_connected(), "stale teardown hid a live follower");
        // Locals sit at LSN 0; only the (still-connected) remote covers 7.
        assert_eq!(g.acked_count(7), 1, "live remote stopped counting");
        // The live connection's own teardown does disconnect.
        state2.disconnect(gen2);
        assert!(!state2.is_connected());
    }

    #[test]
    fn disconnected_remotes_leave_the_quorum_denominator() {
        let (_d, mut g) = group("remote-quorum", WriteConcern::Quorum);
        assert_eq!(g.commit_need(), 2); // 3 locals
        let (state, generation) = g.register_remote_follower(99).unwrap();
        assert_eq!(g.commit_need(), 3); // 3 locals + 1 connected remote
                                        // A departed follower must not inflate the quorum forever (an
                                        // anonymous follower reconnecting under fresh ids would otherwise
                                        // grow the denominator until writes can never commit).
        state.disconnect(generation);
        assert_eq!(g.commit_need(), 2);
        // Registration prunes disconnected strangers from the registry.
        let _ = g.register_remote_follower(98).unwrap();
        let remotes = g.remote_followers();
        assert_eq!(remotes.len(), 1);
        assert_eq!(remotes[0].0, 98);
    }

    #[test]
    fn status_reflects_roles_and_lsns() {
        let (_d, mut g) = group("status", WriteConcern::All);
        g.put(b"k", b"v", None, 0).unwrap();
        let status = g.status();
        assert_eq!(status.partition, 1);
        assert_eq!(status.leader, Some(10));
        assert_eq!(status.replicas.len(), 3);
        assert!(status.replicas.iter().all(|r| r.acked_lsn == 1));
        assert_eq!(
            status
                .replicas
                .iter()
                .filter(|r| r.role == Role::Follower)
                .count(),
            2
        );
    }
}
