//! The follower: a local [`Db`] kept in sync with a leader through a
//! [`LogTransport`], whichever side of a process boundary the leader is on.
//!
//! There is one pass — [`Follower::pump_shallow`]: poll, apply, acknowledge —
//! and one way a staged checkpoint becomes a replica — [`install_staged`]:
//! swap the fully written tree in and reopen it, then tail through the
//! cursor that staged it and so sits at its edge. A follower that drives
//! itself (`abase-server follow`) calls [`Follower::pump`], which on a gap
//! stages a checkpoint through its own transport. A member of a
//! [`ReplicaGroup`](crate::ReplicaGroup) is pumped shallowly and reports
//! [`PumpStatus::NeedsResync`]; [`catchup::pump`](crate::catchup::pump)
//! then stages its checkpoint through a [`ResyncTicket`](crate::ResyncTicket),
//! with the group unlocked, and installs it here, by the same routine.
//!
//! What the pass guarantees, for every transport:
//! * applied records leave the follower's WAL buffer before they are acked,
//!   so an ack never covers bytes only this process's memory holds;
//! * an ack goes out when the applied LSN moved, and every [`REACK_EVERY`]
//!   passes otherwise (reseeds a reconnected leader's accounting) — never on
//!   every pass, which would keep a socket leader's inbound drain busy;
//! * a drained poll that still trails the transport's
//!   [`leader_lsn_hint`](LogTransport::leader_lsn_hint) lost frames in
//!   transit and resyncs instead of waiting for traffic that will not come;
//! * duplicate deliveries dedup and are not counted as applied.

use crate::binlog::Poll;
use crate::socket::SocketTransport;
use crate::transport::LogTransport;
use crate::{metrics, Result};
use abase_lavastore::{Db, DbConfig, Error as StorageError};
use std::path::Path;
use std::sync::Arc;

/// Passes after which an unchanged LSN is acknowledged again.
const REACK_EVERY: u32 = 32;

/// Outcome of one pump pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpStatus {
    /// Nothing new arrived (or, in a group, the replica is dead, stalled or
    /// not a follower).
    Idle,
    /// This many new records were applied.
    Applied(usize),
    /// A full resync replaced the store — callers holding the old `Db`
    /// handle (a serving engine) must re-fetch it via [`Follower::db`].
    Resynced,
    /// The follower fell off the leader's log, lost frames, or carries
    /// divergent history: a full resync is due before shipping can
    /// continue. Reported by shallow passes only; [`Follower::pump`]
    /// resolves it inline.
    NeedsResync,
}

/// A follower replica: the store, its cursor on the leader's log, and the
/// ack bookkeeping between them.
pub struct Follower {
    config: DbConfig,
    /// The current store; the group reads it in place on its read path.
    pub(crate) db: Arc<Db>,
    transport: Box<dyn LogTransport>,
    resyncs: u64,
    /// Last LSN acknowledged through the transport.
    last_acked: Option<u64>,
    passes_since_ack: u32,
}

impl std::fmt::Debug for Follower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Follower")
            .field("dir", &self.db.dir())
            .field("lsn", &self.db.last_seq())
            .field("resyncs", &self.resyncs)
            .finish()
    }
}

impl Follower {
    /// Open (or create) the local replica at `dir` and aim it at the leader
    /// on `leader_addr`. `replica_id` identifies this follower in the
    /// leader's accounting.
    pub fn connect(
        dir: impl AsRef<Path>,
        config: DbConfig,
        leader_addr: &str,
        replica_id: u32,
    ) -> Result<Self> {
        let transport = SocketTransport::new(leader_addr, replica_id);
        Self::with_transport(dir, config, Box::new(transport))
    }

    /// Open (or create) the local replica at `dir`, fed by `transport`.
    pub fn with_transport(
        dir: impl AsRef<Path>,
        config: DbConfig,
        transport: Box<dyn LogTransport>,
    ) -> Result<Self> {
        let db = Arc::new(Db::open(dir, config)?);
        Ok(Self::over(db, config, transport))
    }

    /// A follower over an already open store (a group member changing role
    /// keeps its store).
    pub(crate) fn over(db: Arc<Db>, config: DbConfig, transport: Box<dyn LogTransport>) -> Self {
        Self {
            config,
            db,
            transport,
            resyncs: 0,
            last_acked: None,
            passes_since_ack: 0,
        }
    }

    /// A new follower at `dir` born from a fully staged checkpoint, tailing
    /// through `cursor`. A tree that will not open is removed again: a
    /// failed join leaves no orphan.
    pub(crate) fn from_staged(
        staging: &Path,
        dir: &Path,
        config: DbConfig,
        cursor: Box<dyn LogTransport>,
    ) -> Result<Self> {
        let db = install_staged(staging, dir, config).inspect_err(|_| {
            std::fs::remove_dir_all(dir).ok();
        })?;
        Ok(Self::over(db, config, cursor))
    }

    /// The current store handle. Replaced wholesale by a full resync —
    /// re-fetch after [`PumpStatus::Resynced`].
    pub fn db(&self) -> Arc<Db> {
        Arc::clone(&self.db)
    }

    /// Highest LSN applied locally.
    pub fn last_seq(&self) -> u64 {
        self.db.last_seq()
    }

    /// Full resyncs performed by this follower.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Is the replication link to the leader currently alive? A pump that
    /// found nothing cannot distinguish "idle leader" from "dead socket
    /// awaiting reconnect" — this can, so it (not pump results) is what
    /// `INFO replication` should report as `link_status`.
    pub fn link_up(&self) -> bool {
        self.transport.link_up()
    }

    /// The transport's cursor in the leader's log, if it has one. A restart
    /// that persisted this can resume with a positional `PSYNC` instead of
    /// a full checkpoint pull (the leader still answers `FULLRESYNC` if the
    /// position fell off retention meanwhile).
    pub fn position(&self) -> Option<(u64, u64)> {
        self.transport.position()
    }

    /// One pass, resolving a gap inline: the follower stages a checkpoint
    /// through its own transport and installs it.
    pub fn pump(&mut self) -> Result<PumpStatus> {
        match self.pump_shallow()? {
            PumpStatus::NeedsResync => {
                let staging = self
                    .db
                    .dir()
                    .with_extension(format!("resync-net-{}", self.resyncs + 1));
                self.transport.fetch_checkpoint(&staging, &mut |_| {})?;
                self.install(&staging, None)?;
                Ok(PumpStatus::Resynced)
            }
            status => Ok(status),
        }
    }

    /// The one poll → apply → ack pass, *without* resolving gaps.
    pub(crate) fn pump_shallow(&mut self) -> Result<PumpStatus> {
        let timer = abase_obs::Timer::start();
        let Poll::Records(records) = self.transport.poll()? else {
            return Ok(PumpStatus::NeedsResync);
        };
        metrics::SHIP_RECORDS.add(records.len() as u64);
        let mut applied = 0usize;
        for record in &records {
            match self.db.apply_replicated(record) {
                Ok(true) => applied += 1,
                Ok(false) => {} // duplicate delivery, deduped
                // A hole in the stream (dropped or reordered frames, or a
                // leader change): recover through a checkpoint.
                Err(StorageError::InvalidState(_)) => return Ok(PumpStatus::NeedsResync),
                Err(e) => return Err(e.into()),
            }
        }
        if applied > 0 {
            self.db.flush_wal()?;
        }
        // The poll is drained: nothing can be in flight ahead of a keepalive
        // that advertised an LSN we still trail.
        if self
            .transport
            .leader_lsn_hint()
            .is_some_and(|hint| hint > self.db.last_seq())
        {
            return Ok(PumpStatus::NeedsResync);
        }
        self.passes_since_ack += 1;
        if self.last_acked != Some(self.db.last_seq()) || self.passes_since_ack >= REACK_EVERY {
            self.ack()?;
        }
        timer.observe(&metrics::PUMP_MICROS);
        Ok(if applied > 0 {
            PumpStatus::Applied(applied)
        } else {
            PumpStatus::Idle
        })
    }

    /// Replace this follower's state with the checkpoint fully staged at
    /// `staging`. `cursor` is the transport that staged it when that was not
    /// the follower's own (a ticket's, already at the checkpoint's edge).
    pub(crate) fn install(
        &mut self,
        staging: &Path,
        cursor: Option<Box<dyn LogTransport>>,
    ) -> Result<()> {
        let dir = self.db.dir().to_path_buf();
        self.db = install_staged(staging, &dir, self.config)?;
        if let Some(cursor) = cursor {
            self.transport = cursor;
        }
        self.resyncs += 1;
        metrics::RESYNCS.inc();
        self.ack()
    }

    fn ack(&mut self) -> Result<()> {
        let lsn = self.db.last_seq();
        self.transport.ack(lsn)?;
        metrics::ACKS.inc();
        self.last_acked = Some(lsn);
        self.passes_since_ack = 0;
        Ok(())
    }
}

/// The staged install every placement change shares — gap resync, join,
/// failover re-seed, a socket follower's pulled checkpoint: tear out the live
/// directory, rename the staged copy into its place, open it. The staged tree
/// was written completely before this runs, so a crash between the steps
/// loses a replica *copy*, never a prefix of one; a missing staged tree is
/// refused before the live one is touched.
fn install_staged(staging: &Path, dir: &Path, config: DbConfig) -> Result<Arc<Db>> {
    if !staging.is_dir() {
        return Err(StorageError::Io(std::io::ErrorKind::NotFound.into()).into());
    }
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(StorageError::Io)?;
    }
    std::fs::rename(staging, dir).map_err(StorageError::Io)?;
    Ok(Arc::new(Db::open(dir, config)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Binlog;
    use abase_util::TestDir;

    #[test]
    fn filesystem_follower_stages_every_resync_through_its_transport() {
        let leader_dir = TestDir::new("follower-fs-leader");
        let dir = TestDir::new("follower-fs");
        let config = DbConfig::small_for_tests();
        let leader = Arc::new(Db::open(leader_dir.path(), config).unwrap());
        // Rotate the leader past its retention before and between the
        // follower's pumps: the log alone can never catch the follower up.
        let rotate_past_retention = |tag: &str| {
            for round in 0..leader.config().wal_retention_segments + 2 {
                for i in 0..20 {
                    let key = format!("{tag}-r{round}-k{i}");
                    leader.put(key.as_bytes(), &[3u8; 64], None, 0).unwrap();
                }
                leader.flush().unwrap();
            }
        };
        let tail = |follower: &mut Follower, key: &[u8]| {
            leader.put(key, b"tail", None, 0).unwrap();
            leader.flush_wal().unwrap();
            assert_eq!(follower.pump().unwrap(), PumpStatus::Applied(1));
            assert_eq!(follower.last_seq(), leader.last_seq());
            assert!(follower.db().get(key, 0).unwrap().value.is_some());
        };
        rotate_past_retention("a");
        let transport: Box<dyn LogTransport> = Box::new(Binlog::attach(Arc::clone(&leader)));
        let mut follower =
            Follower::with_transport(dir.join("replica"), config, transport).unwrap();
        // Empty follower, cursor at the oldest retained segment: the first
        // record is far past LSN 1 — a hole only a checkpoint closes.
        assert_eq!(follower.pump().unwrap(), PumpStatus::Resynced);
        assert_eq!(follower.last_seq(), leader.last_seq());
        assert!(follower.link_up());
        assert_eq!(follower.pump().unwrap(), PumpStatus::Idle);
        tail(&mut follower, b"tail-1");
        // The cursor's segment rotates away while the follower sleeps.
        rotate_past_retention("b");
        assert_eq!(follower.pump().unwrap(), PumpStatus::Resynced);
        tail(&mut follower, b"tail-2");
        assert_eq!(follower.resyncs(), 2);
        assert!(follower.db().get(b"a-r0-k0", 0).unwrap().value.is_some());
        // Every staged tree was renamed into place or removed.
        let leftovers: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name != "replica")
            .collect();
        assert!(leftovers.is_empty(), "staging leaked: {leftovers:?}");
    }
}
