//! The one catch-up routine for a group's local followers: passes that pump
//! the live followers behind an LSN, in member order, until enough replicas
//! hold it, and one resync step, [`pump`]. [`commit`], [`wait`] and [`tick`]
//! differ only in when they stop, and the write-concern rule is [`commit`]'s.
//!
//! The routine reaches the group through [`GroupAccess`]: borrowed (the
//! simulator, tests, [`ReplicaGroup::put`]) or through the server's mutex,
//! which it takes for one pump, one count, or a ticket's begin or complete,
//! never across a checkpoint copy.

use crate::follower::PumpStatus;
use crate::group::{ReplicaGroup, ReplicaId, WriteConcern};
use crate::{Error, Lsn, Result};
use abase_util::lockrank::RankedMutex;
use std::time::{Duration, Instant};

/// How the catch-up routine reaches a group.
pub trait GroupAccess {
    /// Run `f` on the group, under its lock where it has one.
    fn with<R>(&mut self, f: impl FnOnce(&mut ReplicaGroup) -> R) -> R;
}

impl GroupAccess for ReplicaGroup {
    fn with<R>(&mut self, f: impl FnOnce(&mut ReplicaGroup) -> R) -> R {
        f(self)
    }
}

impl GroupAccess for &RankedMutex<ReplicaGroup> {
    fn with<R>(&mut self, f: impl FnOnce(&mut ReplicaGroup) -> R) -> R {
        f(&mut self.lock())
    }
}

impl<G: GroupAccess> GroupAccess for &mut G {
    fn with<R>(&mut self, f: impl FnOnce(&mut ReplicaGroup) -> R) -> R {
        (**self).with(f)
    }
}

/// Enforce the group's write concern for everything up to `lsn`: `Async`
/// acks at once; otherwise [`ReplicaGroup::commit_need`] replicas (leader
/// included) must hold it within `wait_timeout`, or [`Error::NoQuorum`].
pub fn commit(mut group: impl GroupAccess, lsn: Lsn) -> Result<usize> {
    match group.with(|g| (g.write_concern(), g.commit_need(), g.config().wait_timeout)) {
        (WriteConcern::Async, ..) => Ok(1),
        (_, need, timeout) => catch_up(group, lsn, need, timeout),
    }
}

/// Redis `WAIT`: pump until `numreplicas` followers have applied `lsn` or
/// `timeout` passes, and return how many have. Falling short is the answer,
/// not an error; `Duration::ZERO` makes one pass.
pub fn wait(
    mut group: impl GroupAccess,
    lsn: Lsn,
    numreplicas: usize,
    timeout: Duration,
) -> Result<usize> {
    // A storage fault must not masquerade as replication lag.
    match catch_up(&mut group, lsn, numreplicas.saturating_add(1), timeout) {
        Ok(_) | Err(Error::NoQuorum { .. }) => Ok(group.with(|g| g.followers_acked(lsn))),
        Err(e) => Err(e),
    }
}

/// Pump every live follower once, resyncing those that fell off the log,
/// and publish the lag gauges. A failure stops nothing; the first is
/// returned.
pub fn tick(mut group: impl GroupAccess) -> Result<()> {
    let flushed = group.with(|g| g.leader_db().map_or(Ok(()), |db| Ok(db.flush_wal()?)));
    // Every live follower: none has applied `Lsn::MAX`.
    let pumped = pass(&mut group, Lsn::MAX, usize::MAX);
    group.with(|g| g.refresh_lag_gauges());
    flushed.and(pumped.map(drop))
}

/// Pump follower `id` once; the one place [`PumpStatus::NeedsResync`] takes
/// a ticket. Its copy runs without `group`, and after the install the
/// follower pumps again for what the leader appended meanwhile.
pub fn pump(mut group: impl GroupAccess, id: ReplicaId) -> Result<PumpStatus> {
    let status = group.with(|g| g.pump_shallow(id))?;
    if status != PumpStatus::NeedsResync {
        return Ok(status);
    }
    let mut ticket = group.with(|g| g.begin_resync(id))?;
    ticket.copy(None)?;
    match group.with(|g| g.complete_resync(ticket).and_then(|()| g.pump_shallow(id))) {
        // Another copy installed first, or leadership moved: pump afresh.
        Err(Error::ResyncSuperseded) => Ok(PumpStatus::Idle),
        result => result.map(|_| PumpStatus::Resynced),
    }
}

/// Flush the leader's log, then pass until `need` replicas have applied
/// `lsn`, napping between passes, until `timeout`.
fn catch_up(
    mut group: impl GroupAccess,
    lsn: Lsn,
    need: usize,
    timeout: Duration,
) -> Result<usize> {
    let deadline = Instant::now() + timeout;
    group.with(|g| Ok::<_, Error>(g.leader_db()?.flush_wal()?))?;
    loop {
        let acked = pass(&mut group, lsn, need)?;
        if acked >= need {
            return Ok(acked);
        }
        if Instant::now() >= deadline {
            return Err(Error::NoQuorum { need, acked });
        }
        // Stalled followers recover, and remote followers ack on their own.
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Pump the live followers behind `lsn`, in member order, until `need`
/// replicas hold it, and return how many do. A failed pump does not end the
/// pass; the first failure is returned after it.
fn pass(group: &mut impl GroupAccess, lsn: Lsn, need: usize) -> Result<usize> {
    let mut pumped = Ok(());
    for id in group.with(|g| g.lagging(lsn)) {
        if group.with(|g| g.acked_count(lsn)) >= need {
            break;
        }
        pumped = pumped.and(pump(&mut *group, id).map(drop));
    }
    pumped.map(|()| group.with(|g| g.acked_count(lsn)))
}
