//! # abase-replication
//!
//! The WAL-shipping replication plane for ABase (paper §3.2–§3.3): every
//! tenant partition is served by a **replica group** — one leader and N−1
//! followers, each a full [`abase_lavastore::Db`] — kept in sync by tailing
//! the leader's write-ahead log.
//!
//! The pieces:
//!
//! * [`transport`] — [`LogTransport`]: where a follower's records come from,
//!   and the one way a replica is ever seeded (`fetch_checkpoint`: stage a
//!   complete checkpoint of the source, leave the cursor at its edge).
//!   Implemented by [`Binlog`], a cursor over the WAL segment files of a
//!   store in this process, and by [`SocketTransport`], a `PSYNC` stream
//!   from a leader in another one ([`socket`]).
//! * [`follower`] — [`Follower`]: the one poll → apply → ack pass and the one
//!   install of a staged checkpoint, for a follower process and for a group
//!   member alike.
//! * [`catchup`] — the one catch-up routine for a group's local followers,
//!   for write concerns, `WAIT` and the tick alike.
//! * [`group`] — [`ReplicaGroup`]: per-follower acked-LSN tracking,
//!   configurable [`WriteConcern`] (`Async`, `Quorum`, `All`) on the write
//!   path and [`ReadConsistency`] (`Eventual`, `ReadYourWrites` via LSN
//!   fencing, `Leader`) on the read path, leader failover that promotes the
//!   most-caught-up follower without losing any acked write, and the
//!   epoch-guarded [`ResyncTicket`] every placement change stages through.
//! * [`failover`] — parallel replica reconstruction after a node failure:
//!   it schedules the replacement replicas' join tickets' own copies from the
//!   surviving members of each affected group, one worker per surviving
//!   node, turning the §3.3 closed-form recovery model (`abase-sim`'s
//!   `RecoveryModel`) into measured behavior.
//!
//! The LSN is simply the storage engine's record sequence number: WAL
//! shipping preserves it end to end ([`abase_lavastore::Db::apply_replicated`]),
//! so "follower F has applied LSN x" means F's state is byte-equivalent to
//! the leader's state at x.
//!
//! ```
//! use abase_replication::{GroupConfig, ReplicaGroup, WriteConcern, ReadConsistency};
//! use abase_lavastore::DbConfig;
//!
//! let base = std::env::temp_dir().join(format!("repl-doc-{}", std::process::id()));
//! std::fs::remove_dir_all(&base).ok();
//! let mut group = ReplicaGroup::bootstrap(
//!     7, &base, &[1, 2, 3],
//!     GroupConfig::new(WriteConcern::Quorum, DbConfig::small_for_tests()),
//! ).unwrap();
//! let lsn = group.put(b"user:1", b"alice", None, 0).unwrap();
//! // Quorum-acked: at least one follower already has the write.
//! assert!(group.acked_count(lsn) >= 2);
//! let read = group.read(b"user:1", ReadConsistency::ReadYourWrites(lsn), 0).unwrap();
//! assert_eq!(read.value.as_deref(), Some(&b"alice"[..]));
//! drop(group);
//! std::fs::remove_dir_all(&base).ok();
//! ```

#![deny(missing_docs)]

pub mod binlog;
pub mod catchup;
pub mod failover;
pub mod follower;
pub mod group;
pub mod metrics;
mod rotation;
pub mod socket;
pub mod transport;

pub use binlog::{Binlog, Poll};
pub use failover::{
    reconstruct_parallel, reconstruct_single_source, ReconstructionReport, Throttle,
};
pub use follower::{Follower, PumpStatus};
pub use group::{
    GroupConfig, GroupStatus, ReadConsistency, RemoteFollowerState, ReplicaGroup, ReplicaId,
    ReplicaStatus, ResyncTicket, Role, RoutedRead, WriteConcern,
};
pub use socket::{serve_replica, AcceptedReplica, SocketTransport};
pub use transport::LogTransport;

/// Replication log sequence number — the storage engine's record `seq`.
pub type Lsn = u64;

/// Replication-plane failures.
#[derive(Debug)]
pub enum Error {
    /// The underlying storage engine failed.
    Storage(abase_lavastore::Error),
    /// A write concern could not be satisfied with the replicas alive.
    NoQuorum {
        /// Acks required (including the leader's own).
        need: usize,
        /// Acks obtained.
        acked: usize,
    },
    /// The group currently has no live leader (failover pending).
    NoLeader,
    /// Promotion was requested while the leader is still alive.
    LeaderStillAlive,
    /// No live follower exists to promote.
    NoPromotionCandidate,
    /// The replica id is not a member of this group.
    UnknownReplica(u32),
    /// The replica cannot serve right now (dead, or awaiting a full resync
    /// of divergent history).
    ReplicaUnavailable(u32),
    /// A replica has not applied the LSN it had to reach (a drain that could
    /// not converge).
    StaleReplica {
        /// The replica that failed the fence.
        replica: u32,
        /// Its applied LSN at read time.
        lsn: Lsn,
        /// The fence it needed to satisfy.
        need: Lsn,
    },
    /// A resync ticket was completed after the group's leadership or
    /// membership changed; the copy is discarded and the caller retries.
    ResyncSuperseded,
    /// A staged join targeted a replica id that is already a group member.
    AlreadyMember(u32),
    /// A membership removal targeted the live leader — hand leadership over
    /// first (`ReplicaGroup::handover`), then retire the member.
    MemberIsLeader(u32),
    /// The socket transport failed: unreachable leader during a mandatory
    /// exchange, a malformed or hostile frame, or a timed-out checkpoint
    /// fetch. Transient link loss is *not* an error (polls report no
    /// progress and reconnect); this is for failures the caller must see.
    Transport(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Storage(e) => write!(f, "storage: {e}"),
            Error::NoQuorum { need, acked } => {
                write!(f, "write concern unsatisfied: {acked}/{need} acks")
            }
            Error::NoLeader => write!(f, "replica group has no live leader"),
            Error::LeaderStillAlive => write!(f, "cannot promote: leader still alive"),
            Error::NoPromotionCandidate => write!(f, "no live follower to promote"),
            Error::UnknownReplica(id) => write!(f, "replica {id} is not a group member"),
            Error::ReplicaUnavailable(id) => {
                write!(f, "replica {id} cannot serve reads (dead or divergent)")
            }
            Error::StaleReplica { replica, lsn, need } => {
                write!(
                    f,
                    "replica {replica} at lsn {lsn} fails the read fence {need}"
                )
            }
            Error::ResyncSuperseded => {
                write!(f, "resync superseded by a leadership/membership change")
            }
            Error::AlreadyMember(id) => {
                write!(f, "replica {id} is already a group member")
            }
            Error::MemberIsLeader(id) => {
                write!(f, "replica {id} leads the group; hand over before removal")
            }
            Error::Transport(msg) => write!(f, "transport: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<abase_lavastore::Error> for Error {
    fn from(e: abase_lavastore::Error) -> Self {
        Error::Storage(e)
    }
}

/// Convenience alias for replication results.
pub type Result<T> = std::result::Result<T, Error>;
