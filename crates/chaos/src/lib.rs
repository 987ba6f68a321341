//! # abase-chaos
//!
//! Deterministic chaos harness for the ABase replication plane, in the
//! FoundationDB simulation-testing tradition: every episode's faults — node
//! kills at random ticks, follower binlog gaps, WAL tails torn at arbitrary
//! byte offsets, failed/delayed flushes, leaders dying mid-resync — are a
//! pure function of one RNG seed, injected through the explicit fail-point
//! layer in `abase_util::failpoint` that the storage (`wal.append`,
//! `wal.flush`, `db.checkpoint`), shipping (`binlog.poll`, `group.pump`), and
//! failover paths consult.
//!
//! A [`ChaosRunner`] drives N episodes of mixed Table-1 tenant workload
//! against a real [`abase_sim::cluster::ReplicatedCluster`] and checks, per
//! episode: zero acked-write loss, no split brain, per-replica LSN
//! monotonicity, read-your-writes fencing, the §3.3 recovery-bandwidth
//! budget, and bounded-fault commit liveness. A failing episode prints a
//! replayable `CHAOS_SEED=<n>`; the workspace's `tests/chaos.rs` replays the
//! pinned regression-seed list so every bug the harness ever caught stays a
//! one-line deterministic test.
//!
//! ```text
//! cargo run -p abase-chaos -- --episodes 50 --seed 0
//! ```

#![deny(missing_docs)]

pub mod fault;
pub mod runner;
pub mod socket;

pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use runner::{ChaosConfig, ChaosReport, ChaosRunner, EpisodeReport};
pub use socket::{run_socket_episode, SocketEpisodeReport, SocketFault};
