//! Seeded fault plans.
//!
//! A [`FaultPlan`] is the entire episode's misfortune, drawn up front from one
//! RNG seed: which ticks lose a node, which followers stall or gap, where a
//! WAL tail tears mid-append, which resync's source dies mid-copy. Because
//! the plan (and everything the runner does with it) is a pure function of
//! the seed, any failing episode replays exactly with `CHAOS_SEED=<n>`.

use crate::runner::{ChaosConfig, REPLICATION_FACTOR};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One category of injected misfortune.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Kill the node currently leading `partition` (promotion + §3.3
    /// parallel reconstruction follow).
    KillLeader {
        /// Targeted partition.
        partition: u64,
    },
    /// Kill a uniformly chosen live node (may lead several partitions, may
    /// host only followers).
    KillRandomNode,
    /// Every follower of `partition` reports no progress for `polls`
    /// consecutive pump passes — a transient stall the commit path must ride
    /// out within the `WAIT` timeout instead of failing the write (this is
    /// the fault that catches reverting the commit retry/timeout logic to a
    /// single pump pass).
    FollowerStall {
        /// Targeted partition.
        partition: u64,
        /// Stalled pump passes (per follower) before recovery.
        polls: u32,
    },
    /// Force one follower of `partition` off the leader's log (as if its
    /// segment rotated away), triggering a full resync.
    BinlogGap {
        /// Targeted partition.
        partition: u64,
    },
    /// Tear the leader's WAL mid-append at an arbitrary byte offset: only
    /// `keep_bytes` of the frame reach disk and the leader's log is dead.
    /// The runner kills the leader when the write surfaces the error, so
    /// failover runs against a log with a torn tail.
    TornLeaderTail {
        /// Targeted partition.
        partition: u64,
        /// Frame bytes that reach the file before the tear.
        keep_bytes: u64,
    },
    /// The leader's next WAL flush fails once (transient disk error); the
    /// write is reported failed, later writes succeed.
    FlushFail {
        /// Targeted partition.
        partition: u64,
    },
    /// The leader's WAL flushes are delayed by `ms` for a few writes
    /// (slow fsync).
    FsyncDelay {
        /// Targeted partition.
        partition: u64,
        /// Injected delay per flush, milliseconds.
        ms: u64,
    },
    /// Force a follower gap *and* make the resulting checkpoint copy fail
    /// after `after_chunks` chunks; the runner then kills the leader — the
    /// mid-resync-leader-death scenario. The staged resync must leave the
    /// follower on its old valid prefix, and failover must still lose
    /// nothing.
    MidResyncLeaderDeath {
        /// Targeted partition.
        partition: u64,
        /// Copied chunks before the source dies.
        after_chunks: u32,
    },
    /// Start a live migration of one of `partition`'s replicas, then kill
    /// the **destination** one tick later — mid-copy/catch-up, before
    /// cut-over. The engine must abort the move (source keeps serving) and
    /// normal failover must clean up whatever else the destination hosted.
    MigrateKillDest {
        /// Targeted partition.
        partition: u64,
    },
    /// Start a live migration, then kill the **source** one tick later. The
    /// staged destination is torn back out, the original membership fails
    /// over normally, and no acked write may be lost.
    MigrateKillSource {
        /// Targeted partition.
        partition: u64,
    },
    /// Start a live migration whose staged checkpoint copy fails mid-stream
    /// (torn checkpoint). The engine must abort the move with the source
    /// replica untouched and the staging tree cleaned.
    MigrateTornCheckpoint {
        /// Targeted partition.
        partition: u64,
    },
    /// Start a live migration with no targeted misfortune: it must complete
    /// its cut-over while the episode's *other* faults fly around, without
    /// ever double-serving the partition or losing an acked write.
    MigrateLive {
        /// Targeted partition.
        partition: u64,
    },
}

/// A scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Tick (0-based) at which the fault is armed.
    pub tick: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// The full, seed-determined misfortune schedule for one episode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was drawn from.
    pub seed: u64,
    /// Events sorted by tick.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Draw an episode's plan from `seed`. Node-kill events (direct kills,
    /// torn tails, and mid-resync deaths all consume a node) are capped at
    /// `nodes - REPLICATION_FACTOR` so every group keeps a write quorum.
    pub fn generate(seed: u64, config: &ChaosConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0xC4A05),
        );
        let kill_budget = (config.nodes as usize).saturating_sub(REPLICATION_FACTOR);
        let mut kills = 0usize;
        let n_events = rng.gen_range(3..8usize);
        let mut events = Vec::with_capacity(n_events);
        let last_tick = config.ticks.saturating_sub(3).max(2);
        for _ in 0..n_events {
            let tick = rng.gen_range(1..last_tick);
            let partition = rng.gen_range(0..config.partitions);
            let roll = rng.gen_range(0..8u32);
            let kind = match roll {
                0 if kills < kill_budget => {
                    kills += 1;
                    FaultKind::KillLeader { partition }
                }
                1 if kills < kill_budget => {
                    kills += 1;
                    FaultKind::KillRandomNode
                }
                4 if kills < kill_budget => {
                    kills += 1;
                    FaultKind::TornLeaderTail {
                        partition,
                        keep_bytes: rng.gen_range(1..48u64),
                    }
                }
                7 if kills < kill_budget => {
                    kills += 1;
                    FaultKind::MidResyncLeaderDeath {
                        partition,
                        after_chunks: rng.gen_range(0..2u32),
                    }
                }
                2 => FaultKind::FollowerStall {
                    partition,
                    polls: rng.gen_range(1..4u32),
                },
                3 => FaultKind::BinlogGap { partition },
                5 => FaultKind::FlushFail { partition },
                6 => FaultKind::FsyncDelay {
                    partition,
                    ms: rng.gen_range(1..3u64),
                },
                // Kill budget exhausted: degrade to a non-fatal fault.
                _ => FaultKind::FollowerStall {
                    partition,
                    polls: rng.gen_range(1..4u32),
                },
            };
            events.push(FaultEvent { tick, kind });
        }
        // Migration misfortune rides on a forked RNG so the base schedule a
        // seed draws is unchanged from before migrations existed — pinned
        // regression seeds keep replaying the exact plans that caught their
        // bugs, with migration events appended on top.
        let mut mig_rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0xA076_1D64_78BD_642F)
                .wrapping_add(0x2545F),
        );
        let n_mig = mig_rng.gen_range(1..3usize);
        for _ in 0..n_mig {
            let tick = mig_rng.gen_range(1..last_tick);
            let partition = mig_rng.gen_range(0..config.partitions);
            let kind = match mig_rng.gen_range(0..4u32) {
                0 if kills < kill_budget => {
                    kills += 1;
                    FaultKind::MigrateKillDest { partition }
                }
                1 if kills < kill_budget => {
                    kills += 1;
                    FaultKind::MigrateKillSource { partition }
                }
                2 => FaultKind::MigrateTornCheckpoint { partition },
                _ => FaultKind::MigrateLive { partition },
            };
            events.push(FaultEvent { tick, kind });
        }
        events.sort_by_key(|e| e.tick);
        Self { seed, events }
    }

    /// Events armed at `tick`, in plan order.
    pub fn events_at(&self, tick: u64) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.tick == tick)
    }

    /// How many events in the plan kill a node (directly, via torn-tail /
    /// mid-resync escalation, or as a migration's delayed node death).
    #[cfg(test)]
    fn planned_kills(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::KillLeader { .. }
                        | FaultKind::KillRandomNode
                        | FaultKind::TornLeaderTail { .. }
                        | FaultKind::MidResyncLeaderDeath { .. }
                        | FaultKind::MigrateKillDest { .. }
                        | FaultKind::MigrateKillSource { .. }
                )
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let config = ChaosConfig::default();
        let a = FaultPlan::generate(17, &config);
        let b = FaultPlan::generate(17, &config);
        assert_eq!(a, b);
        let c = FaultPlan::generate(18, &config);
        assert_ne!(a, c, "different seeds should draw different plans");
    }

    #[test]
    fn kills_stay_within_budget_across_seeds() {
        let config = ChaosConfig::default();
        let budget = (config.nodes as usize) - REPLICATION_FACTOR;
        for seed in 0..200 {
            let plan = FaultPlan::generate(seed, &config);
            assert!(
                plan.planned_kills() <= budget,
                "seed {seed}: {} kills over budget {budget}",
                plan.planned_kills()
            );
            assert!(!plan.events.is_empty());
            assert!(plan.events.windows(2).all(|w| w[0].tick <= w[1].tick));
            for e in &plan.events {
                assert!(e.tick < config.ticks);
            }
        }
    }
}
