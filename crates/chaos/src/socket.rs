//! Seeded chaos for the socket replication transport.
//!
//! A socket episode runs a **real TCP** replica pair — a leader
//! [`ServingNode`], the assembly `abase-server leader` runs, reached through
//! its RESP port's `PSYNC` upgrade, and a bare [`Follower`] (the type a
//! follower node pumps) stepped by hand — while a seed-drawn schedule of frame
//! misfortune fires through the `socket.ship` / `socket.ack` fail points:
//! dropped, duplicated, and reordered `BATCH` frames, dropped acks, severed
//! connections (network partitions), and a mid-stream leader kill.
//!
//! Invariants checked per episode:
//!
//! * **Zero acked-write loss** — every write whose `wait(1)` observed a
//!   follower ack is present on the follower at episode end, leader dead or
//!   alive.
//! * **Prefix / no split brain** — the follower's state is always an exact
//!   prefix of the leader's history: key `k<i>` present iff `i < last_seq`,
//!   with the leader's value. A diverged follower (e.g. one that applied a
//!   reordered frame) would break this.
//! * **LSN monotonicity** — the follower's applied LSN never goes backward,
//!   across frame faults, reconnects, and full resyncs.
//! * **Convergence** — an episode whose leader survives must end with the
//!   follower at the leader's LSN (frame faults heal through dedup or a
//!   `FULLRESYNC`), within a bounded drive loop.
//! * **No stranded checkpoint residue** — once both ends are gone, neither
//!   the leader's nor the follower's directory holds a checkpoint pin or
//!   leader-side copy (a name with `ckpt-`) or a resync staging tree (a
//!   name with `.resync-`): a severed `FILE` stream cleans up on both sides.
//!
//! The fault *schedule* is a pure function of the seed; socket scheduling is
//! not, so a failing seed replays the same misfortune against real-network
//! timing. In practice that reproduces reliably because the pump loop is
//! driven synchronously between writes.

use abase_core::{NodeRole, ServingNode};
use abase_lavastore::DbConfig;
use abase_replication::Follower;
use abase_util::failpoint::{self, FaultAction};
use abase_util::TestDir;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One frame-level misfortune in a socket episode's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketFault {
    /// Drop the next `count` outbound BATCH frames (the follower sees a
    /// hole and must recover via `FULLRESYNC`).
    DropFrames(u32),
    /// Send the next `count` BATCH frames twice (dedup on apply).
    DuplicateFrames(u32),
    /// Hold a BATCH frame and deliver it after its successor (out-of-order
    /// delivery).
    ReorderFrame,
    /// Drop the follower's next `count` acks (the leader's accounting lags;
    /// liveness, not safety).
    DropAcks(u32),
    /// Sever the replication connection (network partition); the follower
    /// reconnects and resumes via PSYNC.
    Partition,
    /// Kill the leader mid-stream: its node shuts down, so the port closes
    /// and every connection drops. No event after this one fires.
    KillLeader,
}

/// What one socket episode did and observed.
#[derive(Debug)]
pub struct SocketEpisodeReport {
    /// The seed the schedule was drawn from.
    pub seed: u64,
    /// Writes issued through the leader.
    pub writes: u64,
    /// Highest LSN a `wait(1)` observed a follower ack for.
    pub acked_lsn: u64,
    /// Frame faults armed.
    pub faults_armed: u64,
    /// Full resyncs the follower performed.
    pub resyncs: u64,
    /// Whether the schedule killed the leader mid-stream.
    pub leader_killed: bool,
    /// Invariant violations (empty = green).
    pub violations: Vec<String>,
}

impl SocketEpisodeReport {
    /// Did every invariant hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Draw an episode's misfortune schedule: `(write index, fault)` pairs.
fn draw_schedule(rng: &mut StdRng, writes: u64) -> Vec<(u64, SocketFault)> {
    let n_faults = rng.gen_range(2..6usize);
    let mut schedule: Vec<(u64, SocketFault)> = (0..n_faults)
        .map(|_| {
            let at = rng.gen_range(5..writes.saturating_sub(5).max(6));
            let fault = match rng.gen_range(0..6u32) {
                0 => SocketFault::DropFrames(rng.gen_range(1..3)),
                1 => SocketFault::DuplicateFrames(rng.gen_range(1..4)),
                2 => SocketFault::ReorderFrame,
                3 => SocketFault::DropAcks(rng.gen_range(1..4)),
                _ => SocketFault::Partition,
            };
            (at, fault)
        })
        .collect();
    // One episode in three loses its leader mid-stream.
    if rng.gen_range(0..3u32) == 0 {
        let at = rng.gen_range(writes / 2..writes);
        schedule.push((at, SocketFault::KillLeader));
    }
    schedule.sort_by_key(|(at, _)| *at);
    schedule
}

/// Run one seeded socket-transport chaos episode.
pub fn run_socket_episode(seed: u64) -> SocketEpisodeReport {
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(0x9E377),
    );
    let writes = rng.gen_range(60..160u64);
    let schedule = draw_schedule(&mut rng, writes);
    let mut report = SocketEpisodeReport {
        seed,
        writes: 0,
        acked_lsn: 0,
        faults_armed: 0,
        resyncs: 0,
        leader_killed: false,
        violations: Vec::new(),
    };

    let _guard = failpoint::ScopedInjector::enable();
    let leader_dir = TestDir::new(&format!("socket-chaos-leader-{seed}"));
    let follower_dir = TestDir::new(&format!("socket-chaos-follower-{seed}"));
    let node = ServingNode::open(
        "127.0.0.1:0",
        leader_dir.path(),
        DbConfig::small_for_tests(),
        NodeRole::Leader { local_replicas: 1 },
    )
    .expect("open leader node");
    let addr = node.local_addr();
    let group = Arc::clone(node.group().expect("a leader node has a group"));
    let mut leader = Some(node);
    const REPLICA_ID: u32 = 900;
    let tag = format!("replica-{REPLICA_ID}");
    let mut follower = Follower::connect(
        follower_dir.path().join("replica"),
        DbConfig::small_for_tests(),
        &addr.to_string(),
        REPLICA_ID,
    )
    .expect("follower connect");

    let mut schedule = schedule.into_iter().peekable();
    let mut last_follower_lsn = 0u64;
    let pump = |follower: &mut Follower, last: &mut u64, violations: &mut Vec<String>| {
        // Transport errors are episode weather (partitions, dead leader);
        // safety is judged by state, not liveness.
        let _ = follower.pump();
        let lsn = follower.last_seq();
        if lsn < *last {
            violations.push(format!("follower LSN went backward: {lsn} < {last}"));
        }
        *last = lsn;
    };

    for i in 0..writes {
        while let Some(&(at, fault)) = schedule.peek() {
            if at != i {
                break;
            }
            schedule.next();
            report.faults_armed += 1;
            match fault {
                SocketFault::DropFrames(n) => {
                    failpoint::install("socket.ship", Some(&tag), FaultAction::Drop, 0, n)
                }
                SocketFault::DuplicateFrames(n) => {
                    failpoint::install("socket.ship", Some(&tag), FaultAction::Duplicate, 0, n)
                }
                SocketFault::ReorderFrame => {
                    failpoint::install("socket.ship", Some(&tag), FaultAction::Reorder, 0, 1)
                }
                SocketFault::DropAcks(n) => {
                    failpoint::install("socket.ack", Some(&tag), FaultAction::Drop, 0, n)
                }
                SocketFault::Partition => {
                    failpoint::install("socket.ship", Some(&tag), FaultAction::Disconnect, 0, 1)
                }
                SocketFault::KillLeader => {
                    report.leader_killed = true;
                    if let Some(node) = leader.take() {
                        let _ = node.shutdown();
                    }
                }
            }
            if report.leader_killed {
                break;
            }
        }
        if report.leader_killed {
            break;
        }
        let lsn = {
            let g = group.lock();
            let db = g.leader_db().expect("leader alive");
            db.put(
                format!("k{i}").as_bytes(),
                format!("v{i}").as_bytes(),
                None,
                0,
            )
            .expect("leader write");
            db.last_seq()
        };
        report.writes += 1;
        // Drive the follower a little after every write, and fence every
        // eighth write like a quorum client would.
        for _ in 0..2 {
            pump(
                &mut follower,
                &mut last_follower_lsn,
                &mut report.violations,
            );
        }
        if i % 8 == 7 {
            // Generous budget: this is a *liveness* check over real sockets
            // and real time — a loaded CI box must not turn scheduling
            // noise into a phantom violation (the safety checks below are
            // state-based and load-immune).
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                pump(
                    &mut follower,
                    &mut last_follower_lsn,
                    &mut report.violations,
                );
                let acked = group.lock().followers_acked(lsn);
                if acked >= 1 {
                    report.acked_lsn = report.acked_lsn.max(lsn);
                    break;
                }
                if Instant::now() > deadline {
                    report
                        .violations
                        .push(format!("WAIT liveness: lsn {lsn} never acked in 20s"));
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    // Surviving-leader episodes must converge fully; killed-leader episodes
    // only drive briefly to absorb in-flight frames (their safety is judged
    // by the prefix/acked checks below, not by convergence).
    let target = group.lock().leader_db().expect("leader db").last_seq();
    let deadline = Instant::now()
        + if report.leader_killed {
            Duration::from_millis(300)
        } else {
            Duration::from_secs(20)
        };
    loop {
        pump(
            &mut follower,
            &mut last_follower_lsn,
            &mut report.violations,
        );
        if follower.last_seq() >= target && !report.leader_killed {
            break;
        }
        if Instant::now() > deadline {
            if !report.leader_killed && follower.last_seq() < target {
                report.violations.push(format!(
                    "convergence: follower stuck at {} of {target}",
                    follower.last_seq()
                ));
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    report.resyncs = follower.resyncs();

    // Zero acked-write loss + prefix (split-brain) check against the
    // follower's final state.
    let follower_db = follower.db();
    let cut = follower.last_seq();
    if cut < report.acked_lsn {
        report.violations.push(format!(
            "acked-write loss: follower at {cut} below acked lsn {}",
            report.acked_lsn
        ));
    }
    for i in 0..report.writes {
        let lsn = i + 1;
        let read = follower_db
            .get(format!("k{i}").as_bytes(), 0)
            .expect("follower read");
        match read.value {
            Some(v) if lsn <= cut && v.as_ref() != format!("v{i}").as_bytes() => {
                report
                    .violations
                    .push(format!("divergence: k{i} holds {:?}", v));
            }
            Some(_) if lsn <= cut => {}
            Some(_) => report.violations.push(format!(
                "phantom: k{i} (lsn {lsn}) present beyond follower LSN {cut}"
            )),
            None if lsn <= cut => report
                .violations
                .push(format!("prefix hole: k{i} (lsn {lsn}) missing below {cut}")),
            None => {}
        }
    }

    // Both ends go away; whatever checkpoint stream was in flight fails and
    // must take its pin and its staging tree with it.
    drop(follower);
    if let Some(node) = leader.take() {
        let _ = node.shutdown();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut stranded = checkpoint_residue(leader_dir.path());
        stranded.extend(checkpoint_residue(follower_dir.path()));
        if stranded.is_empty() {
            break;
        }
        if Instant::now() > deadline {
            report
                .violations
                .push(format!("stranded checkpoint residue: {stranded:?}"));
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    report
}

/// Every entry under `dir` (recursively) named like a checkpoint pin or
/// copy (`ckpt-`) or a resync staging tree (`.resync-`).
fn checkpoint_residue(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.contains("ckpt-") || name.contains(".resync-") {
            found.push(path);
        } else if path.is_dir() {
            found.extend(checkpoint_residue(&path));
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        assert_eq!(draw_schedule(&mut a, 100), draw_schedule(&mut b, 100));
    }
}
