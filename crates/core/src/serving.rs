//! The serving node: the one assembly of a store, its [`RespServer`] and the
//! threads that keep both alive. `abase-server` is this type behind argument
//! parsing; the two-process example, the socket tests and chaos's socket
//! episodes run it too, so what they exercise is what ships.
//!
//! A node owns, besides the store its [`NodeRole`] names and the front end:
//!
//! * the request [`Pipeline`]: every command is admitted against its
//!   tenant's partition quota and charged its §4.1 RU through it — each
//!   tenant is one partition, and none has a quota until one is set through
//!   [`ServingNode::pipeline`];
//! * the housekeeping tick, every [`TICK`]: it drives the server's clock from
//!   the wall clock (expiries are persisted as instants of that clock, so it
//!   must mean the same after a restart and on every member of a group),
//!   flushes the WAL to the OS and, on a leader, runs `catchup::tick`, which
//!   pumps the local followers and copies a re-seed outside the group lock.
//!   A step that fails is counted in `abase_node_tick_errors_total{kind}`,
//!   and the first failure of each kind is logged;
//! * on a follower, the pump: poll → apply → ack against the leader, swapping
//!   the engine's store when a full resync replaced it. A failed pass is
//!   counted in the same family under `follower_pump`; only the first is
//!   logged.
//!
//! A follower's server refuses client writes by construction: the read-only
//! role is attached here, after any front-end tuning, and nowhere else.

use crate::engine::TableEngine;
use crate::event_loop::ShutdownHandle;
use crate::metrics;
use crate::pipeline::Pipeline;
use crate::server::{FollowerLink, ReplicationControl, RespServer};
use abase_lavastore::DbConfig;
use abase_replication::{catchup, Follower, GroupConfig, PumpStatus, ReplicaGroup, WriteConcern};
use abase_util::lockrank::RankedMutex;
use std::fmt::Display;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Housekeeping cadence. Appends sit in a buffered writer, so without the
/// tick's flush a SIGKILL could lose an unbounded number of acknowledged
/// writes; this bounds the loss window to one tick (`DbConfig::sync_wal` is
/// for machines that need zero loss).
const TICK: Duration = Duration::from_millis(100);
/// The follower pump's nap between passes. Quorum commit latency on the
/// leader is bounded by how quickly this loop acks, not by [`TICK`].
const PUMP_NAP: Duration = Duration::from_millis(2);
/// The pump's nap after a pass that failed.
const PUMP_ERROR_NAP: Duration = Duration::from_millis(50);

/// What a node is to its replica group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeRole {
    /// Unreplicated.
    Plain,
    /// Lead a replica group of `local_replicas` in-process members (the
    /// leader included) under a quorum write concern; `PSYNC` followers from
    /// other processes join the same quorum.
    Leader {
        /// In-process members, at least the leader itself.
        local_replicas: u32,
    },
    /// Follow the leader at `leader_addr` as `replica_id`, serving read-only
    /// traffic from the replicated store.
    Follower {
        /// The leader's RESP address.
        leader_addr: String,
        /// This follower's id in the leader's accounting.
        replica_id: u32,
    },
}

/// A running node. Dropping it shuts it down.
pub struct ServingNode {
    addr: SocketAddr,
    engine: Arc<TableEngine>,
    group: Option<Arc<RankedMutex<ReplicaGroup>>>,
    pipeline: Arc<Pipeline>,
    front_end: ShutdownHandle,
    serving: Option<JoinHandle<io::Result<()>>>,
    stop: Arc<AtomicBool>,
    /// The tick and, on a follower, the pump.
    upkeep: Vec<JoinHandle<()>>,
}

/// Microseconds since the Unix epoch.
fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// Count a failed tick step (or follower pump pass) of `kind`, and log it if
/// it is the first: a poisoned WAL fails every tick after, and a follower
/// whose leader is not up fails every pass.
fn tick_step<E: Display>(kind: &'static str, logged: &mut bool, result: Result<(), E>) {
    if let Err(e) = result {
        metrics::TICK_ERRORS.inc(kind);
        if !std::mem::replace(logged, true) {
            eprintln!("node tick: {kind} failed: {e} (later failures are only counted)");
        }
    }
}

impl ServingNode {
    /// Open the store under `dir` in `role`, bind `addr` (port 0 picks one)
    /// and start serving.
    pub fn open(
        addr: &str,
        dir: impl AsRef<Path>,
        config: DbConfig,
        role: NodeRole,
    ) -> io::Result<Self> {
        Self::open_tuned(addr, dir, config, role, |server| server)
    }

    /// [`ServingNode::open`], with `tune` applied to the bound front end
    /// before it starts (worker count, connection cap, idle timeout, SLOWLOG
    /// threshold). The role is attached after `tune`, so tuning cannot
    /// change it.
    pub fn open_tuned(
        addr: &str,
        dir: impl AsRef<Path>,
        config: DbConfig,
        role: NodeRole,
        tune: impl FnOnce(RespServer) -> RespServer,
    ) -> io::Result<Self> {
        let mut group = None;
        let mut pump = None;
        let replicas = match role {
            NodeRole::Leader { local_replicas } => local_replicas.max(1),
            NodeRole::Plain | NodeRole::Follower { .. } => 1,
        };
        let engine = match role {
            NodeRole::Plain => TableEngine::open(dir, config).map_err(io::Error::other)?,
            NodeRole::Leader { local_replicas } => {
                let ids: Vec<u32> = (1..=local_replicas.max(1)).collect();
                let config = GroupConfig::new(WriteConcern::Quorum, config);
                let members =
                    ReplicaGroup::bootstrap(0, dir, &ids, config).map_err(io::Error::other)?;
                let leader = members.leader_db().map_err(io::Error::other)?;
                group = Some(Arc::new(members.into_mutex()));
                TableEngine::from_db(leader)
            }
            NodeRole::Follower {
                leader_addr,
                replica_id,
            } => {
                let follower = Follower::connect(dir, config, &leader_addr, replica_id)
                    .map_err(io::Error::other)?;
                let engine = TableEngine::from_db(follower.db());
                let link = Arc::new(FollowerLink {
                    leader_addr,
                    up: AtomicBool::new(true),
                });
                pump = Some((follower, link));
                engine
            }
        };
        let engine = Arc::new(engine);
        // A write is charged for the copies this process writes.
        let pipeline = Arc::new(Pipeline::new(replicas));
        let server =
            tune(RespServer::bind(Arc::clone(&engine), addr)?).with_pipeline(Arc::clone(&pipeline));
        let server = match (&group, &pump) {
            (Some(group), _) => {
                server.with_replication(Arc::clone(group) as Arc<dyn ReplicationControl>)
            }
            (None, Some((_, link))) => server.following(Arc::clone(link)),
            (None, None) => server,
        };
        let clock = server.clock();
        clock.store(unix_micros(), Ordering::Relaxed);
        // From here on an error drops `node`, which stops whatever runs.
        let mut node = ServingNode {
            addr: server.local_addr()?,
            engine: Arc::clone(&engine),
            group: group.clone(),
            pipeline,
            front_end: server.shutdown_handle(),
            serving: None,
            stop: Arc::new(AtomicBool::new(false)),
            upkeep: Vec::new(),
        };
        let thread = |name: &str| std::thread::Builder::new().name(name.into());
        node.serving = Some(thread("abase-serve").spawn(move || server.run())?);
        let stop = Arc::clone(&node.stop);
        let store = Arc::clone(&engine);
        node.upkeep.push(thread("abase-tick").spawn(move || {
            let mut logged = [false; 2];
            loop {
                // Read before the pass, so the last pass runs after the front
                // end is down and flushes everything it acknowledged.
                let last = stop.load(Ordering::Relaxed);
                clock.store(unix_micros(), Ordering::Relaxed);
                tick_step("flush_wal", &mut logged[0], store.db().flush_wal());
                // Local followers converge on this cadence without a client's
                // `WAIT`; remote ones are fed by their connections' threads.
                if let Some(group) = &group {
                    tick_step("group_tick", &mut logged[1], catchup::tick(&**group));
                }
                if last {
                    break;
                }
                std::thread::park_timeout(TICK);
            }
        })?);
        if let Some((mut follower, link)) = pump {
            let stop = Arc::clone(&node.stop);
            node.upkeep.push(thread("abase-pump").spawn(move || {
                let mut logged = false;
                while !stop.load(Ordering::Relaxed) {
                    let pumped = follower.pump();
                    // A full resync replaced the store wholesale: the serving
                    // engine switches to the fresh handle.
                    if let Ok(PumpStatus::Resynced) = pumped {
                        engine.swap_db(follower.db());
                    }
                    let nap = if pumped.is_ok() {
                        PUMP_NAP
                    } else {
                        PUMP_ERROR_NAP
                    };
                    tick_step("follower_pump", &mut logged, pumped.map(drop));
                    // The transport tracks socket liveness; pump results
                    // cannot (a dead link polls as "no records", like an
                    // idle leader).
                    link.up.store(follower.link_up(), Ordering::Relaxed);
                    std::thread::park_timeout(nap);
                }
            })?);
        }
        Ok(node)
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine the front end serves. On a follower its store is replaced
    /// by a full resync: take [`TableEngine::db`] per use, do not keep it.
    pub fn engine(&self) -> &Arc<TableEngine> {
        &self.engine
    }

    /// The replica group, on a leader.
    pub fn group(&self) -> Option<&Arc<RankedMutex<ReplicaGroup>>> {
        self.group.as_ref()
    }

    /// The node's admission and charging. A tenant's quota is set with
    /// [`Pipeline::add_partition`]`(tenant, tenant, quota_ru, now)`, as the
    /// simulator registers a partition.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Stop serving: the port is closed, replica streams and parked commands
    /// are cut off, every thread the node started is joined and the WAL is
    /// flushed, so the data directory can be opened again at once. Returns
    /// the front end's verdict on its own run.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.halt(true)
    }

    /// Serve until the front end stops by itself (a fatal poll error), then
    /// shut the rest down. The server binary's main thread waits here.
    pub fn wait(mut self) -> io::Result<()> {
        self.halt(false)
    }

    /// Front end first — told to stop, or waited for: once it is down no
    /// client write can arrive, and the tick's last pass flushes everything
    /// that was acknowledged.
    fn halt(&mut self, stop_front_end: bool) -> io::Result<()> {
        if stop_front_end {
            self.front_end.shutdown();
        }
        let served = match self.serving.take() {
            Some(serving) => serving
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("the front end panicked"))),
            None => Ok(()),
        };
        // Relaxed: the flag carries no data, and `unpark` orders it before
        // the wake-up it causes.
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.upkeep.drain(..) {
            thread.thread().unpark();
            let _ = thread.join();
        }
        served
    }
}

impl Drop for ServingNode {
    fn drop(&mut self) {
        let _ = self.halt(true);
    }
}
