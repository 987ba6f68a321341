//! A TCP server speaking RESP2 over the table engine.
//!
//! This is the network front end a single DataNode exposes: clients connect
//! with any Redis client, issue the supported command subset, and are
//! namespaced by a tenant id chosen at connect time via `AUTH <tenant>`
//! (tenant 0 until authenticated). Connections are served by a small pool of
//! epoll event-loop workers (see [`crate::event_loop`]) with real pipelining
//! — one readable event drains every complete frame, executes the batch in
//! wire order, and answers with one write — so 10k mostly-idle clients cost
//! registered fds, not OS threads.
//!
//! When the node's engine fronts a replica-group leader, attach the group via
//! [`RespServer::with_replication`]: every RESP write is committed under the
//! group's write concern before `+OK` reaches the client (an unsatisfiable
//! concern turns the reply into an error), and clients wanting an explicit
//! fence issue Redis-style `WAIT numreplicas timeout-ms` — the server blocks
//! until that many followers acked the connection's latest LSN. Both run
//! `abase_replication::catchup`, which re-seeds a local follower that fell
//! off the log in `catchup::pump`, with the group unlocked. `REPLCONF`
//! handshake chatter is accepted for client compatibility. A follower's
//! server — only [`crate::serving::ServingNode`] builds one — refuses client
//! writes and reports its link in `INFO replication`.
//!
//! Connections also carry a **read-consistency level** (`CONSISTENCY
//! eventual|readyourwrites|leader`, default `leader`): with a replication
//! plane attached, `eventual` GETs are served by follower replicas and
//! `readyourwrites` GETs by any replica that has applied the connection's
//! last acked write LSN (the session fence the server tracks per write) —
//! only `leader` reads pin to the leader replica.

use crate::conn::FrontEndStats;
use crate::engine::{ExecOutcome, TableEngine};
use crate::event_loop::{self, FrontEndConfig, Shutdown, ShutdownHandle};
use crate::metrics;
use crate::pipeline::{Pipeline, Request, Served};
use crate::types::ConsistencyLevel;
use abase_lavastore::{Db, ReadResult};
use abase_obs::{Counter, LazyCounterFamily, SlowLog, Span, Stage, Timer};
use abase_proto::{Argv, Command, RespValue, SlowlogSub};
use abase_quota::ru::ReadOutcome;
use abase_replication::{catchup, AcceptedReplica, ReadConsistency, ReplicaGroup};
use abase_util::lockrank::RankedMutex;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cap substituted when a client sends `WAIT n 0` ("no limit"): the
/// server never parks a connection forever on a dead follower, it parks it
/// for at most this long and replies with the acks reached.
const WAIT_UNBOUNDED_CAP: Duration = Duration::from_secs(30);

/// Replication identity as reported by `INFO replication` — built by the
/// attached replication plane on a leader, or from the link state a
/// follower's pump loop publishes.
#[derive(Debug, Clone)]
pub struct ReplInfo {
    /// `leader`, `follower`, or `none`.
    pub role: &'static str,
    /// Highest LSN durably applied locally (leader: the log head; follower:
    /// what the replication stream has applied).
    pub last_lsn: u64,
    /// The leader's address, from a follower's point of view.
    pub leader_addr: Option<String>,
    /// Replication-link status: `up`, `down`, or `n/a` (no link to keep).
    pub link_status: &'static str,
    /// Leader side: `(replica id, acked LSN, connected)` per known follower.
    pub followers: Vec<(u32, u64, bool)>,
}

impl Default for ReplInfo {
    fn default() -> Self {
        Self {
            role: "none",
            last_lsn: 0,
            leader_addr: None,
            link_status: "n/a",
            followers: Vec::new(),
        }
    }
}

/// A follower's replication link, as `INFO replication` reports it.
#[derive(Debug)]
pub(crate) struct FollowerLink {
    pub(crate) leader_addr: String,
    /// Whether the socket to the leader is alive; the pump loop, which owns
    /// the link, keeps it current.
    pub(crate) up: AtomicBool,
}

/// What a server is to its replica group. One value decides whether writes
/// commit through a plane, whether they are refused, and what `INFO
/// replication` says, so the three cannot disagree.
pub(crate) enum Role {
    /// Unreplicated: `WAIT` answers 0, `PSYNC` is refused.
    Plain,
    /// Leads a group: writes commit under its concern; `WAIT`, routed reads
    /// and `PSYNC` followers are served by the plane.
    Leader(Arc<dyn ReplicationControl>),
    /// Follows a leader: the store is written only by the replication
    /// stream, so client writes are refused with `-READONLY`.
    Follower(Arc<FollowerLink>),
}

impl Role {
    /// The replication plane, on a leader.
    pub(crate) fn plane(&self) -> Option<&dyn ReplicationControl> {
        match self {
            Role::Leader(plane) => Some(&**plane),
            Role::Plain | Role::Follower(_) => None,
        }
    }

    /// The identity `INFO` reports; a follower has applied what its store
    /// (`engine`'s, whichever a resync last swapped in) holds.
    fn repl_info(&self, engine: &TableEngine) -> ReplInfo {
        match self {
            Role::Plain => ReplInfo::default(),
            Role::Leader(plane) => plane.repl_info(),
            Role::Follower(link) => ReplInfo {
                role: "follower",
                last_lsn: engine.db().last_seq(),
                leader_addr: Some(link.leader_addr.clone()),
                link_status: if link.up.load(Ordering::Relaxed) {
                    "up"
                } else {
                    "down"
                },
                followers: Vec::new(),
            },
        }
    }
}

/// What `WAIT` needs from a replication plane. Implemented for a locked
/// [`ReplicaGroup`]; custom planes (tests, future geo-replication) can
/// implement it too.
pub trait ReplicationControl: Send + Sync {
    /// Ship the log until `numreplicas` followers ack `lsn` or `timeout`
    /// passes; returns how many followers have acked. Errors, rather than
    /// fence on a made-up LSN, when the group has no live leader.
    fn wait_for(&self, lsn: u64, numreplicas: usize, timeout: Duration) -> Result<usize, String>;
    /// Enforce the group's write concern for everything the leader has
    /// written so far (called after each RESP write, before the client sees
    /// its reply). Returns the LSN the commit fenced on — the leader's LSN
    /// read after the caller's write, so covering it, which the connection
    /// adopts as its `readyourwrites` session fence (it may include
    /// concurrent writers' later LSNs: a higher fence is always safe, just
    /// conservative for follower routing). Errors when the concern cannot
    /// be met.
    fn commit_written(&self) -> Result<u64, String>;
    /// Serve a consistency-routed read of a storage-level key: `Eventual`
    /// round-robins over live, non-divergent replicas, `ReadYourWrites(lsn)`
    /// over those at/above the fence, `Leader` pins to the leader. Returns
    /// the serving replica's read.
    fn read_routed(
        &self,
        key: &[u8],
        consistency: ReadConsistency,
        now: u64,
    ) -> Result<ReadResult, String>;

    /// Followers (local and remote) whose durably applied LSN reaches `lsn`
    /// — the non-blocking half of `WAIT`. Unlike [`ReplicationControl::
    /// wait_for`], this must answer even with no live leader: a session with
    /// no fence to enforce is owed a count, not a refusal.
    fn acked_followers(&self, lsn: u64) -> usize {
        let _ = lsn;
        0
    }

    /// Accept remote follower `id` (again, after a reconnect) as a `PSYNC`
    /// replica. Planes that lead no group refuse.
    fn accept_replica(&self, id: u32) -> Result<AcceptedReplica, String> {
        Err(format!(
            "this replication plane does not accept remote followers (replica {id})"
        ))
    }

    /// What `INFO replication` reports for this plane. The default describes
    /// a leader with no per-follower detail; planes that know more override.
    fn repl_info(&self) -> ReplInfo {
        ReplInfo {
            role: "leader",
            ..ReplInfo::default()
        }
    }
}

impl ReplicationControl for RankedMutex<ReplicaGroup> {
    fn wait_for(&self, lsn: u64, numreplicas: usize, timeout: Duration) -> Result<usize, String> {
        catchup::wait(self, lsn, numreplicas, timeout).map_err(|e| e.to_string())
    }

    fn acked_followers(&self, lsn: u64) -> usize {
        self.lock().followers_acked(lsn)
    }

    fn accept_replica(&self, id: u32) -> Result<AcceptedReplica, String> {
        // The group lock is held for this and no longer: the stream, and any
        // checkpoint it ships, runs with the group unlocked.
        let mut group = self.lock();
        let source = group.leader_db().map_err(|e| e.to_string())?;
        let (remote, generation) = group
            .register_remote_follower(id)
            .map_err(|e| e.to_string())?;
        Ok((source, remote, generation))
    }

    fn repl_info(&self) -> ReplInfo {
        let status = self.lock().status();
        let (leader, locals): (Vec<_>, Vec<_>) = status
            .replicas
            .into_iter()
            .partition(|r| Some(r.id) == status.leader);
        let locals = locals.into_iter().map(|r| (r.id, r.acked_lsn, r.alive));
        ReplInfo {
            role: "leader",
            last_lsn: leader.first().map_or(0, |r| r.acked_lsn),
            followers: locals.chain(status.remote_followers).collect(),
            ..ReplInfo::default()
        }
    }

    fn read_routed(
        &self,
        key: &[u8],
        consistency: ReadConsistency,
        now: u64,
    ) -> Result<ReadResult, String> {
        self.lock()
            .read_routed(key, consistency, now)
            .map(|routed| routed.result)
            .map_err(|e| e.to_string())
    }

    fn commit_written(&self) -> Result<u64, String> {
        let lsn = self.lock().leader_lsn().map_err(|e| e.to_string())?;
        catchup::commit(self, lsn).map_err(|e| e.to_string())?;
        Ok(lsn)
    }
}

/// A bound RESP server: the listener, the front end's sizing, and the context
/// its connections will share once it runs.
pub struct RespServer {
    listener: TcpListener,
    /// Worker count, max-clients cap, idle timeout.
    front_end: FrontEndConfig,
    ctx: ConnCtx,
}

impl RespServer {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"`) over an engine.
    pub fn bind(engine: Arc<TableEngine>, addr: &str) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            front_end: FrontEndConfig::default(),
            ctx: ConnCtx {
                engine,
                clock: Arc::default(),
                role: Role::Plain,
                slowlog: Arc::default(),
                started: Instant::now(),
                stats: Arc::default(),
                io_threads: 0,
                shutdown: Arc::default(),
                pipeline: Arc::new(Pipeline::new(1)),
            },
        })
    }

    /// Admit and charge through `pipeline` (the serving node's).
    pub(crate) fn with_pipeline(mut self, pipeline: Arc<Pipeline>) -> Self {
        self.ctx.pipeline = pipeline;
        self
    }

    /// Lead a replica group: attach the replication plane that commits
    /// writes and serves `WAIT`, routed reads and `PSYNC` followers.
    pub fn with_replication(mut self, replication: Arc<dyn ReplicationControl>) -> Self {
        self.ctx.role = Role::Leader(replication);
        self
    }

    /// Follow a leader: refuse client writes with `-READONLY` (a client
    /// write would silently diverge the store from the leader) and report
    /// `link` in `INFO replication`. Crate-private: a follower's server
    /// exists only beside the pump that feeds its store.
    pub(crate) fn following(mut self, link: Arc<FollowerLink>) -> Self {
        self.ctx.role = Role::Follower(link);
        self
    }

    /// Event-loop worker count (clamped to 1..=16 at run time).
    pub fn io_threads(mut self, workers: usize) -> Self {
        self.front_end.workers = workers;
        self
    }

    /// Connection cap: accepts beyond it are refused with
    /// `-ERR max number of clients reached`.
    pub fn max_clients(mut self, cap: usize) -> Self {
        self.front_end.max_clients = cap;
        self
    }

    /// Evict connections idle longer than `timeout`.
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.front_end.idle_timeout = Some(timeout);
        self
    }

    /// This server's SLOWLOG (shared with every connection; retune its
    /// threshold through the handle).
    pub fn slowlog(&self) -> Arc<SlowLog> {
        Arc::clone(&self.ctx.slowlog)
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Handle for advancing the server's virtual clock.
    pub fn clock(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.ctx.clock)
    }

    /// Handle that stops the accept loop and every event-loop worker
    /// deterministically (eventfd wakeups — no "after the next connection
    /// attempt" window).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            inner: Arc::clone(&self.ctx.shutdown),
        }
    }

    /// Serve connections from the event-loop worker pool until shut down.
    pub fn run(mut self) -> std::io::Result<()> {
        self.ctx.io_threads = self.front_end.workers.clamp(1, 16);
        event_loop::run_front_end(self.listener, Arc::new(self.ctx), self.front_end)
    }
}

/// Per-connection session state: tenant namespace, read-consistency level
/// (defaults to [`ConsistencyLevel::Leader`]), and the LSN fence of the
/// session's last acked write.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ConnState {
    pub(crate) tenant: u32,
    /// `tenant`'s ledger, resolved on first use and kept until AUTH changes
    /// the tenant.
    ledger: Option<TenantLedger>,
    consistency: ConsistencyLevel,
    /// Highest LSN this connection's writes reached — what a
    /// `readyourwrites` read fences on, and the fence `WAIT` enforces.
    session_lsn: u64,
    /// `REPLCONF replica-id` announced by a connecting follower.
    pub(crate) replica_id: Option<u32>,
}

impl ConnState {
    /// The ledger of the connection's tenant.
    fn ledger(&mut self) -> &mut TenantLedger {
        let tenant = self.tenant;
        if self.ledger.is_some_and(|ledger| ledger.tenant != tenant) {
            self.ledger = None;
        }
        self.ledger.get_or_insert_with(|| {
            let label = tenant.to_string();
            let ru = |family: &LazyCounterFamily| (family.with(&label), 0.0);
            TenantLedger {
                tenant,
                ru: [ru(&metrics::TENANT_READ_RU), ru(&metrics::TENANT_WRITE_RU)],
                rejected: metrics::TENANT_REJECTED.with(&label),
            }
        })
    }
}

/// One tenant's counters as a connection holds them: resolved once, so a
/// charge is a relaxed atomic add, not a label allocation and a family probe.
#[derive(Debug, Clone, Copy)]
struct TenantLedger {
    tenant: u32,
    /// The read and the write RU counter, each with the RU charged to it but
    /// not yet counted: charges are fractions, the counters whole RUs.
    ru: [(&'static Counter, f64); 2],
    rejected: &'static Counter,
}

impl TenantLedger {
    /// Count `ru` against the read or the write counter.
    fn charge(&mut self, write: bool, ru: f64) {
        let (counter, carry) = &mut self.ru[usize::from(write)];
        *carry += ru;
        let whole = carry.floor();
        if whole >= 1.0 {
            counter.add(whole as u64);
            *carry -= whole;
        }
    }
}

/// Everything one connection's dispatcher needs, bundled so the serving path
/// has a single context argument (shared across workers behind one `Arc`).
pub(crate) struct ConnCtx {
    pub(crate) engine: Arc<TableEngine>,
    /// Virtual time source: servers outside the simulator tick this from wall
    /// time; tests drive it manually.
    pub(crate) clock: Arc<AtomicU64>,
    /// What this server is to its replica group.
    pub(crate) role: Role,
    /// This server's SLOWLOG ring (per instance, not process-global: embedded
    /// tests run many servers in one process).
    pub(crate) slowlog: Arc<SlowLog>,
    /// When the server was bound (`INFO server` uptime).
    pub(crate) started: Instant,
    /// Per-server connection accounting (`INFO`, the max-clients cap).
    pub(crate) stats: Arc<FrontEndStats>,
    /// Event-loop worker count (`INFO server`), set when the server runs.
    pub(crate) io_threads: usize,
    /// The shutdown signal, which also tracks connections off the loop.
    pub(crate) shutdown: Arc<Shutdown>,
    /// Admission and RU charging, each tenant one partition.
    pub(crate) pipeline: Arc<Pipeline>,
}

/// Count/latency handles for a connection's last-seen command label. Labels
/// are `&'static str`s from a bounded set and workloads repeat commands, so
/// one pointer compare replaces two family probes on almost every op.
pub(crate) type CmdMetricsCache = Option<(
    &'static str,
    &'static abase_obs::Counter,
    &'static abase_obs::Histo,
)>;

/// The grammar's verdict on a command frame, as the server holds it: the
/// arguments are slices of the connection's input buffer.
pub(crate) type BorrowedCommand<'a> = Result<Command<&'a [u8]>, abase_proto::ParseCommandError>;

/// Bounded-cardinality command label for the per-command metric families:
/// the parsed command's canonical name, `AUTH` for the connection-layer auth
/// frame, `INVALID` for anything unparseable (client-chosen strings must not
/// mint label values).
pub(crate) fn command_label(argv: Argv<'_>, command: &BorrowedCommand<'_>) -> &'static str {
    match command {
        Ok(c) => c.name(),
        Err(_) => rejected_label(argv.iter().next()),
    }
}

/// The label of a frame the grammar refused, from its verb when it has one.
pub(crate) fn rejected_label(verb: Option<&[u8]>) -> &'static str {
    match verb {
        Some(verb) if verb.eq_ignore_ascii_case(b"AUTH") => "AUTH",
        _ => "INVALID",
    }
}

/// One argument as SLOWLOG shows it (lossy UTF-8, long arguments truncated —
/// the log keeps shapes, not payloads).
fn shown_arg(arg: &[u8]) -> String {
    const MAX_ARG: usize = 128;
    let shown = String::from_utf8_lossy(&arg[..arg.len().min(MAX_ARG)]).into_owned();
    if arg.len() > MAX_ARG {
        format!("{shown}... ({} bytes)", arg.len())
    } else {
        shown
    }
}

/// A command frame as printable argv for a SLOWLOG entry.
pub(crate) fn argv_strings(argv: Argv<'_>) -> Vec<String> {
    argv.iter().map(shown_arg).collect()
}

/// Label and error reply for a complete frame that is not a command frame
/// (a non-array, or an array holding something other than bulk strings),
/// worded by the owned grammar entry point.
pub(crate) fn refuse_malformed(value: &RespValue) -> (&'static str, RespValue) {
    let verb = match value {
        RespValue::Array(Some(items)) => match items.first() {
            Some(RespValue::Bulk(Some(verb))) => Some(&verb[..]),
            _ => None,
        },
        _ => None,
    };
    let reason = match Command::from_resp(value) {
        Err(e) => e,
        // The grammar reads every item of a frame it accepts as a bulk
        // string, and this frame holds one that is not.
        Ok(_) => abase_proto::ParseCommandError("expected bulk strings".into()),
    };
    (
        rejected_label(verb),
        RespValue::Error(format!("ERR {reason}")),
    )
}

/// [`argv_strings`] for a frame [`refuse_malformed`] answered.
pub(crate) fn malformed_argv_strings(value: &RespValue) -> Vec<String> {
    let RespValue::Array(Some(items)) = value else {
        return vec!["<non-array frame>".into()];
    };
    items
        .iter()
        .map(|item| match item {
            RespValue::Bulk(Some(b)) => shown_arg(b),
            other => format!("{other:?}"),
        })
        .collect()
}

/// The answer to a command its tenant's quota refused, counted per tenant.
pub(crate) fn throttled(state: &mut ConnState) -> RespValue {
    state.ledger().rejected.inc();
    let tenant = state.tenant;
    RespValue::Error(format!(
        "THROTTLED tenant {tenant} is over its partition quota; retry later"
    ))
}

/// Settle `served` through the pipeline (§4.1) and count its RU against the
/// connection's tenant.
fn charge(served: Served, state: &mut ConnState, ctx: &ConnCtx) {
    let ru = ctx.pipeline.settle(u64::from(state.tenant), served);
    state
        .ledger()
        .charge(matches!(served, Served::Write(_)), ru);
}

/// §4.1's name for whether the node cache answered a read.
fn read_outcome(from_cache: bool) -> ReadOutcome {
    if from_cache {
        ReadOutcome::NodeCacheHit
    } else {
        ReadOutcome::Miss
    }
}

/// What the engine's run of `request` comes to for §4.1: a write its
/// payload, a read the bytes it returned and whether a cache answered.
fn served(request: Request, outcome: &ExecOutcome) -> Served {
    let bytes = outcome.bytes_returned;
    let read = read_outcome(outcome.from_cache);
    match (request, &outcome.reply) {
        (Request::Write(payload), _) => Served::Write(payload),
        (Request::HashScan, RespValue::Array(Some(items))) => {
            Served::HashScan(items.len() / 2, bytes, read)
        }
        _ => Served::Read(bytes, read),
    }
}

/// Answer one command frame the pipeline admitted as `request`:
/// connection-state verbs here, the replication plane where one is attached,
/// everything else through [`TableEngine::execute_on`] against `db`, the
/// store handle the connection took for this batch — on arguments borrowed
/// from the connection's input buffer.
pub(crate) fn dispatch(
    argv: Argv<'_>,
    command: BorrowedCommand<'_>,
    request: Option<Request>,
    state: &mut ConnState,
    span: &mut Span,
    db: &Db,
    ctx: &ConnCtx,
) -> RespValue {
    let clock = &*ctx.clock;
    let replication = ctx.role.plane();
    // AUTH is handled at the connection layer (it selects the tenant).
    if argv.len() == 2 && argv.get(0).eq_ignore_ascii_case(b"AUTH") {
        let tenant = std::str::from_utf8(argv.get(1))
            .ok()
            .and_then(|s| s.parse().ok());
        return match tenant {
            Some(id) => {
                state.tenant = id;
                RespValue::ok()
            }
            None => RespValue::Error("ERR AUTH expects a numeric tenant id".into()),
        };
    }
    let command = match command {
        Ok(c) => c,
        Err(e) => return RespValue::Error(format!("ERR {e}")),
    };
    // CONSISTENCY is connection state, like AUTH.
    if let Command::Consistency { level } = &command {
        return match level {
            None => RespValue::bulk(state.consistency.name()),
            Some(raw) => match std::str::from_utf8(raw)
                .ok()
                .and_then(ConsistencyLevel::parse)
            {
                Some(level) => {
                    state.consistency = level;
                    RespValue::ok()
                }
                None => RespValue::Error(
                    "ERR CONSISTENCY expects eventual, readyourwrites, or leader".into(),
                ),
            },
        };
    }
    // REPLCONF is connection state too: a connecting follower announces its
    // replica id before PSYNC; anything else a client sends with it (Redis
    // replicas add `listening-port`), and `ack` frames landing here outside
    // a replica stream, are acknowledged and ignored.
    if let Command::ReplConf { .. } = &command {
        if let Some(id) = command.replconf_option("replica-id") {
            state.replica_id = Some(id as u32);
        }
        return RespValue::ok();
    }
    // Observability commands are served by the front end: it owns the
    // registry view, the per-server SLOWLOG, and the replication identity.
    match &command {
        Command::Info { section } => return info_reply(*section, ctx),
        Command::Slowlog { sub } => return slowlog_reply(sub, &ctx.slowlog),
        Command::Metrics => return RespValue::bulk(abase_obs::render()),
        _ => {}
    }
    // WAIT is answered by the replication plane when one is attached; the
    // engine's fallback (0 replicas acked) covers unreplicated nodes.
    if let (
        Command::Wait {
            numreplicas,
            timeout_ms,
        },
        Some(repl),
    ) = (&command, replication)
    {
        span.enter(Stage::ReplicationWait);
        let want = *numreplicas as usize;
        // Redis semantics: WAIT fences on the *connection's* last write, not
        // the global leader LSN — a read-only session must never block on
        // (or fail because of) other clients' writes. With no fence, or one
        // the followers already acked, the current count is the answer,
        // live leader or not.
        let fence = state.session_lsn;
        let acked = repl.acked_followers(fence);
        if fence == 0 || acked >= want {
            return RespValue::Integer(acked as i64);
        }
        // `timeout 0` is documented as "no limit"; the server maps it to its
        // own cap instead of the historical single non-blocking pass (and
        // instead of parking the connection forever on a dead follower).
        let timeout = if *timeout_ms == 0 {
            WAIT_UNBOUNDED_CAP
        } else {
            Duration::from_millis(*timeout_ms)
        };
        let wait_timer = Timer::start();
        let reply = match repl.wait_for(fence, want, timeout) {
            Ok(acked) => RespValue::Integer(acked as i64),
            Err(e) => RespValue::Error(format!("ERR replication: {e}")),
        };
        wait_timer.observe(&metrics::WAIT_MICROS);
        return reply;
    }
    let now = clock.load(Ordering::Relaxed);
    // With a replication plane attached, non-leader GETs route to a replica
    // chosen per the connection's consistency level instead of always
    // reading the leader's engine.
    if let (Command::Get { key }, Some(repl)) = (&command, replication) {
        if state.consistency != ConsistencyLevel::Leader {
            let consistency = match state.consistency {
                ConsistencyLevel::Eventual => ReadConsistency::Eventual,
                ConsistencyLevel::ReadYourWrites => {
                    ReadConsistency::ReadYourWrites(state.session_lsn)
                }
                ConsistencyLevel::Leader => unreachable!("guarded above"),
            };
            let storage_key = TableEngine::storage_string_key(state.tenant, key);
            span.enter(Stage::Engine);
            return match repl.read_routed(&storage_key, consistency, now) {
                Ok(read) => {
                    let bytes = read.value.as_ref().map_or(0, |v| v.len());
                    let outcome = read_outcome(read.is_cache_hit());
                    charge(Served::Read(bytes, outcome), state, ctx);
                    RespValue::Bulk(read.value)
                }
                Err(e) => RespValue::Error(format!("ERR replication: {e}")),
            };
        }
    }
    // A follower replica's store is written only by the replication stream;
    // a client write here would silently diverge it from the leader.
    if matches!(ctx.role, Role::Follower(_)) && command.is_write() {
        return RespValue::Error("READONLY You can't write against a read only replica.".into());
    }
    span.enter(Stage::Engine);
    match TableEngine::execute_on(db, state.tenant, &command, now) {
        Ok(outcome) => {
            if let Some(request) = request {
                charge(served(request, &outcome), state, ctx);
            }
            // Writes are acknowledged only once the replica group's write
            // concern holds; an unsatisfiable concern is the client's error.
            if command.is_write() {
                if let Some(repl) = replication {
                    span.enter(Stage::ReplicationWait);
                    let wait_timer = Timer::start();
                    // The committed LSN becomes the session's read fence
                    // (read after this write, so it covers it even when
                    // concurrent writers move the leader on).
                    let committed = repl.commit_written();
                    wait_timer.observe(&metrics::WAIT_MICROS);
                    match committed {
                        Ok(lsn) => state.session_lsn = state.session_lsn.max(lsn),
                        Err(e) => {
                            return RespValue::Error(format!("ERR replication: {e}"));
                        }
                    }
                }
            }
            outcome.reply
        }
        Err(e) => RespValue::Error(format!("ERR storage: {e}")),
    }
}

/// Build the `INFO [section]` reply. Sections mirror Redis: `server`,
/// `replication`, `keyspace`, `stats`, `latency`; no argument (or `all` /
/// `default` / `everything`) emits them all, an unknown section an empty
/// bulk string.
fn info_reply(section: Option<&[u8]>, ctx: &ConnCtx) -> RespValue {
    let section = section.map(|s| s.to_ascii_lowercase());
    let wanted = |name: &str| match section.as_deref() {
        None | Some(b"all") | Some(b"default") | Some(b"everything") => true,
        Some(s) => s == name.as_bytes(),
    };
    let info = ctx.role.repl_info(&ctx.engine);
    let mut out = String::new();
    if wanted("server") {
        out.push_str("# Server\r\n");
        out.push_str(&format!("role:{}\r\n", info.role));
        out.push_str(&format!(
            "uptime_in_seconds:{}\r\n",
            ctx.started.elapsed().as_secs()
        ));
        out.push_str(&format!(
            "connected_clients:{}\r\n",
            ctx.stats.open.load(Ordering::Relaxed).max(0)
        ));
        out.push_str(&format!("io_threads:{}\r\n", ctx.io_threads));
        out.push_str(&format!(
            "total_connections_received:{}\r\n",
            ctx.stats.accepted.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "evicted_clients:{}\r\n",
            ctx.stats.evicted.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "slowlog_threshold_micros:{}\r\n",
            ctx.slowlog.threshold_micros()
        ));
        out.push_str("\r\n");
    }
    if wanted("replication") {
        out.push_str("# Replication\r\n");
        out.push_str(&format!("role:{}\r\n", info.role));
        out.push_str(&format!("last_applied_lsn:{}\r\n", info.last_lsn));
        out.push_str(&format!(
            "leader_addr:{}\r\n",
            info.leader_addr.as_deref().unwrap_or("")
        ));
        out.push_str(&format!("link_status:{}\r\n", info.link_status));
        out.push_str(&format!(
            "connected_followers:{}\r\n",
            info.followers.iter().filter(|&&(_, _, up)| up).count()
        ));
        for (i, (id, lsn, up)) in info.followers.iter().enumerate() {
            out.push_str(&format!(
                "follower{i}:id={id},acked_lsn={lsn},connected={}\r\n",
                u8::from(*up)
            ));
        }
        out.push_str("\r\n");
    }
    if wanted("keyspace") {
        let db = ctx.engine.db();
        let stats = db.stats();
        out.push_str("# Keyspace\r\n");
        out.push_str(&format!("last_seq:{}\r\n", db.last_seq()));
        out.push_str(&format!("gets:{}\r\n", stats.gets));
        out.push_str(&format!("puts:{}\r\n", stats.puts));
        out.push_str(&format!("deletes:{}\r\n", stats.deletes));
        out.push_str(&format!("memtable_hits:{}\r\n", stats.memtable_hits));
        out.push_str(&format!("block_reads:{}\r\n", stats.block_reads));
        match db.block_cache() {
            Some(cache) => {
                let cs = cache.stats();
                out.push_str("block_cache_enabled:1\r\n");
                out.push_str(&format!("block_cache_hits:{}\r\n", cs.hits));
                out.push_str(&format!("block_cache_misses:{}\r\n", cs.misses));
                out.push_str(&format!("block_cache_hit_ratio:{:.4}\r\n", cs.hit_ratio()));
                out.push_str(&format!("block_cache_evictions:{}\r\n", cs.evictions));
                out.push_str(&format!(
                    "block_cache_resident_bytes:{}\r\n",
                    cache.resident_bytes()
                ));
                out.push_str(&format!(
                    "block_cache_pinned_bytes:{}\r\n",
                    cache.pinned_bytes()
                ));
                out.push_str(&format!(
                    "block_cache_capacity_bytes:{}\r\n",
                    cache.capacity_bytes()
                ));
                // Rows share the budget above; the block_cache_* counters
                // count blocks only.
                let rs = cache.row_stats();
                out.push_str(&format!("row_cache_hits:{}\r\n", rs.hits));
                out.push_str(&format!("row_cache_misses:{}\r\n", rs.misses));
                out.push_str(&format!("row_cache_hit_ratio:{:.4}\r\n", rs.hit_ratio()));
                out.push_str(&format!("row_cache_entries:{}\r\n", cache.row_count()));
                out.push_str(&format!("row_cache_bytes:{}\r\n", cache.row_bytes()));
            }
            None => out.push_str("block_cache_enabled:0\r\n"),
        }
        out.push_str(&format!("flushes:{}\r\n", stats.flushes));
        out.push_str(&format!("compactions:{}\r\n", stats.compactions));
        out.push_str(&format!(
            "sst_bytes_written:{}\r\n",
            stats.sst_bytes_written
        ));
        out.push_str(&format!(
            "wal_bytes_written:{}\r\n",
            stats.wal_bytes_written
        ));
        out.push_str("\r\n");
    }
    if wanted("stats") {
        out.push_str("# Stats\r\n");
        for (key, value) in abase_obs::snapshot().iter() {
            if value.fract() == 0.0 {
                out.push_str(&format!("{key}:{value:.0}\r\n"));
            } else {
                out.push_str(&format!("{key}:{value}\r\n"));
            }
        }
        out.push_str("\r\n");
    }
    if wanted("latency") {
        out.push_str("# Latency\r\n");
        for (name, histo) in abase_obs::histograms() {
            if histo.count() == 0 {
                continue;
            }
            let scale = abase_obs::exposed_scale(&name);
            let q = |p: f64| histo.quantile(p).unwrap_or(0.0) / scale;
            out.push_str(&format!(
                "{name}:count={},mean_us={:.3},p50_us={:.3},p99_us={:.3}\r\n",
                histo.count(),
                histo.mean() / scale,
                q(0.5),
                q(0.99),
            ));
        }
        out.push_str("\r\n");
    }
    RespValue::bulk(out)
}

/// Answer `SLOWLOG GET/RESET/LEN` from this server's ring. `GET` entries are
/// Redis-shaped — `[id, unix-secs, micros, argv…]` — with a fifth element
/// holding the per-stage breakdown as `stage=micros` strings.
fn slowlog_reply(sub: &SlowlogSub, slowlog: &SlowLog) -> RespValue {
    match sub {
        SlowlogSub::Len => RespValue::Integer(slowlog.len() as i64),
        SlowlogSub::Reset => {
            slowlog.reset();
            RespValue::ok()
        }
        SlowlogSub::Get { count } => {
            let count = count.map(|c| c as usize).unwrap_or(10);
            let entries = slowlog
                .get(count)
                .into_iter()
                .map(|e| {
                    RespValue::Array(Some(vec![
                        RespValue::Integer(e.id as i64),
                        RespValue::Integer(e.unix_secs as i64),
                        RespValue::Integer(e.duration_micros as i64),
                        RespValue::Array(Some(
                            e.command.into_iter().map(RespValue::bulk).collect(),
                        )),
                        RespValue::Array(Some(
                            e.stages
                                .into_iter()
                                .map(|(stage, us)| RespValue::bulk(format!("{stage}={us}")))
                                .collect(),
                        )),
                    ]))
                })
                .collect();
            RespValue::Array(Some(entries))
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may sleep to sequence threads
mod tests {
    use super::*;
    use abase_lavastore::DbConfig;
    use abase_util::TestDir;
    use parking_lot::Mutex;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn start_server(tag: &str) -> (TestDir, std::net::SocketAddr, Arc<AtomicU64>) {
        let dir = TestDir::new(tag);
        let engine = Arc::new(TableEngine::open(dir.path(), DbConfig::small_for_tests()).unwrap());
        let server = RespServer::bind(engine, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let clock = server.clock();
        std::thread::spawn(move || server.run());
        (dir, addr, clock)
    }

    fn roundtrip(stream: &mut TcpStream, request: &[u8]) -> RespValue {
        stream.write_all(request).unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed unexpectedly");
            buf.extend_from_slice(&chunk[..n]);
            if let Some((value, _)) = RespValue::parse(&buf).unwrap() {
                return value;
            }
        }
    }

    #[test]
    fn tcp_set_get_roundtrip() {
        let (_dir, addr, _clock) = start_server("roundtrip");
        let mut client = TcpStream::connect(addr).unwrap();
        let reply = roundtrip(
            &mut client,
            b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n",
        );
        assert_eq!(reply, RespValue::ok());
        let reply = roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
        assert_eq!(reply, RespValue::bulk("hello"));
        let reply = roundtrip(&mut client, b"*1\r\n$4\r\nPING\r\n");
        assert_eq!(reply, RespValue::Simple("PONG".into()));
    }

    #[test]
    fn auth_switches_tenant_namespaces() {
        let (_dir, addr, _clock) = start_server("auth");
        let mut client = TcpStream::connect(addr).unwrap();
        roundtrip(&mut client, b"*2\r\n$4\r\nAUTH\r\n$1\r\n1\r\n");
        roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\nt1\r\n");
        // Switch tenant: the key is invisible.
        let reply = roundtrip(&mut client, b"*2\r\n$4\r\nAUTH\r\n$1\r\n2\r\n");
        assert_eq!(reply, RespValue::ok());
        let reply = roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
        assert_eq!(reply, RespValue::Bulk(None));
    }

    #[test]
    fn two_concurrent_clients_are_isolated() {
        let (_dir, addr, _clock) = start_server("concurrent");
        let mut c1 = TcpStream::connect(addr).unwrap();
        let mut c2 = TcpStream::connect(addr).unwrap();
        roundtrip(&mut c1, b"*2\r\n$4\r\nAUTH\r\n$1\r\n7\r\n");
        roundtrip(&mut c2, b"*2\r\n$4\r\nAUTH\r\n$1\r\n8\r\n");
        roundtrip(&mut c1, b"*3\r\n$3\r\nSET\r\n$1\r\nx\r\n$3\r\none\r\n");
        roundtrip(&mut c2, b"*3\r\n$3\r\nSET\r\n$1\r\nx\r\n$3\r\ntwo\r\n");
        assert_eq!(
            roundtrip(&mut c1, b"*2\r\n$3\r\nGET\r\n$1\r\nx\r\n"),
            RespValue::bulk("one")
        );
        assert_eq!(
            roundtrip(&mut c2, b"*2\r\n$3\r\nGET\r\n$1\r\nx\r\n"),
            RespValue::bulk("two")
        );
    }

    #[test]
    fn pipelined_commands_in_one_write() {
        let (_dir, addr, _clock) = start_server("pipeline");
        let mut client = TcpStream::connect(addr).unwrap();
        // Two commands in a single TCP segment.
        client
            .write_all(b"*3\r\n$3\r\nSET\r\n$1\r\na\r\n$1\r\n1\r\n*2\r\n$3\r\nGET\r\n$1\r\na\r\n")
            .unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        let mut replies = Vec::new();
        while replies.len() < 2 {
            let n = client.read(&mut chunk).unwrap();
            assert!(n > 0);
            buf.extend_from_slice(&chunk[..n]);
            while let Some((value, used)) = RespValue::parse(&buf).unwrap() {
                replies.push(value);
                buf.drain(..used);
            }
        }
        assert_eq!(replies[0], RespValue::ok());
        assert_eq!(replies[1], RespValue::bulk("1"));
    }

    #[test]
    fn ttl_honours_server_clock() {
        let (_dir, addr, clock) = start_server("ttl");
        let mut client = TcpStream::connect(addr).unwrap();
        roundtrip(
            &mut client,
            b"*5\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n$2\r\nEX\r\n$2\r\n10\r\n",
        );
        assert_eq!(
            roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"),
            RespValue::bulk("v")
        );
        clock.store(11_000_000, Ordering::Relaxed); // 11 s of virtual time
        assert_eq!(
            roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"),
            RespValue::Bulk(None)
        );
    }

    #[test]
    fn malformed_command_gets_error_reply() {
        let (_dir, addr, _clock) = start_server("badcmd");
        let mut client = TcpStream::connect(addr).unwrap();
        let reply = roundtrip(&mut client, b"*1\r\n$7\r\nNOTACMD\r\n");
        assert!(matches!(reply, RespValue::Error(_)));
    }

    #[test]
    fn wait_without_replication_reports_zero() {
        let (_dir, addr, _clock) = start_server("wait0");
        let mut client = TcpStream::connect(addr).unwrap();
        let reply = roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n1\r\n$3\r\n100\r\n");
        assert_eq!(reply, RespValue::Integer(0));
        // REPLCONF handshake is accepted on any node.
        let reply = roundtrip(
            &mut client,
            b"*3\r\n$8\r\nREPLCONF\r\n$14\r\nlistening-port\r\n$4\r\n6380\r\n",
        );
        assert_eq!(reply, RespValue::ok());
    }

    #[test]
    fn resp_writes_enforce_group_write_concern() {
        use abase_replication::{GroupConfig, ReplicaGroup, WriteConcern};
        let dir = TestDir::new("resp-quorum");
        let group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[1, 2, 3],
            GroupConfig {
                write_concern: WriteConcern::Quorum,
                db: DbConfig::small_for_tests(),
                // Keep the deliberately failing quorum write below fast.
                wait_timeout: Duration::from_millis(20),
            },
        )
        .unwrap();
        let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
        let group = Arc::new(group.into_mutex());
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut client = TcpStream::connect(addr).unwrap();
        // +OK implies the write already sits on a majority.
        let reply = roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
        assert_eq!(reply, RespValue::ok());
        {
            let g = group.lock();
            let lsn = g.leader_db().unwrap().last_seq();
            assert!(g.acked_count(lsn) >= 2, "quorum not enforced before reply");
        }
        // With both followers down, quorum writes must fail loudly.
        {
            let mut g = group.lock();
            g.fail_replica(2).unwrap();
            g.fail_replica(3).unwrap();
        }
        let reply = roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nw\r\n");
        match reply {
            RespValue::Error(e) => assert!(e.contains("replication"), "{e}"),
            other => panic!("expected replication error, got {other:?}"),
        }
        // Reads still serve.
        let reply = roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
        assert!(matches!(reply, RespValue::Bulk(Some(_))));
        // With the leader gone too, WAIT must refuse rather than fence on a
        // fabricated LSN and report phantom acks.
        group.lock().fail_replica(1).unwrap();
        let reply = roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n1\r\n$2\r\n50\r\n");
        match reply {
            RespValue::Error(e) => assert!(e.contains("no live leader"), "{e}"),
            other => panic!("expected no-leader error, got {other:?}"),
        }
    }

    #[test]
    fn resync_copy_runs_with_the_group_unlocked() {
        use abase_replication::{GroupConfig, ReplicaGroup, WriteConcern};
        use abase_util::failpoint::{self, FaultAction};
        let _guard = failpoint::ScopedInjector::enable();
        let dir = TestDir::new("unlocked-resync");
        let mut group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[1, 2, 3],
            GroupConfig {
                write_concern: WriteConcern::Async,
                db: DbConfig::small_for_tests(),
                wait_timeout: Duration::from_millis(100),
            },
        )
        .unwrap();
        for i in 0..30 {
            group
                .put(format!("k{i:03}").as_bytes(), &[5u8; 64], None, 0)
                .unwrap();
        }
        group.leader_db().unwrap().flush().unwrap();
        group.tick().unwrap();
        let lsn = group.put(b"fence", b"v", None, 0).unwrap();
        let leader_dir = dir.path().join("p1-r1");
        // Follower 2's next poll gaps; the checkpoint copy that follows is
        // slowed to ≥400 ms by per-chunk delays.
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
            FaultAction::DelayMs(150),
            0,
            5,
        );
        let group = Arc::new(group.into_mutex());
        let waiter = {
            let group = Arc::clone(&group);
            std::thread::spawn(move || {
                let started = Instant::now();
                let acked = group
                    .wait_for(lsn, 2, Duration::from_secs(10))
                    .expect("wait_for failed");
                (acked, started.elapsed())
            })
        };
        // While the copy is in flight, the group mutex must be free: other
        // connections' WAIT/commit keep flowing.
        std::thread::sleep(Duration::from_millis(150));
        let t0 = Instant::now();
        {
            let mut g = group.lock();
            g.put(b"concurrent", b"w", None, 0).unwrap();
        }
        let lock_wait = t0.elapsed();
        let (acked, waited) = waiter.join().unwrap();
        assert_eq!(acked, 2, "both followers must end up acked");
        assert!(
            waited >= Duration::from_millis(350),
            "copy was not slowed ({waited:?}); the lock-freedom check is vacuous"
        );
        assert!(
            lock_wait < Duration::from_millis(200),
            "group mutex was held across the resync copy ({lock_wait:?})"
        );
    }

    #[test]
    fn consistency_levels_route_connection_reads() {
        use abase_replication::{GroupConfig, ReplicaGroup, WriteConcern};
        let dir = TestDir::new("consistency-route");
        let group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[1, 2, 3],
            GroupConfig {
                // Async: followers lag until WAIT pumps them — which is what
                // makes the fence observable.
                write_concern: WriteConcern::Async,
                db: DbConfig::small_for_tests(),
                wait_timeout: Duration::from_millis(100),
            },
        )
        .unwrap();
        let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
        let group = Arc::new(group.into_mutex());
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut client = TcpStream::connect(addr).unwrap();
        // Default level is leader.
        let reply = roundtrip(&mut client, b"*1\r\n$11\r\nCONSISTENCY\r\n");
        assert_eq!(reply, RespValue::bulk("leader"));
        // Write, then fence the session's reads on it.
        roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
        let reply = roundtrip(
            &mut client,
            b"*2\r\n$11\r\nCONSISTENCY\r\n$14\r\nreadyourwrites\r\n",
        );
        assert_eq!(reply, RespValue::ok());
        // Followers have not applied the write; the fenced read must still
        // observe it (served by the leader or a caught-up replica).
        for _ in 0..4 {
            let reply = roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
            assert_eq!(reply, RespValue::bulk("v"), "fenced read lost the write");
        }
        // Converge, then eventual reads see it from any replica.
        roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n2\r\n$3\r\n100\r\n");
        let reply = roundtrip(
            &mut client,
            b"*2\r\n$11\r\nCONSISTENCY\r\n$8\r\neventual\r\n",
        );
        assert_eq!(reply, RespValue::ok());
        for _ in 0..4 {
            let reply = roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
            assert_eq!(reply, RespValue::bulk("v"));
        }
        // Bogus levels are refused; the connection keeps its current level.
        let reply = roundtrip(&mut client, b"*2\r\n$11\r\nCONSISTENCY\r\n$6\r\nstrong\r\n");
        assert!(matches!(reply, RespValue::Error(_)));
        let reply = roundtrip(&mut client, b"*1\r\n$11\r\nCONSISTENCY\r\n");
        assert_eq!(reply, RespValue::bulk("eventual"));
    }

    #[test]
    fn wait_fences_on_the_sessions_own_writes_not_other_clients() {
        use abase_replication::{GroupConfig, ReplicaGroup, WriteConcern};
        let dir = TestDir::new("wait-session-fence");
        let group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[1, 2, 3],
            GroupConfig {
                // Async: followers lag until someone pumps them, so a global
                // fence would make the read-only client block.
                write_concern: WriteConcern::Async,
                db: DbConfig::small_for_tests(),
                wait_timeout: Duration::from_millis(100),
            },
        )
        .unwrap();
        let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
        let group = Arc::new(group.into_mutex());
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut writer = TcpStream::connect(addr).unwrap();
        let mut reader = TcpStream::connect(addr).unwrap();
        // Another client writes; followers have not acked it.
        roundtrip(&mut writer, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
        // The read-only session has no fence: WAIT answers immediately with
        // the live follower count instead of blocking on the writer's LSN
        // (the old code fenced on the global leader LSN and would park here
        // for the full timeout).
        let started = Instant::now();
        let reply = roundtrip(
            &mut reader,
            b"*3\r\n$4\r\nWAIT\r\n$1\r\n2\r\n$4\r\n5000\r\n",
        );
        assert_eq!(reply, RespValue::Integer(2));
        assert!(
            started.elapsed() < Duration::from_millis(1500),
            "fence-free WAIT blocked on another session's write"
        );
        // With every replica dead, a fence-free WAIT still answers (0 acked)
        // — the no-leader refusal is reserved for sessions with a fence.
        {
            let mut g = group.lock();
            g.fail_replica(1).unwrap();
            g.fail_replica(2).unwrap();
            g.fail_replica(3).unwrap();
        }
        let reply = roundtrip(&mut reader, b"*3\r\n$4\r\nWAIT\r\n$1\r\n1\r\n$2\r\n50\r\n");
        assert_eq!(reply, RespValue::Integer(0));
        // The writer has a fence to enforce: refusal stands.
        let reply = roundtrip(&mut writer, b"*3\r\n$4\r\nWAIT\r\n$1\r\n1\r\n$2\r\n50\r\n");
        match reply {
            RespValue::Error(e) => assert!(e.contains("no live leader"), "{e}"),
            other => panic!("expected no-leader error, got {other:?}"),
        }
    }

    /// Records what the server actually asked the replication plane for.
    struct RecordingRepl {
        calls: Mutex<Vec<(u64, usize, Duration)>>,
    }

    impl ReplicationControl for RecordingRepl {
        fn wait_for(
            &self,
            lsn: u64,
            numreplicas: usize,
            timeout: Duration,
        ) -> Result<usize, String> {
            self.calls.lock().push((lsn, numreplicas, timeout));
            Ok(numreplicas)
        }
        fn commit_written(&self) -> Result<u64, String> {
            Ok(7)
        }
        fn read_routed(
            &self,
            _key: &[u8],
            _consistency: ReadConsistency,
            _now: u64,
        ) -> Result<ReadResult, String> {
            Err("not under test".into())
        }
    }

    #[test]
    fn wait_zero_timeout_maps_to_the_server_cap_and_session_fence() {
        let (_dir, _addr, _clock) = start_server("wait-cap-unused");
        let dir = TestDir::new("wait-cap");
        let engine = Arc::new(TableEngine::open(dir.path(), DbConfig::small_for_tests()).unwrap());
        let repl = Arc::new(RecordingRepl {
            calls: Mutex::new(Vec::new()),
        });
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_replication(Arc::clone(&repl) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut client = TcpStream::connect(addr).unwrap();
        // The write pins the session fence at the committed LSN (7).
        roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
        // `WAIT 2 0`: no client limit — the server must substitute its cap,
        // not treat it as a single non-blocking pass.
        roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n2\r\n$1\r\n0\r\n");
        // A finite timeout passes through untouched.
        roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n2\r\n$3\r\n250\r\n");
        let calls = repl.calls.lock();
        assert_eq!(calls.len(), 2);
        assert_eq!(
            calls[0],
            (7, 2, WAIT_UNBOUNDED_CAP),
            "WAIT n 0 must fence on the session LSN with the server cap"
        );
        assert_eq!(calls[1], (7, 2, Duration::from_millis(250)));
    }

    #[test]
    fn wait_finite_timeout_returns_acked_so_far() {
        use abase_replication::{GroupConfig, ReplicaGroup, WriteConcern};
        let dir = TestDir::new("wait-partial");
        let group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[1, 2, 3],
            GroupConfig {
                write_concern: WriteConcern::Async,
                db: DbConfig::small_for_tests(),
                wait_timeout: Duration::from_millis(100),
            },
        )
        .unwrap();
        let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
        let group = Arc::new(group.into_mutex());
        group.lock().fail_replica(3).unwrap();
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut client = TcpStream::connect(addr).unwrap();
        roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
        // Asking for 2 follower acks with one follower dead: the reply is
        // the ack count reached when the budget expires, not an error.
        let started = Instant::now();
        let reply = roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n2\r\n$2\r\n80\r\n");
        assert_eq!(reply, RespValue::Integer(1));
        let elapsed = started.elapsed();
        assert!(elapsed >= Duration::from_millis(60), "returned early");
        assert!(elapsed < Duration::from_secs(5), "ignored the timeout");
    }

    #[test]
    fn read_only_server_refuses_writes() {
        let dir = TestDir::new("read-only");
        let engine = Arc::new(TableEngine::open(dir.path(), DbConfig::small_for_tests()).unwrap());
        engine
            .execute(
                0,
                &Command::<bytes::Bytes>::Set {
                    key: "k".into(),
                    value: "v".into(),
                    ttl_secs: None,
                },
                0,
            )
            .unwrap();
        let link = Arc::new(FollowerLink {
            leader_addr: "10.0.0.1:7379".into(),
            up: AtomicBool::new(true),
        });
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .following(link);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut client = TcpStream::connect(addr).unwrap();
        let reply = roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nw\r\n");
        match reply {
            RespValue::Error(e) => assert!(e.starts_with("READONLY"), "{e}"),
            other => panic!("expected READONLY, got {other:?}"),
        }
        // Reads still serve the replicated state.
        assert_eq!(
            roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"),
            RespValue::bulk("v")
        );
    }

    #[test]
    fn psync_streams_a_remote_follower_through_the_resp_server() {
        use abase_replication::{Follower, GroupConfig, PumpStatus, ReplicaGroup, WriteConcern};
        let dir = TestDir::new("psync-resp");
        let fdir = TestDir::new("psync-resp-follower");
        let group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[1],
            GroupConfig {
                write_concern: WriteConcern::Quorum,
                db: DbConfig::small_for_tests(),
                wait_timeout: Duration::from_secs(5),
            },
        )
        .unwrap();
        let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
        let group = Arc::new(group.into_mutex());
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        // The follower in "another process": its pump thread drives the
        // REPLCONF/PSYNC handshake and the checkpoint pull.
        let mut follower = Follower::connect(
            fdir.path().join("replica"),
            DbConfig::small_for_tests(),
            &addr.to_string(),
            77,
        )
        .unwrap();
        let follower_db = follower.db();
        let stop = Arc::new(AtomicBool::new(false));
        let pump = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut db = follower_db;
                while !stop.load(Ordering::Relaxed) {
                    match follower.pump() {
                        Ok(PumpStatus::Resynced) => db = follower.db(),
                        Ok(_) => {}
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                db
            })
        };
        // Quorum over {local leader, remote follower} = 2: +OK proves the
        // REPLCONF ACK made it back through the socket.
        let mut client = TcpStream::connect(addr).unwrap();
        let reply = roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
        assert_eq!(reply, RespValue::ok(), "quorum write over the socket");
        let reply = roundtrip(
            &mut client,
            b"*3\r\n$4\r\nWAIT\r\n$1\r\n1\r\n$4\r\n5000\r\n",
        );
        assert_eq!(reply, RespValue::Integer(1));
        {
            let g = group.lock();
            let remotes = g.remote_followers();
            assert_eq!(remotes.len(), 1);
            assert_eq!(remotes[0].0, 77);
            assert!(remotes[0].1 >= 1, "remote ack not recorded");
        }
        stop.store(true, Ordering::Relaxed);
        let db = pump.join().unwrap();
        let key = TableEngine::storage_string_key(0, b"k");
        assert_eq!(
            db.get(&key, 0).unwrap().value.as_deref(),
            Some(&b"v"[..]),
            "the write is not on the follower"
        );
    }

    #[test]
    fn wait_blocks_on_replica_acks() {
        use abase_replication::{GroupConfig, ReplicaGroup, WriteConcern};
        let dir = TestDir::new("wait-repl");
        let group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[1, 2, 3],
            GroupConfig {
                // Async at write time: WAIT is what forces shipping.
                write_concern: WriteConcern::Async,
                db: DbConfig::small_for_tests(),
                wait_timeout: Duration::from_millis(100),
            },
        )
        .unwrap();
        let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
        let group = Arc::new(group.into_mutex());
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut client = TcpStream::connect(addr).unwrap();
        roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
        // Before WAIT nothing shipped; WAIT 2 forces both followers to ack.
        let reply = roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n2\r\n$3\r\n100\r\n");
        assert_eq!(reply, RespValue::Integer(2));
        // The write is now durable on every follower.
        let g = group.lock();
        let lsn = g.leader_db().unwrap().last_seq();
        assert_eq!(g.acked_count(lsn), 3);
    }
}
