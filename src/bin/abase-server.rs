//! Standalone ABase node: a RESP2 server over the LSM engine.
//!
//! Usage: `cargo run --release --bin abase-server -- [addr] [data-dir] [mode]`
//! (defaults: 127.0.0.1:7379, ./abase-data, plain). Connect with any Redis
//! client; `AUTH <tenant-id>` selects the tenant namespace.
//!
//! The third argument selects the node's replication role:
//!
//! * *(absent)* or `1` — plain unreplicated node.
//! * `<n>` (n > 1) — front a **local** WAL-shipping replica group of `n`
//!   replicas: writes commit under the group's write concern, `WAIT` fences
//!   on follower acks, `CONSISTENCY eventual|readyourwrites` routes GETs to
//!   follower replicas.
//! * `leader` — lead a **cross-process** replica group: a single local
//!   replica that accepts `REPLCONF`/`PSYNC` follower connections on the
//!   RESP port. Quorum spans this process and every registered follower.
//! * `follow <leader-addr> [replica-id]` — run as a follower of the leader
//!   at `leader-addr`: a `replication::Follower` (the same type a local
//!   group's members are) over a socket transport pulls a checkpoint
//!   (`PSYNC`), tails the leader's WAL, acks via `REPLCONF ACK`, and this
//!   process serves **read-only** RESP traffic from the replicated store.
//!   The optional positional `replica-id` (default 2) names this follower
//!   in the leader's accounting.
//!
//! Two terminals make a replica group:
//!
//! ```text
//! abase-server 127.0.0.1:7379 ./leader-data leader
//! abase-server 127.0.0.1:7380 ./follower-data follow 127.0.0.1:7379
//! ```

use abase::core::{ReplInfo, ReplicationControl, RespServer, TableEngine};
use abase::lavastore::DbConfig;
use abase::replication::{Follower, GroupConfig, PumpStatus, ReplicaGroup, WriteConcern};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The event-loop front end is fd-bound, not thread-bound: lift
    // RLIMIT_NOFILE toward the hard cap up front so a 50k-connection tier
    // doesn't die on EMFILE (see TESTING.md on raising the hard cap itself).
    if let Ok(limit) = abase::util::poller::raise_nofile_limit(1 << 20) {
        if limit < 65_536 {
            eprintln!("abase-server: RLIMIT_NOFILE capped at {limit}; large connection tiers need a raised hard cap");
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = args
        .first()
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7379".to_string());
    let dir = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "./abase-data".to_string());
    let mode = args.get(2).map(String::as_str).unwrap_or("1");
    match mode {
        "follow" => {
            let leader = args
                .get(3)
                .cloned()
                .ok_or("follow mode needs the leader address: ... follow <addr>")?;
            let replica_id: u32 = args.get(4).map(|r| r.parse()).transpose()?.unwrap_or(2);
            run_follower(&addr, &dir, &leader, replica_id)
        }
        "leader" => run_replicated(&addr, &dir, 1, true),
        n => {
            let replicas: u32 = n.parse()?;
            if replicas > 1 {
                run_replicated(&addr, &dir, replicas, false)
            } else {
                run_plain(&addr, &dir)
            }
        }
    }
}

/// Apply `ABASE_SLOWLOG_MICROS` (capture threshold in µs; `0` logs every
/// command, negative disables) to a freshly bound server's SLOWLOG.
fn apply_slowlog_env(server: &RespServer) {
    if let Some(micros) = std::env::var("ABASE_SLOWLOG_MICROS")
        .ok()
        .and_then(|v| v.parse::<i64>().ok())
    {
        server.slowlog().set_threshold_micros(micros);
    }
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// Engine configuration from the environment: `ABASE_BLOCK_CACHE_BYTES`
/// sizes the shared node cache, blocks and rows together (0 disables it;
/// default ~64 MiB).
fn db_config_from_env() -> DbConfig {
    let mut config = DbConfig::default();
    if let Some(bytes) = env_parse::<usize>("ABASE_BLOCK_CACHE_BYTES") {
        config.block_cache_bytes = bytes;
    }
    config
}

/// Front-end tuning from the environment: `ABASE_IO_THREADS` (event-loop
/// worker count), `ABASE_MAX_CLIENTS` (connection cap), and
/// `ABASE_IDLE_TIMEOUT_SECS` (idle-connection reaper; 0 disables).
fn apply_front_end_env(mut server: RespServer) -> RespServer {
    if let Some(workers) = env_parse::<usize>("ABASE_IO_THREADS") {
        server = server.io_threads(workers);
    }
    if let Some(cap) = env_parse::<usize>("ABASE_MAX_CLIENTS") {
        server = server.max_clients(cap);
    }
    if let Some(secs) = env_parse::<u64>("ABASE_IDLE_TIMEOUT_SECS") {
        if secs > 0 {
            server = server.idle_timeout(std::time::Duration::from_secs(secs));
        }
    }
    server
}

fn run_plain(addr: &str, dir: &str) -> Result<(), Box<dyn std::error::Error>> {
    let engine = Arc::new(TableEngine::open(dir, db_config_from_env())?);
    let server = apply_front_end_env(RespServer::bind(Arc::clone(&engine), addr)?);
    apply_slowlog_env(&server);
    println!(
        "abase-server listening on {} (data in {dir}, unreplicated)",
        server.local_addr()?
    );
    spawn_clock(server.clock(), move || {
        let _ = engine.db().flush_wal();
    });
    server.run()?;
    Ok(())
}

/// A replica-group leader: `local_replicas` in-process members, plus — when
/// `accept_remote` — `PSYNC` followers from other processes.
fn run_replicated(
    addr: &str,
    dir: &str,
    local_replicas: u32,
    accept_remote: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let ids: Vec<u32> = (1..=local_replicas).collect();
    let group = ReplicaGroup::bootstrap(
        0,
        dir,
        &ids,
        GroupConfig::new(WriteConcern::Quorum, db_config_from_env()),
    )?;
    let engine = Arc::new(TableEngine::from_db(group.leader_db()?));
    let group = Arc::new(group.into_mutex());
    let server = apply_front_end_env(
        RespServer::bind(Arc::clone(&engine), addr)?
            .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>),
    );
    apply_slowlog_env(&server);
    println!(
        "abase-server listening on {} (data in {dir}, {} local replica(s){})",
        server.local_addr()?,
        local_replicas,
        if accept_remote {
            ", accepting PSYNC followers"
        } else {
            ""
        }
    );
    // Drive virtual time from the wall clock (microseconds since start), and
    // flush the WAL to the OS on the same cadence: appends sit in a buffered
    // writer, so without this a SIGKILL could lose an unbounded number of
    // acknowledged writes. This bounds the loss window to one tick (fsync
    // per append is the `sync_wal` config for machines that need zero loss).
    // The same cadence pumps local followers, so `CONSISTENCY eventual`
    // reads converge without a client-issued WAIT; remote followers are
    // pumped by their own connection threads.
    spawn_clock(server.clock(), move || {
        let _ = engine.db().flush_wal();
        let _ = group.lock().tick();
    });
    server.run()?;
    Ok(())
}

/// A socket follower: read-only RESP server over a store kept in sync by
/// pumping the leader's PSYNC stream.
fn run_follower(
    addr: &str,
    dir: &str,
    leader: &str,
    replica_id: u32,
) -> Result<(), Box<dyn std::error::Error>> {
    let listening_port: u16 = addr
        .rsplit(':')
        .next()
        .and_then(|p| p.parse().ok())
        .unwrap_or(0);
    let mut follower = Follower::connect(
        dir,
        db_config_from_env(),
        leader,
        replica_id,
        listening_port,
    )?;
    let engine = Arc::new(TableEngine::from_db(follower.db()));
    // The pump loop owns the link the server cannot see; these shared cells
    // feed `INFO replication` on the follower (role, applied LSN, link
    // status) so it is no longer blind about its own replication state.
    let applied_lsn = Arc::new(AtomicU64::new(follower.last_seq()));
    let link_up = Arc::new(AtomicBool::new(true));
    let server = {
        let applied_lsn = Arc::clone(&applied_lsn);
        let link_up = Arc::clone(&link_up);
        let leader = leader.to_string();
        apply_front_end_env(RespServer::bind(Arc::clone(&engine), addr)?)
            .read_only()
            .with_repl_info(Arc::new(move || ReplInfo {
                role: "follower",
                last_lsn: applied_lsn.load(Ordering::Relaxed),
                leader_addr: Some(leader.clone()),
                link_status: if link_up.load(Ordering::Relaxed) {
                    "up"
                } else {
                    "down"
                },
                followers: Vec::new(),
            }))
    };
    apply_slowlog_env(&server);
    println!(
        "abase-server listening on {} (data in {dir}, following {leader} as replica {replica_id}, read-only)",
        server.local_addr()?
    );
    spawn_clock(server.clock(), || {});
    // The pump runs on its own fast cadence — commit latency on the leader
    // is bounded by how quickly this loop acks, not by the 100 ms clock.
    std::thread::spawn(move || loop {
        match follower.pump() {
            // A full resync replaced the store wholesale: the serving engine
            // switches to the fresh handle.
            Ok(PumpStatus::Resynced) => engine.swap_db(follower.db()),
            Ok(_) => {}
            Err(e) => {
                eprintln!("follower pump: {e}");
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
        applied_lsn.store(follower.last_seq(), Ordering::Relaxed);
        // The transport tracks socket liveness; pump results can't (a dead
        // link polls as "no records", indistinguishable from an idle
        // leader), so link_status comes from the transport.
        link_up.store(follower.link_up(), Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(2));
    });
    server.run()?;
    Ok(())
}

/// The 100 ms housekeeping tick every mode shares: advance the virtual
/// clock, then run the mode's own upkeep (WAL flush, group tick, or
/// follower pump).
fn spawn_clock(
    clock: Arc<std::sync::atomic::AtomicU64>,
    mut upkeep: impl FnMut() + Send + 'static,
) {
    let started = std::time::Instant::now();
    std::thread::spawn(move || loop {
        clock.store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        upkeep();
        std::thread::sleep(std::time::Duration::from_millis(100));
    });
}
