//! Standalone ABase node: a RESP2 server over the LSM engine. This file is
//! argument and environment parsing; the node itself — store, front end,
//! housekeeping tick, follower pump — is [`abase::core::ServingNode`].
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
//! Every mode flushes its WAL to the OS every 100 ms (a `kill -9` loses at
//! most that window) and runs TTLs on the wall clock, so an expiry means the
//! same instant after a restart and on every member of a group.
//!
//! Two terminals make a replica group:
//!
//! ```text
//! abase-server 127.0.0.1:7379 ./leader-data leader
//! abase-server 127.0.0.1:7380 ./follower-data follow 127.0.0.1:7379
//! ```

use abase::core::{NodeRole, RespServer, ServingNode};
use abase::lavastore::DbConfig;

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
    let addr = args.first().map_or("127.0.0.1:7379", String::as_str);
    let dir = args.get(1).map_or("./abase-data", String::as_str);
    let (role, serves) = match args.get(2).map_or("1", String::as_str) {
        "follow" => {
            let leader = args
                .get(3)
                .ok_or("follow mode needs the leader address: ... follow <addr>")?;
            let replica_id: u32 = args.get(4).map(|r| r.parse()).transpose()?.unwrap_or(2);
            (
                NodeRole::Follower {
                    leader_addr: leader.clone(),
                    replica_id,
                },
                format!("following {leader} as replica {replica_id}, read-only"),
            )
        }
        "leader" => (
            NodeRole::Leader { local_replicas: 1 },
            "1 local replica(s), accepting PSYNC followers".to_string(),
        ),
        n => match n.parse::<u32>()? {
            0 | 1 => (NodeRole::Plain, "unreplicated".to_string()),
            local_replicas => (
                NodeRole::Leader { local_replicas },
                format!("{local_replicas} local replica(s)"),
            ),
        },
    };
    let node = ServingNode::open_tuned(addr, dir, db_config_from_env(), role, front_end_from_env)?;
    println!(
        "abase-server listening on {} (data in {dir}, {serves})",
        node.local_addr()
    );
    node.wait()?;
    Ok(())
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
/// worker count), `ABASE_MAX_CLIENTS` (connection cap),
/// `ABASE_IDLE_TIMEOUT_SECS` (idle-connection reaper; 0 disables) and
/// `ABASE_SLOWLOG_MICROS` (SLOWLOG capture threshold in µs; `0` logs every
/// command, negative disables).
fn front_end_from_env(mut server: RespServer) -> RespServer {
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
    if let Some(micros) = env_parse::<i64>("ABASE_SLOWLOG_MICROS") {
        server.slowlog().set_threshold_micros(micros);
    }
    server
}
