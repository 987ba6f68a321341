//! Two OS processes forming a replica group over a real socket.
//!
//! ```text
//! cargo run --release --example replication_psync
//! ```
//!
//! The driver (no arguments) re-spawns this same binary twice:
//!
//! * `leader <dir>` — a RESP server leading a replica group, accepting
//!   `REPLCONF`/`PSYNC` follower connections on its port.
//! * `follower <dir> <leader-addr>` — a read-only RESP server whose store is
//!   kept in sync by a `replication::Follower` over a socket transport: its
//!   first pump stages a checkpoint (`PSYNC ? -1` → `FULLRESYNC`) and swaps
//!   it in, every later one tails the leader's WAL, acking `REPLCONF ACK`.
//!
//! The scenario then runs over raw RESP:
//!
//! 1. wait until the follower has attached (its connection satisfies
//!    `WAIT 1`),
//! 2. quorum-write through the leader — `+OK` means the follower's ack
//!    crossed the socket before the client saw the reply,
//! 3. read the same keys from the follower process,
//! 4. `kill -9` the leader; the follower keeps serving every acked write,
//!    and refuses writes with `-READONLY`.
//!
//! This is the §3.3 deployment shape: replicas on different machines, the
//! log shipped over the network, zero acked writes lost on leader death.

use abase::core::{ReplInfo, ReplicationControl, RespServer, TableEngine};
use abase::lavastore::DbConfig;
use abase::proto::RespValue;
use abase::replication::{Follower, GroupConfig, PumpStatus, ReplicaGroup, WriteConcern};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("leader") => run_leader(&args[1]),
        Some("follower") => run_follower(&args[1], &args[2]),
        _ => run_driver(),
    }
}

// ---------------------------------------------------------------------------
// Child roles
// ---------------------------------------------------------------------------

fn run_leader(dir: &str) -> Result<(), Box<dyn std::error::Error>> {
    let group = ReplicaGroup::bootstrap(
        0,
        dir,
        &[1],
        GroupConfig::new(WriteConcern::Quorum, DbConfig::small_for_tests()),
    )?;
    let engine = Arc::new(TableEngine::from_db(group.leader_db()?));
    let group = Arc::new(group.into_mutex());
    let server = RespServer::bind(engine, "127.0.0.1:0")?
        .with_replication(group as Arc<dyn ReplicationControl>);
    println!("ADDR {}", server.local_addr()?);
    std::io::stdout().flush()?;
    server.run()?;
    Ok(())
}

fn run_follower(dir: &str, leader: &str) -> Result<(), Box<dyn std::error::Error>> {
    let mut follower = Follower::connect(dir, DbConfig::small_for_tests(), leader, 2, 0)?;
    let engine = Arc::new(TableEngine::from_db(follower.db()));
    // Same wiring as `abase-server follow`: the pump thread owns the link,
    // so shared cells feed `INFO replication` (applied LSN, link status).
    let applied_lsn = Arc::new(AtomicU64::new(follower.last_seq()));
    let link_up = Arc::new(AtomicBool::new(true));
    let server = {
        let applied_lsn = Arc::clone(&applied_lsn);
        let link_up = Arc::clone(&link_up);
        let leader = leader.to_string();
        RespServer::bind(Arc::clone(&engine), "127.0.0.1:0")?
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
    println!("ADDR {}", server.local_addr()?);
    std::io::stdout().flush()?;
    std::thread::spawn(move || loop {
        match follower.pump() {
            Ok(PumpStatus::Resynced) => engine.swap_db(follower.db()),
            Ok(_) => {}
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
        applied_lsn.store(follower.last_seq(), Ordering::Relaxed);
        // The transport knows whether the socket is alive; pump results
        // don't (a dead link polls as "no records", same as an idle leader).
        link_up.store(follower.link_up(), Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(1));
    });
    server.run()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Resp(TcpStream);

impl Resp {
    fn connect(addr: &str) -> std::io::Result<Self> {
        Ok(Self(TcpStream::connect(addr)?))
    }

    fn cmd(&mut self, parts: &[&str]) -> Result<RespValue, Box<dyn std::error::Error>> {
        let mut out = format!("*{}\r\n", parts.len()).into_bytes();
        for p in parts {
            out.extend_from_slice(format!("${}\r\n{p}\r\n", p.len()).as_bytes());
        }
        self.0.write_all(&out)?;
        let mut buffer = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((value, _)) = RespValue::parse(&buffer)? {
                return Ok(value);
            }
            let n = self.0.read(&mut chunk)?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            buffer.extend_from_slice(&chunk[..n]);
        }
    }
}

/// `INFO replication` as text.
fn info_text(client: &mut Resp) -> Result<String, Box<dyn std::error::Error>> {
    match client.cmd(&["INFO", "replication"])? {
        RespValue::Bulk(Some(b)) => Ok(String::from_utf8(b.to_vec())?),
        other => Err(format!("INFO returned {other:?}").into()),
    }
}

/// The value of a `key:value` INFO line.
fn info_field(info: &str, key: &str) -> Option<String> {
    info.lines()
        .find_map(|l| l.strip_prefix(&format!("{key}:")))
        .map(|v| v.trim_end().to_string())
}

fn spawn_role(role: &[&str]) -> Result<(Child, String), Box<dyn std::error::Error>> {
    let mut child = Command::new(std::env::current_exe()?)
        .args(role)
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines.next().ok_or("child exited before printing ADDR")??;
        if let Some(addr) = line.strip_prefix("ADDR ") {
            break addr.to_string();
        }
    };
    // Keep draining the child's stdout so it never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    Ok((child, addr))
}

fn run_driver() -> Result<(), Box<dyn std::error::Error>> {
    let base = std::env::temp_dir().join(format!("abase-psync-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base)?;
    let leader_dir = base.join("leader");
    let follower_dir = base.join("follower");

    println!("== spawning the leader process");
    let (mut leader, leader_addr) = spawn_role(&["leader", leader_dir.to_str().unwrap()])?;
    println!("   leader RESP at {leader_addr}");

    println!("== spawning the follower process (PSYNC over the socket)");
    let (mut follower, follower_addr) =
        spawn_role(&["follower", follower_dir.to_str().unwrap(), &leader_addr])?;
    println!("   follower RESP at {follower_addr}");

    let mut client = Resp::connect(&leader_addr)?;
    // Until the follower's PSYNC lands, WAIT reports 0 connected followers.
    print!("== waiting for the follower to attach ");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let RespValue::Integer(n) = client.cmd(&["WAIT", "1", "100"])? {
            if n >= 1 {
                break;
            }
        }
        print!(".");
        std::io::stdout().flush()?;
        if Instant::now() > deadline {
            return Err("follower never attached".into());
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    println!(" attached");

    println!("== quorum writes through the leader (+OK ⇒ the follower's REPLCONF ACK crossed the socket)");
    for i in 0..50 {
        let reply = client.cmd(&["SET", &format!("user:{i}"), &format!("profile-{i}")])?;
        assert_eq!(reply, RespValue::ok(), "quorum write {i} failed: {reply:?}");
    }
    let acked = client.cmd(&["WAIT", "1", "2000"])?;
    assert_eq!(
        acked,
        RespValue::Integer(1),
        "WAIT did not see the follower"
    );
    println!("   50 writes quorum-acked, WAIT 1 -> 1");

    println!("== INFO replication on both processes");
    let leader_info = info_text(&mut client)?;
    assert_eq!(info_field(&leader_info, "role").as_deref(), Some("leader"));
    let leader_lsn: u64 = info_field(&leader_info, "last_applied_lsn")
        .ok_or("leader INFO lacks last_applied_lsn")?
        .parse()?;
    assert!(
        leader_lsn >= 50,
        "leader LSN {leader_lsn} below the 50 writes"
    );
    assert!(
        leader_info.contains("follower0:id=2,"),
        "leader INFO does not list the remote follower:\n{leader_info}"
    );
    println!("   leader: role=leader last_applied_lsn={leader_lsn}, lists follower id=2");

    let mut freader = Resp::connect(&follower_addr)?;
    let follower_info = info_text(&mut freader)?;
    assert_eq!(
        info_field(&follower_info, "role").as_deref(),
        Some("follower"),
        "follower INFO:\n{follower_info}"
    );
    assert_eq!(
        info_field(&follower_info, "leader_addr").as_deref(),
        Some(leader_addr.as_str())
    );
    assert_eq!(
        info_field(&follower_info, "link_status").as_deref(),
        Some("up")
    );
    let follower_lsn: u64 = info_field(&follower_info, "last_applied_lsn")
        .ok_or("follower INFO lacks last_applied_lsn")?
        .parse()?;
    assert!(follower_lsn > 0, "follower applied nothing");
    println!(
        "   follower: role=follower leader_addr={leader_addr} link=up last_applied_lsn={follower_lsn}"
    );

    println!("== reading the replicated keys from the follower process");
    for i in [0usize, 17, 49] {
        let reply = freader.cmd(&["GET", &format!("user:{i}")])?;
        assert_eq!(
            reply,
            RespValue::bulk(format!("profile-{i}")),
            "follower missing user:{i}"
        );
    }
    println!("   follower serves the quorum-acked writes");

    println!("== killing the leader process (SIGKILL)");
    leader.kill()?;
    leader.wait()?;
    // Every acked write survives on the follower, which keeps serving reads.
    for i in [0usize, 25, 49] {
        let reply = freader.cmd(&["GET", &format!("user:{i}")])?;
        assert_eq!(
            reply,
            RespValue::bulk(format!("profile-{i}")),
            "acked write user:{i} lost after leader death"
        );
    }
    println!("   follower still serves every acked write");
    // The pump notices the dead socket; INFO flips the link to `down`.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let info = info_text(&mut freader)?;
        if info_field(&info, "link_status").as_deref() == Some("down") {
            println!("   follower INFO reports link_status:down after leader death");
            break;
        }
        if Instant::now() > deadline {
            return Err(format!("link never reported down:\n{info}").into());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let reply = freader.cmd(&["SET", "rogue", "write"])?;
    match reply {
        RespValue::Error(e) if e.starts_with("READONLY") => {
            println!("   follower refuses writes: {e}")
        }
        other => return Err(format!("expected READONLY, got {other:?}").into()),
    }

    follower.kill()?;
    follower.wait()?;
    std::fs::remove_dir_all(&base).ok();
    println!("== OK: two processes, one replica group, zero acked writes lost");
    Ok(())
}
