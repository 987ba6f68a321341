//! Two OS processes forming a replica group over a real socket.
//!
//! ```text
//! cargo run --release --example replication_psync
//! ```
//!
//! The driver (no arguments) re-spawns this same binary twice, each child a
//! [`ServingNode`] — what `abase-server leader` / `abase-server follow` run:
//!
//! * `leader <dir>` — leads a replica group, accepting `REPLCONF`/`PSYNC`
//!   follower connections on its RESP port.
//! * `follower <dir> <leader-addr>` — a read-only node whose store is kept in
//!   sync over the socket: its first pump stages a checkpoint (`PSYNC ? -1`
//!   → `FULLRESYNC`) and swaps it in, every later one tails the leader's WAL,
//!   acking `REPLCONF ACK`.
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
//! `tests/server_roles.rs` asserts the same scenario, and what `INFO
//! replication` says on both sides of it, against the `abase-server` binary.

use abase::core::{NodeRole, ServingNode};
use abase::lavastore::DbConfig;
use abase::proto::RespValue;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("leader") => run_node(&args[1], NodeRole::Leader { local_replicas: 1 }),
        Some("follower") => run_node(
            &args[1],
            NodeRole::Follower {
                leader_addr: args[2].clone(),
                replica_id: 2,
            },
        ),
        _ => run_driver(),
    }
}

/// A child process: one node, its address on stdout, serving until killed.
fn run_node(dir: &str, role: NodeRole) -> Result<(), Box<dyn std::error::Error>> {
    let node = ServingNode::open("127.0.0.1:0", dir, DbConfig::small_for_tests(), role)?;
    println!("ADDR {}", node.local_addr());
    std::io::stdout().flush()?;
    node.wait()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Resp(TcpStream);

impl Resp {
    fn cmd(&mut self, parts: &[&str]) -> Result<RespValue, Box<dyn std::error::Error>> {
        let frame = RespValue::array(
            parts
                .iter()
                .map(|p| RespValue::bulk(p.to_string()))
                .collect(),
        );
        self.0.write_all(&frame.to_bytes())?;
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

    let mut client = Resp(TcpStream::connect(&leader_addr)?);
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

    let mut freader = Resp(TcpStream::connect(&follower_addr)?);
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
