//! The shipped binary's roles, as operating-system processes:
//! `abase-server … leader` and `abase-server … follow <addr>` form a replica
//! group over a real socket, the leader is killed with SIGKILL, and the
//! follower still holds every write the leader acknowledged.

mod common;

use abase::proto::RespValue;
use abase::util::TestDir;
use common::{eventually, Client};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `abase-server`, killed when dropped.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Start the binary on an ephemeral port over `dir` in `mode` and read
    /// its address off the `listening on` banner.
    fn spawn(dir: &Path, mode: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_abase-server"))
            .arg("127.0.0.1:0")
            .arg(dir)
            .args(mode)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn abase-server");
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let banner = lines
            .next()
            .expect("abase-server exited before its banner")
            .expect("banner is text");
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in {banner:?}"))
            .to_string();
        // Keep draining so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        Self { child, addr }
    }

    fn kill(&mut self) {
        self.child.kill().expect("kill -9");
        self.child.wait().expect("reap");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn leader_and_follower_processes_lose_no_acked_write() {
    let dir = TestDir::new("server-roles");
    let mut leader = Server::spawn(&dir.join("leader"), &["leader"]);
    let follower = Server::spawn(&dir.join("follower"), &["follow", &leader.addr]);
    let mut client = Client::connect(&leader.addr);
    // Until the follower's PSYNC lands, WAIT reports 0 connected followers.
    eventually("the follower to attach", || {
        client.cmd(&["WAIT", "1", "100"]) == RespValue::Integer(1)
    });

    // +OK means the follower's REPLCONF ACK crossed the socket first.
    let keys: Vec<String> = (0..50).map(|i| format!("user:{i}")).collect();
    for key in &keys {
        assert_eq!(
            client.cmd(&["SET", key, &format!("profile-{key}")]),
            RespValue::ok()
        );
    }
    assert_eq!(
        client.cmd(&["SET", "brief", "v", "EX", "1"]),
        RespValue::ok()
    );
    let expires = Instant::now() + Duration::from_secs(1);
    assert_eq!(client.cmd(&["WAIT", "1", "2000"]), RespValue::Integer(1));

    // INFO replication on both processes.
    assert_eq!(client.repl_field("role").as_deref(), Some("leader"));
    let leader_lsn: u64 = client
        .repl_field("last_applied_lsn")
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        leader_lsn >= 51,
        "leader LSN {leader_lsn} below its 51 writes"
    );
    assert_eq!(client.repl_field("link_status").as_deref(), Some("n/a"));
    assert_eq!(
        client.repl_field("connected_followers").as_deref(),
        Some("1")
    );
    let listed = client
        .repl_field("follower0")
        .expect("the follower is listed");
    assert!(listed.starts_with("id=2,"), "{listed}");
    assert!(listed.ends_with("connected=1"), "{listed}");

    let mut reader = Client::connect(&follower.addr);
    assert_eq!(reader.repl_field("role").as_deref(), Some("follower"));
    assert_eq!(
        reader.repl_field("leader_addr").as_deref(),
        Some(leader.addr.as_str())
    );
    assert_eq!(reader.repl_field("link_status").as_deref(), Some("up"));
    assert_eq!(
        reader.repl_field("connected_followers").as_deref(),
        Some("0")
    );
    eventually("the follower to report the leader's LSN", || {
        reader.repl_field("last_applied_lsn").unwrap().parse() == Ok(leader_lsn)
    });
    assert_eq!(reader.get("user:17"), RespValue::bulk("profile-user:17"));
    match reader.cmd(&["SET", "rogue", "write"]) {
        RespValue::Error(e) => assert!(e.starts_with("READONLY"), "{e}"),
        other => panic!("the follower accepted a write: {other:?}"),
    }

    // The leader dies; the follower keeps serving every acked write, notices
    // the dead socket, and stays read-only.
    leader.kill();
    for key in &keys {
        assert_eq!(
            reader.get(key),
            RespValue::bulk(format!("profile-{key}")),
            "acked write {key} lost after leader death"
        );
    }
    eventually("the follower to report its link down", || {
        reader.repl_field("link_status").as_deref() == Some("down")
    });
    assert!(matches!(
        reader.cmd(&["SET", "rogue", "write"]),
        RespValue::Error(_)
    ));

    // The leader's directory recovers in a new process, and a TTL written
    // before the crash still ends when it was due: expiries live on the wall
    // clock, not on the dead process's uptime.
    let leader = Server::spawn(&dir.join("leader"), &["leader"]);
    let mut client = Client::connect(&leader.addr);
    assert_eq!(client.get("user:49"), RespValue::bulk("profile-user:49"));
    std::thread::sleep(
        expires.saturating_duration_since(Instant::now()) + Duration::from_millis(300),
    );
    assert_eq!(client.get("brief"), RespValue::Bulk(None));
    assert_eq!(reader.get("brief"), RespValue::Bulk(None));
}
