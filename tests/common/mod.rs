//! A minimal RESP client for the node-level tests.
#![allow(dead_code)]

use abase::proto::RespValue;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

pub struct Client(TcpStream);

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> Self {
        Self(TcpStream::connect(addr).expect("connect"))
    }

    /// Send one command, read one reply.
    pub fn cmd(&mut self, parts: &[&str]) -> RespValue {
        let frame = RespValue::array(
            parts
                .iter()
                .map(|p| RespValue::bulk(p.as_bytes().to_vec()))
                .collect(),
        );
        self.0.write_all(&frame.to_bytes()).expect("send");
        let mut buffer = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((value, _)) = RespValue::parse(&buffer).expect("reply parses") {
                return value;
            }
            let n = self.0.read(&mut chunk).expect("read reply");
            assert!(n > 0, "server closed the connection");
            buffer.extend_from_slice(&chunk[..n]);
        }
    }

    pub fn get(&mut self, key: &str) -> RespValue {
        self.cmd(&["GET", key])
    }

    /// The value of `field` in `INFO replication`.
    pub fn repl_field(&mut self, field: &str) -> Option<String> {
        let RespValue::Bulk(Some(info)) = self.cmd(&["INFO", "replication"]) else {
            panic!("INFO replication did not return a bulk string");
        };
        let info = String::from_utf8(info.to_vec()).expect("INFO is text");
        info.lines()
            .find_map(|l| l.strip_prefix(&format!("{field}:")))
            .map(|v| v.trim_end().to_string())
    }
}

/// Poll `ready` until it holds, failing with `what` after ten seconds.
pub fn eventually(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}
