//! The load generator: blocking RESP connections, the closed-loop phases that
//! drive them (one thread per connection), and the fixed schedule the
//! latency metrics are read off.

use crate::gen::{encode_op, reply_ok, Op, OpGen};
use crate::resp::{self, Reply};
use crate::server::check_interrupted;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Pipeline depth of the load, warm and sat phases: one flight of this many
/// requests per connection, the next after all its replies.
pub const SAT_DEPTH: usize = 16;
/// The sat phase is cut into windows of this length and reports the median
/// window, so one hiccup of the sandbox moves one window and not the result.
pub const SAT_WINDOW: Duration = Duration::from_millis(200);
/// The schedule the latency metrics assume: every connection owes one
/// request each interval (20 k/s per connection), whatever happened before.
pub const SCHEDULE_INTERVAL_NS: u64 = 50_000;
/// Window of scheduled time the latency percentiles are taken over before
/// their median is reported: 20 k requests per connection.
pub const SCHEDULE_WINDOW_NS: u64 = 1_000_000_000;

/// A reply that takes this long is a hung server, not a slow one.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// `buf[start..end]` holds bytes read and not yet consumed.
    start: usize,
    end: usize,
}

impl Conn {
    /// Connect and authenticate as `tenant` (0 = stay the default tenant).
    pub fn connect(addr: &str, tenant: u32) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut conn = Conn {
            stream,
            buf: vec![0; 64 << 10],
            start: 0,
            end: 0,
        };
        if tenant != 0 {
            let reply = conn.call(&[b"AUTH", tenant.to_string().as_bytes()])?;
            if reply != b"OK" {
                return Err(format!(
                    "AUTH {tenant}: {}",
                    String::from_utf8_lossy(&reply)
                ));
            }
        }
        Ok(conn)
    }

    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))
    }

    /// Block until one whole reply frame is buffered and return it. The
    /// frame borrows the buffer: use it before the next call.
    pub fn reply(&mut self) -> Result<Reply<'_>, String> {
        let len = loop {
            if let Some(len) = resp::frame_len(&self.buf[self.start..self.end])? {
                break len;
            }
            self.fill()?;
        };
        let frame = &self.buf[self.start..self.start + len];
        self.start += len;
        resp::classify(frame)
    }

    fn fill(&mut self) -> Result<(), String> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            // A frame straddles the end: move it to the front, and grow when
            // it is larger than the buffer (METRICS and INFO replies).
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        match self.stream.read(&mut self.buf[self.end..]) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.end += n;
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// One command, one reply, as owned bytes: the payload of a simple or
    /// bulk reply. Anything else is an error. For the control path.
    pub fn call(&mut self, parts: &[&[u8]]) -> Result<Vec<u8>, String> {
        let mut wire = Vec::new();
        resp::encode(&mut wire, parts);
        self.send(&wire)?;
        match self.reply()? {
            Reply::Simple(s) | Reply::Bulk(s) => Ok(s.to_vec()),
            other => Err(format!(
                "{}: unexpected reply {other:?}",
                String::from_utf8_lossy(parts[0])
            )),
        }
    }
}

/// What one connection did in one phase.
#[derive(Debug, Default, Clone)]
pub struct PhaseLog {
    pub attempted: u64,
    pub failed: u64,
    pub gets: u64,
    pub sets: u64,
    /// Sat: ops completed in each [`SAT_WINDOW`] since the phase began.
    pub window_ops: Vec<u64>,
    /// Sat: round trip of every flight, ns.
    pub flight_ns: Vec<u32>,
    /// Depth-1: send -> reply of every request in order, ns.
    pub service_ns: Vec<u32>,
}

impl PhaseLog {
    fn count(&mut self, op: Op, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        if op.is_get() {
            self.gets += 1;
        } else {
            self.sets += 1;
        }
    }
}

fn saturating_ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// What the requests of one connection would have waited and taken had they
/// been due one every [`SCHEDULE_INTERVAL_NS`]: request `i` starts when it is
/// due or when reply `i - 1` arrives, whichever is later, takes its measured
/// service time, and is timed from its due time. So a stall is charged to
/// every request queued behind it. Returns, per [`SCHEDULE_WINDOW_NS`] of
/// scheduled time, each request's `(wait before its start, due -> reply)`.
pub fn on_schedule(service_ns: &[u32]) -> Vec<Vec<(u32, u32)>> {
    let mut windows: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut free_at = 0u64;
    for (i, &service) in service_ns.iter().enumerate() {
        let due = i as u64 * SCHEDULE_INTERVAL_NS;
        let start = due.max(free_at);
        free_at = start + u64::from(service);
        let window = (due / SCHEDULE_WINDOW_NS) as usize;
        if windows.len() <= window {
            windows.resize(window + 1, Vec::new());
        }
        let clamp = |ns: u64| u32::try_from(ns).unwrap_or(u32::MAX);
        windows[window].push((clamp(start - due), clamp(free_at - due)));
    }
    windows
}

/// One connection's generator state across phases.
#[derive(Debug)]
pub struct Driver<'a> {
    pub conn: Conn,
    pub gen: OpGen<'a>,
    wire: Vec<u8>,
    scratch: Vec<u8>,
    flight: Vec<Op>,
}

/// Where a closed-loop phase takes its ops from and when it ends.
#[derive(Debug, Clone, Copy)]
pub enum Closed {
    /// First write of keys `0..records` (the load).
    Load,
    /// This many ops of the measured stream (the warm pass).
    Ops(u64),
    /// The measured stream until the deadline (the sat phase).
    For(Duration),
}

impl<'a> Driver<'a> {
    pub fn new(conn: Conn, gen: OpGen<'a>) -> Self {
        Driver {
            conn,
            gen,
            wire: Vec::new(),
            scratch: Vec::new(),
            flight: Vec::new(),
        }
    }

    /// Send `self.flight` in one write, then read and check every reply.
    fn fly(&mut self, log: &mut PhaseLog) -> Result<(), String> {
        let (tenant, len) = (self.gen.tenant, self.gen.workload().value_len);
        self.wire.clear();
        for &op in &self.flight {
            encode_op(&mut self.wire, &mut self.scratch, op, tenant, len);
        }
        self.conn.send(&self.wire)?;
        for &op in &self.flight {
            let reply = self.conn.reply()?;
            log.count(op, reply_ok(op, reply, &mut self.scratch, tenant, len));
        }
        Ok(())
    }

    /// Closed loop: a flight of [`SAT_DEPTH`] requests in one write, then
    /// all its replies, then the next flight.
    pub fn closed_loop(&mut self, what: Closed) -> Result<PhaseLog, String> {
        let mut log = PhaseLog::default();
        let started = Instant::now();
        let mut next_key = 0u32;
        let mut remaining = match what {
            Closed::Load => u64::from(self.gen.workload().records),
            Closed::Ops(n) => n,
            Closed::For(_) => u64::MAX,
        };
        while remaining > 0 && !matches!(what, Closed::For(limit) if started.elapsed() >= limit) {
            check_interrupted()?;
            self.flight.clear();
            for _ in 0..remaining.min(SAT_DEPTH as u64) {
                let op = match what {
                    Closed::Load => {
                        next_key += 1;
                        self.gen.load_op(next_key - 1)
                    }
                    _ => self.gen.next_op(),
                };
                self.flight.push(op);
                remaining -= 1;
            }
            let sent = Instant::now();
            self.fly(&mut log)?;
            if matches!(what, Closed::For(_)) {
                let done = Instant::now();
                log.flight_ns.push(saturating_ns(done - sent));
                let window = ((done - started).as_nanos() / SAT_WINDOW.as_nanos()) as usize;
                if log.window_ops.len() <= window {
                    log.window_ops.resize(window + 1, 0);
                }
                log.window_ops[window] += self.flight.len() as u64;
            }
        }
        Ok(log)
    }

    /// Depth-1 closed loop for `duration`: one request, its reply, the next
    /// request at once. Neither side ever waits for a timer, so no vCPU of
    /// the sandbox halts between requests; [`on_schedule`] turns the service
    /// times into what a fixed-rate schedule would have seen.
    pub fn depth1(&mut self, duration: Duration) -> Result<PhaseLog, String> {
        let mut log = PhaseLog::default();
        let (tenant, len) = (self.gen.tenant, self.gen.workload().value_len);
        let started = Instant::now();
        let mut now = started;
        while now - started < duration {
            if log.attempted.is_multiple_of(1024) {
                check_interrupted()?;
            }
            let op = self.gen.next_op();
            self.wire.clear();
            encode_op(&mut self.wire, &mut self.scratch, op, tenant, len);
            let sent = Instant::now();
            self.conn.send(&self.wire)?;
            let reply = self.conn.reply()?;
            now = Instant::now();
            log.service_ns.push(saturating_ns(now - sent));
            log.count(op, reply_ok(op, reply, &mut self.scratch, tenant, len));
        }
        Ok(log)
    }

    /// Send `ops` (GETs of sampled keys) pipelined and check every reply.
    pub fn read_back(&mut self, ops: &[Op]) -> Result<PhaseLog, String> {
        let mut log = PhaseLog::default();
        for chunk in ops.chunks(SAT_DEPTH) {
            self.flight.clear();
            self.flight.extend_from_slice(chunk);
            self.fly(&mut log)?;
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A fake server that answers whatever it is sent with `replies`, written
    /// in pieces of `piece` bytes.
    fn fake_server(replies: Vec<u8>, piece: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            let mut sink = [0u8; 1024];
            let _ = s.read(&mut sink).unwrap();
            for part in replies.chunks(piece) {
                s.write_all(part).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        (addr, handle)
    }

    #[test]
    fn replies_are_reassembled_from_split_reads() {
        let (addr, server) = fake_server(b"+OK\r\n$5\r\nhello\r\n$-1\r\n:3\r\n".to_vec(), 3);
        let mut conn = Conn::connect(&addr, 0).unwrap();
        conn.send(b"*1\r\n$4\r\nPING\r\n").unwrap();
        assert_eq!(conn.reply().unwrap(), Reply::Simple(b"OK"));
        assert_eq!(conn.reply().unwrap(), Reply::Bulk(b"hello"));
        assert_eq!(conn.reply().unwrap(), Reply::Nil);
        assert_eq!(conn.reply().unwrap(), Reply::Int(3));
        server.join().unwrap();
        assert!(conn.reply().is_err(), "EOF is an error, not a hang");
    }

    #[test]
    fn a_reply_larger_than_the_buffer_grows_it() {
        let big = vec![b'x'; 300 << 10];
        let mut wire = format!("${}\r\n", big.len()).into_bytes();
        wire.extend_from_slice(&big);
        wire.extend_from_slice(b"\r\n+OK\r\n");
        let (addr, server) = fake_server(wire, 64 << 10);
        let mut conn = Conn::connect(&addr, 0).unwrap();
        assert_eq!(conn.call(&[b"METRICS"]).unwrap(), big);
        assert_eq!(conn.reply().unwrap(), Reply::Simple(b"OK"));
        server.join().unwrap();
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let i = SCHEDULE_INTERVAL_NS as u32;
        // On time: nobody waits, everybody takes their service time.
        let flat = on_schedule(&[10_000; 5]);
        assert_eq!(flat, vec![vec![(0, 10_000); 5]]);
        // One request takes three and a half intervals: the next three are
        // due while it runs, and they and the one after start late and pay
        // for it; then the backlog is gone.
        let stalled = on_schedule(&[
            10_000,
            3 * i + i / 2,
            10_000,
            10_000,
            10_000,
            10_000,
            10_000,
        ]);
        let expect = vec![
            (0, 10_000),
            (0, 3 * i + i / 2),
            // due at 2i, server free at i + 3.5i = 4.5i
            (2 * i + i / 2, 2 * i + i / 2 + 10_000),
            (i + i / 2 + 10_000, i + i / 2 + 20_000),
            (i / 2 + 20_000, i / 2 + 30_000),
            (5_000, 15_000),
            (0, 10_000),
        ];
        assert_eq!(stalled, vec![expect]);
        // Windows are cut by due time.
        let per_window = (SCHEDULE_WINDOW_NS / SCHEDULE_INTERVAL_NS) as usize;
        let long = on_schedule(&vec![1_000; per_window + 3]);
        assert_eq!(
            long.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![per_window, 3]
        );
    }
}
