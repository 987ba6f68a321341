//! Per-connection RESP state machine for the event-driven front end.
//!
//! A [`Conn`] owns one client socket plus everything the socket's protocol
//! position needs to survive `WouldBlock`: the partial-frame read buffer,
//! parsed-but-unexecuted frames, the reply buffer, and the session state
//! (tenant, consistency level, LSN fence).
//!
//! **Pipelining.** One readable event drains the socket, batch-parses every
//! complete frame ([`RespValue::parse_batch`]), executes the batch in wire
//! order, and answers with **one write** covering every reply. Commands are
//! never reordered within a connection: an event-loop worker stops in front
//! of the first command that may park its thread (replicated write, `WAIT`,
//! `PSYNC`) and the connection — with its remaining parsed frames — moves to
//! an offload thread, which runs the same drain routine to the end of the
//! batch.
//!
//! **Backpressure.** Replies are encoded straight into `out`; when the peer
//! reads slowly the unsent tail grows until [`HIGH_WATER`], at which point
//! the connection stops *reading* (its worker keeps serving every other
//! socket) until the tail drains below [`LOW_WATER`]. Writable interest is
//! registered only while output is pending.

use crate::metrics;
use crate::server::{
    argv_strings, command_label, dispatch, serve_replica_connection, CmdMetricsCache, ConnCtx,
    ConnState, ReplicationControl,
};
use abase_obs::{Span, Stage};
use abase_proto::{Command, ParseCommandError, RespValue};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Stop reading from a connection whose un-flushed output exceeds this.
pub(crate) const HIGH_WATER: usize = 1 << 20;
/// Resume reading once the un-flushed output drains below this.
pub(crate) const LOW_WATER: usize = HIGH_WATER / 4;
/// Per-readable-event read budget: bound the bytes one socket can pull in
/// before its worker moves on (level-triggered readiness re-fires for the
/// rest).
const READ_BUDGET: usize = 256 * 1024;

/// What a drive of the state machine asks its owner to do next.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Stay on — or, from an offload thread, return to — the event loop
    /// (interest per `wants_read`/`wants_write`).
    Continue,
    /// Drop the connection (EOF, I/O error, fatal protocol error with the
    /// error reply already flushed, or a `PSYNC` replica stream that ended).
    Close,
    /// The next command may park its thread (replicated write, `WAIT`,
    /// `PSYNC`): take the connection off the loop and finish the batch on an
    /// offload thread.
    Offload,
}

/// Track per-server open/accepted/evicted counts for `INFO` and the
/// max-clients cap (process-global metric gauges aside — embedded tests run
/// many servers per process, so the cap must not count a neighbor's
/// clients).
#[derive(Debug, Default)]
pub(crate) struct FrontEndStats {
    /// Currently open client connections (incl. offloaded and PSYNC ones).
    pub open: std::sync::atomic::AtomicI64,
    /// Connections accepted since bind.
    pub accepted: std::sync::atomic::AtomicU64,
    /// Connections evicted (idle reap + max-clients refusals).
    pub evicted: std::sync::atomic::AtomicU64,
}

/// Decrements the open-connection accounting exactly once, wherever the
/// connection ends (worker close, offload thread, replica stream, shutdown
/// drop).
#[derive(Debug)]
pub(crate) struct ConnGuard {
    stats: Arc<FrontEndStats>,
    worker_label: &'static str,
}

impl ConnGuard {
    /// Count a connection open under `worker_label` (an interned worker
    /// index).
    pub(crate) fn open(stats: Arc<FrontEndStats>, worker_label: &'static str) -> Self {
        stats.open.fetch_add(1, Ordering::Relaxed);
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        metrics::CONNECTIONS.add(1);
        metrics::CONN_OPEN.with(worker_label).add(1);
        metrics::CONN_ACCEPTED.with(worker_label).inc();
        ConnGuard {
            stats,
            worker_label,
        }
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.stats.open.fetch_sub(1, Ordering::Relaxed);
        metrics::CONNECTIONS.add(-1);
        metrics::CONN_OPEN.with(self.worker_label).add(-1);
    }
}

/// One client connection's complete serving state.
#[derive(Debug)]
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Raw bytes read but not yet parsed (at most a partial frame once a
    /// batch has been drained).
    inbuf: Vec<u8>,
    /// Parsed frames not yet executed (non-empty only across an offload
    /// handoff or when execution stopped at a blocking command).
    pending: VecDeque<RespValue>,
    /// Encoded replies; `out[out_sent..]` is still to be written.
    out: Vec<u8>,
    /// Write cursor into `out` (partial-write resume point).
    out_sent: usize,
    /// A fatal protocol error parked until the frames before it are served.
    protocol_error: Option<abase_proto::ParseError>,
    /// Session state: tenant, consistency level, session LSN fence.
    state: ConnState,
    /// Per-connection command-metrics cache (see `server.rs`).
    cmd_metrics: CmdMetricsCache,
    /// Backpressured: output crossed [`HIGH_WATER`]; reads stay paused until
    /// the unsent tail drains below [`LOW_WATER`] (hysteresis, not flapping
    /// at the threshold).
    throttled: bool,
    /// Close once `out` drains.
    closing: bool,
    /// Peer closed its read half — or we saw EOF — so stop reading.
    saw_eof: bool,
    /// Last moment bytes arrived (idle-reaper input).
    pub(crate) last_active: Instant,
    /// Index of the event-loop worker this connection is sharded to.
    pub(crate) worker: usize,
    /// Whether the socket currently has a poller registration (owned by the
    /// worker loop; offload handoffs clear it).
    pub(crate) registered: bool,
    /// The `(readable, writable)` interest installed in the poller, so an
    /// unchanged interest costs no `epoll_ctl`.
    pub(crate) installed_interest: (bool, bool),
    /// Open-connection accounting, released on drop.
    _guard: ConnGuard,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, worker: usize, guard: ConnGuard) -> Self {
        Conn {
            stream,
            inbuf: Vec::with_capacity(4096),
            pending: VecDeque::new(),
            out: Vec::new(),
            out_sent: 0,
            protocol_error: None,
            state: ConnState::default(),
            cmd_metrics: None,
            throttled: false,
            closing: false,
            saw_eof: false,
            last_active: Instant::now(),
            worker,
            registered: false,
            installed_interest: (false, false),
            _guard: guard,
        }
    }

    /// Whether the loop should watch this connection for readability.
    pub(crate) fn wants_read(&self) -> bool {
        !self.closing && !self.saw_eof && !self.throttled
    }

    /// Whether output is pending (register writable interest only then).
    pub(crate) fn wants_write(&self) -> bool {
        self.unsent() > 0
    }

    /// Encoded reply bytes not yet written (backpressure accounting).
    fn unsent(&self) -> usize {
        self.out.len() - self.out_sent
    }

    /// Drive the machine after a readiness event on a **non-blocking**
    /// socket: flush if writable, read if readable, then drain the batch.
    pub(crate) fn on_event(&mut self, readable: bool, writable: bool, ctx: &ConnCtx) -> Step {
        if writable && self.flush().is_err() {
            return Step::Close;
        }
        if readable && self.wants_read() && self.fill_inbuf().is_err() {
            return Step::Close;
        }
        self.drain(ctx, false)
    }

    /// Read until a short read, `WouldBlock`, EOF, backpressure, or the
    /// per-event budget. A read that returns less than it asked for emptied
    /// the socket buffer, so asking again would only buy `WouldBlock`: one
    /// wasted syscall on every request/reply exchange. The poller is
    /// level-triggered, so bytes that land afterwards — and EOF, a readable
    /// event whose read returns 0 — raise the event again.
    fn fill_inbuf(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let mut taken = 0;
        while taken < READ_BUDGET && self.unsent() < HIGH_WATER {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.saw_eof = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    taken += n;
                    self.last_active = Instant::now();
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Parse every complete frame, execute the batch in wire order with the
    /// replies encoded into `out`, and flush them with one write.
    ///
    /// `may_park` is whether the calling thread may run a command that
    /// parks it. An event-loop worker may not: it stops in front of the
    /// first such command and returns [`Step::Offload`], leaving the rest of
    /// the batch parsed in `pending`. An offload thread may: it runs the
    /// batch to the end, `PSYNC` upgrade included.
    pub(crate) fn drain(&mut self, ctx: &ConnCtx, may_park: bool) -> Step {
        if !self.closing {
            // Top up the pending frames from the raw buffer.
            if self.protocol_error.is_none() && !self.inbuf.is_empty() {
                let (batch, status) = RespValue::parse_batch(&self.inbuf);
                self.inbuf.drain(..batch.consumed);
                self.pending.extend(batch.frames);
                if let Err(e) = status {
                    // Report only after the frames before it are served.
                    self.protocol_error = Some(e);
                    self.inbuf.clear();
                }
            }
            let mut batch_commands = 0u64;
            let step = loop {
                let Some(value) = self.pending.front() else {
                    break None;
                };
                let command = Command::from_resp(value);
                if parks(&command, ctx) {
                    if !may_park {
                        break Some(Step::Offload);
                    }
                    // Replies already earned do not wait out the park.
                    if self.flush().is_err() {
                        break Some(Step::Close);
                    }
                    if let (Ok(Command::PSync { position }), Some(repl)) =
                        (&command, ctx.replication.as_deref())
                    {
                        self.pending.pop_front();
                        self.become_replica_stream(*position, repl);
                        break Some(Step::Close);
                    }
                }
                // INVARIANT: the loop head peeked `front()` as Some.
                let value = self.pending.pop_front().expect("front checked");
                let reply = self.execute(&value, command, ctx);
                self.push_reply(&reply);
                batch_commands += 1;
            };
            if batch_commands > 0 {
                metrics::PIPELINE_BATCH.record(batch_commands);
            }
            if let Some(step) = step {
                return step;
            }
            if let Some(e) = self.protocol_error.take() {
                self.push_reply(&RespValue::Error(format!("ERR protocol: {e}")));
                self.closing = true;
            }
        }
        if self.flush().is_err() {
            return Step::Close;
        }
        if !self.wants_write() && (self.closing || self.saw_eof) {
            return Step::Close;
        }
        Step::Continue
    }

    /// Execute one command against the shared dispatcher under its span,
    /// command metrics and slowlog.
    fn execute(
        &mut self,
        value: &RespValue,
        command: Result<Command, ParseCommandError>,
        ctx: &ConnCtx,
    ) -> RespValue {
        let mut span = Span::begin();
        let label = command_label(value, &command);
        span.enter(Stage::Admission);
        let reply = dispatch(value, command, &mut self.state, &mut span, ctx);
        span.enter(Stage::Respond);
        let (count, micros) = match self.cmd_metrics {
            Some((cached, c, h)) if std::ptr::eq(cached, label) => (c, h),
            _ => {
                let c = metrics::COMMANDS.with(label);
                let h = metrics::COMMAND_MICROS.with(label);
                self.cmd_metrics = Some((label, c, h));
                (c, h)
            }
        };
        count.inc();
        if matches!(reply, RespValue::Error(_)) {
            metrics::COMMAND_ERRORS.inc(label);
        }
        let report = span.finish();
        micros.record(report.total_micros);
        ctx.slowlog.observe(&report, || argv_strings(value));
        reply
    }

    /// Encode one reply onto the end of the batch's output.
    fn push_reply(&mut self, reply: &RespValue) {
        reply.encode(&mut self.out);
        if self.unsent() >= HIGH_WATER {
            self.throttled = true;
        }
    }

    /// Write `out[out_sent..]` to the socket. On `WouldBlock` the rest stays
    /// pending for the next writable event; an offload thread holds the
    /// socket in blocking mode, never sees `WouldBlock`, and so always
    /// returns with nothing pending.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.out_sent < self.out.len() {
            match self.stream.write(&self.out[self.out_sent..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.out_sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_sent == self.out.len() {
            // One large reply must not pin its buffer for the connection's
            // lifetime.
            if self.out.capacity() > LOW_WATER {
                self.out = Vec::new();
            } else {
                self.out.clear();
            }
            self.out_sent = 0;
        } else if self.out_sent >= self.unsent() {
            // A peer that never fully catches up would otherwise grow the
            // sent prefix forever; moving a tail no longer than the prefix
            // it replaces keeps the copy amortised O(1) per byte written.
            self.out.drain(..self.out_sent);
            self.out_sent = 0;
        }
        if self.unsent() < LOW_WATER {
            self.throttled = false;
        }
        Ok(())
    }

    /// The `PSYNC` upgrade: serve the socket as a replica stream until it
    /// ends. Frames the client pipelined *after* `PSYNC` (re-encoded) plus
    /// the raw partial tail are the stream's initial buffer.
    fn become_replica_stream(
        &mut self,
        position: Option<(u64, u64)>,
        repl: &dyn ReplicationControl,
    ) {
        let Ok(stream) = self.stream.try_clone() else {
            return;
        };
        let mut leftover = Vec::new();
        for frame in self.pending.drain(..) {
            frame.encode(&mut leftover);
        }
        leftover.append(&mut self.inbuf);
        let _ = serve_replica_connection(stream, leftover, position, self.state.replica_id, repl);
    }
}

/// Whether `command` may park the thread that runs it. Only with a
/// replication plane attached: replicated writes commit under the group's
/// write concern, `WAIT` drives follower acks up to its timeout, and `PSYNC`
/// turns the connection into a replica stream for the rest of its life.
fn parks(command: &Result<Command, ParseCommandError>, ctx: &ConnCtx) -> bool {
    ctx.replication.is_some()
        && match command {
            Ok(Command::Wait { .. } | Command::PSync { .. }) => true,
            Ok(c) => c.is_write() && !ctx.read_only,
            Err(_) => false,
        }
}
