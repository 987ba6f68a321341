//! Per-connection RESP state machine for the event-driven front end.
//!
//! A [`Conn`] owns one client socket plus everything the socket's protocol
//! position needs to survive `WouldBlock`: the input buffer with its cursor,
//! the reply buffer, and the session state (tenant, consistency level, LSN
//! fence).
//!
//! **One pass from socket bytes to reply bytes.** The socket is read straight
//! into the connection's input buffer ([`Input`]); the drain loop scans **one
//! command at a time** from a cursor into it
//! ([`RequestScanner`](abase_proto::RequestScanner)), runs the grammar over
//! the argument slices (`Command<&[u8]>`), executes, and encodes the reply
//! onto the end of `out`; one write covers every reply of the batch. Nothing
//! between `read(2)` and `write(2)` is parsed ahead or held in a queue: what
//! has not been executed yet is bytes, `buf[head..filled]`.
//!
//! **Pipelining and offload.** Commands are never reordered within a
//! connection: an event-loop worker stops in front of the first command that
//! may park its thread (replicated write, `WAIT`, `PSYNC`) and the connection
//! moves to an offload thread, which runs the same drain routine over the
//! same buffer from the same cursor to the end of the batch. What an offload
//! thread — or a `PSYNC` replica stream — inherits is the unread bytes.
//!
//! **Backpressure** is a property of the drain loop: once un-flushed output
//! reaches [`HIGH_WATER`] the connection is throttled, and a throttled
//! connection neither *executes* nor *reads* — the rest of the batch stays
//! behind the cursor as bytes (its worker keeps serving every other socket)
//! until a writable event drains the unsent tail below [`LOW_WATER`], and the
//! loop resumes where it stopped. `out` therefore holds at most
//! `HIGH_WATER` plus one reply. Writable interest is registered only while
//! output is pending.

use crate::metrics;
use crate::pipeline::{Request, Throttled};
use crate::server::{
    argv_strings, command_label, dispatch, malformed_argv_strings, refuse_malformed, throttled,
    BorrowedCommand, CmdMetricsCache, ConnCtx, ConnState, ReplicationControl,
};
use abase_obs::{Span, Stage};
use abase_proto::{Command, ParseError, RequestScanner, RespValue, Scanned};
use abase_replication::serve_replica;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Throttle a connection — stop executing and reading — once its un-flushed
/// output reaches this.
pub(crate) const HIGH_WATER: usize = 1 << 20;
/// Resume once the un-flushed output drains below this.
pub(crate) const LOW_WATER: usize = HIGH_WATER / 4;
/// Per-readable-event read budget: bound the bytes one socket can pull in
/// before its worker moves on (level-triggered readiness re-fires for the
/// rest).
const READ_BUDGET: usize = 256 * 1024;
/// First size of a connection's input buffer (an idle connection that never
/// sends has none).
const INITIAL_INPUT: usize = 4096;

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

/// A connection's input: one initialised buffer the socket is read into.
/// `buf[head..filled]` is what has been read and not yet executed; the
/// bytes past `filled` are spare room for the next read.
#[derive(Debug, Default)]
struct Input {
    buf: Vec<u8>,
    /// Cursor: where the next command starts.
    head: usize,
    /// End of the bytes read.
    filled: usize,
    /// Argument positions of the command being scanned.
    scanner: RequestScanner,
}

impl Input {
    /// The bytes read and not yet executed.
    fn unread(&self) -> &[u8] {
        &self.buf[self.head..self.filled]
    }

    /// Scan the command frame at the cursor.
    fn scan(&mut self) -> Result<Scanned<'_>, ParseError> {
        self.scanner.scan(&self.buf[self.head..self.filled])
    }

    /// Room to read into. The executed prefix is reclaimed first — for free
    /// when everything read has been executed, which is the common case —
    /// and the buffer grows only when what is still unread (a frame still
    /// arriving, or a batch that backpressure left as bytes) fills half of
    /// it. Growth zeroes the new room once; no read ever does.
    fn spare(&mut self) -> &mut [u8] {
        if self.head == self.filled {
            self.head = 0;
            self.filled = 0;
            // One huge frame must not pin its buffer for the connection's
            // lifetime.
            if self.buf.len() > 2 * READ_BUDGET {
                self.buf = Vec::new();
            }
        }
        if self.buf.len() - self.filled <= self.buf.len() / 2 {
            self.buf.copy_within(self.head..self.filled, 0);
            self.filled -= self.head;
            self.head = 0;
            if self.buf.len() - self.filled <= self.buf.len() / 2 {
                let grown = (self.buf.len() * 2).max(INITIAL_INPUT);
                self.buf.resize(grown, 0);
            }
        }
        &mut self.buf[self.filled..]
    }
}

/// One client connection's complete serving state.
#[derive(Debug)]
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Bytes read but not yet executed, with the cursor into them.
    input: Input,
    /// Encoded replies; `out[out_sent..]` is still to be written.
    out: Vec<u8>,
    /// Write cursor into `out` (partial-write resume point).
    out_sent: usize,
    /// Session state: tenant, consistency level, session LSN fence.
    state: ConnState,
    /// Per-connection command-metrics cache (see `server.rs`).
    cmd_metrics: CmdMetricsCache,
    /// Backpressured: output reached [`HIGH_WATER`]; executing and reading
    /// stay paused until the unsent tail drains below [`LOW_WATER`]
    /// (hysteresis, not flapping at the threshold).
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
            input: Input::default(),
            out: Vec::new(),
            out_sent: 0,
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

    /// Read straight into the input buffer's spare room until a short read,
    /// `WouldBlock`, EOF, or the per-event budget. A read that returns less
    /// than it asked for emptied the socket buffer, so asking again would
    /// only buy `WouldBlock`: one wasted syscall on every request/reply
    /// exchange. The poller is level-triggered, so bytes that land
    /// afterwards — and EOF, a readable event whose read returns 0 — raise
    /// the event again.
    fn fill_inbuf(&mut self) -> std::io::Result<()> {
        let mut taken = 0;
        while taken < READ_BUDGET {
            let room = self.input.spare();
            let asked = room.len().min(READ_BUDGET - taken);
            match self.stream.read(&mut room[..asked]) {
                Ok(0) => {
                    self.saw_eof = true;
                    break;
                }
                Ok(n) => {
                    self.input.filled += n;
                    taken += n;
                    self.last_active = Instant::now();
                    if n < asked {
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

    /// Execute the buffered commands in wire order with the replies encoded
    /// into `out`, and flush them with one write.
    ///
    /// `may_park` is whether the calling thread may run a command that
    /// parks it. An event-loop worker may not: it stops in front of the
    /// first such command and returns [`Step::Offload`], the rest of the
    /// batch still bytes behind the cursor. An offload thread may: it runs
    /// the batch to the end, `PSYNC` upgrade included.
    pub(crate) fn drain(&mut self, ctx: &ConnCtx, may_park: bool) -> Step {
        loop {
            if !self.closing {
                if let Some(step) = self.run_buffered(ctx, may_park) {
                    return step;
                }
            }
            let stalled = self.throttled;
            if self.flush().is_err() {
                return Step::Close;
            }
            // Backpressure stopped the batch and this flush relieved it at
            // once (always so on an offload thread's blocking socket): the
            // rest runs now. Otherwise it waits for the writable event.
            if !stalled || self.throttled {
                break;
            }
        }
        if !self.wants_write() && (self.closing || self.saw_eof) {
            return Step::Close;
        }
        Step::Continue
    }

    /// Scan, execute and answer one command at a time from the cursor until
    /// the input runs out, backpressure throttles the connection, or a
    /// command decides the connection's next step.
    fn run_buffered(&mut self, ctx: &ConnCtx, may_park: bool) -> Option<Step> {
        let mut served = 0u64;
        // The store handle, taken once for the batch (see
        // `TableEngine::swap_db`).
        let mut db = None;
        // When the previous command of the batch finished, which is when
        // this one begins.
        let mut finished: Option<Instant> = None;
        let step = loop {
            if self.throttled {
                break None;
            }
            let mut span = finished.take().map_or_else(Span::begin, Span::begin_at);
            let outcome = match self.input.scan() {
                Ok(Scanned::Incomplete) => break None,
                Ok(Scanned::Command { argv, consumed }) => {
                    let command = Command::from_args(argv.len(), |i| Ok(argv.get(i)));
                    if parks(&command, ctx) {
                        if !may_park {
                            break Some(Step::Offload);
                        }
                        // Replies already earned do not wait out the park;
                        // the command is scanned again once they are out.
                        if self.out_sent < self.out.len() {
                            if self.flush().is_err() {
                                break Some(Step::Close);
                            }
                            continue;
                        }
                        if let (Ok(Command::PSync { position }), Some(repl)) =
                            (&command, ctx.role.plane())
                        {
                            let position = *position;
                            self.input.head += consumed;
                            self.become_replica_stream(position, repl);
                            break Some(Step::Close);
                        }
                    }
                    let label = command_label(argv, &command);
                    span.enter(Stage::Admission);
                    let request = command.as_ref().ok().and_then(Request::of);
                    let now = ctx.clock.load(Ordering::Relaxed);
                    let partition = u64::from(self.state.tenant);
                    let reply = match request.map(|r| ctx.pipeline.admit(partition, r, now)) {
                        Some(Err(Throttled)) => throttled(&mut self.state),
                        _ => {
                            let db = db.get_or_insert_with(|| ctx.engine.db());
                            let state = &mut self.state;
                            dispatch(argv, command, request, state, &mut span, db, ctx)
                        }
                    };
                    span.enter(Stage::Respond);
                    reply.encode(&mut self.out);
                    let argv = || argv_strings(argv);
                    let done = account(&mut self.cmd_metrics, label, &reply, span, ctx, argv);
                    self.input.head += consumed;
                    Ok(done)
                }
                // Not a command frame: the owned parser has the verdict,
                // which for a complete frame is an error reply.
                Ok(Scanned::Other) => match RespValue::parse(self.input.unread()) {
                    Ok(None) => break None,
                    Ok(Some((value, consumed))) => {
                        let (label, reply) = refuse_malformed(&value);
                        span.enter(Stage::Admission);
                        span.enter(Stage::Respond);
                        reply.encode(&mut self.out);
                        let argv = || malformed_argv_strings(&value);
                        let done = account(&mut self.cmd_metrics, label, &reply, span, ctx, argv);
                        self.input.head += consumed;
                        Ok(done)
                    }
                    Err(e) => Err(e),
                },
                Err(e) => Err(e),
            };
            match outcome {
                Ok(done) => finished = Some(done),
                Err(e) => {
                    // The frames before a malformed one have been served;
                    // what follows it never is.
                    RespValue::Error(format!("ERR protocol: {e}")).encode(&mut self.out);
                    self.closing = true;
                    break None;
                }
            }
            served += 1;
            if self.unsent() >= HIGH_WATER {
                self.throttled = true;
            }
        };
        if served > 0 {
            metrics::PIPELINE_BATCH.record(served);
        }
        step
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
    /// ends. Whatever the client pipelined *after* `PSYNC` — the unread
    /// bytes — is the stream's initial buffer. The plane only accepts the
    /// follower: the stream runs with the group unlocked.
    fn become_replica_stream(
        &mut self,
        position: Option<(u64, u64)>,
        repl: &dyn ReplicationControl,
    ) {
        let Ok(stream) = self.stream.try_clone() else {
            return;
        };
        let leftover = self.input.unread().to_vec();
        let _ = serve_replica(stream, leftover, position, self.state.replica_id, |id| {
            repl.accept_replica(id)
        });
    }
}

/// Count one answered frame under `label`, close its span into the command
/// histogram, and offer it to the slowlog (`argv` is rendered only on
/// capture). Returns when the span finished.
fn account(
    cache: &mut CmdMetricsCache,
    label: &'static str,
    reply: &RespValue,
    span: Span,
    ctx: &ConnCtx,
    argv: impl FnOnce() -> Vec<String>,
) -> Instant {
    let (count, micros) = match *cache {
        Some((cached, c, h)) if std::ptr::eq(cached, label) => (c, h),
        _ => {
            let c = metrics::COMMANDS.with(label);
            let h = metrics::COMMAND_MICROS.with(label);
            *cache = Some((label, c, h));
            (c, h)
        }
    };
    count.inc();
    if matches!(reply, RespValue::Error(_)) {
        metrics::COMMAND_ERRORS.inc(label);
    }
    let report = span.finish();
    micros.record_duration(report.total);
    ctx.slowlog.observe(&report, argv);
    report.finished
}

/// Whether `command` may park the thread that runs it. Only on a leader:
/// replicated writes commit under the group's write concern, `WAIT` drives
/// follower acks up to its timeout, and `PSYNC` turns the connection into a
/// replica stream for the rest of its life.
fn parks(command: &BorrowedCommand<'_>, ctx: &ConnCtx) -> bool {
    ctx.role.plane().is_some()
        && match command {
            Ok(Command::Wait { .. } | Command::PSync { .. }) => true,
            Ok(c) => c.is_write(),
            Err(_) => false,
        }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TableEngine;
    use abase_lavastore::DbConfig;
    use abase_util::TestDir;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn ctx(dir: &TestDir) -> ConnCtx {
        ConnCtx {
            engine: Arc::new(TableEngine::open(dir.path(), DbConfig::default()).unwrap()),
            clock: Arc::new(AtomicU64::new(0)),
            role: crate::server::Role::Plain,
            slowlog: Arc::new(abase_obs::SlowLog::default()),
            started: Instant::now(),
            stats: Arc::new(FrontEndStats::default()),
            io_threads: 1,
            shutdown: Arc::default(),
            pipeline: Arc::new(crate::pipeline::Pipeline::new(1)),
        }
    }

    /// A served connection (non-blocking, as on the event loop) and the
    /// client end of its socket.
    fn socket_pair(ctx: &ConnCtx) -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        let guard = ConnGuard::open(Arc::clone(&ctx.stats), "test");
        (Conn::new(served, 0, guard), client)
    }

    fn frame(parts: &[&[u8]]) -> Vec<u8> {
        RespValue::array(parts.iter().map(|p| RespValue::bulk(p.to_vec())).collect()).to_bytes()
    }

    /// Send `request` and drive the connection until `want` reply bytes
    /// have arrived.
    fn exchange(
        conn: &mut Conn,
        client: &mut TcpStream,
        ctx: &ConnCtx,
        request: &[u8],
        want: usize,
    ) -> Vec<u8> {
        client.write_all(request).unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let mut reply = vec![0u8; want];
        let mut got = 0;
        let deadline = Instant::now() + Duration::from_secs(10);
        while got < want {
            assert!(Instant::now() < deadline, "no reply");
            assert_eq!(conn.on_event(true, true, ctx), Step::Continue);
            got += client.read(&mut reply[got..]).unwrap_or(0);
        }
        reply
    }

    /// The store handle is taken once per drained batch: a batch after
    /// `swap_db` (a follower's full resync) must read the replacement.
    #[test]
    fn the_next_batch_after_swap_db_reads_the_new_store() {
        let dir = TestDir::new("conn-swap-db");
        let ctx = ctx(&dir);
        let (mut conn, mut client) = socket_pair(&ctx);
        let replacement_dir = TestDir::new("conn-swap-db-replacement");
        let replacement = abase_lavastore::Db::open(replacement_dir.path(), DbConfig::default());
        let replacement = Arc::new(replacement.unwrap());
        let key = TableEngine::storage_string_key(0, b"k");
        ctx.engine.db().put(&key, b"old", None, 0).unwrap();
        replacement.put(&key, b"new", None, 0).unwrap();

        let get = frame(&[b"GET", b"k"]);
        let two_gets = [&get[..], &get[..]].concat();
        let reply = exchange(&mut conn, &mut client, &ctx, &two_gets, 18);
        assert_eq!(reply, b"$3\r\nold\r\n$3\r\nold\r\n");
        ctx.engine.swap_db(replacement);
        let reply = exchange(&mut conn, &mut client, &ctx, &two_gets, 18);
        assert_eq!(reply, b"$3\r\nnew\r\n$3\r\nnew\r\n");
    }

    /// One pipelined read of many `GET bigkey` must not encode every reply
    /// before the first write: the drain loop stops executing at
    /// `HIGH_WATER`, leaves the rest of the batch as bytes, and resumes from
    /// the writable event — every reply once, in order.
    #[test]
    fn a_pipelined_batch_of_big_replies_is_bounded_by_high_water() {
        const VALUE: usize = 128 << 10;
        const KEYS: usize = 4;
        const GETS: usize = 200;
        let dir = TestDir::new("conn-backpressure");
        let ctx = ctx(&dir);
        let (mut conn, mut client) = socket_pair(&ctx);
        let value = |k: usize| vec![b'a' + k as u8; VALUE];
        for k in 0..KEYS {
            let set = Command::Set {
                key: format!("big{k}").into_bytes(),
                value: value(k),
                ttl_secs: None,
            };
            ctx.engine.execute(0, &set, 0).unwrap();
        }
        client
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();

        // The batch: 200 GETs of 128 KiB values, 25 MiB of replies, in
        // one read of 5 KB. The peer is not reading.
        let mut batch = Vec::new();
        for i in 0..GETS {
            batch.extend_from_slice(&frame(&[b"GET", format!("big{}", i % KEYS).as_bytes()]));
        }
        client.write_all(&batch).unwrap();
        assert_eq!(conn.on_event(true, false, &ctx), Step::Continue);
        let one_reply = VALUE + 16;
        assert!(conn.throttled && !conn.wants_read());
        assert!(
            conn.out.len() <= HIGH_WATER + one_reply,
            "{} bytes of replies buffered past HIGH_WATER",
            conn.out.len()
        );
        assert!(
            !conn.input.unread().is_empty(),
            "the rest of the batch stays behind the cursor as bytes"
        );

        // The peer reads: writable events resume the batch where it stopped.
        let mut received = Vec::new();
        let mut chunk = vec![0u8; 1 << 20];
        let mut expected = Vec::new();
        for i in 0..GETS {
            RespValue::bulk(value(i % KEYS)).encode(&mut expected);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while received.len() < expected.len() {
            assert!(Instant::now() < deadline, "the batch never finished");
            assert_eq!(conn.on_event(false, true, &ctx), Step::Continue);
            assert!(conn.out.len() <= HIGH_WATER + one_reply);
            if let Ok(n) = client.read(&mut chunk) {
                received.extend_from_slice(&chunk[..n]);
            }
        }
        assert!(received == expected, "replies lost, repeated or reordered");
        assert!(conn.input.unread().is_empty() && !conn.wants_write());
    }
}
