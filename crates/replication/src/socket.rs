//! WAL shipping over real sockets: the PSYNC wire protocol.
//!
//! This is the network half of the replication plane — replica groups that
//! span OS processes. A follower process connects to the leader's RESP port,
//! performs the `REPLCONF replica-id` handshake, and issues
//! `PSYNC <segment> <offset>`; the leader switches the connection into
//! replica-streaming mode and ships framed binlog records (the storage
//! engine's own [`Record`] encoding inside RESP bulk frames). Acks flow back
//! on the same socket as `REPLCONF ACK <lsn>` and feed the leader group's
//! remote-follower accounting, so `WAIT` and write concerns count cross-
//! process replicas exactly like local ones.
//!
//! Wire frames (all RESP2 values, so both ends reuse the incremental parser):
//!
//! | frame | direction | meaning |
//! |---|---|---|
//! | `PSYNC seg off` / `PSYNC ? -1` | follower → leader | resume at a position / request a full resync |
//! | `REPLCONF ack <lsn>` | follower → leader | durably applied up to `lsn` (no reply) |
//! | `+CONTINUE` | leader → follower | incremental stream follows from the asked position |
//! | `+FULLRESYNC` | leader → follower | the asked position fell off retention; to a `PSYNC ? -1` it is followed by the checkpoint file stream |
//! | `BATCH seg off payload` | leader → follower | framed records; `(seg, off)` is the cursor *after* the batch |
//! | `FILE name chunk` | leader → follower | checkpoint file bytes, appended in order |
//! | `CKPT last_seq seg off bytes` | leader → follower | checkpoint stream end: [`CheckpointInfo`] |
//!
//! A `BATCH` payload is records back to back in [`Record::encode`]'s
//! framing — the WAL's payload encoding, so it changes whenever the record
//! format does (format v2: `lavastore/src/record.rs`). The stream carries no
//! version and negotiates nothing: **both ends of a link run one build**.
//! Checkpoint `FILE` frames ship files byte for byte and do not care.
//!
//! For a checkpoint the leader streams its pinned files straight from
//! [`Db::checkpoint_with`] into `FILE` frames: nothing is staged on the
//! leader's disk. A follower that receives `+FULLRESYNC` pulls the
//! checkpoint into a staging directory ([`LogTransport::fetch_checkpoint`],
//! through the same [`Staging`] writer an in-process copy uses), re-issues
//! `PSYNC` at the checkpoint's edge, and installs the staged tree like any
//! other [`Follower`](crate::Follower).
//!
//! Chaos sites: `socket.ship` (leader's outbound batch frames — drop,
//! duplicate, reorder, disconnect) and `socket.ack` (follower's outbound
//! acks — drop, disconnect), both keyed by a `replica-<id>` context.

use crate::binlog::{Binlog, Poll};
use crate::group::RemoteFollowerState;
use crate::transport::LogTransport;
use crate::{Error, Result};
use abase_lavastore::record::Record;
use abase_lavastore::wal::Wal;
use abase_lavastore::{checkpoint, CheckpointInfo, Db, Staging};
use abase_proto::{Command, RespValue};
use abase_util::failpoint::{self, FaultAction};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records per BATCH frame: bounds frame size (and makes drop/reorder chaos
/// meaningful — a fault hits a bounded slice of the stream, not all of it).
const BATCH_RECORDS: usize = 256;
/// How long a handshake reply (OK/CONTINUE/FULLRESYNC) may take.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// Overall budget for pulling one full checkpoint.
const FETCH_TIMEOUT: Duration = Duration::from_secs(60);

fn transport_err(context: &str, e: impl std::fmt::Display) -> Error {
    Error::Transport(format!("{context}: {e}"))
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

fn bulk(data: &[u8]) -> RespValue {
    RespValue::bulk(bytes::Bytes::copy_from_slice(data))
}

/// `BATCH seg off payload` — `(seg, off)` is the shipping cursor *after*
/// these records, so the follower can resume there on reconnect.
fn batch_frame(segment: u64, offset: u64, records: &[Record]) -> RespValue {
    let mut payload = Vec::new();
    for r in records {
        r.encode(&mut payload);
    }
    RespValue::array(vec![
        bulk(b"BATCH"),
        RespValue::Integer(segment as i64),
        RespValue::Integer(offset as i64),
        bulk(&payload),
    ])
}

/// `FILE name chunk` — checkpoint bytes appended to `name` in arrival order.
fn file_frame(name: &str, chunk: &[u8]) -> RespValue {
    RespValue::array(vec![bulk(b"FILE"), bulk(name.as_bytes()), bulk(chunk)])
}

/// `PING lsn` — leader keepalive carrying its current LSN, sent when the
/// stream idles. A follower that trails it with nothing left in flight
/// knows frames were lost (TCP never reorders, but a buggy/chaos sender can
/// drop) and recovers through a full resync instead of waiting for traffic
/// that will never come.
fn ping_frame(lsn: u64) -> RespValue {
    RespValue::array(vec![bulk(b"PING"), RespValue::Integer(lsn as i64)])
}

/// `CKPT last_seq seg off bytes` — end of a checkpoint stream.
fn ckpt_frame(info: &CheckpointInfo) -> RespValue {
    RespValue::array(vec![
        bulk(b"CKPT"),
        RespValue::Integer(info.last_seq as i64),
        RespValue::Integer(info.wal_segment as i64),
        RespValue::Integer(info.wal_offset as i64),
        RespValue::Integer(info.bytes_copied as i64),
    ])
}

/// A decoded leader→follower stream frame.
#[derive(Debug)]
pub enum StreamFrame {
    /// Shipped records plus the cursor position after them.
    Batch {
        /// WAL segment of the cursor after this batch.
        segment: u64,
        /// Byte offset of the cursor after this batch.
        offset: u64,
        /// The records, in log order.
        records: Vec<Record>,
    },
    /// A checkpoint file chunk.
    File {
        /// File name within the checkpoint (no path separators).
        name: String,
        /// Bytes to append.
        chunk: bytes::Bytes,
    },
    /// Checkpoint stream end.
    Ckpt(CheckpointInfo),
    /// `+CONTINUE`: incremental stream follows.
    Continue,
    /// `+FULLRESYNC`: the follower must pull a checkpoint.
    FullResync,
    /// Leader keepalive: its LSN when the stream idled.
    Ping(u64),
}

/// Decode one leader→follower frame; `Err` on malformed frames, so a
/// corrupted stream surfaces instead of being skipped.
fn decode_stream_frame(value: &RespValue) -> Result<StreamFrame> {
    let as_int = |v: &RespValue| -> Result<u64> {
        match v {
            RespValue::Integer(i) if *i >= 0 => Ok(*i as u64),
            other => Err(Error::Transport(format!(
                "expected non-negative integer, got {other:?}"
            ))),
        }
    };
    match value {
        RespValue::Simple(s) if s == "CONTINUE" => Ok(StreamFrame::Continue),
        RespValue::Simple(s) if s == "FULLRESYNC" => Ok(StreamFrame::FullResync),
        RespValue::Array(Some(items)) if !items.is_empty() => {
            let RespValue::Bulk(Some(tag)) = &items[0] else {
                return Err(Error::Transport(format!(
                    "stream frame without a tag: {:?}",
                    items[0]
                )));
            };
            match tag.as_ref() {
                b"BATCH" if items.len() == 4 => {
                    let RespValue::Bulk(Some(payload)) = &items[3] else {
                        return Err(Error::Transport("BATCH without payload".into()));
                    };
                    let mut records = Vec::new();
                    let mut pos = 0usize;
                    while pos < payload.len() {
                        records.push(
                            Record::decode(payload, &mut pos)
                                .map_err(|e| transport_err("BATCH payload", e))?,
                        );
                    }
                    Ok(StreamFrame::Batch {
                        segment: as_int(&items[1])?,
                        offset: as_int(&items[2])?,
                        records,
                    })
                }
                b"FILE" if items.len() == 3 => {
                    let (RespValue::Bulk(Some(name)), RespValue::Bulk(Some(chunk))) =
                        (&items[1], &items[2])
                    else {
                        return Err(Error::Transport("malformed FILE frame".into()));
                    };
                    let name = std::str::from_utf8(name)
                        .map_err(|e| transport_err("FILE name", e))?
                        .to_string();
                    checkpoint::check_file_name(&name)
                        .map_err(|e| transport_err("FILE frame", e))?;
                    Ok(StreamFrame::File {
                        name,
                        chunk: chunk.clone(),
                    })
                }
                b"PING" if items.len() == 2 => Ok(StreamFrame::Ping(as_int(&items[1])?)),
                b"CKPT" if items.len() == 5 => Ok(StreamFrame::Ckpt(CheckpointInfo {
                    last_seq: as_int(&items[1])?,
                    wal_segment: as_int(&items[2])?,
                    wal_offset: as_int(&items[3])?,
                    bytes_copied: as_int(&items[4])?,
                })),
                other => Err(Error::Transport(format!(
                    "unknown stream frame tag {:?} ({} items)",
                    String::from_utf8_lossy(other),
                    items.len()
                ))),
            }
        }
        other => Err(Error::Transport(format!(
            "unexpected stream frame: {other:?}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Shared socket plumbing
// ---------------------------------------------------------------------------

/// Read one RESP frame from `stream` via `buffer`, waiting up to `wait`.
/// `Ok(None)` means no complete frame arrived in time. A zero `wait` never
/// blocks: it parses what is buffered, pulls in whatever bytes the socket
/// already holds, and returns `None` the moment nothing more is there.
fn read_frame(
    stream: &mut TcpStream,
    buffer: &mut Vec<u8>,
    wait: Duration,
) -> std::io::Result<Option<RespValue>> {
    let deadline = Instant::now() + wait;
    loop {
        if let Some((value, used)) = RespValue::parse(buffer)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
        {
            buffer.drain(..used);
            return Ok(Some(value));
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if wait.is_zero() {
            stream.set_nonblocking(true)?;
        } else if remaining.is_zero() {
            return Ok(None);
        } else {
            stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
        }
        let mut chunk = [0u8; 16 << 10];
        let read = stream.read(&mut chunk);
        if wait.is_zero() {
            stream.set_nonblocking(false)?;
        }
        match read {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed the replication stream",
                ))
            }
            Ok(n) => buffer.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(None)
            }
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Leader side: serving a replica connection
// ---------------------------------------------------------------------------

/// Outbound batch shipper with the `socket.ship` chaos site: frames can be
/// dropped, duplicated, reordered, or the connection severed.
struct Shipper<'a> {
    stream: &'a mut TcpStream,
    tag: String,
    /// A frame held back by a reorder fault; sent *after* the next frame.
    held: Option<Vec<u8>>,
}

impl Shipper<'_> {
    fn ship(&mut self, frame: Vec<u8>) -> std::io::Result<()> {
        if failpoint::enabled() {
            match failpoint::check("socket.ship", &self.tag) {
                Some(FaultAction::Drop) | Some(FaultAction::Stall) => return Ok(()),
                Some(FaultAction::Duplicate) => {
                    self.stream.write_all(&frame)?;
                    self.stream.write_all(&frame)?;
                    return self.flush_held();
                }
                Some(FaultAction::Reorder) if self.held.is_none() => {
                    self.held = Some(frame);
                    return Ok(());
                }
                Some(FaultAction::Disconnect) => {
                    let _ = self.stream.shutdown(std::net::Shutdown::Both);
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        "injected fault: replication link severed",
                    ));
                }
                _ => {}
            }
        }
        self.stream.write_all(&frame)?;
        self.flush_held()
    }

    fn flush_held(&mut self) -> std::io::Result<()> {
        if let Some(held) = self.held.take() {
            self.stream.write_all(&held)?;
        }
        Ok(())
    }
}

/// Serve one replica connection on the leader: stream framed binlog records
/// from `source` (the leader's store, cloned out of the group under its lock
/// once), absorb `REPLCONF ACK` frames into `state` (under the
/// registration `generation`, so a superseded connection's late acks are
/// discarded), and run the `FULLRESYNC` checkpoint dance when the
/// follower's position fell off retention. Runs until the peer disconnects.
/// The group lock is *not* held anywhere in here — `source` was cloned out
/// once, acks land in shared atomics, and checkpoints stream from pinned
/// files.
fn serve_replica_stream(
    mut stream: TcpStream,
    mut buffer: Vec<u8>,
    source: &Arc<Db>,
    state: &RemoteFollowerState,
    generation: u64,
    first_psync: Option<(u64, u64)>,
    tag: &str,
) -> std::io::Result<()> {
    // Small frames on a long-lived stream: Nagle + delayed-ACK would park
    // each batch for tens of milliseconds, and commit latency rides on it.
    stream.set_nodelay(true).ok();
    /// Keepalive cadence on an idle stream.
    const PING_EVERY: Duration = Duration::from_millis(20);
    let io_other = |e: Error| std::io::Error::other(e.to_string());
    // `None` while awaiting a (re-)PSYNC; `Some` while streaming.
    let mut cursor: Option<Binlog> = None;
    let mut held: Option<Vec<u8>> = None;
    let mut pending_psync = Some(first_psync);
    let mut last_send = Instant::now();
    // Highest record LSN this connection has put on the wire (or dropped at
    // the chaos site — which is the point). Keepalives advertise *this*,
    // never `db.last_seq()`: the live LSN includes records still sitting in
    // the leader's WAL buffer, unpolled and unshipped, and advertising
    // those would make a healthy follower look like it lost frames.
    let mut shipped_lsn: u64 = 0;
    // The store LSN as of the last WAL flush this connection performed.
    let mut flushed_lsn: Option<u64> = None;
    loop {
        // 1. Handle an inbound PSYNC (initial, after FULLRESYNC, or a
        //    follower restart on a kept-alive connection).
        if let Some(position) = pending_psync.take() {
            match position {
                Some((segment, offset)) if Wal::segment_path(source.dir(), segment).exists() => {
                    let mut binlog = Binlog::attach(Arc::clone(source));
                    binlog.seek(segment, offset);
                    stream.write_all(&RespValue::Simple("CONTINUE".into()).to_bytes())?;
                    cursor = Some(binlog);
                }
                Some(_) => {
                    // Fell off retention: the follower must pull a checkpoint.
                    crate::metrics::FULLRESYNCS.inc();
                    stream.write_all(&RespValue::Simple("FULLRESYNC".into()).to_bytes())?;
                    cursor = None;
                }
                None => {
                    // `PSYNC ? -1`: stream a full checkpoint now.
                    crate::metrics::FULLRESYNCS.inc();
                    stream.write_all(&RespValue::Simple("FULLRESYNC".into()).to_bytes())?;
                    send_checkpoint(&mut stream, source).map_err(io_other)?;
                    cursor = None; // follower re-PSYNCs at the edge
                }
            }
        }
        // 2. Drain inbound frames: acks update the shared state, a PSYNC
        //    restarts the handshake above. Strictly non-blocking: a read
        //    timeout here (however small) is rounded up to kernel tick
        //    granularity, and a follower acking every few milliseconds would
        //    keep every read inside the window — the drain would starve the
        //    ship path for entire commit windows.
        while let Some(frame) = read_frame(&mut stream, &mut buffer, Duration::ZERO)? {
            match Command::from_resp(&frame) {
                Ok(cmd) => {
                    if let Some(lsn) = cmd.replconf_ack_lsn() {
                        state.record_ack(generation, lsn);
                    } else if let Command::PSync { position } = cmd {
                        pending_psync = Some(position);
                    }
                }
                Err(_) => {
                    stream.write_all(
                        &RespValue::Error("ERR expected REPLCONF/PSYNC on a replica stream".into())
                            .to_bytes(),
                    )?;
                }
            }
        }
        if pending_psync.is_some() {
            continue;
        }
        // 3. Ship newly framed records.
        let mut progressed = false;
        if let Some(binlog) = cursor.as_mut() {
            // Flush only when the store's LSN moved since the last flush —
            // an idle connection must not hammer the leader Db's write lock
            // once per loop iteration per replica.
            let live_lsn = source.last_seq();
            if flushed_lsn != Some(live_lsn) {
                source.flush_wal().map_err(|e| io_other(e.into()))?;
                flushed_lsn = Some(live_lsn);
            }
            let pre_poll = binlog.position();
            match binlog.poll().map_err(io_other)? {
                Poll::Records(records) if !records.is_empty() => {
                    let (segment, offset) = binlog.position().ok_or_else(|| {
                        io_other(Error::Transport(
                            "binlog cursor lost its position after returning records".into(),
                        ))
                    })?;
                    let resume = pre_poll.unwrap_or((segment, offset));
                    let mut shipper = Shipper {
                        stream: &mut stream,
                        tag: tag.to_string(),
                        held: held.take(),
                    };
                    let chunks = records.chunks(BATCH_RECORDS);
                    let n_chunks = chunks.len();
                    for (i, slice) in chunks.enumerate() {
                        // Only the final chunk advances the advertised
                        // cursor; intermediate chunks under-report with the
                        // pre-poll position, so a disconnect mid-ship makes
                        // the follower re-receive (and dedup) records —
                        // never skip ones it was owed.
                        let (seg, off) = if i + 1 == n_chunks {
                            (segment, offset)
                        } else {
                            resume
                        };
                        let frame = batch_frame(seg, off, slice).to_bytes();
                        crate::metrics::BATCH_FRAMES.inc();
                        crate::metrics::BATCH_BYTES.add(frame.len() as u64);
                        shipper.ship(frame)?;
                    }
                    held = shipper.held.take();
                    if let Some(last) = records.last() {
                        shipped_lsn = shipped_lsn.max(last.seq);
                    }
                    last_send = Instant::now();
                    progressed = true;
                }
                Poll::Records(_) => {
                    // Idle stream: a reorder-held frame has nothing left to
                    // swap with — deliver it now, so the fault reorders
                    // traffic but can never wedge an otherwise-quiet stream
                    // (a WAITing client would starve on the parked records).
                    if let Some(frame) = held.take() {
                        stream.write_all(&frame)?;
                        last_send = Instant::now();
                        progressed = true;
                    } else if last_send.elapsed() >= PING_EVERY && shipped_lsn > 0 {
                        // Keepalive: lets the follower detect lost frames
                        // (its LSN trailing everything this connection ever
                        // shipped, with nothing left in flight) without
                        // waiting for new writes. Shipped through the chaos
                        // site like any other frame.
                        let mut shipper = Shipper {
                            stream: &mut stream,
                            tag: tag.to_string(),
                            held: None,
                        };
                        shipper.ship(ping_frame(shipped_lsn).to_bytes())?;
                        held = shipper.held.take();
                        last_send = Instant::now();
                    }
                }
                Poll::Gap => {
                    // Retention ran past the cursor mid-stream.
                    crate::metrics::FULLRESYNCS.inc();
                    stream.write_all(&RespValue::Simple("FULLRESYNC".into()).to_bytes())?;
                    cursor = None;
                    progressed = true;
                }
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Stream a full leader checkpoint over the socket: the pinned files go
/// straight from [`Db::checkpoint_with`] into `FILE` frames, closed by the
/// `CKPT` frame. Nothing is staged on the leader's disk. The pin is held
/// until the last frame is written, so a stalled follower stalls only its
/// own connection (concurrent writes never do), and a follower that goes
/// away fails the write, which drops the pin.
fn send_checkpoint(stream: &mut TcpStream, source: &Db) -> Result<()> {
    let info = source.checkpoint_with(&mut |name, chunk| {
        Ok(stream.write_all(&file_frame(name, chunk).to_bytes())?)
    })?;
    crate::metrics::STAGED_BYTES.add(info.bytes_copied);
    stream
        .write_all(&ckpt_frame(&info).to_bytes())
        .map_err(|e| transport_err("checkpoint ship", e))
}

// ---------------------------------------------------------------------------
// Follower side: the socket transport
// ---------------------------------------------------------------------------

/// A [`LogTransport`] that tails a remote leader over its RESP port.
///
/// Connection state is self-healing: a severed socket (leader restart,
/// network partition, injected `Disconnect`) is retried on the next poll and
/// the stream resumes with `PSYNC` at the last known position — the leader
/// answers `CONTINUE` if it still retains that log, `FULLRESYNC` otherwise.
pub struct SocketTransport {
    leader_addr: String,
    replica_id: u32,
    stream: Option<TcpStream>,
    buffer: Vec<u8>,
    position: Option<(u64, u64)>,
    /// `CONTINUE` received; BATCH frames are flowing.
    streaming: bool,
    /// The leader told us to full-resync (or we have no position yet).
    gapped: bool,
    /// Highest LSN a leader `PING` keepalive reported. Everything at or
    /// below it was shipped (or lost) *before* the ping, so a follower
    /// still trailing it after applying a poll's records knows frames were
    /// dropped.
    leader_hint: Option<u64>,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("leader", &self.leader_addr)
            .field("replica_id", &self.replica_id)
            .field("position", &self.position)
            .field("connected", &self.stream.is_some())
            .field("streaming", &self.streaming)
            .finish()
    }
}

impl SocketTransport {
    /// Create a transport for `replica_id`, tailing the leader at
    /// `leader_addr`. Does not connect yet — the first poll (or checkpoint
    /// fetch) does, so a follower can be constructed while the leader is
    /// still coming up.
    pub fn new(leader_addr: impl Into<String>, replica_id: u32) -> Self {
        Self {
            leader_addr: leader_addr.into(),
            replica_id,
            stream: None,
            buffer: Vec::new(),
            position: None,
            streaming: false,
            gapped: true,
            leader_hint: None,
        }
    }

    /// The failpoint context this transport's sites use.
    fn tag(&self) -> String {
        format!("replica-{}", self.replica_id)
    }

    fn drop_stream(&mut self) {
        self.stream = None;
        self.buffer.clear();
        self.streaming = false;
        // The hint's guarantee ("everything at or below was shipped before
        // the ping") is per-connection: after a reconnect the leader
        // re-serves from our asked position, so a stale hint would brand
        // re-served-but-not-yet-arrived records as lost.
        self.leader_hint = None;
    }

    /// Connect + REPLCONF handshake. Returns false (and stays disconnected)
    /// when the leader is unreachable — the caller treats that as a stall,
    /// not an error, so partitions heal by themselves.
    fn try_connect(&mut self) -> Result<bool> {
        if self.stream.is_some() {
            return Ok(true);
        }
        let Ok(mut stream) = TcpStream::connect(&self.leader_addr) else {
            return Ok(false);
        };
        stream.set_nodelay(true).ok();
        let handshake = Command::ReplConf {
            pairs: vec![(
                bytes::Bytes::copy_from_slice(b"replica-id"),
                bytes::Bytes::copy_from_slice(self.replica_id.to_string().as_bytes()),
            )],
        };
        if stream.write_all(&handshake.to_resp().to_bytes()).is_err() {
            return Ok(false);
        }
        self.buffer.clear();
        match read_frame(&mut stream, &mut self.buffer, HANDSHAKE_TIMEOUT) {
            Ok(Some(RespValue::Simple(_))) => {
                self.stream = Some(stream);
                self.streaming = false;
                Ok(true)
            }
            Ok(Some(other)) => Err(Error::Transport(format!(
                "REPLCONF handshake refused: {other:?}"
            ))),
            Ok(None) | Err(_) => Ok(false),
        }
    }

    /// Issue `PSYNC` at the current position and process the reply.
    fn request_stream(&mut self) -> Result<()> {
        let Some((segment, offset)) = self.position else {
            self.gapped = true;
            return Ok(());
        };
        let psync: Command = Command::PSync {
            position: Some((segment, offset)),
        };
        let Some(stream) = self.stream.as_mut() else {
            return Ok(());
        };
        if stream.write_all(&psync.to_resp().to_bytes()).is_err() {
            self.drop_stream();
            return Ok(());
        }
        match read_frame(stream, &mut self.buffer, HANDSHAKE_TIMEOUT) {
            Ok(Some(value)) => match decode_stream_frame(&value)? {
                StreamFrame::Continue => {
                    self.streaming = true;
                    Ok(())
                }
                StreamFrame::FullResync => {
                    self.gapped = true;
                    Ok(())
                }
                other => Err(Error::Transport(format!(
                    "PSYNC expected CONTINUE/FULLRESYNC, got {other:?}"
                ))),
            },
            Ok(None) => {
                self.drop_stream();
                Ok(())
            }
            Err(_) => {
                self.drop_stream();
                Ok(())
            }
        }
    }
}

impl LogTransport for SocketTransport {
    fn link_up(&self) -> bool {
        self.stream.is_some()
    }

    fn poll(&mut self) -> Result<Poll> {
        if !self.try_connect()? {
            // Leader unreachable: report no progress, keep the cursor.
            return Ok(Poll::Records(Vec::new()));
        }
        if self.gapped {
            return Ok(Poll::Gap);
        }
        if !self.streaming {
            self.request_stream()?;
            if self.gapped {
                return Ok(Poll::Gap);
            }
            if !self.streaming {
                return Ok(Poll::Records(Vec::new()));
            }
        }
        let mut records = Vec::new();
        while let Some(stream) = self.stream.as_mut() {
            match read_frame(stream, &mut self.buffer, Duration::from_millis(1)) {
                Ok(Some(value)) => match decode_stream_frame(&value)? {
                    StreamFrame::Batch {
                        segment,
                        offset,
                        records: batch,
                    } => {
                        self.position = Some((segment, offset));
                        records.extend(batch);
                    }
                    StreamFrame::FullResync => {
                        self.streaming = false;
                        self.gapped = true;
                        break;
                    }
                    StreamFrame::Ping(lsn) => {
                        self.leader_hint = Some(self.leader_hint.unwrap_or(0).max(lsn));
                    }
                    // CONTINUE duplicates and stray frames are ignorable.
                    _ => {}
                },
                Ok(None) => break,
                Err(_) => {
                    self.drop_stream();
                    break;
                }
            }
        }
        if records.is_empty() && self.gapped {
            return Ok(Poll::Gap);
        }
        Ok(Poll::Records(records))
    }

    fn seek(&mut self, segment: u64, offset: u64) {
        self.position = Some((segment, offset));
        self.gapped = false;
        // The stream (if any) must be renegotiated at the new position, and
        // pre-seek hints no longer describe what should have arrived.
        self.streaming = false;
        self.leader_hint = None;
    }

    fn position(&self) -> Option<(u64, u64)> {
        self.position
    }

    fn leader_lsn_hint(&self) -> Option<u64> {
        self.leader_hint
    }

    fn ack(&mut self, lsn: u64) -> Result<()> {
        if failpoint::enabled() {
            match failpoint::check("socket.ack", &self.tag()) {
                Some(FaultAction::Drop) | Some(FaultAction::Stall) => return Ok(()),
                Some(FaultAction::Disconnect) => {
                    self.drop_stream();
                    return Ok(());
                }
                _ => {}
            }
        }
        let Some(stream) = self.stream.as_mut() else {
            return Ok(());
        };
        if stream
            .write_all(&Command::replconf_ack(lsn).to_resp().to_bytes())
            .is_err()
        {
            self.drop_stream();
        }
        Ok(())
    }

    /// `PSYNC ? -1` → `FULLRESYNC` → `FILE*` → `CKPT`: pull a complete
    /// leader checkpoint into `staging` and leave the cursor at its edge.
    fn fetch_checkpoint(
        &mut self,
        staging: &Path,
        on_chunk: &mut dyn FnMut(usize),
    ) -> Result<CheckpointInfo> {
        if !self.try_connect()? {
            return Err(Error::Transport(
                "leader unreachable for full resync".into(),
            ));
        }
        self.streaming = false;
        {
            let stream = self
                .stream
                .as_mut()
                .ok_or_else(|| Error::Transport("stream closed before resync handshake".into()))?;
            stream
                .write_all(
                    &Command::<bytes::Bytes>::PSync { position: None }
                        .to_resp()
                        .to_bytes(),
                )
                .map_err(|e| transport_err("PSYNC ? -1", e))?;
        }
        let deadline = Instant::now() + FETCH_TIMEOUT;
        // Await FULLRESYNC, skipping stale BATCH frames still in flight.
        loop {
            let stream = self
                .stream
                .as_mut()
                .ok_or_else(|| Error::Transport("stream closed during resync handshake".into()))?;
            let remaining = deadline.saturating_duration_since(Instant::now());
            match read_frame(stream, &mut self.buffer, remaining).map_err(self_heal_err) {
                Ok(Some(value)) => match decode_stream_frame(&value)? {
                    StreamFrame::FullResync => break,
                    _ => continue,
                },
                Ok(None) => {
                    self.drop_stream();
                    return Err(Error::Transport("timed out awaiting FULLRESYNC".into()));
                }
                Err(e) => {
                    self.drop_stream();
                    return Err(e);
                }
            }
        }
        let mut staged = Staging::create(staging)?;
        let result = (|| -> Result<CheckpointInfo> {
            loop {
                let stream = self
                    .stream
                    .as_mut()
                    .ok_or_else(|| Error::Transport("stream lost mid-checkpoint".into()))?;
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(Error::Transport("checkpoint fetch timed out".into()));
                }
                match read_frame(stream, &mut self.buffer, remaining).map_err(self_heal_err)? {
                    Some(value) => match decode_stream_frame(&value)? {
                        StreamFrame::File { name, chunk } => {
                            staged.write(&name, &chunk)?;
                            on_chunk(chunk.len());
                        }
                        StreamFrame::Ckpt(info) => return Ok(info),
                        // Stale batches from before the resync are ignorable.
                        _ => {}
                    },
                    None => return Err(Error::Transport("checkpoint fetch timed out".into())),
                }
            }
        })();
        let info = result.inspect_err(|_| self.drop_stream())?;
        self.seek(info.wal_segment, info.wal_offset);
        // Resume the incremental stream at the edge.
        self.request_stream()?;
        staged.keep();
        Ok(info)
    }
}

fn self_heal_err(e: std::io::Error) -> Error {
    Error::Transport(format!("replication stream failed: {e}"))
}

// ---------------------------------------------------------------------------
// Leader side: accepting a replica
// ---------------------------------------------------------------------------

/// Allocate an id for a follower that connected without announcing
/// `REPLCONF replica-id` — one process-wide sequence, well clear of the
/// cluster's node-id space, so no two anonymous followers share an id.
fn anonymous_replica_id() -> u32 {
    static REPLICA_SEQ: AtomicU64 = AtomicU64::new(1 << 20);
    REPLICA_SEQ.fetch_add(1, Ordering::Relaxed) as u32
}

/// What accepting a remote follower yields: the leader's store its
/// connection streams from, the shared ack state `WAIT` and write concerns
/// read, and the registration generation the connection acks and
/// disconnects under.
pub type AcceptedReplica = (Arc<Db>, Arc<RemoteFollowerState>, u64);

/// Serve `stream`, whose client just sent `PSYNC position`, as a replica
/// connection: `register` accepts the follower by id (a refusal is
/// answered with an error reply), the stream runs until the peer goes away
/// (`serve_replica_stream`), and the follower is marked disconnected —
/// generation-guarded, so a connection the follower already replaced cannot
/// mark the live one down. `leftover` is what the client pipelined after
/// `PSYNC`. `register` is the only step that may take the group lock; the
/// stream itself, and any checkpoint it ships, runs with the group unlocked.
pub fn serve_replica(
    mut stream: TcpStream,
    leftover: Vec<u8>,
    position: Option<(u64, u64)>,
    replica_id: Option<u32>,
    register: impl FnOnce(u32) -> std::result::Result<AcceptedReplica, String>,
) -> std::io::Result<()> {
    let id = replica_id.unwrap_or_else(anonymous_replica_id);
    let (source, remote, generation) = match register(id) {
        Ok(registered) => registered,
        Err(e) => {
            stream.write_all(&RespValue::Error(format!("ERR replication: {e}")).to_bytes())?;
            return Ok(());
        }
    };
    let tag = format!("replica-{id}");
    let result = serve_replica_stream(
        stream, leftover, &source, &remote, generation, position, &tag,
    );
    remote.disconnect(generation);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{GroupConfig, ReplicaGroup, WriteConcern};
    use crate::Follower;
    use abase_lavastore::DbConfig;
    use abase_util::lockrank::RankedMutex as Mutex;
    use abase_util::TestDir;
    use std::net::TcpListener;

    /// The replica handshake on a raw socket, as the RESP server runs it
    /// inside its command loop: `REPLCONF` frames get `+OK`, the first
    /// `PSYNC` hands the socket to [`serve_replica`].
    fn serve_group_replica(mut stream: TcpStream, group: &Mutex<ReplicaGroup>) -> Result<()> {
        let mut buffer = Vec::new();
        let mut replica_id: Option<u32> = None;
        loop {
            let frame = read_frame(&mut stream, &mut buffer, HANDSHAKE_TIMEOUT)
                .map_err(|e| transport_err("replica handshake", e))?
                .ok_or_else(|| Error::Transport("replica handshake timed out".into()))?;
            match Command::from_resp(&frame) {
                Ok(cmd @ Command::ReplConf { .. }) => {
                    if let Some(id) = cmd.replconf_option("replica-id") {
                        replica_id = Some(id as u32);
                    }
                    stream.write_all(&RespValue::ok().to_bytes()).unwrap();
                }
                Ok(Command::PSync { position }) => {
                    return serve_replica(stream, buffer, position, replica_id, |id| {
                        let mut g = group.lock();
                        let source = g.leader_db().map_err(|e| e.to_string())?;
                        let (state, generation) =
                            g.register_remote_follower(id).map_err(|e| e.to_string())?;
                        Ok((source, state, generation))
                    })
                    .map_err(|e| transport_err("replica stream", e));
                }
                other => panic!("unexpected frame on a replica port: {other:?}"),
            }
        }
    }

    /// A minimal leader endpoint: every accepted connection is served as a
    /// replica.
    fn spawn_leader_endpoint(group: Arc<Mutex<ReplicaGroup>>) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let group = Arc::clone(&group);
                std::thread::spawn(move || {
                    let _ = serve_group_replica(stream, &group);
                });
            }
        });
        addr
    }

    fn test_group(dir: &TestDir) -> Arc<Mutex<ReplicaGroup>> {
        test_group_with(dir, DbConfig::small_for_tests())
    }

    fn test_group_with(dir: &TestDir, db: DbConfig) -> Arc<Mutex<ReplicaGroup>> {
        let group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[1],
            GroupConfig {
                write_concern: WriteConcern::Quorum,
                db,
                wait_timeout: Duration::from_secs(5),
            },
        )
        .unwrap();
        Arc::new(group.into_mutex())
    }

    /// Names of the entries directly under `dir`, sorted.
    fn entry_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    fn pin_dirs(dir: &Path) -> usize {
        entry_names(dir)
            .iter()
            .filter(|n| n.starts_with(".ckpt-pin-"))
            .count()
    }

    #[test]
    fn a_stalled_follower_holds_one_pin_and_no_leader_side_copy() {
        let dir = TestDir::new("socket-stall-leader");
        // A large memtable keeps the load in one WAL segment: no flush or
        // compaction work, and still every byte of it is in the snapshot.
        let group = test_group_with(&dir, DbConfig::default());
        let addr = spawn_leader_endpoint(Arc::clone(&group));
        let db = group.lock().leader_db().unwrap();
        // Incompressible values, well past what loopback buffers hold.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut value = vec![0u8; 4 << 10];
        for i in 0..5 * 1024 {
            for b in value.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *b = x as u8;
            }
            db.put(format!("k{i:05}").as_bytes(), &value, None, 0)
                .unwrap();
        }
        db.flush_wal().unwrap();
        let parent = db.dir().parent().unwrap().to_path_buf();
        let before = entry_names(&parent);

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                &Command::<bytes::Bytes>::PSync { position: None }
                    .to_resp()
                    .to_bytes(),
            )
            .unwrap();
        let mut buffer = Vec::new();
        loop {
            let frame = read_frame(&mut stream, &mut buffer, HANDSHAKE_TIMEOUT)
                .unwrap()
                .expect("the leader answers a full resync");
            match decode_stream_frame(&frame).unwrap() {
                StreamFrame::FullResync => {}
                StreamFrame::File { .. } => break,
                other => panic!("expected FULLRESYNC then FILE, got {other:?}"),
            }
        }
        // Stop reading: the leader fills the socket buffers and blocks
        // mid-stream, with its pin held.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(
            entry_names(&parent),
            before,
            "the leader staged a copy beside its data dir"
        );
        assert!(pin_dirs(db.dir()) <= 1, "more than one checkpoint pin");

        // The follower goes away: the leader's write fails and the pin goes.
        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(10);
        while pin_dirs(db.dir()) > 0 {
            assert!(
                Instant::now() < deadline,
                "a severed checkpoint stream stranded its pin"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn local_and_socket_checkpoints_stage_identical_trees() {
        let dir = TestDir::new("socket-sinks-leader");
        let local = TestDir::new("socket-sinks-local");
        let remote = TestDir::new("socket-sinks-remote");
        let group = test_group(&dir);
        let addr = spawn_leader_endpoint(Arc::clone(&group));
        let db = group.lock().leader_db().unwrap();
        for i in 0..200 {
            db.put(format!("k{i:04}").as_bytes(), &[i as u8; 48], None, 0)
                .unwrap();
        }
        // The flush leaves the live WAL segment empty; the leader is quiet
        // from here on.
        db.flush().unwrap();

        let (mut local_bytes, mut remote_bytes) = (0usize, 0usize);
        let local_info = Binlog::attach(Arc::clone(&db))
            .fetch_checkpoint(local.path(), &mut |n| local_bytes += n)
            .unwrap();
        let remote_info = SocketTransport::new(addr.to_string(), 102)
            .fetch_checkpoint(remote.path(), &mut |n| remote_bytes += n)
            .unwrap();
        assert_eq!(local_info, remote_info);
        assert_eq!(local_bytes, remote_bytes);

        let names = entry_names(local.path());
        assert_eq!(names, entry_names(remote.path()));
        assert!(names.iter().any(|n| n.ends_with(".sst")));
        assert!(names.iter().any(|n| n == "MANIFEST"));
        let empty_wal = Wal::segment_path(local.path(), local_info.wal_segment);
        assert_eq!(local_info.wal_offset, 0);
        assert_eq!(std::fs::metadata(&empty_wal).unwrap().len(), 0);
        for name in &names {
            assert_eq!(
                std::fs::read(local.path().join(name)).unwrap(),
                std::fs::read(remote.path().join(name)).unwrap(),
                "{name} differs between the two sinks"
            );
        }
    }

    #[test]
    fn socket_follower_full_resync_ship_and_wait_over_tcp() {
        let dir = TestDir::new("socket-e2e-leader");
        let fdir = TestDir::new("socket-e2e-follower");
        let group = test_group(&dir);
        let addr = spawn_leader_endpoint(Arc::clone(&group));
        // Pre-existing leader state: the fresh follower must pull it via the
        // `PSYNC ? -1` checkpoint path before tailing.
        for i in 0..20 {
            let db = group.lock().leader_db().unwrap();
            db.put(format!("seed{i:02}").as_bytes(), &[7u8; 32], None, 0)
                .unwrap();
        }
        let mut follower = Follower::connect(
            fdir.path().join("replica"),
            DbConfig::small_for_tests(),
            &addr.to_string(),
            100,
        )
        .unwrap();
        // First pump: gap (no position) → checkpoint fetch + install.
        let deadline = Instant::now() + Duration::from_secs(10);
        while follower.last_seq() < 20 {
            assert!(Instant::now() < deadline, "follower never caught up");
            follower.pump().unwrap();
        }
        assert_eq!(follower.resyncs(), 1);
        assert!(follower.db().get(b"seed00", 0).unwrap().value.is_some());
        // Live tailing: a new write ships incrementally (no further resync)
        // and the ack feeds the leader group's WAIT arithmetic.
        let lsn = {
            let db = group.lock().leader_db().unwrap();
            db.put(b"live", b"x", None, 0).unwrap();
            db.last_seq()
        };
        let waiter = {
            let group = Arc::clone(&group);
            let wait = move || crate::catchup::wait(&*group, lsn, 1, Duration::from_secs(10));
            std::thread::spawn(wait)
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while follower.last_seq() < lsn {
            assert!(Instant::now() < deadline, "live write never shipped");
            follower.pump().unwrap();
        }
        // Keep acking until the waiter observes it.
        let acked = loop {
            follower.pump().unwrap();
            if waiter.is_finished() {
                break waiter.join().unwrap().unwrap();
            }
            assert!(Instant::now() < deadline, "WAIT never saw the remote ack");
        };
        assert_eq!(acked, 1, "remote follower must satisfy WAIT");
        assert_eq!(follower.resyncs(), 1, "tailing must not re-resync");
        assert!(follower.db().get(b"live", 0).unwrap().value.is_some());
        // The group's status surfaces the remote follower.
        let status = group.lock().status();
        assert_eq!(status.remote_followers.len(), 1);
        assert_eq!(status.remote_followers[0].0, 100);
        assert!(status.remote_followers[0].1 >= lsn);
    }

    #[test]
    fn stale_position_gets_fullresync_marker_then_checkpoint() {
        let dir = TestDir::new("socket-stale-leader");
        let fdir = TestDir::new("socket-stale-follower");
        let group = test_group(&dir);
        let addr = spawn_leader_endpoint(Arc::clone(&group));
        // Rotate the leader's WAL far past its retention so segment 0 is gone.
        {
            let g = group.lock();
            let db = g.leader_db().unwrap();
            let backlog = db.config().wal_retention_segments;
            for round in 0..backlog + 3 {
                for i in 0..20 {
                    db.put(format!("r{round}-k{i}").as_bytes(), &[5u8; 64], None, 0)
                        .unwrap();
                }
                db.flush().unwrap();
            }
        }
        // A follower claiming position (0, 0) must be told to full-resync.
        let mut transport = SocketTransport::new(addr.to_string(), 101);
        LogTransport::seek(&mut transport, 0, 0);
        let mut follower = Follower::with_transport(
            fdir.path().join("replica"),
            DbConfig::small_for_tests(),
            Box::new(transport),
        )
        .unwrap();
        let leader_lsn = group.lock().leader_db().unwrap().last_seq();
        let deadline = Instant::now() + Duration::from_secs(10);
        while follower.last_seq() < leader_lsn {
            assert!(Instant::now() < deadline, "stale follower never recovered");
            follower.pump().unwrap();
        }
        assert_eq!(follower.resyncs(), 1, "recovery must go through FULLRESYNC");
    }

    #[test]
    fn stream_frames_roundtrip() {
        let records = vec![
            Record::put("k1", "v1", 5, None),
            Record::delete("k2", 6),
            Record::put("k3", "", 7, Some(99)),
        ];
        let frame = batch_frame(3, 128, &records);
        match decode_stream_frame(&frame).unwrap() {
            StreamFrame::Batch {
                segment,
                offset,
                records: decoded,
            } => {
                assert_eq!((segment, offset), (3, 128));
                assert_eq!(decoded, records);
            }
            other => panic!("expected batch, got {other:?}"),
        }
        let info = CheckpointInfo {
            last_seq: 42,
            wal_segment: 7,
            wal_offset: 4096,
            bytes_copied: 1 << 20,
        };
        match decode_stream_frame(&ckpt_frame(&info)).unwrap() {
            StreamFrame::Ckpt(decoded) => {
                assert_eq!(decoded.last_seq, 42);
                assert_eq!(decoded.wal_segment, 7);
                assert_eq!(decoded.wal_offset, 4096);
                assert_eq!(decoded.bytes_copied, 1 << 20);
            }
            other => panic!("expected ckpt, got {other:?}"),
        }
        match decode_stream_frame(&file_frame("MANIFEST", b"abc")).unwrap() {
            StreamFrame::File { name, chunk } => {
                assert_eq!(name, "MANIFEST");
                assert_eq!(chunk.as_ref(), b"abc");
            }
            other => panic!("expected file, got {other:?}"),
        }
        assert!(matches!(
            decode_stream_frame(&RespValue::Simple("CONTINUE".into())).unwrap(),
            StreamFrame::Continue
        ));
        assert!(matches!(
            decode_stream_frame(&RespValue::Simple("FULLRESYNC".into())).unwrap(),
            StreamFrame::FullResync
        ));
    }

    #[test]
    fn hostile_file_names_are_refused() {
        for name in ["../escape", "a/b", "a\\b"] {
            let frame = file_frame(name, b"x");
            assert!(
                decode_stream_frame(&frame).is_err(),
                "{name} should be refused"
            );
        }
        // The same names on the local path: the staging writer refuses them
        // and writes nothing outside its directory.
        let root = TestDir::new("hostile-staging");
        let mut staging = Staging::create(&root.path().join("stage")).unwrap();
        for name in ["../x", "a/b", "a\\b"] {
            assert!(
                staging.write(name, b"x").is_err(),
                "{name} should be refused by the staging writer"
            );
        }
        assert_eq!(entry_names(root.path()), ["stage"]);
        assert!(entry_names(&root.path().join("stage")).is_empty());
    }

    #[test]
    fn malformed_frames_error_instead_of_skipping() {
        assert!(decode_stream_frame(&RespValue::Integer(7)).is_err());
        assert!(decode_stream_frame(&RespValue::array(vec![RespValue::bulk("BOGUS")])).is_err());
        // A BATCH whose payload is torn mid-record must surface.
        let torn = RespValue::array(vec![
            RespValue::bulk("BATCH"),
            RespValue::Integer(1),
            RespValue::Integer(2),
            RespValue::bulk(&b"\x05"[..]),
        ]);
        assert!(decode_stream_frame(&torn).is_err());
    }
}
