//! Group-commit write-ahead log.
//!
//! An append encodes its record into one in-memory buffer — no header, no
//! checksum. A **drain** (the byte-threshold or interval flush, a group-commit
//! leader, an explicit flush, a rotation, a checkpoint cursor, an orderly
//! close, a torn write) seals the whole buffer into **one frame** and writes
//! it to the segment file. The frame's body is stored as an SST data block is
//! ([`lz::store`]): compressed when that saves an eighth, raw otherwise, with
//! a trailer byte naming which.
//!
//! ```text
//! frame:   crc32(stored) u32 LE | stored len u32 LE | stored
//! stored:  records… | 0                           (raw)
//!          varint raw_len | LZ4 sequences | 1     (when that saves ≥ 1/8)
//! records: Record::encode, back to back, at least one, ending exactly at the end
//! record:  varint klen | key | flags u8 | varint seq | [varint expires_at] | varint vlen | value
//! ```
//!
//! A frame says nothing about which format it is in — the directory's
//! `MANIFEST` magic does (`version.rs`) — so replay requires a frame's records
//! to end exactly where the frame does. Replay stops cleanly at a torn tail
//! (a short or CRC-bad *final* frame) and recovers every whole frame before
//! it; a CRC-bad frame in mid-log, or a frame that ends mid-record, is
//! corruption.
//!
//! **Durability.** A crash that tears a drain loses the whole drain, not one
//! record, and the contract is what it was with a frame per record, because
//! no record of a torn drain was ever promised. With `sync_on_append`, a
//! record is acknowledged only by the fsync that follows its drain's write,
//! so a drain torn before that fsync holds no acknowledged record. Without
//! it nothing was promised; and `kill -9` never tears a `write(2)` that
//! already reached the page cache — only losing the machine can.
//!
//! The writer side is shared by every stripe of the engine: concurrent
//! writers append into one buffer under a short mutex, and durability is
//! amortized by *group commit* — when `sync_on_append` is set, a committer
//! that finds an fsync already in flight parks on a condvar and is covered by
//! that fsync (or the next one) instead of issuing its own; the leader seals
//! and writes with the lock released. Without `sync_on_append`, the buffer
//! drains to the OS when it crosses a byte threshold or a flush interval
//! elapses (writer-driven; no background thread), so the write path issues
//! large sequential writes instead of one syscall per record, and pays the
//! compression and the checksum once per drain.
//!
//! The log is also the engine's **LSN allocator**: appends assign the next
//! sequence number under the same lock that orders records into the buffer,
//! so the on-disk record order always equals sequence order — the single
//! monotone LSN stream replication tailing depends on.
//!
//! Three watermarks, all *excluding* torn bytes:
//!
//! * `appended` — record bytes accepted into the segment (buffer + file);
//! * `flushed`  — whole-frame bytes written to the file, i.e. what a tail
//!   reader ([`Wal::replay_from`]) can observe; checkpoint cursors and
//!   [`Wal::position`] report this, so a recorded offset is always a frame
//!   boundary, never inside a torn or still-buffered frame;
//! * `durable_seq` — the highest sequence number covered by an fsync.
//!
//! A failed fsync or a torn write **poisons** the log: the simulated (or
//! real) process died mid-write, so every further append fails until the
//! engine reopens and replays. Poisoning is what keeps a failed-durability
//! append from silently surfacing on a later flush.

use crate::encoding::crc32;
use crate::error::{Error, Result};
use crate::lz;
use crate::metrics;
use crate::record::Record;
use abase_obs::Timer;
use abase_util::failpoint::{self, FaultAction};
use abase_util::lockrank::{rank, RankedCondvar, RankedMutex, RankedMutexGuard};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Bytes of a frame before its stored body: the CRC and the length.
const FRAME_HEADER: usize = 8;

/// Tuning for the group-commit writer (subset of `DbConfig`).
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// fsync before acknowledging appends (durability vs. throughput).
    pub sync_on_append: bool,
    /// Buffered bytes that trigger a flush to the OS on the next commit.
    pub group_commit_bytes: usize,
    /// Elapsed time since the last flush that triggers one on the next
    /// commit (writer-driven: checked on the write path, no timer thread).
    pub group_commit_interval: Duration,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            sync_on_append: false,
            group_commit_bytes: 64 << 10,
            group_commit_interval: Duration::from_millis(5),
        }
    }
}

/// Append one frame holding `records` — [`Record::encode`]d back to back, at
/// least one — to `out` (see the module docs); `lz` is only working space.
pub fn encode_frame(records: &[u8], lz: &mut lz::Compressor, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    lz::store(records, lz, out);
    let stored = &out[start + FRAME_HEADER..];
    let (crc, len) = (crc32(stored), stored.len() as u32);
    out[start..start + 4].copy_from_slice(&crc.to_le_bytes());
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
}

/// Append the records a frame's stored body holds to `out`.
fn decode_frame(stored: &[u8], out: &mut Vec<Record>) -> Result<()> {
    let records = lz::load(stored)?;
    if records.is_empty() {
        return Err(Error::Corruption("wal frame holds no record".into()));
    }
    let mut pos = 0;
    while pos < records.len() {
        out.push(Record::decode(&records, &mut pos)?);
    }
    Ok(())
}

/// What a drain seals the buffer with, reused from drain to drain.
#[derive(Debug, Default)]
struct Sealer {
    lz: lz::Compressor,
    frame: Vec<u8>,
}

impl Sealer {
    /// The frame holding `records`, valid until the next call.
    fn seal(&mut self, records: &[u8]) -> &[u8] {
        self.frame.clear();
        encode_frame(records, &mut self.lz, &mut self.frame);
        &self.frame
    }
}

/// Free a reused buffer that one huge drain grew past `kept` bytes.
fn trim(buf: &mut Vec<u8>, kept: usize) {
    if buf.capacity() > kept {
        *buf = Vec::new();
    }
}

/// Mutable writer state, guarded by the log mutex.
#[derive(Debug)]
struct WalState {
    file: File,
    /// Segment id of the file currently receiving appends.
    segment: u64,
    /// The segment's path, used as fail-point context (chaos targets one
    /// replica's log by directory substring).
    context: String,
    /// Records appended since the last drain, encoded back to back, in
    /// sequence order.
    buf: Vec<u8>,
    /// The compressor and frame buffer drains seal `buf` with. A
    /// group-commit leader takes it while it writes with the lock released;
    /// every other drain waits for `syncing` to clear first, so it is
    /// always here when one runs.
    sealer: Option<Sealer>,
    /// Record bytes accepted into this segment (buffer + file).
    appended: u64,
    /// Whole-frame bytes written to this segment's file.
    flushed: u64,
    /// Whole-frame bytes written to every segment over this log's life.
    written: u64,
    /// Highest sequence number covered by an fsync (global, not per-segment).
    durable_seq: u64,
    /// Next sequence number to allocate — the engine's one LSN allocator.
    next_seq: u64,
    /// Records appended since the last successful fsync (batch-size metric).
    records_unsynced: u64,
    /// When the buffer last drained (interval trigger).
    last_flush: Instant,
    /// A group-commit leader is fsyncing with the lock released; file writes
    /// must wait so frames land in sequence order.
    syncing: bool,
    /// Set after a torn write or failed fsync: the simulated process died
    /// mid-write, so every further append fails until reopen.
    poisoned: bool,
}

impl WalState {
    /// Count a frame of `stored` bytes, sealed from `raw` record bytes, that
    /// reached the file.
    fn wrote_frame(&mut self, raw: usize, stored: usize) {
        self.flushed += stored as u64;
        self.written += stored as u64;
        metrics::WAL_RAW_BYTES.add(raw as u64);
        metrics::WAL_APPEND_BYTES.add(stored as u64);
    }

    /// Seal the (non-empty) buffer into one frame and write it: a drain. The
    /// buffer is emptied whether or not the write succeeds.
    fn drain(&mut self, kept: usize) -> std::io::Result<()> {
        // INVARIANT: only a `syncing` leader takes the sealer, and every
        // caller waits for `syncing` to clear (or holds `&mut Wal`).
        let sealer = self.sealer.as_mut().expect("no drain runs beside a leader");
        let frame = sealer.seal(&self.buf);
        let (raw, stored) = (self.buf.len(), frame.len());
        let result = self.file.write_all(frame);
        trim(&mut sealer.frame, kept);
        self.buf.clear();
        trim(&mut self.buf, kept);
        if result.is_ok() {
            self.wrote_frame(raw, stored);
        }
        result
    }
}

/// An append-only record log with group commit.
#[derive(Debug)]
pub struct Wal {
    state: RankedMutex<WalState>,
    cond: RankedCondvar,
    opts: WalOptions,
}

fn injected_io(what: &str) -> Error {
    Error::Io(std::io::Error::other(format!("injected fault: {what}")))
}

fn poisoned_err() -> Error {
    Error::Io(std::io::Error::other(
        "wal poisoned by earlier torn write or failed fsync",
    ))
}

impl Wal {
    /// The on-disk name of WAL segment `id` inside a database directory.
    pub fn segment_path(dir: &Path, id: u64) -> PathBuf {
        dir.join(format!("wal-{id:010}.log"))
    }

    /// WAL segment ids present in `dir`, ascending (ascending id is
    /// chronological: ids come from one monotonic file-id allocator).
    pub fn list_segments(dir: &Path) -> Result<Vec<u64>> {
        let mut ids: Vec<u64> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let id = name.strip_prefix("wal-")?.strip_suffix(".log")?;
                id.parse::<u64>().ok()
            })
            .collect();
        ids.sort_unstable();
        Ok(ids)
    }

    /// Create (truncating) a new log at `path` for segment `segment`, with
    /// the sequence allocator starting at `next_seq`.
    pub fn create(path: &Path, segment: u64, next_seq: u64, opts: WalOptions) -> Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            state: RankedMutex::new(
                rank::WAL_STATE,
                WalState {
                    file,
                    segment,
                    context: path.display().to_string(),
                    buf: Vec::new(),
                    sealer: Some(Sealer::default()),
                    appended: 0,
                    flushed: 0,
                    written: 0,
                    durable_seq: next_seq.saturating_sub(1),
                    next_seq,
                    records_unsynced: 0,
                    last_flush: Instant::now(),
                    syncing: false,
                    poisoned: false,
                },
            ),
            cond: RankedCondvar::new(),
            opts,
        })
    }

    /// A reused drain buffer that grew past this is freed: the stored-block
    /// limit, or twice the drain threshold when that is larger, so a
    /// threshold-sized drain of incompressible records keeps its buffers and
    /// one holding a huge record does not.
    fn kept_bytes(&self) -> usize {
        lz::KEPT_STORED_BYTES.max(self.opts.group_commit_bytes.saturating_mul(2))
    }

    /// Append a record, allocating the next sequence number into
    /// `record.seq`. The record enters the shared buffer in sequence order;
    /// call [`Wal::commit`] with the returned seq to make it durable. When
    /// not fsyncing, the append itself drains the buffer to the OS on the
    /// byte-threshold or interval trigger — no separate commit call needed.
    ///
    /// A fail-point `Error` consumes no sequence number; a `TornWrite`
    /// writes a partial frame to the file (excluded from every watermark)
    /// and poisons the log.
    pub fn append_next(&self, record: &mut Record) -> Result<u64> {
        let mut state = self.state.lock();
        if state.poisoned {
            return Err(poisoned_err());
        }
        let seq = state.next_seq;
        record.seq = seq;
        self.append_locked(&mut state, record)?;
        state.next_seq = seq + 1;
        Ok(seq)
    }

    /// Append a record that carries its own (leader-assigned) sequence
    /// number. Returns `Ok(false)` when the record was already appended
    /// (`seq` below the allocator) — idempotent at-least-once shipping — and
    /// an error on a sequence gap, keeping this log a strict prefix of its
    /// leader's.
    pub fn append_at(&self, record: &Record) -> Result<bool> {
        let mut state = self.state.lock();
        if record.seq < state.next_seq {
            return Ok(false);
        }
        if record.seq > state.next_seq {
            return Err(Error::InvalidState(format!(
                "replication gap: record seq {} but follower expects {}",
                record.seq, state.next_seq
            )));
        }
        if state.poisoned {
            return Err(poisoned_err());
        }
        self.append_locked(&mut state, record)?;
        state.next_seq = record.seq + 1;
        Ok(true)
    }

    fn append_locked(
        &self,
        state: &mut RankedMutexGuard<'_, WalState>,
        record: &Record,
    ) -> Result<()> {
        match failpoint::check("wal.append", &state.context) {
            Some(FaultAction::Error) => return Err(injected_io("wal append failed")),
            Some(FaultAction::TornWrite { keep_bytes }) => {
                return self.tear(state, record, keep_bytes as usize)
            }
            _ => {}
        }
        let timer = Timer::start();
        // The write path's critical section is one encode into the shared
        // buffer: the frame header, the compression and the CRC are paid
        // once per drain.
        let start = state.buf.len();
        record.encode(&mut state.buf);
        state.appended += (state.buf.len() - start) as u64;
        state.records_unsynced += 1;
        timer.observe(&metrics::WAL_APPEND_MICROS);
        // Non-durable group commit drains inside the append's lock hold (no
        // second lock acquisition on the write path) once the buffer crosses
        // the byte threshold or the flush interval lapses.
        if !self.opts.sync_on_append
            && (state.buf.len() >= self.opts.group_commit_bytes
                || state.last_flush.elapsed() >= self.opts.group_commit_interval)
        {
            self.flush_to_os_locked(state)?;
        }
        Ok(())
    }

    /// Simulate a crash mid-append (the `TornWrite` fail point): the pending
    /// buffer lands as one whole frame — a real crash loses only the write in
    /// flight — then `keep_bytes` of a frame holding `record`, then the log
    /// is dead until reopened. The torn bytes advance *no* watermark, so
    /// positions and checkpoint cursors never point inside the tear, and
    /// replay and tail reads stop before it.
    fn tear(
        &self,
        state: &mut RankedMutexGuard<'_, WalState>,
        record: &Record,
        keep_bytes: usize,
    ) -> Result<()> {
        // A group-commit leader's batch precedes the pending records.
        while state.syncing {
            self.cond.wait(state);
        }
        if state.poisoned {
            return Err(poisoned_err());
        }
        let drained = if state.buf.is_empty() {
            Ok(())
        } else {
            state.drain(self.kept_bytes())
        };
        let mut one = Vec::new();
        record.encode(&mut one);
        let mut sealer = Sealer::default();
        let frame = sealer.seal(&one);
        let keep = keep_bytes.min(frame.len() - 1);
        let torn = drained.and_then(|()| state.file.write_all(&frame[..keep]));
        state.poisoned = true;
        self.cond.notify_all();
        torn?;
        Err(injected_io("torn wal append"))
    }

    /// The durable path of a `sync_on_append` log: make everything up to
    /// `seq` durable, joining an in-flight group fsync when one already
    /// covers it. A log without `sync_on_append` promises no durability and
    /// drains on append instead, so it never commits.
    pub fn commit(&self, seq: u64) -> Result<()> {
        debug_assert!(self.opts.sync_on_append, "commit on a non-durable log");
        let mut state = self.state.lock();
        loop {
            if state.poisoned {
                return Err(poisoned_err());
            }
            if state.durable_seq >= seq {
                metrics::GROUP_COMMIT_COMMITS.inc();
                return Ok(());
            }
            if !state.syncing {
                break;
            }
            // Another committer's fsync is in flight; it (or the next one)
            // will cover this seq. Park instead of queueing a second fsync.
            self.cond.wait(&mut state);
        }
        // Become the group leader: take the batch and the sealer, release
        // the lock, seal, write and sync.
        let file = state.file.try_clone()?;
        state.syncing = true;
        let batch = std::mem::take(&mut state.buf);
        // INVARIANT: `syncing` was clear, so no other leader holds it.
        let mut sealer = state.sealer.take().expect("the sealer is home");
        let end_seq = state.next_seq - 1;
        let records = state.records_unsynced;
        let context = state.context.clone();
        drop(state);
        let sync_result: Result<usize> = (|| {
            if let Some(FaultAction::Error) = failpoint::check("wal.sync", &context) {
                return Err(injected_io("wal fsync failed"));
            }
            let frame: &[u8] = if batch.is_empty() {
                &[]
            } else {
                sealer.seal(&batch)
            };
            let fsync_timer = Timer::start();
            (&file).write_all(frame)?;
            file.sync_data()?;
            fsync_timer.observe(&metrics::WAL_FSYNC_MICROS);
            Ok(frame.len())
        })();
        trim(&mut sealer.frame, self.kept_bytes());
        let mut state = self.state.lock();
        state.syncing = false;
        state.sealer = Some(sealer);
        match sync_result {
            Ok(stored) => {
                state.wrote_frame(batch.len(), stored);
                state.durable_seq = state.durable_seq.max(end_seq);
                state.records_unsynced = 0;
                state.last_flush = Instant::now();
                metrics::GROUP_COMMIT_FSYNCS.inc();
                metrics::GROUP_COMMIT_BATCH_FRAMES.record(records);
                metrics::GROUP_COMMIT_COMMITS.inc();
                self.cond.notify_all();
                Ok(())
            }
            Err(e) => {
                // The batch's durability failed after its appends were
                // acknowledged into the buffer; if any of it reached the OS
                // it must never silently count as applied. Poison so every
                // later append/commit fails until the engine reopens and
                // replays only what the file actually holds.
                state.poisoned = true;
                self.cond.notify_all();
                Err(e)
            }
        }
    }

    /// Drain buffered records to the OS (without fsync), so tail readers
    /// can observe them. A fail-point `Error` here is transient: it fails
    /// the call without changing any state.
    pub fn flush(&self) -> Result<()> {
        let context = self.state.lock().context.clone();
        // `check` sleeps internally for `DelayMs`; only `Error` fails here.
        if let Some(FaultAction::Error) = failpoint::check("wal.flush", &context) {
            return Err(injected_io("wal flush failed"));
        }
        let mut state = self.state.lock();
        while state.syncing {
            self.cond.wait(&mut state);
        }
        if state.poisoned {
            // Torn/failed-sync paths already drained or discarded the
            // buffer; old frames in the file stay readable.
            debug_assert!(state.buf.is_empty());
            return Ok(());
        }
        self.flush_to_os_locked(&mut state)
    }

    fn flush_to_os_locked(&self, state: &mut WalState) -> Result<()> {
        debug_assert!(!state.syncing);
        if !state.buf.is_empty() {
            if let Err(e) = state.drain(self.kept_bytes()) {
                // Partial writes leave the file tail unknowable; poison so
                // no retry can interleave bytes out of order.
                state.poisoned = true;
                self.cond.notify_all();
                return Err(e.into());
            }
        }
        state.last_flush = Instant::now();
        Ok(())
    }

    /// Swap appends over to a fresh segment file, draining the buffer into
    /// the old one first. Returns the last sequence number the old segment
    /// holds (its rotation watermark for floor advancement). When fsyncing
    /// on append, the old segment is synced before the swap so `durable_seq`
    /// stays truthful across the boundary.
    pub fn rotate(&self, path: &Path, segment: u64) -> Result<u64> {
        let mut state = self.state.lock();
        while state.syncing {
            self.cond.wait(&mut state);
        }
        if state.poisoned {
            return Err(poisoned_err());
        }
        self.flush_to_os_locked(&mut state)?;
        if self.opts.sync_on_append {
            state.file.sync_data()?;
            state.durable_seq = state.next_seq - 1;
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        state.file = file;
        state.segment = segment;
        state.context = path.display().to_string();
        state.appended = 0;
        state.flushed = 0;
        state.last_flush = Instant::now();
        Ok(state.next_seq - 1)
    }

    /// `(segment, flushed bytes)`: where a tail reader that has applied
    /// everything should resume. Reports only *flushed* whole-frame bytes —
    /// never buffered or torn bytes a reader cannot (or must not) observe.
    pub fn position(&self) -> (u64, u64) {
        let state = self.state.lock();
        (state.segment, state.flushed)
    }

    /// Drain the buffer and return the crash-consistent checkpoint cursor:
    /// `(segment, flushed offset, last allocated seq)`. Every sequence
    /// number at or below the returned seq is either in an SST or in WAL
    /// frames at or below the returned offset.
    pub fn checkpoint_cursor(&self) -> Result<(u64, u64, u64)> {
        let mut state = self.state.lock();
        while state.syncing {
            self.cond.wait(&mut state);
        }
        if !state.poisoned {
            self.flush_to_os_locked(&mut state)?;
        }
        Ok((state.segment, state.flushed, state.next_seq - 1))
    }

    /// Id of the segment currently receiving appends.
    pub fn segment(&self) -> u64 {
        self.state.lock().segment
    }

    /// Record bytes accepted into the current segment (buffered + written;
    /// torn bytes never count).
    pub fn appended_bytes(&self) -> u64 {
        self.state.lock().appended
    }

    /// Frame bytes this log has written to its segment files, every segment
    /// included (torn bytes never count).
    pub fn bytes_written(&self) -> u64 {
        self.state.lock().written
    }

    /// The next sequence number the allocator will hand out.
    pub fn next_seq(&self) -> u64 {
        self.state.lock().next_seq
    }

    /// Highest sequence number allocated so far (0 when none).
    pub fn last_allocated(&self) -> u64 {
        self.state.lock().next_seq - 1
    }

    /// Highest sequence number covered by an fsync.
    pub fn durable_seq(&self) -> u64 {
        self.state.lock().durable_seq
    }

    /// True once a torn write or failed fsync killed this log.
    pub fn is_poisoned(&self) -> bool {
        self.state.lock().poisoned
    }

    /// Replay a log file, returning every intact record in append order.
    ///
    /// A torn tail (a short final frame, or a CRC mismatch on it) ends
    /// replay without error; a CRC mismatch in the middle of the log, or a
    /// frame whose records do not end where it does, is real corruption and
    /// is reported.
    pub fn replay(path: &Path) -> Result<Vec<Record>> {
        match Self::replay_from(path, 0) {
            Ok((records, _)) => Ok(records),
            Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// Replay a log file starting at byte `offset` (a frame boundary),
    /// returning every record of the whole frames after it plus the offset
    /// just past the last of them.
    ///
    /// This is the replication tail-read path: a [`crate::db::Db`] follower's
    /// binlog cursor remembers `(segment, offset)` and calls this repeatedly
    /// to pick up frames the leader drained since the last poll. Only the
    /// bytes past `offset` are read (the tail, not the whole segment), so a
    /// synchronous-replication write path polling after every append stays
    /// O(new data) rather than O(segment size). A torn tail ends the batch
    /// without error (the next poll retries from the returned offset); unlike
    /// [`Wal::replay`], a missing file is an `Io` error so the caller can
    /// distinguish "rotated away" from "empty".
    pub fn replay_from(path: &Path, offset: u64) -> Result<(Vec<Record>, u64)> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if offset > len {
            return Err(Error::InvalidState(format!(
                "wal cursor offset {offset} beyond file length {len}"
            )));
        }
        std::io::Seek::seek(&mut file, std::io::SeekFrom::Start(offset))?;
        let mut data = Vec::with_capacity((len - offset) as usize);
        file.read_to_end(&mut data)?;
        let mut out = Vec::new();
        let mut pos = 0usize;
        // A header cut short ends the loop: a torn tail.
        while let Some(header) = data.get(pos..pos + FRAME_HEADER) {
            let (crc, len) = header.split_at(4);
            // INVARIANT: an 8-byte header splits into two 4-byte halves.
            let expect_crc = u32::from_le_bytes(crc.try_into().expect("4 bytes"));
            let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
            let end = pos + FRAME_HEADER + len;
            let Some(stored) = data.get(pos + FRAME_HEADER..end) else {
                break; // torn tail: body incomplete
            };
            let frame_at = offset + pos as u64;
            if crc32(stored) != expect_crc {
                if end == data.len() {
                    break; // torn final frame
                }
                return Err(Error::Corruption(format!(
                    "wal crc mismatch at offset {frame_at}"
                )));
            }
            decode_frame(stored, &mut out).map_err(|e| match e {
                Error::Corruption(msg) => {
                    Error::Corruption(format!("wal frame at offset {frame_at}: {msg}"))
                }
                other => other,
            })?;
            pos = end;
        }
        Ok((out, offset + pos as u64))
    }
}

impl Drop for Wal {
    /// Best-effort drain on clean shutdown, matching what a buffered writer
    /// would do: acknowledged records reach the file so an orderly close
    /// loses nothing. A poisoned log stays as the "crash" left it.
    fn drop(&mut self) {
        let kept = self.kept_bytes();
        let state = self.state.get_mut();
        if !state.poisoned && !state.buf.is_empty() {
            state.drain(kept).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_util::failpoint::ScopedInjector;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "abase-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn new_wal(path: &Path, sync: bool) -> Wal {
        Wal::create(
            path,
            0,
            1,
            WalOptions {
                sync_on_append: sync,
                // Interval drains would make buffered-state assertions racy
                // on a stalled test machine; only explicit flushes drain.
                group_commit_interval: Duration::from_secs(3600),
                ..WalOptions::default()
            },
        )
        .unwrap()
    }

    /// Append each record and drain after it: one frame per record.
    fn one_frame_each(wal: &Wal, records: &[Record]) {
        for r in records {
            assert!(wal.append_at(r).unwrap());
            wal.flush().unwrap();
        }
    }

    fn a_and_b() -> [Record; 2] {
        [
            Record::put("a", "1", 1, None),
            Record::put("b", "2", 2, None),
        ]
    }

    /// The `(offset, stored len, trailer)` of every frame in `data`.
    fn frames(data: &[u8]) -> Vec<(usize, usize, u8)> {
        let (mut pos, mut out) = (0, Vec::new());
        while pos < data.len() {
            let len = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap()) as usize;
            out.push((pos, len, data[pos + 8 + len - 1]));
            pos += 8 + len;
        }
        out
    }

    #[test]
    fn append_and_replay() {
        let path = temp_path("roundtrip");
        let records = vec![
            Record::put("a", "1", 1, None),
            Record::delete("b", 2),
            Record::put("c", "3", 3, Some(99)),
        ];
        {
            let wal = new_wal(&path, false);
            for r in &records {
                assert!(wal.append_at(r).unwrap());
            }
            wal.flush().unwrap();
        }
        assert_eq!(Wal::replay(&path).unwrap(), records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_drain_is_one_frame_stored_compressed_when_that_pays() {
        let path = temp_path("one-frame");
        let wal = new_wal(&path, false);
        let records: Vec<Record> = (1..=3)
            .map(|i| Record::put(format!("k{i}"), "v", i, None))
            .collect();
        for r in &records {
            wal.append_at(r).unwrap();
        }
        wal.flush().unwrap();
        // Three records too small to compress: one frame, stored raw.
        let data = std::fs::read(&path).unwrap();
        assert_eq!(frames(&data), [(0, data.len() - 8, lz::STORED_RAW)]);
        // A drain of repetitive records: one frame, stored compressed.
        let more: Vec<Record> = (4..=100)
            .map(|i| Record::put(format!("user{i:08}"), "0123456789abcdef".repeat(6), i, None))
            .collect();
        let before = wal.appended_bytes();
        for r in &more {
            wal.append_at(r).unwrap();
        }
        let raw = (wal.appended_bytes() - before) as usize;
        wal.flush().unwrap();
        let data = std::fs::read(&path).unwrap();
        let frames = frames(&data);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].2, lz::STORED_LZ);
        assert!(frames[1].1 * 4 < raw, "{} stored of {raw}", frames[1].1);
        assert_eq!(wal.bytes_written(), data.len() as u64);
        assert_eq!(Wal::replay(&path).unwrap(), [records, more].concat());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_next_allocates_consecutive_seqs() {
        let path = temp_path("alloc");
        let wal = new_wal(&path, false);
        for expect in 1..=5u64 {
            let mut r = Record::put("k", "v", 0, None);
            let seq = wal.append_next(&mut r).unwrap();
            assert_eq!(seq, expect);
            assert_eq!(r.seq, expect);
        }
        assert_eq!(wal.last_allocated(), 5);
        wal.flush().unwrap();
        let replayed = Wal::replay(&path).unwrap();
        let seqs: Vec<u64> = replayed.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_at_dedups_and_rejects_gaps() {
        let path = temp_path("at");
        let wal = new_wal(&path, false);
        assert!(wal.append_at(&Record::put("a", "1", 1, None)).unwrap());
        assert!(!wal.append_at(&Record::put("a", "1", 1, None)).unwrap());
        assert!(wal.append_at(&Record::put("b", "2", 2, None)).is_ok());
        assert!(wal.append_at(&Record::put("x", "y", 9, None)).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let path = temp_path("missing");
        std::fs::remove_file(&path).ok();
        assert!(Wal::replay(&path).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let path = temp_path("torn");
        {
            let wal = new_wal(&path, false);
            one_frame_each(&wal, &a_and_b());
        }
        // Truncate mid-way through the second frame.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].key, &b"a"[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_log_corruption_is_reported() {
        let path = temp_path("corrupt");
        {
            let wal = new_wal(&path, false);
            one_frame_each(&wal, &a_and_b());
        }
        let mut data = std::fs::read(&path).unwrap();
        // Flip a stored byte in the FIRST frame (not the last).
        data[10] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(Wal::replay(&path), Err(Error::Corruption(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_frame_ending_mid_record_is_corruption() {
        // A valid CRC over records that do not end where the frame does —
        // what records in another format would look like to this decoder —
        // and a frame holding no record at all.
        let path = temp_path("mid-record");
        let mut whole = Vec::new();
        Record::put("a", "1", 1, None).encode(&mut whole);
        Record::put("b", "2", 2, None).encode(&mut whole);
        let mut lz = lz::Compressor::default();
        for records in [&whole[..whole.len() - 1], &whole[..1], &[][..]] {
            let mut frame = Vec::new();
            encode_frame(records, &mut lz, &mut frame);
            std::fs::write(&path, &frame).unwrap();
            assert!(
                matches!(Wal::replay(&path), Err(Error::Corruption(_))),
                "{} record bytes",
                records.len()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_from_resumes_at_cursor() {
        let path = temp_path("tail");
        let wal = new_wal(&path, false);
        wal.append_at(&Record::put("a", "1", 1, None)).unwrap();
        wal.flush().unwrap();
        let (batch, cursor) = Wal::replay_from(&path, 0).unwrap();
        assert_eq!(batch.len(), 1);
        // Nothing new yet: polling from the cursor returns an empty batch.
        let (batch, cursor2) = Wal::replay_from(&path, cursor).unwrap();
        assert!(batch.is_empty());
        assert_eq!(cursor2, cursor);
        // New appends become visible from the saved cursor.
        wal.append_at(&Record::put("b", "2", 2, None)).unwrap();
        wal.append_at(&Record::delete("a", 3)).unwrap();
        wal.flush().unwrap();
        let (batch, cursor3) = Wal::replay_from(&path, cursor).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].key, &b"b"[..]);
        assert!(cursor3 > cursor);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_from_missing_file_is_io_error() {
        let path = temp_path("tail-missing");
        std::fs::remove_file(&path).ok();
        match Wal::replay_from(&path, 0) {
            Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected Io(NotFound), got {other:?}"),
        }
    }

    #[test]
    fn replay_from_tolerates_torn_tail_at_cursor() {
        let path = temp_path("tail-torn");
        {
            let wal = new_wal(&path, false);
            one_frame_each(&wal, &a_and_b());
        }
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let (batch, cursor) = Wal::replay_from(&path, 0).unwrap();
        assert_eq!(batch.len(), 1);
        // The cursor parks at the start of the torn frame; once the frame is
        // completed (here: rewritten whole) the poll picks it up.
        std::fs::write(&path, &data).unwrap();
        let (batch, _) = Wal::replay_from(&path, cursor).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].key, &b"b"[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segment_listing_sorted() {
        let dir = std::env::temp_dir().join(format!(
            "abase-wal-segs-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for id in [7u64, 2, 12] {
            std::fs::write(Wal::segment_path(&dir, id), b"").unwrap();
        }
        std::fs::write(dir.join("MANIFEST"), b"").unwrap();
        assert_eq!(Wal::list_segments(&dir).unwrap(), vec![2, 7, 12]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appended_bytes_grow() {
        let path = temp_path("size");
        let wal = new_wal(&path, false);
        assert_eq!(wal.appended_bytes(), 0);
        let mut r = Record::put("key", "value", 0, None);
        wal.append_next(&mut r).unwrap();
        assert!(wal.appended_bytes() > 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_drains_acknowledged_frames() {
        let path = temp_path("drop-drain");
        {
            let wal = new_wal(&path, false);
            let mut r = Record::put("k", "v", 0, None);
            wal.append_next(&mut r).unwrap();
            // No flush: the buffer drains on drop (orderly close).
        }
        assert_eq!(Wal::replay(&path).unwrap().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn position_reports_only_flushed_bytes() {
        let path = temp_path("pos");
        let wal = new_wal(&path, false);
        let mut r = Record::put("k", "v", 0, None);
        wal.append_next(&mut r).unwrap();
        // Buffered, not flushed: a tail reader can't see it, so position
        // must not point past the file.
        assert_eq!(wal.position(), (0, 0));
        wal.flush().unwrap();
        let (seg, off) = wal.position();
        assert_eq!(seg, 0);
        assert_eq!(off, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_huge_drain_does_not_keep_its_buffers() {
        let path = temp_path("huge-drain");
        let wal = new_wal(&path, false);
        let kept = wal.kept_bytes();
        // Noise, so the frame is stored raw at its full size.
        let mut x = 1u64;
        let big: Vec<u8> = (0..2 * kept)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect();
        let capacities = |wal: &Wal| {
            let state = wal.state.lock();
            (
                state.buf.capacity(),
                state.sealer.as_ref().unwrap().frame.capacity(),
            )
        };
        wal.append_next(&mut Record::put("big", big, 0, None))
            .unwrap();
        wal.flush().unwrap();
        assert_eq!(capacities(&wal), (0, 0), "a huge drain's buffers were kept");
        wal.append_next(&mut Record::put("k", "v", 0, None))
            .unwrap();
        wal.flush().unwrap();
        let (buf, frame) = capacities(&wal);
        assert!(buf > 0 && frame > 0, "a small drain's buffers were freed");
        assert_eq!(Wal::replay(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_fsync_covers_concurrent_writers() {
        let path = temp_path("group");
        let wal = std::sync::Arc::new(new_wal(&path, true));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let wal = std::sync::Arc::clone(&wal);
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    let mut r = Record::put("k", "v", 0, None);
                    let seq = wal.append_next(&mut r).unwrap();
                    wal.commit(seq).unwrap();
                    assert!(wal.durable_seq() >= seq);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wal.last_allocated(), 100);
        assert_eq!(wal.durable_seq(), 100);
        // Everything committed is already in the file (no flush needed).
        assert_eq!(Wal::replay(&path).unwrap().len(), 100);
        assert_eq!(wal.bytes_written(), std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_failure_poisons_the_log() {
        // Satellite regression: a failed fsync must not leave a zombie frame
        // that surfaces on a later flush. The log poisons instead.
        let path = temp_path("fsync-poison");
        let wal = new_wal(&path, true);
        let mut r = Record::put("pre", "ok", 0, None);
        let seq = wal.append_next(&mut r).unwrap();
        wal.commit(seq).unwrap();
        let _guard = ScopedInjector::enable();
        failpoint::install(
            "wal.sync",
            Some(&path.display().to_string()),
            FaultAction::Error,
            0,
            1,
        );
        let mut r = Record::put("doomed", "x", 0, None);
        let seq = wal.append_next(&mut r).unwrap();
        assert!(wal.commit(seq).is_err());
        assert!(wal.is_poisoned());
        // Every later append fails; the doomed frame can never surface.
        let mut r = Record::put("after", "y", 0, None);
        assert!(wal.append_next(&mut r).is_err());
        wal.flush().unwrap(); // flush is a no-op on a poisoned log
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].key, &b"pre"[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_write_excluded_from_watermarks() {
        // Satellite regression: torn bytes reach the file but never advance
        // `appended`/`flushed`, so positions stay on frame boundaries. The
        // records still buffered land first, as one whole frame.
        let path = temp_path("torn-marks");
        let wal = new_wal(&path, false);
        let mut r = Record::put("ok", "1", 0, None);
        wal.append_next(&mut r).unwrap();
        wal.flush().unwrap();
        let (_, clean_offset) = wal.position();
        let mut r = Record::put("pending", "2", 0, None);
        wal.append_next(&mut r).unwrap();
        let _guard = ScopedInjector::enable();
        failpoint::install(
            "wal.append",
            Some(&path.display().to_string()),
            FaultAction::TornWrite { keep_bytes: 5 },
            0,
            1,
        );
        let mut r = Record::put("torn", "x", 0, None);
        assert!(wal.append_next(&mut r).is_err());
        assert!(wal.is_poisoned());
        // The pending frame moved the watermark; the 5 torn bytes did not.
        let (segment, frame_end) = wal.position();
        assert_eq!(segment, 0);
        assert!(frame_end > clean_offset);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), frame_end + 5);
        // A tail reader parked at the position sees nothing new and no error.
        let (batch, parked) = Wal::replay_from(&path, frame_end).unwrap();
        assert!(batch.is_empty());
        assert_eq!(parked, frame_end);
        let keys: Vec<_> = Wal::replay(&path)
            .unwrap()
            .into_iter()
            .map(|r| r.key)
            .collect();
        assert_eq!(keys, [&b"ok"[..], &b"pending"[..]]);
        std::fs::remove_file(&path).ok();
    }
}
