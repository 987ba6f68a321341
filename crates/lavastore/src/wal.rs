//! Group-commit write-ahead log.
//!
//! Each appended record is framed as `[crc32 u32][len u32][payload]`. Replay
//! stops cleanly at a torn tail (a crash mid-append), recovering every fully
//! written record — the standard contract an LSM needs from its log.
//!
//! ```text
//! frame:   crc32(payload) u32 LE | payload len u32 LE | payload
//! payload: one record, `Record::encode` (format v2):
//!          varint klen | key | flags u8 | varint seq | [varint expires_at] | varint vlen | value
//! ```
//!
//! The frame header and the torn-tail rules are what they were in format v1;
//! only the payload changed (`record.rs`). A frame says nothing about which
//! format its payload is in — the directory's `MANIFEST` magic does
//! (`version.rs`) — so replay requires a payload to be exactly one record.
//!
//! The writer side is shared by every stripe of the engine: concurrent
//! writers append frames into one in-memory buffer under a short mutex, and
//! durability is amortized by *group commit* — when `sync_on_append` is set,
//! a committer that finds an fsync already in flight parks on a condvar and
//! is covered by that fsync (or the next one) instead of issuing its own.
//! Without `sync_on_append`, the buffer drains to the OS when it crosses a
//! byte threshold or a flush interval elapses (writer-driven; no background
//! thread), so the write path issues large sequential writes instead of one
//! syscall per record.
//!
//! The log is also the engine's **LSN allocator**: appends assign the next
//! sequence number under the same lock that orders frames into the buffer,
//! so the on-disk frame order always equals sequence order — the single
//! monotone LSN stream replication tailing depends on.
//!
//! Three watermarks, all *excluding* torn bytes:
//!
//! * `appended` — complete-frame bytes accepted into the log (buffer + file);
//! * `flushed`  — complete-frame bytes written to the file, i.e. what a tail
//!   reader ([`Wal::replay_from`]) can observe; checkpoint cursors and
//!   [`Wal::position`] report this, so a recorded offset can never land
//!   inside a torn or still-buffered frame;
//! * `durable_seq` — the highest sequence number covered by an fsync.
//!
//! A failed fsync or a torn write **poisons** the log: the simulated (or
//! real) process died mid-write, so every further append fails until the
//! engine reopens and replays. Poisoning is what keeps a failed-durability
//! append from silently surfacing on a later flush.

use crate::encoding::crc32;
use crate::error::{Error, Result};
use crate::metrics;
use crate::record::Record;
use abase_obs::Timer;
use abase_util::failpoint::{self, FaultAction};
use abase_util::lockrank::{rank, RankedCondvar, RankedMutex};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

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

/// Mutable writer state, guarded by the log mutex.
#[derive(Debug)]
struct WalState {
    file: File,
    /// Segment id of the file currently receiving appends.
    segment: u64,
    /// The segment's path, used as fail-point context (chaos targets one
    /// replica's log by directory substring).
    context: String,
    /// Encoded frames not yet written to the file, in sequence order.
    buf: Vec<u8>,
    /// Complete-frame bytes accepted into this segment (buffer + file).
    appended: u64,
    /// Complete-frame bytes written to this segment's file.
    flushed: u64,
    /// Highest sequence number covered by an fsync (global, not per-segment).
    durable_seq: u64,
    /// Next sequence number to allocate — the engine's one LSN allocator.
    next_seq: u64,
    /// Frames appended since the last successful fsync (batch-size metric).
    frames_unsynced: u64,
    /// When the buffer last drained (interval trigger).
    last_flush: Instant,
    /// A group-commit leader is fsyncing with the lock released; file writes
    /// must wait so frames land in sequence order.
    syncing: bool,
    /// Set after a torn write or failed fsync: the simulated process died
    /// mid-write, so every further append fails until reopen.
    poisoned: bool,
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

fn encode_frame(record: &Record, frame: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(record.approximate_size());
    record.encode(&mut payload);
    let crc = crc32(&payload);
    frame.reserve(8 + payload.len());
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
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
                    appended: 0,
                    flushed: 0,
                    durable_seq: next_seq.saturating_sub(1),
                    next_seq,
                    frames_unsynced: 0,
                    last_flush: Instant::now(),
                    syncing: false,
                    poisoned: false,
                },
            ),
            cond: RankedCondvar::new(),
            opts,
        })
    }

    /// Append a record, allocating the next sequence number into
    /// `record.seq`. The frame enters the shared buffer in sequence order;
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

    fn append_locked(&self, state: &mut WalState, record: &Record) -> Result<()> {
        match failpoint::check("wal.append", &state.context) {
            Some(FaultAction::Error) => return Err(injected_io("wal append failed")),
            Some(FaultAction::TornWrite { keep_bytes }) => {
                // Simulate a crash mid-append: earlier buffered frames reach
                // the file (they were complete — a real crash loses only the
                // in-flight frame), then part of this frame lands, then the
                // log is dead until reopened. The torn bytes advance *no*
                // watermark, so positions and checkpoint cursors can never
                // point inside the tear. Replay/poll park before it.
                let pending = std::mem::take(&mut state.buf);
                state.file.write_all(&pending)?;
                state.flushed += pending.len() as u64;
                let mut frame = Vec::new();
                encode_frame(record, &mut frame);
                let keep = (keep_bytes as usize).min(frame.len().saturating_sub(1));
                state.file.write_all(&frame[..keep])?;
                state.poisoned = true;
                self.cond.notify_all();
                return Err(injected_io("torn wal append"));
            }
            _ => {}
        }
        let timer = Timer::start();
        // Encode straight into the shared buffer (header patched after the
        // payload lands): the write path's critical section is one encode
        // pass plus a CRC scan, with no per-record allocation.
        let start = state.buf.len();
        state.buf.extend_from_slice(&[0u8; 8]);
        record.encode(&mut state.buf);
        let payload_len = state.buf.len() - start - 8;
        let crc = crc32(&state.buf[start + 8..]);
        state.buf[start..start + 4].copy_from_slice(&crc.to_le_bytes());
        state.buf[start + 4..start + 8].copy_from_slice(&(payload_len as u32).to_le_bytes());
        let frame_len = (payload_len + 8) as u64;
        state.appended += frame_len;
        state.frames_unsynced += 1;
        metrics::WAL_APPEND_BYTES.add(frame_len);
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

    /// Make everything up to `seq` durable (when `sync_on_append`), joining
    /// an in-flight group fsync when one already covers it; otherwise drain
    /// the buffer to the OS if it crossed the byte threshold or the flush
    /// interval elapsed.
    pub fn commit(&self, seq: u64) -> Result<()> {
        let mut state = self.state.lock();
        if !self.opts.sync_on_append {
            if state.poisoned {
                // The torn-write path already drained the buffer; there is
                // nothing left to lose and no durability was promised.
                return Ok(());
            }
            if state.buf.len() >= self.opts.group_commit_bytes
                || state.last_flush.elapsed() >= self.opts.group_commit_interval
            {
                self.flush_to_os_locked(&mut state)?;
            }
            return Ok(());
        }
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
        // Become the group leader: take the batch, release the lock, sync.
        state.syncing = true;
        let batch = std::mem::take(&mut state.buf);
        let end_seq = state.next_seq - 1;
        let frames = state.frames_unsynced;
        let context = state.context.clone();
        let file = match state.file.try_clone() {
            Ok(f) => f,
            Err(e) => {
                state.syncing = false;
                self.cond.notify_all();
                return Err(e.into());
            }
        };
        drop(state);
        let sync_result: Result<()> = (|| {
            if let Some(FaultAction::Error) = failpoint::check("wal.sync", &context) {
                return Err(injected_io("wal fsync failed"));
            }
            let fsync_timer = Timer::start();
            if !batch.is_empty() {
                (&file).write_all(&batch)?;
            }
            file.sync_data()?;
            fsync_timer.observe(&metrics::WAL_FSYNC_MICROS);
            Ok(())
        })();
        let mut state = self.state.lock();
        state.syncing = false;
        match sync_result {
            Ok(()) => {
                state.flushed += batch.len() as u64;
                state.durable_seq = state.durable_seq.max(end_seq);
                state.frames_unsynced = 0;
                state.last_flush = Instant::now();
                metrics::GROUP_COMMIT_FSYNCS.inc();
                metrics::GROUP_COMMIT_BATCH_FRAMES.record(frames);
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

    /// Flush buffered frames to the OS (without fsync), so tail readers can
    /// observe them. A fail-point `Error` here is transient: it fails the
    /// call without changing any state.
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
            if let Err(e) = state.file.write_all(&state.buf) {
                // Partial writes leave the file tail unknowable; poison so
                // no retry can interleave bytes out of order.
                state.poisoned = true;
                state.buf.clear();
                self.cond.notify_all();
                return Err(e.into());
            }
            state.flushed += state.buf.len() as u64;
            state.buf.clear();
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
    /// everything should resume. Reports only *flushed* complete-frame
    /// bytes — never buffered or torn bytes a reader cannot (or must not)
    /// observe.
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

    /// Complete-frame bytes accepted into the current segment (buffered +
    /// written; torn bytes never count).
    pub fn appended_bytes(&self) -> u64 {
        self.state.lock().appended
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
    /// A torn tail (truncated frame or CRC mismatch on the final frame) ends
    /// replay without error; a CRC mismatch in the middle of the log is real
    /// corruption and is reported.
    pub fn replay(path: &Path) -> Result<Vec<Record>> {
        match Self::replay_from(path, 0) {
            Ok((records, _)) => Ok(records),
            Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// Replay a log file starting at byte `offset`, returning every intact
    /// record after it plus the offset just past the last complete frame.
    ///
    /// This is the replication tail-read path: a [`crate::db::Db`] follower's
    /// binlog cursor remembers `(segment, offset)` and calls this repeatedly
    /// to pick up frames the leader appended since the last poll. Only the
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
        while pos < data.len() {
            if pos + 8 > data.len() {
                break; // torn tail: header incomplete
            }
            let mut crc_bytes = [0u8; 4];
            crc_bytes.copy_from_slice(&data[pos..pos + 4]);
            let expect_crc = u32::from_le_bytes(crc_bytes);
            let mut len_bytes = [0u8; 4];
            len_bytes.copy_from_slice(&data[pos + 4..pos + 8]);
            let len = u32::from_le_bytes(len_bytes) as usize;
            let body_start = pos + 8;
            let body_end = body_start + len;
            if body_end > data.len() {
                break; // torn tail: body incomplete
            }
            let payload = &data[body_start..body_end];
            if crc32(payload) != expect_crc {
                if body_end == data.len() {
                    break; // torn final frame
                }
                return Err(Error::Corruption(format!(
                    "wal crc mismatch at offset {}",
                    offset + pos as u64
                )));
            }
            let mut rpos = 0usize;
            let record = Record::decode(payload, &mut rpos)?;
            if rpos != payload.len() {
                return Err(Error::Corruption(format!(
                    "wal frame at offset {} holds {} bytes beyond its record",
                    offset + pos as u64,
                    payload.len() - rpos
                )));
            }
            out.push(record);
            pos = body_end;
        }
        Ok((out, offset + pos as u64))
    }
}

impl Drop for Wal {
    /// Best-effort drain on clean shutdown, matching what a buffered writer
    /// would do: acknowledged frames reach the file so an orderly close
    /// loses nothing. A poisoned log stays as the "crash" left it.
    fn drop(&mut self) {
        let state = self.state.get_mut();
        if !state.poisoned && !state.buf.is_empty() {
            if state.file.write_all(&state.buf).is_ok() {
                state.flushed += state.buf.len() as u64;
            }
            state.buf.clear();
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
            wal.append_at(&Record::put("a", "1", 1, None)).unwrap();
            wal.append_at(&Record::put("b", "2", 2, None)).unwrap();
            wal.flush().unwrap();
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
            wal.append_at(&Record::put("a", "1", 1, None)).unwrap();
            wal.append_at(&Record::put("b", "2", 2, None)).unwrap();
            wal.flush().unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        // Flip a payload byte in the FIRST frame (not the last).
        data[10] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(Wal::replay(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_frame_holding_more_than_one_record_is_corruption() {
        // What a payload in another record format would look like to this
        // decoder: a valid CRC over bytes that do not end where a record does.
        let path = temp_path("trailing");
        let mut payload = Vec::new();
        Record::put("a", "1", 1, None).encode(&mut payload);
        payload.push(0);
        let mut frame = crc32(&payload).to_le_bytes().to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        std::fs::write(&path, &frame).unwrap();
        assert!(matches!(Wal::replay(&path), Err(Error::Corruption(_))));
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
            wal.append_at(&Record::put("a", "1", 1, None)).unwrap();
            wal.append_at(&Record::put("b", "2", 2, None)).unwrap();
            wal.flush().unwrap();
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
        // `appended`/`flushed`, so positions stay on frame boundaries.
        let path = temp_path("torn-marks");
        let wal = new_wal(&path, false);
        let mut r = Record::put("ok", "1", 0, None);
        wal.append_next(&mut r).unwrap();
        wal.flush().unwrap();
        let (_, clean_offset) = wal.position();
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
        // File holds torn bytes past the watermark; position ignores them.
        assert_eq!(wal.position(), (0, clean_offset));
        assert!(std::fs::metadata(&path).unwrap().len() > clean_offset);
        // A tail reader parked at the position sees nothing new and no error.
        let (batch, parked) = Wal::replay_from(&path, clean_offset).unwrap();
        assert!(batch.is_empty());
        assert_eq!(parked, clean_offset);
        std::fs::remove_file(&path).ok();
    }
}
