//! The binlog: the filesystem [`LogTransport`], a tail-reading cursor over
//! the WAL segment files of a [`Db`] in this process.
//!
//! LavaStore names its WAL segments `wal-<id>.log` with ids from one
//! monotonic allocator, so ascending id is chronological. A [`Binlog`]
//! remembers `(segment, byte offset)` and each poll returns every record the
//! tailed store fully framed since the last poll, advancing across rotated
//! segments. When the cursor's segment has been rotated *away* (deleted after
//! a memtable flush) before the follower finished it, the missed records now
//! live only in SSTs — the poll reports [`Poll::Gap`] and the follower must
//! full-resync from a checkpoint, exactly like a Redis replica falling off
//! the backlog and taking a full sync. The cursor holds the store it tails,
//! so it stages that checkpoint itself ([`Db::checkpoint_with`] into a
//! [`Staging`] directory) and resumes at the checkpoint's edge.

use crate::transport::LogTransport;
use crate::Result;
use abase_lavastore::record::Record;
use abase_lavastore::wal::Wal;
use abase_lavastore::{CheckpointInfo, Db, Error as StorageError, Staging};
use abase_util::lockrank;
use std::path::Path;
use std::sync::Arc;

/// Outcome of one poll.
#[derive(Debug)]
pub enum Poll {
    /// Newly shipped records, possibly empty (nothing appended since).
    Records(Vec<Record>),
    /// The cursor fell behind segment rotation; a full resync is required.
    Gap,
}

/// A read cursor over the WAL directory of a store in this process.
#[derive(Debug, Clone)]
pub struct Binlog {
    db: Arc<Db>,
    /// Current segment id; `None` until the first poll finds one.
    segment: Option<u64>,
    /// Byte offset of the next unread frame within `segment`.
    offset: u64,
}

impl Binlog {
    /// Tail `db`'s log, positioned at the start of its oldest live segment.
    pub fn attach(db: Arc<Db>) -> Self {
        Self {
            db,
            segment: None,
            offset: 0,
        }
    }
}

impl LogTransport for Binlog {
    /// A torn frame at the tail (the leader's buffered writer flushed
    /// mid-frame) parks the cursor before it; the next poll retries. Reports
    /// [`Poll::Gap`] when the cursor's segment no longer exists.
    fn poll(&mut self) -> Result<Poll> {
        let dir = self.db.dir();
        // Chaos sites: a stalled tail reader (returns empty without moving the
        // cursor) or a forced gap (as if the cursor's segment rotated away).
        if abase_util::failpoint::enabled() {
            match abase_util::failpoint::check("binlog.poll", &dir.display().to_string()) {
                Some(abase_util::failpoint::FaultAction::Stall) => {
                    return Ok(Poll::Records(Vec::new()))
                }
                Some(abase_util::failpoint::FaultAction::Gap) => return Ok(Poll::Gap),
                _ => {}
            }
        }
        // The poll sits on the synchronous-replication write path, so keep
        // the directory traffic minimal: one listing per poll iteration (to
        // decide segment advancement), and one only at first attach.
        if self.segment.is_none() {
            let ids = Wal::list_segments(dir)?;
            let Some(&oldest) = ids.first() else {
                return Ok(Poll::Records(Vec::new()));
            };
            self.segment = Some(oldest);
            self.offset = 0;
        }
        let mut out = Vec::new();
        loop {
            let Some(segment) = self.segment else {
                return Ok(Poll::Records(out));
            };
            let path = Wal::segment_path(dir, segment);
            match Wal::replay_from(&path, self.offset) {
                Ok((records, cursor)) => {
                    out.extend(records);
                    self.offset = cursor;
                }
                Err(StorageError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Ok(Poll::Gap);
                }
                Err(e) => return Err(e.into()),
            }
            // A segment is closed exactly when a newer one exists; only then
            // may the cursor advance. Listing *after* the read also catches a
            // rotation that happened while reading, within this same poll.
            let ids = Wal::list_segments(dir)?;
            match ids.iter().find(|&&id| id > segment) {
                Some(&next) => {
                    self.segment = Some(next);
                    self.offset = 0;
                }
                None => break,
            }
        }
        Ok(Poll::Records(out))
    }

    fn seek(&mut self, segment: u64, offset: u64) {
        self.segment = Some(segment);
        self.offset = offset;
    }

    fn position(&self) -> Option<(u64, u64)> {
        self.segment.map(|s| (s, self.offset))
    }

    /// Stream a checkpoint of the tailed store into `staging` (pinned files,
    /// no store lock held across the byte copy) through the one
    /// [`Staging`] writer. A failed copy leaves no staging tree behind.
    /// Every in-process copy, a resync ticket's or a failover
    /// reconstruction's, comes through here, so with lock-order checking on
    /// this panics when the calling thread holds the group lock.
    fn fetch_checkpoint(
        &mut self,
        staging: &Path,
        on_chunk: &mut dyn FnMut(usize),
    ) -> Result<CheckpointInfo> {
        let held = lockrank::held_lock_names();
        assert!(
            !held.contains(&lockrank::rank::REPLICA_GROUP.name()),
            "checkpoint copy under the group lock; held, outermost first: {held:?}"
        );
        let mut staged = Staging::create(staging)?;
        let info = self.db.checkpoint_with(&mut |name, chunk| {
            staged.write(name, chunk)?;
            on_chunk(chunk.len());
            Ok(())
        })?;
        staged.keep();
        self.seek(info.wal_segment, info.wal_offset);
        Ok(info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_lavastore::{Db, DbConfig};
    use abase_util::TestDir;

    fn expect_records(poll: Poll) -> Vec<Record> {
        match poll {
            Poll::Records(r) => r,
            Poll::Gap => panic!("unexpected gap"),
        }
    }

    #[test]
    fn tails_live_writes() {
        let dir = TestDir::new("tail");
        let db = Arc::new(Db::open(dir.path(), DbConfig::small_for_tests()).unwrap());
        let mut binlog = Binlog::attach(Arc::clone(&db));
        db.put(b"a", b"1", None, 0).unwrap();
        db.put(b"b", b"2", None, 0).unwrap();
        db.flush_wal().unwrap();
        let records = expect_records(binlog.poll().unwrap());
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].key, &b"a"[..]);
        assert_eq!(records[0].seq, 1);
        // Nothing new: empty batch, cursor stable.
        assert!(expect_records(binlog.poll().unwrap()).is_empty());
        db.delete(b"a", 0).unwrap();
        db.flush_wal().unwrap();
        let records = expect_records(binlog.poll().unwrap());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 3);
    }

    #[test]
    fn follows_rotation_across_segments() {
        let dir = TestDir::new("rotate");
        let db = Arc::new(Db::open(dir.path(), DbConfig::small_for_tests()).unwrap());
        let mut binlog = Binlog::attach(Arc::clone(&db));
        db.put(b"before", b"x", None, 0).unwrap();
        db.flush_wal().unwrap();
        assert_eq!(expect_records(binlog.poll().unwrap()).len(), 1);
        // Flush rotates the WAL; the cursor's (now consumed) segment is
        // deleted but everything in it was already read — no gap.
        db.flush().unwrap();
        db.put(b"after", b"y", None, 0).unwrap();
        db.flush_wal().unwrap();
        let records = expect_records(binlog.poll().unwrap());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].key, &b"after"[..]);
    }

    #[test]
    fn compressed_frames_ship_whole_and_replay_on_the_follower() {
        // A leader whose drains compress, one flush (a WAL rotation) midway,
        // and a follower that applies each poll and drains once per pass.
        let config = DbConfig {
            memtable_bytes: 1 << 20,
            ..DbConfig::small_for_tests()
        };
        let (dir, follower_dir) = (TestDir::new("ship-lz"), TestDir::new("ship-lz-f"));
        let db = Arc::new(Db::open(dir.path(), config).unwrap());
        let follower = Db::open(follower_dir.path(), config).unwrap();
        let mut binlog = Binlog::attach(Arc::clone(&db));
        let (mut appended, mut shipped, mut raw_bytes) = (Vec::new(), Vec::new(), 0);
        for pass in 0..4u64 {
            for i in pass * 50..(pass + 1) * 50 {
                let (key, value) = (format!("user{i:08}"), format!("{i:016x}").repeat(6));
                let seq = db.put(key.as_bytes(), value.as_bytes(), None, 0).unwrap();
                let record = Record::put(key, value, seq, None);
                let mut encoded = Vec::new();
                record.encode(&mut encoded);
                raw_bytes += encoded.len() as u64;
                appended.push(record);
            }
            if pass == 1 {
                db.flush().unwrap();
            }
            db.flush_wal().unwrap();
            let records = expect_records(binlog.poll().unwrap());
            for r in &records {
                assert!(follower.apply_replicated(r).unwrap());
            }
            follower.flush_wal().unwrap();
            shipped.extend(records);
        }
        assert_eq!(shipped, appended);
        let written = db.stats().wal_bytes_written;
        assert!(
            written * 2 < raw_bytes,
            "{written} B of frames for {raw_bytes} B"
        );
        let follower_log = Wal::segment_path(follower_dir.path(), follower.current_wal_segment());
        assert_eq!(Wal::replay(&follower_log).unwrap(), appended);
    }

    #[test]
    fn rotation_before_read_is_a_gap() {
        let dir = TestDir::new("gap");
        let db = Arc::new(Db::open(dir.path(), DbConfig::small_for_tests()).unwrap());
        let mut binlog = Binlog::attach(Arc::clone(&db));
        db.put(b"k1", b"v", None, 0).unwrap();
        db.flush_wal().unwrap();
        // The follower reads the first batch, then stalls while the leader
        // rotates past the retention backlog: the cursor's segment vanishes.
        assert_eq!(expect_records(binlog.poll().unwrap()).len(), 1);
        let backlog = db.config().wal_retention_segments;
        for i in 0..backlog + 2 {
            db.put(format!("k{i}").as_bytes(), b"v", None, 0).unwrap();
            db.flush().unwrap();
        }
        match binlog.poll().unwrap() {
            Poll::Gap => {}
            Poll::Records(r) => panic!("expected gap, got {} records", r.len()),
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "checkpoint copy under the group lock")]
    fn a_checkpoint_copy_under_the_group_lock_panics() {
        let (dir, staging) = (TestDir::new("ckpt-locked"), TestDir::new("ckpt-locked-to"));
        let db = Arc::new(Db::open(dir.path(), DbConfig::small_for_tests()).unwrap());
        let group = lockrank::RankedMutex::new(lockrank::rank::REPLICA_GROUP, ());
        let _held = group.lock();
        let _ = Binlog::attach(db).fetch_checkpoint(staging.path(), &mut |_| {});
    }

    #[test]
    fn seek_resumes_after_checkpoint() {
        let dir = TestDir::new("seek");
        let clone_dir = TestDir::new("seek-clone");
        let db = Arc::new(Db::open(dir.path(), DbConfig::small_for_tests()).unwrap());
        db.put(b"a", b"1", None, 0).unwrap();
        db.put(b"b", b"2", None, 0).unwrap();
        // The cursor stages the checkpoint itself and is left at its edge:
        // it sees only post-snapshot writes.
        let mut binlog = Binlog::attach(Arc::clone(&db));
        let info = binlog
            .fetch_checkpoint(clone_dir.path(), &mut |_| {})
            .unwrap();
        assert_eq!(binlog.position(), Some((info.wal_segment, info.wal_offset)));
        db.put(b"c", b"3", None, 0).unwrap();
        db.flush_wal().unwrap();
        let records = expect_records(binlog.poll().unwrap());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].key, &b"c"[..]);
        assert_eq!(records[0].seq, info.last_seq + 1);
    }
}
