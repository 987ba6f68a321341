//! Transport abstraction over "where do a follower's log records come from".
//!
//! A [`Follower`](crate::Follower) does not care whether the records it
//! applies were read straight off the leader's WAL files (the in-process
//! [`Binlog`](crate::Binlog)) or shipped over a TCP connection by a leader in
//! another OS process ([`SocketTransport`](crate::socket::SocketTransport)).
//! [`LogTransport`] is everything the follower needs from either: poll for
//! new records, acknowledge, and — the one way a replica is ever seeded —
//! stage a complete checkpoint of the source into a directory and leave the
//! cursor at the checkpoint's edge. A filesystem transport copies from the
//! `Db` it tails; a socket transport pulls `PSYNC ? -1` → `FULLRESYNC` →
//! file stream. What happens to the staged tree next is the same for both.

use crate::binlog::Poll;
use crate::Result;
use abase_lavastore::CheckpointInfo;
use std::path::Path;

/// A follower's source of leader log records.
pub trait LogTransport: Send {
    /// Read every record fully framed since the last poll, or report a gap
    /// (the cursor fell off the leader's retention and a full resync is
    /// required before shipping can continue).
    fn poll(&mut self) -> Result<Poll>;

    /// Reposition the cursor.
    fn seek(&mut self, segment: u64, offset: u64);

    /// Current `(segment, offset)` position, if attached to one yet.
    fn position(&self) -> Option<(u64, u64)>;

    /// Acknowledge that the follower applied records up to `lsn`.
    /// Filesystem transports do nothing — the leader reads the follower's
    /// `Db::last_seq` directly; a socket transport sends `REPLCONF ACK
    /// <lsn>` back to the leader, feeding its remote-follower accounting.
    fn ack(&mut self, lsn: u64) -> Result<()> {
        let _ = lsn;
        Ok(())
    }

    /// Is the transport's link to the leader currently alive? Filesystem
    /// transports read the leader's log in place and are always "up"; a
    /// socket transport reports whether it holds a live connection (a
    /// severed one reads as down until the self-healing reconnect lands).
    /// This is what a follower's `INFO replication` surfaces as
    /// `link_status` — polling results cannot carry it, because a dead
    /// socket polls as "no records", indistinguishable from an idle leader.
    fn link_up(&self) -> bool {
        true
    }

    /// The leader's LSN as most recently advertised through the transport's
    /// own channel (socket keepalive pings). Everything at or below it was
    /// put on the wire *before* the advertisement, so a consumer that has
    /// drained the transport and still trails the hint knows frames were
    /// lost and triggers gap recovery. Filesystem transports read the log
    /// in place and cannot lose frames: `None`.
    fn leader_lsn_hint(&self) -> Option<u64> {
        None
    }

    /// Stage a complete checkpoint of the source into `staging` (replacing
    /// whatever was there), reporting each copied chunk's size to `on_chunk`
    /// (bandwidth throttling), and leave the cursor at the checkpoint's edge
    /// so the next poll continues exactly where the staged state ends. On
    /// error nothing is left at `staging`.
    fn fetch_checkpoint(
        &mut self,
        staging: &Path,
        on_chunk: &mut dyn FnMut(usize),
    ) -> Result<CheckpointInfo>;
}
