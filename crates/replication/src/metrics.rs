//! Replication-plane metric declarations. Recording sites live in
//! `follower.rs` (the pump pass and the staged install), `socket.rs` (frame
//! shipping, FULLRESYNC, checkpoint staging) and `group.rs` (lag gauges);
//! this module only owns the handles.

use abase_obs::{LazyCounter, LazyGaugeFamily, LazyHisto};

/// Records a follower's pump pass received (duplicates included).
pub static SHIP_RECORDS: LazyCounter = LazyCounter::new(
    "abase_repl_ship_records_total",
    "Log records delivered to followers by the replication pump",
);

/// One pump pass (poll + apply + ack) per follower, in whichever process
/// the follower lives.
pub static PUMP_MICROS: LazyHisto = LazyHisto::new(
    "abase_repl_pump_micros",
    "Duration of one follower pump pass (poll, apply, ack)",
);

/// Acknowledgements sent by followers after applying shipped records.
pub static ACKS: LazyCounter = LazyCounter::new(
    "abase_repl_acks_total",
    "Follower acknowledgements sent after applying shipped records",
);

/// Full resyncs completed (staged checkpoint installed into a follower).
pub static RESYNCS: LazyCounter = LazyCounter::new(
    "abase_repl_resyncs_total",
    "Full resyncs completed (staged checkpoint installs)",
);

/// `FULLRESYNC` replies sent by a leader (the follower's position fell off
/// retention, or it asked with `PSYNC ? -1`).
pub static FULLRESYNCS: LazyCounter = LazyCounter::new(
    "abase_repl_fullresyncs_total",
    "FULLRESYNC replies sent to followers",
);

/// `BATCH` frames shipped over replica sockets.
pub static BATCH_FRAMES: LazyCounter = LazyCounter::new(
    "abase_repl_batch_frames_total",
    "BATCH frames shipped over replica sockets",
);

/// Serialized bytes of shipped `BATCH` frames.
pub static BATCH_BYTES: LazyCounter = LazyCounter::new(
    "abase_repl_batch_bytes_total",
    "Serialized bytes of BATCH frames shipped over replica sockets",
);

/// Checkpoint bytes a leader streamed over a replica socket.
pub static STAGED_BYTES: LazyCounter = LazyCounter::new(
    "abase_repl_staged_bytes_total",
    "Checkpoint bytes streamed by a leader for FULLRESYNC",
);

/// Per-follower replication lag in LSNs, labelled by replica id; refreshed
/// by `ReplicaGroup::tick` (and the cluster snapshot hook that drives it).
pub static FOLLOWER_LAG: LazyGaugeFamily = LazyGaugeFamily::new(
    "abase_repl_follower_lag",
    "replica",
    "Leader LSN minus follower acked LSN, by replica id",
);
