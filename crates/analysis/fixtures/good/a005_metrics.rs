// Fixture: metric declarations following the registry conventions.

use abase_obs::{LazyCounter, LazyCounterFamily, LazyGauge, LazyHisto};

pub(crate) static OPS: LazyCounter = LazyCounter::new("abase_server_ops_total", "ops served");

pub(crate) static BYTES: LazyCounter =
    LazyCounter::new("abase_server_rx_bytes_total", "bytes received");

pub(crate) static LATENCY: LazyHisto =
    LazyHisto::new("abase_server_latency_micros", "request latency");

pub(crate) static BATCH: LazyHisto =
    LazyHisto::new("abase_server_batch_frames", "frames per batch");

pub(crate) static QUEUE: LazyGauge = LazyGauge::new("abase_queue_depth", "queue depth");

pub(crate) static PER_OP: LazyCounterFamily =
    LazyCounterFamily::new("abase_server_op_total", "op", "per-op counters");
