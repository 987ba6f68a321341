// Fixture: metric declarations violating every naming convention.

use abase_obs::{LazyCounter, LazyGauge, LazyHisto};

// Missing the abase_ namespace prefix.
pub(crate) static OPS: LazyCounter = LazyCounter::new("server_ops_total", "ops served");

// A counter must end in _total.
pub(crate) static ERRORS: LazyCounter = LazyCounter::new("abase_server_errors", "errors");

// A histogram needs a unit suffix.
pub(crate) static LATENCY: LazyHisto = LazyHisto::new("abase_server_latency", "latency");

// A gauge must not look cumulative.
pub(crate) static QUEUE: LazyGauge = LazyGauge::new("abase_queue_depth_total", "depth");
