//! # abase-obs — the observability plane
//!
//! One crate with four pieces, composed so the hot path pays one relaxed
//! atomic op per event:
//!
//! - [`metric`]: wait-free [`Counter`]/[`Gauge`]/[`Histo`] primitives. The
//!   histogram shares its log-bucket layout with
//!   `abase_util::LatencyHistogram` (10 µs–100 s, 5 % growth) and shards its
//!   buckets across threads, so recording is a single `fetch_add`.
//! - [`registry`]: the process-global name → metric table. Instrumentation
//!   sites declare `static` [`LazyCounter`]-style handles that register on
//!   first touch and stay `&'static` forever.
//! - [`span`]/[`slowlog`]: per-operation tracing through the serving
//!   pipeline (parse → admission → engine → replication-wait → respond) and
//!   a bounded ring of threshold-beating slow ops with stage breakdowns.
//! - [`expo`]: Prometheus text exposition ([`render`]) plus the strict
//!   checker ([`validate`]) CI scrapes against.
//!
//! Consumers: lavastore, replication, core, and migration declare their
//! metrics where the work happens; `abase-core` serves the results over
//! RESP as `INFO`, `SLOWLOG`, and `METRICS`.

pub mod expo;
pub mod metric;
pub mod registry;
pub mod slowlog;
pub mod span;

pub use expo::{render, validate};
pub use metric::{Counter, Gauge, Histo};
pub use registry::{
    entries, histograms, snapshot, Entry, Family, Handle, LazyCounter, LazyCounterFamily,
    LazyGauge, LazyGaugeFamily, LazyHisto, LazyHistoFamily, MetricKind, Snapshot, Timer,
};
pub use slowlog::{SlowEntry, SlowLog, DEFAULT_THRESHOLD_MICROS};
pub use span::{Span, SpanReport, Stage, N_STAGES, STAGES};
