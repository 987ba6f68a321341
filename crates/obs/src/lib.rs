//! # abase-obs — the observability plane
//!
//! One crate with four pieces, composed so the hot path pays one relaxed
//! atomic op per event:
//!
//! - [`metric`]: wait-free [`Counter`]/[`Gauge`]/[`Histo`] primitives.
//!   A [`Counter`] is striped per thread, one padded cell per shard, and
//!   summed on read.
//!   [`Histo`] is the thread-sharded atomic form of
//!   `abase_util::Histogram` (the one bucket layout: exact below 32,
//!   1/16-wide log-linear buckets above, clamped at 2^37), so recording is a
//!   single `fetch_add` and [`Histo::snapshot`] is a plain `Histogram`.
//!   Durations are recorded in nanoseconds ([`Histo::record_duration`]);
//!   [`exposed_scale`] is the one rule that shows a `_micros` family in
//!   fractional microseconds and every other family in raw counts.
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
pub use metric::{exposed_scale, Counter, Gauge, Histo};
pub use registry::{
    entries, histograms, snapshot, Entry, Family, Handle, LazyCounter, LazyCounterFamily,
    LazyGauge, LazyGaugeFamily, LazyHisto, LazyHistoFamily, MetricKind, Snapshot, Timer,
};
pub use slowlog::{SlowEntry, SlowLog};
pub use span::{Span, SpanReport, Stage};
