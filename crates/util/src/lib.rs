//! # abase-util
//!
//! Foundation utilities shared by every ABase crate:
//!
//! * [`clock`] — virtual (simulated) time. All ABase components are written against an
//!   explicit time parameter so that cluster-scale experiments run deterministically
//!   in virtual time instead of wall-clock time.
//! * [`stats`] — moving averages (the paper's "moving average of the last *k* requests"
//!   estimators, §4.1), windowed rates and percentiles.
//! * [`histogram`] — the one histogram: fixed integer log-linear buckets (exact
//!   below 32, 1/16-wide above, ≤ 3.03 % midpoint error) with an exact sum. The
//!   observability plane records nanoseconds into it, the simulator its
//!   microsecond `SimTime`s (Figure 4's percentiles).
//! * [`series`] — fixed-interval time series with the hourly resampling the
//!   control plane's metrics use (§5.2).
//! * [`testdir`] — self-cleaning temp directories shared by every crate's tests.
//! * [`failpoint`] — deterministic fault injection: named fail points in the
//!   storage and replication planes that a chaos harness arms from a seeded
//!   RNG (disabled — one atomic load — in normal operation).
//! * [`poller`] — a thin epoll wrapper (raw syscall bindings, no external
//!   crates) behind a safe `Poller`/`Waker` API: the readiness engine under
//!   the event-driven RESP front end.
//! * [`lockrank`] — ranked lock wrappers that turn the documented lock
//!   acquisition order into a runtime-checked invariant: any ordering
//!   inversion panics with both acquisition stacks under
//!   `debug_assertions` or the `lock-order-check` feature.

#![deny(missing_docs)]

pub mod clock;
pub mod failpoint;
pub mod histogram;
pub mod lockrank;
pub mod poller;
pub mod series;
pub mod stats;
pub mod testdir;

pub use clock::{SimTime, Ticks};
pub use histogram::Histogram;
pub use lockrank::{Rank, RankedCondvar, RankedMutex, RankedRwLock};
pub use poller::{Event, Events, Interest, Poller, Waker};
pub use series::{Aggregation, TimeSeries};
pub use stats::{percentile, percentile_sorted, MovingAverage, WindowedRate};
pub use testdir::TestDir;
