//! The three metric primitives: striped counters, gauges, and sharded
//! histograms over [`abase_util::Histogram`]'s bucket layout.
//!
//! Everything here is wait-free on the record path: a counter increment or a
//! histogram observation is **one relaxed atomic op** (the histogram derives
//! its total count and approximate sum from the buckets at scrape time, so
//! recording touches exactly one bucket cell). Counters and histograms
//! shard by thread, so concurrent recorders on different cores do not fight
//! over one cache line; a read sums the shards.

use abase_util::histogram::{Histogram, BUCKETS};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// One counter shard on a cache line of its own.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CounterCell(AtomicU64);

/// A monotonically increasing counter: one cache-line-padded cell per
/// thread shard (the [`Histo`] striping), summed on read. 512 B each.
#[derive(Debug, Default)]
pub struct Counter {
    cells: [CounterCell; HISTO_SHARDS],
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self {
            cells: [const { CounterCell(AtomicU64::new(0)) }; HISTO_SHARDS],
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value: the sum of the shards.
    pub fn get(&self) -> u64 {
        self.cells
            .iter()
            .map(|cell| cell.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// An instantaneous signed value (connection counts, lag, queue depths).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add (possibly negative) `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Counter and histogram shards: concurrent recorders hash their thread
/// onto one of these so a hot metric does not serialize every core on one
/// cache line.
const HISTO_SHARDS: usize = 8;

/// A stable per-thread shard index (threads are striped round-robin).
#[inline]
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    IDX.with(|i| *i) & (HISTO_SHARDS - 1)
}

/// A concurrent [`Histogram`]: the same buckets, one atomic per bucket per
/// thread shard.
///
/// Recording computes the bucket index (integer shifts) and performs a
/// single relaxed `fetch_add` on the recorder thread's shard. Values are not
/// kept, so [`Histo::snapshot`] takes the sum from bucket midpoints.
#[derive(Debug)]
pub struct Histo {
    shards: Box<[[AtomicU64; BUCKETS]]>,
}

impl Default for Histo {
    fn default() -> Self {
        Self::new()
    }
}

impl Histo {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            shards: (0..HISTO_SHARDS)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Record one observation of `value`: a count, for the families that
    /// count things. One relaxed atomic op.
    #[inline]
    pub fn record(&self, value: u64) {
        self.shards[shard_index()][Histogram::index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a duration, in nanoseconds: how every `_micros` family
    /// records (exposition shows them in µs, see [`exposed_scale`]).
    #[inline]
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .flatten()
            .map(|cell| cell.load(Ordering::Relaxed))
            .sum()
    }

    /// The shards merged into one [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut counts = [0u64; BUCKETS];
        for shard in self.shards.iter() {
            for (total, cell) in counts.iter_mut().zip(shard) {
                *total += cell.load(Ordering::Relaxed);
            }
        }
        Histogram::from_counts(&counts)
    }
}

/// The one unit rule of exposition: what a histogram's recorded values are
/// divided by before `METRICS` (`_sum`, `le`) and `INFO latency` show them.
/// A `_micros` family records nanoseconds and shows fractional
/// microseconds; every other family (`_commands`, `_frames`) records and
/// shows raw counts. `name` may carry a `{label}` suffix.
pub fn exposed_scale(name: &str) -> f64 {
    let family = name.split_once('{').map_or(name, |(family, _)| family);
    if family.ends_with("_micros") {
        1_000.0
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn counter_shards_sum_exactly_across_threads() {
        static C: crate::LazyCounter =
            crate::LazyCounter::new("test_metric_striped_counter_total", "test");
        assert_eq!(std::mem::size_of::<Counter>(), 512);
        C.add(0); // registers the family before the first snapshot
        let before = crate::snapshot();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100_000 {
                        C.inc();
                    }
                });
            }
        });
        assert_eq!(C.get(), 800_000);
        C.add(5);
        let delta = crate::snapshot().delta(&before);
        assert_eq!(delta.value("test_metric_striped_counter_total"), 800_005.0);
    }

    #[test]
    fn histo_layout_matches_latency_histogram() {
        // The sharded form buckets exactly as the plain one does.
        let (h, mut plain) = (Histo::new(), Histogram::new());
        for i in 1..=10_000u64 {
            h.record(i * 10_000); // 10 µs .. 100 ms uniformly, in ns
            plain.record(i * 10_000);
        }
        assert_eq!(h.count(), 10_000);
        let snap = h.snapshot();
        assert!(snap.buckets().eq(plain.buckets()));
        assert_eq!(snap.quantile(0.5), plain.quantile(0.5));
        assert_eq!(snap.quantile(0.99), plain.quantile(0.99));
        let err = snap.sum().abs_diff(plain.sum()) as f64 / plain.sum() as f64;
        assert!(err < 0.031, "midpoint sum off by {err}");
    }

    #[test]
    fn histo_midpoints_map_back_to_their_bucket() {
        // Sub-µs durations keep their own buckets, a value below 32 is its
        // own midpoint, and every midpoint lies in its bucket.
        let h = Histo::new();
        h.record(1);
        h.record_duration(Duration::from_nanos(90));
        h.record_duration(Duration::from_nanos(1_300));
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.0), Some(1.0));
        for (q, ns) in [(0.5, 90), (1.0, 1_300)] {
            let mid = snap.quantile(q).unwrap();
            let i = Histogram::index(mid.round() as u64);
            assert_eq!(i, Histogram::index(ns), "{ns} ns reads {mid}");
        }
        let rest = snap.sum() - 1;
        assert!(rest.abs_diff(1_390) <= 1_390 / 33, "sum {rest}");
    }

    #[test]
    fn histo_concurrent_records_land_in_shards() {
        let h = std::sync::Arc::new(Histo::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        h.record(500);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }
}
