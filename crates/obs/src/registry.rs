//! The process-global metrics registry and the lazy static handles
//! instrumentation sites hold.
//!
//! Hot paths declare metrics as `static` [`LazyCounter`]/[`LazyGauge`]/
//! [`LazyHisto`] (or the labelled `*Family` variants) and record through
//! them; the first touch registers the metric (leaking it, so handles are
//! `&'static` and recording never takes the registry lock).

use crate::metric::{Counter, Gauge, Histo};
use abase_util::lockrank::{rank, RankedMutex, RankedRwLock};
use abase_util::Histogram;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// What a registered name is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Histogram: durations (`_micros` families) or counts.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn type_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A family keyed by one label: members are interned on first use and live
/// forever. The read path is a shared-lock map probe (cold compared to the
/// unlabelled handles — use those on the hottest paths).
#[derive(Debug)]
pub struct Family<T: 'static> {
    label_key: &'static str,
    members: RankedRwLock<BTreeMap<String, &'static T>>,
    make: fn() -> T,
}

impl<T: 'static> Family<T> {
    fn new(label_key: &'static str, make: fn() -> T) -> Self {
        Self {
            label_key,
            members: RankedRwLock::new(rank::OBS_FAMILY, BTreeMap::new()),
            make,
        }
    }

    /// The label key this family is partitioned by.
    pub fn label_key(&self) -> &'static str {
        self.label_key
    }

    /// The member for `label`, interning it on first use.
    pub fn with(&self, label: &str) -> &'static T {
        if let Some(m) = self.members.read().get(label) {
            return m;
        }
        let mut members = self.members.write();
        members
            .entry(label.to_string())
            .or_insert_with(|| Box::leak(Box::new((self.make)())))
    }

    /// Every interned `(label, member)` pair.
    pub fn members(&self) -> Vec<(String, &'static T)> {
        self.members
            .read()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }
}

/// A registered metric's storage.
#[derive(Debug, Clone, Copy)]
pub enum Handle {
    /// Single counter.
    Counter(&'static Counter),
    /// Single gauge.
    Gauge(&'static Gauge),
    /// Single histogram.
    Histo(&'static Histo),
    /// Labelled counters.
    CounterFamily(&'static Family<Counter>),
    /// Labelled gauges.
    GaugeFamily(&'static Family<Gauge>),
    /// Labelled histograms.
    HistoFamily(&'static Family<Histo>),
}

impl Handle {
    /// The metric kind this handle stores.
    pub fn kind(&self) -> MetricKind {
        match self {
            Handle::Counter(_) | Handle::CounterFamily(_) => MetricKind::Counter,
            Handle::Gauge(_) | Handle::GaugeFamily(_) => MetricKind::Gauge,
            Handle::Histo(_) | Handle::HistoFamily(_) => MetricKind::Histogram,
        }
    }
}

/// One registry row.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Metric family name (`abase_…_total`).
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// The storage behind the name.
    pub handle: Handle,
}

fn metrics() -> &'static RankedMutex<BTreeMap<&'static str, Entry>> {
    static METRICS: OnceLock<RankedMutex<BTreeMap<&'static str, Entry>>> = OnceLock::new();
    METRICS.get_or_init(|| RankedMutex::new(rank::OBS_REGISTRY, BTreeMap::new()))
}

fn register(name: &'static str, help: &'static str, make: impl FnOnce() -> Handle) -> Handle {
    let mut map = metrics().lock();
    if let Some(existing) = map.get(name) {
        return existing.handle;
    }
    let handle = make();
    map.insert(name, Entry { name, help, handle });
    handle
}

/// Every registered entry, sorted by name.
pub fn entries() -> Vec<Entry> {
    metrics().lock().values().copied().collect()
}

/// A point-in-time scalar view of the registry, for assertions and deltas.
///
/// Keys are `name` for plain metrics and `name{label}` for family members;
/// histograms contribute `name_count` (observation totals). Counter and
/// count values only ever grow, so `delta ≥ x` assertions are safe even when
/// unrelated threads record concurrently.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    values: BTreeMap<String, f64>,
}

impl Snapshot {
    /// The scalar at `key` (0 when absent).
    pub fn value(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// A counter's value summed across all its labels (covers both plain
    /// `name` and every `name{label}` member).
    pub fn counter(&self, name: &str) -> u64 {
        let prefix = format!("{name}{{");
        self.values
            .iter()
            .filter(|(k, _)| k.as_str() == name || k.starts_with(&prefix))
            .map(|(_, v)| *v)
            .sum::<f64>() as u64
    }

    /// Per-key saturating difference against an earlier snapshot (keys
    /// missing earlier count from zero).
    pub fn delta(&self, baseline: &Snapshot) -> Snapshot {
        let values = self
            .values
            .iter()
            .map(|(k, v)| (k.clone(), (v - baseline.value(k)).max(0.0)))
            .collect();
        Snapshot { values }
    }

    /// All `(key, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

/// Capture a [`Snapshot`] of every registered metric (plus fail-point fire
/// counts as `failpoint_fired_total{point}`).
pub fn snapshot() -> Snapshot {
    let mut values = BTreeMap::new();
    for entry in entries() {
        match entry.handle {
            Handle::Counter(c) => {
                values.insert(entry.name.to_string(), c.get() as f64);
            }
            Handle::Gauge(g) => {
                values.insert(entry.name.to_string(), g.get() as f64);
            }
            Handle::Histo(h) => {
                values.insert(format!("{}_count", entry.name), h.count() as f64);
            }
            Handle::CounterFamily(f) => {
                for (label, c) in f.members() {
                    values.insert(format!("{}{{{label}}}", entry.name), c.get() as f64);
                }
            }
            Handle::GaugeFamily(f) => {
                for (label, g) in f.members() {
                    values.insert(format!("{}{{{label}}}", entry.name), g.get() as f64);
                }
            }
            Handle::HistoFamily(f) => {
                for (label, h) in f.members() {
                    values.insert(format!("{}_count{{{label}}}", entry.name), h.count() as f64);
                }
            }
        }
    }
    for (point, fired) in abase_util::failpoint::fired_counts() {
        values.insert(format!("failpoint_fired_total{{{point}}}"), fired as f64);
    }
    Snapshot { values }
}

/// Every histogram currently registered, as `(display-name, histogram)`
/// pairs — `name` for plain histograms, `name{label}` for family members —
/// in recorded units (divide by [`crate::exposed_scale`] to show them).
pub fn histograms() -> Vec<(String, Histogram)> {
    let mut out = Vec::new();
    for entry in entries() {
        match entry.handle {
            Handle::Histo(h) => out.push((entry.name.to_string(), h.snapshot())),
            Handle::HistoFamily(f) => {
                for (label, h) in f.members() {
                    out.push((format!("{}{{{label}}}", entry.name), h.snapshot()));
                }
            }
            _ => {}
        }
    }
    out
}

macro_rules! lazy_handle {
    ($(#[$doc:meta])* $name:ident, $metric:ty, $variant:ident, $register:ident) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            name: &'static str,
            help: &'static str,
            cell: OnceLock<&'static $metric>,
        }

        impl $name {
            /// Declare (without registering) a metric handle; registration
            /// happens on first touch.
            pub const fn new(name: &'static str, help: &'static str) -> Self {
                Self {
                    name,
                    help,
                    cell: OnceLock::new(),
                }
            }

            /// The registered metric (registering it now if needed).
            #[inline]
            pub fn metric(&self) -> &'static $metric {
                self.cell.get_or_init(|| {
                    match register(self.name, self.help, || {
                        Handle::$variant(Box::leak(Box::new(<$metric>::default())))
                    }) {
                        Handle::$variant(m) => m,
                        other => panic!(
                            "metric {} re-registered with a different kind ({:?})",
                            self.name, other
                        ),
                    }
                })
            }

            /// Force registration (so exposition lists the family even
            /// before the first event).
            pub fn touch(&self) {
                self.metric();
            }
        }

        /// Record and read through the handle as through the metric itself.
        impl std::ops::Deref for $name {
            type Target = $metric;

            #[inline]
            fn deref(&self) -> &$metric {
                self.metric()
            }
        }
    };
}

lazy_handle!(
    /// A `static`-declarable counter handle.
    LazyCounter,
    Counter,
    Counter,
    register_counter
);
lazy_handle!(
    /// A `static`-declarable gauge handle.
    LazyGauge,
    Gauge,
    Gauge,
    register_gauge
);
lazy_handle!(
    /// A `static`-declarable histogram handle.
    LazyHisto,
    Histo,
    Histo,
    register_histo
);

macro_rules! lazy_family {
    ($(#[$doc:meta])* $name:ident, $metric:ty, $variant:ident) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            name: &'static str,
            help: &'static str,
            label_key: &'static str,
            cell: OnceLock<&'static Family<$metric>>,
        }

        impl $name {
            /// Declare a labelled family; registration happens on first touch.
            pub const fn new(
                name: &'static str,
                label_key: &'static str,
                help: &'static str,
            ) -> Self {
                Self {
                    name,
                    help,
                    label_key,
                    cell: OnceLock::new(),
                }
            }

            /// The registered family (registering it now if needed).
            #[inline]
            pub fn family(&self) -> &'static Family<$metric> {
                let label_key = self.label_key;
                self.cell.get_or_init(|| {
                    match register(self.name, self.help, || {
                        Handle::$variant(Box::leak(Box::new(Family::new(
                            label_key,
                            <$metric>::default,
                        ))))
                    }) {
                        Handle::$variant(f) => f,
                        other => panic!(
                            "metric {} re-registered with a different kind ({:?})",
                            self.name, other
                        ),
                    }
                })
            }

            /// Force registration.
            pub fn touch(&self) {
                self.family();
            }

            /// The member for `label` (interned on first use).
            pub fn with(&self, label: &str) -> &'static $metric {
                self.family().with(label)
            }
        }
    };
}

lazy_family!(
    /// A `static`-declarable labelled counter family.
    LazyCounterFamily,
    Counter,
    CounterFamily
);
lazy_family!(
    /// A `static`-declarable labelled gauge family.
    LazyGaugeFamily,
    Gauge,
    GaugeFamily
);
lazy_family!(
    /// A `static`-declarable labelled histogram family.
    LazyHistoFamily,
    Histo,
    HistoFamily
);

impl LazyCounterFamily {
    /// Add one to `label`'s counter.
    #[inline]
    pub fn inc(&self, label: &str) {
        self.with(label).inc();
    }

    /// Add `n` to `label`'s counter.
    #[inline]
    pub fn add(&self, label: &str, n: u64) {
        self.with(label).add(n);
    }
}

impl LazyGaugeFamily {
    /// Set `label`'s gauge.
    #[inline]
    pub fn set(&self, label: &str, v: i64) {
        self.with(label).set(v);
    }
}

/// A start/stop wall-clock timer feeding a [`LazyHisto`].
#[derive(Debug)]
pub struct Timer(Instant);

impl Timer {
    /// Start timing.
    #[inline]
    pub fn start() -> Self {
        Timer(Instant::now())
    }

    /// Record the elapsed time into `histo` and stop.
    #[inline]
    pub fn observe(self, histo: &LazyHisto) {
        histo.record_duration(self.0.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    static T_COUNTER: LazyCounter = LazyCounter::new("test_registry_counter_total", "test");
    static T_GAUGE: LazyGauge = LazyGauge::new("test_registry_gauge", "test");
    static T_HISTO: LazyHisto = LazyHisto::new("test_registry_micros", "test");
    static T_FAMILY: LazyCounterFamily =
        LazyCounterFamily::new("test_registry_family_total", "op", "test");

    #[test]
    fn handles_register_once_and_record() {
        T_COUNTER.inc();
        T_COUNTER.add(2);
        T_GAUGE.set(5);
        T_HISTO.record_duration(Duration::from_micros(1234));
        T_FAMILY.inc("get");
        T_FAMILY.inc("get");
        T_FAMILY.inc("set");
        assert_eq!(T_COUNTER.get(), 3);
        assert_eq!(T_GAUGE.get(), 5);
        assert_eq!(T_HISTO.count(), 1);
        let snap = snapshot();
        assert_eq!(snap.value("test_registry_counter_total"), 3.0);
        assert_eq!(snap.value("test_registry_gauge"), 5.0);
        assert_eq!(snap.value("test_registry_micros_count"), 1.0);
        assert_eq!(snap.value("test_registry_family_total{get}"), 2.0);
        assert_eq!(snap.counter("test_registry_family_total"), 3);
        // Deltas never go negative and count only growth.
        let base = snap.clone();
        T_COUNTER.inc();
        let delta = snapshot().delta(&base);
        assert_eq!(delta.value("test_registry_counter_total"), 1.0);
    }

    #[test]
    fn histograms_are_queryable_by_name() {
        static Q: LazyHisto = LazyHisto::new("test_registry_quantile_micros", "test");
        for _ in 0..100 {
            Q.record_duration(Duration::from_micros(1000));
        }
        let histos = histograms();
        let (name, lat) = histos
            .iter()
            .find(|(name, _)| name == "test_registry_quantile_micros")
            .expect("histogram registered");
        let p50 = lat.quantile(0.5).unwrap() / crate::exposed_scale(name);
        assert!((p50 - 1000.0).abs() / 1000.0 < 0.031, "p50={p50}");
    }
}
