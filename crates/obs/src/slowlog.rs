//! The SLOWLOG: a bounded ring of recent operations that exceeded a
//! configurable latency threshold, each carrying its per-stage breakdown.
//!
//! Redis-compatible surface (`SLOWLOG GET/RESET/LEN`, threshold semantics:
//! `0` logs everything, negative disables) but each entry additionally keeps
//! the span's stage timings so a slow op answers "where did the time go"
//! without a profiler. The log is per-server-instance, not process-global:
//! embedded tests run many servers in one process and must not see each
//! other's slow ops.

use crate::span::SpanReport;
use abase_util::lockrank::{rank, RankedMutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Default capture threshold: 10 ms, Redis's default `slowlog-log-slower-than`.
pub const DEFAULT_THRESHOLD_MICROS: i64 = 10_000;

/// Default ring capacity (Redis `slowlog-max-len` default is 128).
pub const DEFAULT_CAPACITY: usize = 128;

/// One captured slow operation.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// Monotone per-log id (never reused, survives RESET like Redis).
    pub id: u64,
    /// Unix timestamp (seconds) when the op completed.
    pub unix_secs: u64,
    /// End-to-end duration.
    pub duration_micros: u64,
    /// The command line, as parsed argv (`["SET", "k", "…"]`).
    pub command: Vec<String>,
    /// `(stage-name, micros)` for every stage that saw time.
    pub stages: Vec<(&'static str, u64)>,
}

/// A bounded ring of [`SlowEntry`]s with a runtime-tunable threshold.
#[derive(Debug)]
pub struct SlowLog {
    threshold_micros: AtomicI64,
    next_id: AtomicU64,
    capacity: usize,
    entries: RankedMutex<VecDeque<SlowEntry>>,
}

impl Default for SlowLog {
    fn default() -> Self {
        Self::new(DEFAULT_THRESHOLD_MICROS, DEFAULT_CAPACITY)
    }
}

impl SlowLog {
    /// A log capturing ops slower than `threshold_micros` (0 = everything,
    /// negative = disabled), keeping the most recent `capacity` entries.
    pub fn new(threshold_micros: i64, capacity: usize) -> Self {
        Self {
            threshold_micros: AtomicI64::new(threshold_micros),
            next_id: AtomicU64::new(0),
            capacity: capacity.max(1),
            entries: RankedMutex::new(rank::OBS_SLOWLOG, VecDeque::new()),
        }
    }

    /// Current capture threshold in microseconds.
    pub fn threshold_micros(&self) -> i64 {
        self.threshold_micros.load(Ordering::Relaxed)
    }

    /// Retune the capture threshold.
    pub fn set_threshold_micros(&self, micros: i64) {
        self.threshold_micros.store(micros, Ordering::Relaxed);
    }

    /// Offer a finished span; captures it when it beats the threshold.
    /// `command` is only materialised on capture (the caller passes a
    /// closure so the fast path never allocates).
    pub fn observe(&self, report: &SpanReport, command: impl FnOnce() -> Vec<String>) {
        let threshold = self.threshold_micros();
        let micros = report.total.as_micros() as u64;
        if threshold < 0 || micros < threshold as u64 {
            return;
        }
        let entry = SlowEntry {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            unix_secs: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            duration_micros: micros,
            command: command(),
            stages: report.stages().collect(),
        };
        let mut entries = self.entries.lock();
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// The most recent `count` entries, newest first (Redis `SLOWLOG GET`).
    pub fn get(&self, count: usize) -> Vec<SlowEntry> {
        self.entries
            .lock()
            .iter()
            .rev()
            .take(count)
            .cloned()
            .collect()
    }

    /// Number of captured entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (ids keep increasing, like Redis).
    pub fn reset(&self) {
        self.entries.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::N_STAGES;
    use std::time::Duration;

    fn report(total: u64) -> SpanReport {
        let total = Duration::from_micros(total);
        let mut stage = [Duration::ZERO; N_STAGES];
        stage[2] = total; // all in Engine
        SpanReport {
            total,
            stage,
            finished: std::time::Instant::now(),
        }
    }

    #[test]
    fn captures_only_past_threshold_and_bounds_ring() {
        let log = SlowLog::new(1000, 3);
        log.observe(&report(500), || vec!["FAST".into()]);
        assert!(log.is_empty());
        for i in 0..5u64 {
            log.observe(&report(2000 + i), || vec![format!("SLOW{i}")]);
        }
        assert_eq!(log.len(), 3, "ring bounded");
        let got = log.get(10);
        assert_eq!(got.len(), 3);
        // Newest first, ids monotone.
        assert_eq!(got[0].command, vec!["SLOW4".to_string()]);
        assert!(got[0].id > got[2].id);
        assert_eq!(got[0].stages, vec![("engine", 2004)]);
        log.reset();
        assert!(log.is_empty());
        // Ids survive reset.
        log.observe(&report(5000), || vec!["AFTER".into()]);
        assert!(log.get(1)[0].id >= 5);
    }

    #[test]
    fn threshold_zero_logs_everything_negative_disables() {
        let log = SlowLog::new(0, 8);
        log.observe(&report(1), || vec!["ANY".into()]);
        assert_eq!(log.len(), 1);
        log.set_threshold_micros(-1);
        log.observe(&report(u64::MAX / 2), || vec!["NEVER".into()]);
        assert_eq!(log.len(), 1);
        assert_eq!(log.threshold_micros(), -1);
    }
}
