//! Streaming statistics.
//!
//! The paper estimates upcoming read sizes `E[S_read]` and cache hit ratios
//! `E[R_hit]` with "a moving average of the last *k* requests" (§4.1). That
//! estimator, a windowed rate and percentiles live here.

use std::collections::VecDeque;

/// Moving average over the last `k` observations.
///
/// ABase uses this for read-size and cache-hit-ratio estimation feeding the
/// cache-aware RU formula (§4.1). Before any observation arrives the average
/// falls back to a configurable prior so that a cold tenant is neither charged
/// zero nor infinity.
#[derive(Debug, Clone)]
pub struct MovingAverage {
    window: VecDeque<f64>,
    capacity: usize,
    sum: f64,
    prior: f64,
}

impl MovingAverage {
    /// A moving average over the last `k` samples, returning `prior` while empty.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, prior: f64) -> Self {
        assert!(k > 0, "moving average window must be non-empty");
        Self {
            window: VecDeque::with_capacity(k),
            capacity: k,
            sum: 0.0,
            prior,
        }
    }

    /// Record an observation.
    pub fn record(&mut self, value: f64) {
        if self.window.len() == self.capacity {
            if let Some(old) = self.window.pop_front() {
                self.sum -= old;
            }
        }
        self.window.push_back(value);
        self.sum += value;
    }

    /// Current estimate: mean of the window, or the prior when empty.
    pub fn mean(&self) -> f64 {
        if self.window.is_empty() {
            self.prior
        } else {
            self.sum / self.window.len() as f64
        }
    }

    /// Number of samples currently held (≤ k).
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when no samples have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }
}

/// Event rate over a sliding window of virtual time.
///
/// The meta server monitors per-proxy traffic with this (§4.2): each processed
/// request is recorded with its timestamp, and `rate()` reports events/second
/// over the trailing window.
#[derive(Debug, Clone)]
pub struct WindowedRate {
    window_micros: u64,
    /// (timestamp, weight) pairs, oldest first.
    events: VecDeque<(u64, f64)>,
    weight_sum: f64,
}

impl WindowedRate {
    /// Rate tracker over a trailing window of `window_micros` virtual microseconds.
    ///
    /// # Panics
    /// Panics if `window_micros == 0`.
    pub fn new(window_micros: u64) -> Self {
        assert!(window_micros > 0, "window must be positive");
        Self {
            window_micros,
            events: VecDeque::new(),
            weight_sum: 0.0,
        }
    }

    /// Record `weight` units of traffic at virtual time `now` (microseconds).
    pub fn record(&mut self, now: u64, weight: f64) {
        self.evict(now);
        self.events.push_back((now, weight));
        self.weight_sum += weight;
    }

    /// Traffic per second over the trailing window ending at `now`.
    pub fn rate_per_sec(&mut self, now: u64) -> f64 {
        self.evict(now);
        self.weight_sum * 1_000_000.0 / self.window_micros as f64
    }

    /// Total weight currently inside the window ending at `now`.
    pub fn sum(&mut self, now: u64) -> f64 {
        self.evict(now);
        self.weight_sum
    }

    fn evict(&mut self, now: u64) {
        let cutoff = now.saturating_sub(self.window_micros);
        while let Some(&(t, w)) = self.events.front() {
            if t < cutoff {
                self.events.pop_front();
                self.weight_sum -= w;
            } else {
                break;
            }
        }
    }
}

/// Percentile of a slice using linear interpolation between closest ranks.
///
/// `q` is in `[0, 1]`. Returns `None` on an empty slice. The input does not
/// need to be sorted; a sorted copy is made internally.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    Some(percentile_sorted(&sorted, q))
}

/// Percentile of an already-sorted slice (ascending). See [`percentile`].
///
/// # Panics
/// Panics if `values` is empty.
pub fn percentile_sorted(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty());
    let q = q.clamp(0.0, 1.0);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        values[lo]
    } else {
        let frac = pos - lo as f64;
        values[lo] * (1.0 - frac) + values[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_respects_window() {
        let mut ma = MovingAverage::new(3, 42.0);
        assert_eq!(ma.mean(), 42.0);
        ma.record(1.0);
        ma.record(2.0);
        ma.record(3.0);
        assert!((ma.mean() - 2.0).abs() < 1e-12);
        ma.record(10.0); // evicts 1.0
        assert!((ma.mean() - 5.0).abs() < 1e-12);
        assert_eq!(ma.len(), 3);
    }

    #[test]
    fn windowed_rate_expires_old_events() {
        let mut r = WindowedRate::new(1_000_000); // 1 s window
        r.record(0, 100.0);
        r.record(500_000, 100.0);
        assert!((r.rate_per_sec(500_000) - 200.0).abs() < 1e-9);
        // At t=1.6s the event at t=0 (and t=0.5s) fall outside the window.
        assert!((r.rate_per_sec(1_600_000) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(40.0));
        assert_eq!(percentile(&v, 0.5), Some(25.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[3.0], 0.99), Some(3.0));
    }
}
