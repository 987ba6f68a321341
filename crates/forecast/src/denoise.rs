//! Preprocessing: spike denoising (paper §5.2, Issue 1).
//!
//! **Sporadic peak removal** — peaks "appearing only once in the past 10
//! days" are accidental events and must not drive scale-up decisions.

use abase_util::TimeSeries;

/// A point is a spike when it exceeds this multiple of its
/// [`window_median`].
const SPIKE_THRESHOLD: f64 = 3.0;
/// How close to a spike's height a spike on another day must come for the
/// first to count as recurring.
const SIMILARITY: f64 = 0.6;
/// The window a spike's recurrence is looked for in: "the past 10 days".
const LOOKBACK_DAYS: usize = 10;

/// The median of the samples within ±3 of `i`, excluding `i` itself; `None`
/// when `i` has no neighbour.
fn window_median(values: &[f64], i: usize) -> Option<f64> {
    let lo = i.saturating_sub(3);
    let mut window = [0.0; 6];
    let mut n = 0;
    for (j, &v) in values[lo..(i + 4).min(values.len())].iter().enumerate() {
        if lo + j != i {
            window[n] = v;
            n += 1;
        }
    }
    let window = &mut window[..n];
    window.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    window.get(n / 2).copied()
}

/// A point `i` is a *spike* when it exceeds [`SPIKE_THRESHOLD`] × its
/// [`window_median`].
fn spike_mask(values: &[f64]) -> Vec<bool> {
    (0..values.len())
        .map(|i| {
            window_median(values, i)
                .is_some_and(|m| values[i] > SPIKE_THRESHOLD * m.max(f64::EPSILON))
        })
        .collect()
}

/// Sporadic peak removal: a spike is kept only if a comparable spike (within
/// [`SIMILARITY`] of its height) occurs on a *different day* of the trailing
/// [`LOOKBACK_DAYS`]. One-off peaks are flattened to the local median.
///
/// The series must be hourly-sampled.
pub fn sporadic_peak_filter(series: &TimeSeries) -> (TimeSeries, usize) {
    const HOUR: u64 = 3_600_000_000;
    assert_eq!(series.interval(), HOUR, "requires hourly samples");
    let values = series.values();
    let mask = spike_mask(values);
    let samples_per_day = 24usize;
    let lookback = LOOKBACK_DAYS * samples_per_day;
    let mut cleaned = values.to_vec();
    let mut removed = 0;
    for i in 0..values.len() {
        if !mask[i] {
            continue;
        }
        let day_i = i / samples_per_day;
        let lo = i.saturating_sub(lookback);
        let has_sibling = (lo..values.len().min(i + lookback)).any(|j| {
            j != i && j / samples_per_day != day_i && mask[j] && values[j] >= values[i] * SIMILARITY
        });
        if !has_sibling {
            cleaned[i] = window_median(values, i).unwrap_or(values[i]);
            removed += 1;
        }
    }
    (
        TimeSeries::new(series.start(), series.interval(), cleaned),
        removed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    const HOUR: u64 = 3_600_000_000;

    fn hourly(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new(0, HOUR, values)
    }

    #[test]
    fn sporadic_single_peak_removed() {
        let mut v = vec![10.0; 24 * 10];
        v[100] = 400.0; // appears once in 10 days
        let (cleaned, removed) = sporadic_peak_filter(&hourly(v));
        assert_eq!(removed, 1);
        assert!((cleaned.values()[100] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn recurring_daily_peak_survives() {
        // The paper's Issue 3: bursts at varying times but recurring daily
        // must NOT be dismissed as outliers.
        let mut v = vec![10.0; 24 * 10];
        for day in 0..10 {
            v[day * 24 + 7 + (day % 3)] = 400.0; // wandering daily burst
        }
        let (cleaned, removed) = sporadic_peak_filter(&hourly(v));
        assert_eq!(removed, 0);
        assert_eq!(cleaned.values().iter().filter(|&&x| x > 300.0).count(), 10);
    }
}
