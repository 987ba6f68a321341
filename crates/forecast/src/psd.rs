//! Periodicity detection via power spectral density (paper §5.2).
//!
//! "During the forecasting phase, we initially use power spectral density
//! (PSD) analysis to determine the time series' periodicity." A direct DFT
//! periodogram (O(n²), fine at n ≈ 720 hourly samples) scores every candidate
//! period; a period is accepted when its power stands far enough above the
//! spectrum's median — which handles daily cycles, weekly cycles, and the
//! unusual 3.5-day cycles that tenant TTL configurations produce.

use std::f64::consts::PI;

/// One spectral peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodEstimate {
    /// Period length in samples.
    pub period: usize,
    /// Normalized power (ratio over median spectral power).
    pub strength: f64,
}

/// Compute the periodogram power for frequencies `k = 1..n/2` of a detrended
/// series. Returns `(power, n)`.
fn periodogram(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let detrended: Vec<f64> = values.iter().map(|v| v - mean).collect();
    let half = n / 2;
    let mut power = Vec::with_capacity(half);
    for k in 1..=half {
        let (mut re, mut im) = (0.0_f64, 0.0_f64);
        let omega = 2.0 * PI * k as f64 / n as f64;
        for (t, &x) in detrended.iter().enumerate() {
            let angle = omega * t as f64;
            re += x * angle.cos();
            im -= x * angle.sin();
        }
        power.push((re * re + im * im) / n as f64);
    }
    power
}

/// Detect up to `max_periods` significant periods, strongest first.
///
/// `min_strength` is the required ratio between a peak's power and the median
/// spectral power (e.g. 20.0); `min_cycles` requires the series to contain at
/// least that many full cycles of any reported period.
fn detect_periods(
    values: &[f64],
    max_periods: usize,
    min_strength: f64,
    min_cycles: usize,
) -> Vec<PeriodEstimate> {
    let n = values.len();
    if n < 8 {
        return Vec::new();
    }
    let power = periodogram(values);
    let mut sorted_power = power.clone();
    sorted_power.sort_by(|a, b| a.partial_cmp(b).expect("finite power"));
    let median = sorted_power[sorted_power.len() / 2].max(1e-12);
    // Rank frequencies by power.
    let mut by_power: Vec<(usize, f64)> = power
        .iter()
        .enumerate()
        .map(|(i, &p)| (i + 1, p)) // frequency k = index + 1
        .collect();
    by_power.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite power"));
    let mut out: Vec<PeriodEstimate> = Vec::new();
    for (k, p) in by_power {
        if out.len() >= max_periods {
            break;
        }
        let strength = p / median;
        if strength < min_strength {
            break;
        }
        let period = (n as f64 / k as f64).round() as usize;
        if period < 2 || n / period < min_cycles {
            continue;
        }
        // Skip harmonics/duplicates of an already-accepted period.
        let dup = out.iter().any(|e| {
            let ratio = e.period as f64 / period as f64;
            let near_int = (ratio - ratio.round()).abs() < 0.05 && ratio >= 0.99;
            period == e.period || near_int
        });
        if dup {
            continue;
        }
        out.push(PeriodEstimate { period, strength });
    }
    out
}

/// The single dominant period, if any.
pub fn dominant_period(values: &[f64], min_strength: f64) -> Option<usize> {
    detect_periods(values, 1, min_strength, 2)
        .first()
        .map(|e| e.period)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize, period: f64, amplitude: f64) -> Vec<f64> {
        (0..n)
            .map(|t| 100.0 + amplitude * (2.0 * PI * t as f64 / period).sin())
            .collect()
    }

    #[test]
    fn finds_daily_cycle_in_hourly_data() {
        // 30 days of hourly samples with a 24 h cycle.
        let v = sine(720, 24.0, 20.0);
        assert_eq!(dominant_period(&v, 20.0), Some(24));
    }

    #[test]
    fn finds_weekly_cycle() {
        let v = sine(24 * 7 * 8, 24.0 * 7.0, 15.0);
        assert_eq!(dominant_period(&v, 20.0), Some(24 * 7));
    }

    #[test]
    fn finds_unusual_three_and_a_half_day_cycle() {
        // The paper's TTL-driven 3.5-day period: 84 hourly samples per cycle.
        let v = sine(84 * 8, 84.0, 10.0);
        assert_eq!(dominant_period(&v, 20.0), Some(84));
    }

    #[test]
    fn white_noise_has_no_period() {
        // Deterministic xorshift noise (a multiplicative congruence would
        // carry lattice structure the periodogram can see).
        let mut state = 0x9E3779B97F4A7C15u64;
        let v: Vec<f64> = (0..720)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                100.0 + (state % 1000) as f64 / 100.0
            })
            .collect();
        assert_eq!(dominant_period(&v, 20.0), None);
    }

    #[test]
    fn two_superimposed_periods_both_found() {
        let n = 24 * 7 * 6;
        let v: Vec<f64> = (0..n)
            .map(|t| {
                100.0
                    + 20.0 * (2.0 * PI * t as f64 / 24.0).sin()
                    + 12.0 * (2.0 * PI * t as f64 / (24.0 * 7.0)).sin()
            })
            .collect();
        let periods = detect_periods(&v, 3, 15.0, 2);
        let ps: Vec<usize> = periods.iter().map(|e| e.period).collect();
        assert!(ps.contains(&24), "periods: {ps:?}");
        assert!(ps.contains(&168), "periods: {ps:?}");
    }

    #[test]
    fn short_series_is_safe() {
        assert!(detect_periods(&[1.0, 2.0, 3.0], 2, 10.0, 2).is_empty());
    }
}
