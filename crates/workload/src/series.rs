//! Synthetic hourly metric series for the forecasting experiments (Figure 8).
//!
//! Builds 30-day hourly usage series exhibiting the paper's §5.2 phenomena:
//! trend, daily/weekly/3.5-day seasonality, noise, sporadic spikes, co-spiking
//! metric glitches, and trend changepoints.

use abase_util::TimeSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// Hourly sampling interval in virtual microseconds.
pub const HOUR: u64 = 3_600_000_000;

/// Declarative description of a synthetic series.
#[derive(Debug, Clone)]
pub struct SeriesSpec {
    /// Length in hours.
    pub hours: usize,
    /// Base level.
    pub base: f64,
    /// Linear trend per hour.
    pub trend_per_hour: f64,
    /// (period in hours, amplitude) seasonal components.
    pub seasonal: Vec<(f64, f64)>,
    /// Multiplicative noise std-dev (0 = deterministic).
    pub noise: f64,
    /// (hour, magnitude) one-off spikes.
    pub spikes: Vec<(usize, f64)>,
    /// (hour, new level offset) step changes.
    pub steps: Vec<(usize, f64)>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SeriesSpec {
    fn default() -> Self {
        Self {
            hours: 720,
            base: 100.0,
            trend_per_hour: 0.0,
            seasonal: vec![(24.0, 20.0)],
            noise: 0.02,
            spikes: Vec::new(),
            steps: Vec::new(),
            seed: 0,
        }
    }
}

impl SeriesSpec {
    /// Materialize the series.
    pub fn build(&self) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut values = Vec::with_capacity(self.hours);
        for t in 0..self.hours {
            let mut v = self.base + self.trend_per_hour * t as f64;
            for &(period, amplitude) in &self.seasonal {
                v += amplitude * (2.0 * PI * t as f64 / period).sin();
            }
            for &(hour, offset) in &self.steps {
                if t >= hour {
                    v += offset;
                }
            }
            if self.noise > 0.0 {
                let n: f64 = rng.gen_range(-1.0..1.0);
                v *= 1.0 + self.noise * n;
            }
            for &(hour, magnitude) in &self.spikes {
                if t == hour {
                    v += magnitude;
                }
            }
            values.push(v.max(0.0));
        }
        TimeSeries::new(0, HOUR, values)
    }
}

/// The Figure-8a case: three weeks of disk usage with 24-hour periodicity
/// and steady growth.
pub fn fig8a_disk_usage() -> TimeSeries {
    SeriesSpec {
        hours: 21 * 24,
        base: 550.0,
        trend_per_hour: 0.55,
        seasonal: vec![(24.0, 60.0)],
        noise: 0.015,
        seed: 8,
        ..Default::default()
    }
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_has_requested_shape() {
        let s = SeriesSpec {
            hours: 48,
            base: 100.0,
            trend_per_hour: 1.0,
            seasonal: vec![],
            noise: 0.0,
            ..Default::default()
        }
        .build();
        assert_eq!(s.len(), 48);
        assert!((s.values()[0] - 100.0).abs() < 1e-9);
        assert!((s.values()[47] - 147.0).abs() < 1e-9);
    }

    #[test]
    fn seasonality_produces_daily_peaks() {
        let s = SeriesSpec {
            noise: 0.0,
            ..Default::default()
        }
        .build();
        // Max near base+amplitude, min near base−amplitude.
        assert!((s.max().unwrap() - 120.0).abs() < 1.0);
        assert!((s.min().unwrap() - 80.0).abs() < 1.0);
    }

    #[test]
    fn spikes_and_steps_apply() {
        let s = SeriesSpec {
            hours: 100,
            seasonal: vec![],
            noise: 0.0,
            spikes: vec![(10, 500.0)],
            steps: vec![(50, 200.0)],
            ..Default::default()
        }
        .build();
        assert!((s.values()[10] - 600.0).abs() < 1e-9);
        assert!((s.values()[49] - 100.0).abs() < 1e-9);
        assert!((s.values()[50] - 300.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SeriesSpec::default().build();
        let b = SeriesSpec::default().build();
        assert_eq!(a, b);
    }

    #[test]
    fn fig8a_series_grows_with_daily_cycle() {
        let s = fig8a_disk_usage();
        assert_eq!(s.len(), 21 * 24);
        // Growth dominates over three weeks.
        let first_day_mean: f64 = s.values()[..24].iter().sum::<f64>() / 24.0;
        let last_day_mean: f64 = s.values()[20 * 24..].iter().sum::<f64>() / 24.0;
        assert!(last_day_mean > first_day_mean + 200.0);
    }
}
