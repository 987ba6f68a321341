//! "Prophet-lite": additive trend + Fourier seasonality.
//!
//! The paper ensembles "the adaptive-periodic Prophet model with historical
//! averages". Prophet's essence for this workload — piecewise-linear trend
//! with changepoints plus Fourier-series seasonality, fit as a linear model —
//! is reproduced here deterministically with ridge regression. No MCMC, no
//! holidays: resource metrics have no holiday calendar and the autoscaler only
//! consumes the posterior mean anyway.

use crate::linalg::{predict_row, ridge_fit};
use std::f64::consts::PI;

/// Evenly spaced candidate trend changepoints.
const N_CHANGEPOINTS: usize = 8;
/// Fourier order of the seasonal component (pairs of sin/cos terms).
const FOURIER_ORDER: usize = 4;

/// A fitted prophet-lite model.
#[derive(Debug, Clone)]
pub struct ProphetModel {
    beta: Vec<f64>,
    changepoints: Vec<f64>,
    period: Option<usize>,
    n_train: usize,
}

fn design_row(t: f64, changepoints: &[f64], period: Option<usize>) -> Vec<f64> {
    // [intercept, t, relu(t - cp_i)..., sin/cos pairs...]
    let mut row = Vec::with_capacity(2 + changepoints.len() + 2 * FOURIER_ORDER);
    row.push(1.0);
    row.push(t);
    for &cp in changepoints {
        row.push((t - cp).max(0.0));
    }
    if let Some(p) = period {
        let p = p as f64;
        for order in 1..=FOURIER_ORDER {
            let angle = 2.0 * PI * order as f64 * t / p;
            row.push(angle.sin());
            row.push(angle.cos());
        }
    }
    row
}

impl ProphetModel {
    /// Fit on `values` (one sample per time step), optionally with a known
    /// seasonal `period` in samples (from PSD analysis). Returns `None` when
    /// the series is too short to fit.
    pub fn fit(values: &[f64], period: Option<usize>) -> Option<Self> {
        let n = values.len();
        if n < 8 {
            return None;
        }
        // Seasonality requires at least two full cycles of evidence.
        let period = period.filter(|&p| p >= 2 && n >= 2 * p);
        let n_cp = N_CHANGEPOINTS.min(n / 8);
        // Candidate changepoints over the first 80% of history (Prophet's
        // default guards against overfitting the most recent points).
        let changepoints: Vec<f64> = (1..=n_cp)
            .map(|i| (i as f64 / (n_cp + 1) as f64) * 0.8 * n as f64)
            .collect();
        let x: Vec<Vec<f64>> = (0..n)
            .map(|t| design_row(t as f64, &changepoints, period))
            .collect();
        let beta = ridge_fit(&x, values)?;
        Some(Self {
            beta,
            changepoints,
            period,
            n_train: n,
        })
    }

    /// The seasonal period used by the fit, if any.
    pub fn period(&self) -> Option<usize> {
        self.period
    }

    /// Predict `horizon` samples following the training window.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        (0..horizon)
            .map(|h| {
                let t = (self.n_train + h) as f64;
                let row = design_row(t, &self.changepoints, self.period);
                predict_row(&row, &self.beta)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mape;

    #[test]
    fn fits_linear_trend() {
        let values: Vec<f64> = (0..100).map(|t| 50.0 + 2.0 * t as f64).collect();
        let m = ProphetModel::fit(&values, None).unwrap();
        let fc = m.forecast(10);
        for (h, v) in fc.iter().enumerate() {
            let expect = 50.0 + 2.0 * (100 + h) as f64;
            assert!((v - expect).abs() / expect < 0.05, "h={h}: {v} vs {expect}");
        }
    }

    #[test]
    fn fits_seasonal_cycle() {
        let values: Vec<f64> = (0..240)
            .map(|t| 100.0 + 30.0 * (2.0 * PI * t as f64 / 24.0).sin())
            .collect();
        let m = ProphetModel::fit(&values, Some(24)).unwrap();
        let fc = m.forecast(24);
        let expect: Vec<f64> = (240..264)
            .map(|t| 100.0 + 30.0 * (2.0 * PI * t as f64 / 24.0).sin())
            .collect();
        assert!(mape(&expect, &fc) < 0.05, "mape={}", mape(&expect, &fc));
    }

    #[test]
    fn fits_trend_plus_seasonality() {
        let values: Vec<f64> = (0..240)
            .map(|t| 100.0 + 0.5 * t as f64 + 20.0 * (2.0 * PI * t as f64 / 24.0).sin())
            .collect();
        let m = ProphetModel::fit(&values, Some(24)).unwrap();
        let fc = m.forecast(48);
        let expect: Vec<f64> = (240..288)
            .map(|t| 100.0 + 0.5 * t as f64 + 20.0 * (2.0 * PI * t as f64 / 24.0).sin())
            .collect();
        assert!(mape(&expect, &fc) < 0.08, "mape={}", mape(&expect, &fc));
    }

    #[test]
    fn adapts_to_trend_change() {
        // Flat for 150 samples, then rising at slope 3: the changepoint basis
        // should let the forecast follow the new slope rather than the mean.
        let values: Vec<f64> = (0..200)
            .map(|t| {
                if t < 150 {
                    100.0
                } else {
                    100.0 + 3.0 * (t - 150) as f64
                }
            })
            .collect();
        let m = ProphetModel::fit(&values, None).unwrap();
        let fc = m.forecast(20);
        // At h=19 the true value is 100 + 3*69 = 307; demand at least slope
        // continuation beyond 250.
        assert!(fc[19] > 250.0, "forecast too flat: {}", fc[19]);
    }

    #[test]
    fn short_series_returns_none() {
        assert!(ProphetModel::fit(&[1.0; 4], None).is_none());
    }

    #[test]
    fn period_needs_two_cycles() {
        let values: Vec<f64> = (0..30).map(|t| t as f64).collect();
        let m = ProphetModel::fit(&values, Some(24)).unwrap();
        assert_eq!(
            m.period(),
            None,
            "one cycle of evidence must not fit seasonality"
        );
    }
}
