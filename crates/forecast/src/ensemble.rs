//! The ensemble forecaster: the full §5.2 pipeline.
//!
//! ```text
//! usage ────────────────────────────┐
//!                                   ├─ sporadic-peak removal
//!                                   ├─ change-point truncation (recent regime)
//!                                   ├─ PSD periodicity
//!                  ┌────────────────┤
//!            prophet-lite     historical average
//!                  └─── backtest-weighted blend ───┐
//!                                                  ├─ non-periodic-burst guard
//!                                             forecast (horizon)
//! ```
//!
//! The final guard implements Issue 3: "if the forecasts are significantly
//! lower than historical input data, we directly use the most recent period's
//! historical data for predictions to avoid unnecessary downscaling."

use crate::changepoint::last_regime_start;
use crate::denoise::sporadic_peak_filter;
use crate::histavg::{self, HistoricalAverage};
use crate::metrics::smape;
use crate::prophet::ProphetModel;
use crate::psd::dominant_period;
use abase_util::TimeSeries;

/// Which model ultimately drove the forecast (for diagnostics/experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelChoice {
    /// Backtest-weighted blend of prophet-lite and historical average.
    Blend,
    /// Prophet-lite dominated (historical average failed or scored poorly).
    ProphetOnly,
    /// Historical average dominated.
    HistoricalOnly,
    /// Issue-3 fallback: replayed the most recent period of history.
    RecentHistoryFallback,
}

/// Issue-3 guard: the forecast falls back to replaying recent history when
/// its maximum is below this fraction of the recent observed maximum.
const BURST_GUARD_RATIO: f64 = 0.8;
/// Samples kept after change-point truncation, however recent the last
/// change point (enough to see seasonality).
const MIN_HISTORY: usize = 240;

/// The forecast and its provenance.
#[derive(Debug, Clone)]
pub struct ForecastOutput {
    /// Predicted values for the horizon.
    pub values: Vec<f64>,
    /// Maximum predicted value (what Algorithm 1 consumes as `U_max`).
    pub peak: f64,
    /// Detected seasonal period in samples, if any.
    pub period: Option<usize>,
    /// Which model produced the output.
    pub model: ModelChoice,
    /// Number of sporadic peaks removed before fitting.
    pub denoised_points: usize,
}

/// The §5.2 ensemble forecaster: forecast `horizon` samples of `usage`.
pub fn forecast(usage: &TimeSeries, horizon: usize) -> ForecastOutput {
    // ---- Preprocess (Issue 1) ----
    let mut denoised_points = 0usize;
    let mut series = usage.clone();
    const HOUR: u64 = 3_600_000_000;
    if series.interval() == HOUR && series.len() >= 48 {
        let (cleaned, removed) = sporadic_peak_filter(&series);
        series = cleaned;
        denoised_points += removed;
    }
    // Change-point truncation: focus on the current regime, but keep
    // enough history to see seasonality.
    let regime_start = last_regime_start(series.values());
    let keep_from = regime_start.min(series.len().saturating_sub(MIN_HISTORY));
    let values: Vec<f64> = series.values()[keep_from..].to_vec();
    // ---- Periodicity (Issue 2) ----
    let period = dominant_period(&values);
    // ---- Models ----
    let prophet = ProphetModel::fit(&values, period);
    let histavg = HistoricalAverage::fit(&values, period, histavg::DECAY);
    // Backtest on the trailing 25% of the regime.
    let holdout = (values.len() / 4)
        .max(1)
        .min(values.len().saturating_sub(4));
    let (fit_part, test_part) = values.split_at(values.len() - holdout);
    let (forecast, model) = blend(
        fit_part,
        test_part,
        period,
        prophet.as_ref(),
        &histavg,
        horizon,
    );
    // ---- Non-periodic-burst guard (Issue 3) ----
    // At least one day of history: non-periodic bursts recur daily at
    // varying times, so a sub-daily window would miss them.
    let recent_window = period.unwrap_or(24).max(24).min(values.len());
    let recent = &values[values.len() - recent_window..];
    let recent_max = recent.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let forecast_max = forecast.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (final_values, final_model) = if forecast_max < BURST_GUARD_RATIO * recent_max {
        // Replay the most recent period tiled across the horizon.
        let replay: Vec<f64> = (0..horizon).map(|h| recent[h % recent.len()]).collect();
        (replay, ModelChoice::RecentHistoryFallback)
    } else {
        (forecast, model)
    };
    let peak = final_values
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
        .max(0.0);
    ForecastOutput {
        values: final_values,
        peak,
        period,
        model: final_model,
        denoised_points,
    }
}

/// Weighted blend by holdout sMAPE; retrains on full history for output.
fn blend(
    fit_part: &[f64],
    test_part: &[f64],
    period: Option<usize>,
    prophet_full: Option<&ProphetModel>,
    histavg_full: &HistoricalAverage,
    horizon: usize,
) -> (Vec<f64>, ModelChoice) {
    // Backtest each model trained on fit_part.
    let prophet_bt = ProphetModel::fit(fit_part, period).map(|m| m.forecast(test_part.len()));
    let histavg_bt =
        HistoricalAverage::fit(fit_part, period, histavg::DECAY).forecast(test_part.len());
    let prophet_err = prophet_bt
        .as_ref()
        .map(|p| smape(test_part, p))
        .unwrap_or(f64::INFINITY);
    let histavg_err = smape(test_part, &histavg_bt);
    let prophet_fc = prophet_full.map(|m| m.forecast(horizon));
    let histavg_fc = histavg_full.forecast(horizon);
    match prophet_fc {
        None => (histavg_fc, ModelChoice::HistoricalOnly),
        Some(pfc) => {
            // Inverse-error weights with an epsilon floor.
            let wp = 1.0 / (prophet_err + 1e-3);
            let wh = 1.0 / (histavg_err + 1e-3);
            let share_p = wp / (wp + wh);
            let blended: Vec<f64> = pfc
                .iter()
                .zip(&histavg_fc)
                .map(|(p, h)| share_p * p + (1.0 - share_p) * h)
                .collect();
            let model = if share_p > 0.85 {
                ModelChoice::ProphetOnly
            } else if share_p < 0.15 {
                ModelChoice::HistoricalOnly
            } else {
                ModelChoice::Blend
            };
            (blended, model)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const HOUR: u64 = 3_600_000_000;

    fn hourly(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new(0, HOUR, values)
    }

    /// 30 days of hourly data with daily seasonality and a linear trend.
    fn seasonal_trend(n: usize, slope: f64) -> Vec<f64> {
        (0..n)
            .map(|t| 200.0 + slope * t as f64 + 50.0 * (2.0 * PI * t as f64 / 24.0).sin())
            .collect()
    }

    #[test]
    fn forecasts_seasonal_trend_with_low_error() {
        let full = seasonal_trend(720 + 168, 0.1);
        let (train, test) = full.split_at(720);
        let out = forecast(&hourly(train.to_vec()), 168);
        assert_eq!(out.values.len(), 168);
        assert_eq!(out.period, Some(24));
        let err = crate::metrics::smape(test, &out.values);
        assert!(err < 0.10, "smape={err}");
    }

    #[test]
    fn peak_tracks_series_peak() {
        let train = seasonal_trend(720, 0.0);
        let out = forecast(&hourly(train), 168);
        // Peak of 200 + 50·sin = 250 (±10%).
        assert!((out.peak - 250.0).abs() < 25.0, "peak={}", out.peak);
    }

    #[test]
    fn burst_guard_keeps_recent_peaks() {
        // Flat series whose last day carries a recurring burst the models may
        // smooth away; the Issue-3 guard must preserve the peak level.
        let mut values = vec![100.0; 720];
        for day in 25..30 {
            for h in 0..3 {
                values[day * 24 + 8 + h] = 900.0;
            }
        }
        let out = forecast(&hourly(values), 168);
        assert!(
            out.peak > 700.0,
            "recurring burst dismissed: peak={} model={:?}",
            out.peak,
            out.model
        );
    }

    #[test]
    fn trend_shift_focuses_recent_regime() {
        // Level 100 for 20 days, then level 500: forecast must track ~500.
        let mut values = vec![100.0; 480];
        values.extend(vec![500.0; 240]);
        let out = forecast(&hourly(values), 48);
        let mean = out.values.iter().sum::<f64>() / out.values.len() as f64;
        assert!(mean > 400.0, "stale regime dominates: mean={mean}");
    }

    #[test]
    fn short_series_still_produces_output() {
        let out = forecast(&hourly(vec![50.0; 24]), 12);
        assert_eq!(out.values.len(), 12);
        assert!(out.values.iter().all(|v| v.is_finite()));
    }
}
