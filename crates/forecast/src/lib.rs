//! # abase-forecast
//!
//! The workload forecasting module behind ABase's predictive autoscaling
//! (paper §5.2). It consumes 30 days of hourly resource metrics and predicts
//! the next 7 days, addressing the paper's three practical issues:
//!
//! * **Issue 1 — sporadic bursts and metric noise**: [`denoise`] removes spikes
//!   that appear simultaneously in the usage *and* quota series ("nearly
//!   impossible in practice", hence sensor noise) and one-off peaks seen only
//!   once in the trailing 10 days; [`changepoint`] detects trend shifts so the
//!   models focus on the most recent regime.
//! * **Issue 2 — period diversity and trend variability**: [`psd`] finds the
//!   dominant cycle by power-spectral-density analysis (daily, weekly, or the
//!   odd 3.5-day TTL-driven periods), then [`prophet`] fits an additive
//!   trend+seasonality model (our deterministic stand-in for Prophet) and
//!   [`histavg`] provides the stable seasonal-average fallback; [`ensemble`]
//!   weights them by backtest accuracy.
//! * **Issue 3 — consistent non-periodic bursts**: when the ensemble's
//!   forecast peaks far below recently observed peaks, the ensemble falls back
//!   to replaying the most recent period's history so scaling never dismisses
//!   recurring bursts as outliers.

#![deny(missing_docs)]

pub mod changepoint;
pub mod denoise;
pub mod ensemble;
pub mod histavg;
pub mod linalg;
pub mod metrics;
pub mod prophet;
pub mod psd;

pub use ensemble::{EnsembleConfig, EnsembleForecaster, ForecastOutput, ModelChoice};
pub use metrics::smape;
