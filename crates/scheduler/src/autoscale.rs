//! Predictive autoscaling — Algorithm 1, verbatim.
//!
//! ```text
//! Require: Q_T (tenant quota), N (partitions), U_max (forecast peak usage)
//!  1: if U_max > 0.85 × Q_T then
//!  2:     Q_T ← U_max / 0.65
//!  3:     Q_P ← Q_T / N
//!  4:     if Q_P > UP then trigger partition split so Q_P ← 0.5 × Q_P
//!  5: else if U_max < 0.65 × Q_T and not scaled in last 7 days then
//!  6:     Q_T ← U_max / 0.65
//!  7:     Q_P ← max(Q_T / N, LOWER)
//!  8: end if
//! ```
//!
//! The forecast `U_max` comes from the §5.2 ensemble over 30 days of hourly
//! usage, predicting 7 days ahead.

use abase_forecast::{forecast, ForecastOutput};
use abase_util::clock::{days, SimTime};
use abase_util::TimeSeries;
use std::collections::HashMap;

/// Scale-up trigger: forecast usage above this fraction of quota (line 1).
const UPPER_THRESHOLD: f64 = 0.85;
/// Post-scaling target utilization and scale-down trigger (lines 2 and 5).
const LOWER_THRESHOLD: f64 = 0.65;
/// `LOWER`: minimum partition quota, absorbing occasional bursts (RU/s).
const PARTITION_QUOTA_LOWER: f64 = 100.0;
/// Cool-off between downscales (line 5's 7 days).
const DOWNSCALE_COOLDOWN: SimTime = days(7);

/// The autoscaler's one setting. Figure 8a runs without a split bound
/// (`f64::INFINITY`: its storage quota never splits); Figure 8b and
/// `examples/autoscaling.rs` run the default.
#[derive(Debug, Clone, Copy)]
pub struct AutoscaleConfig {
    /// `UP`: partition quota above which a split is triggered (RU/s).
    pub partition_quota_upper: f64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            partition_quota_upper: 10_000.0,
        }
    }
}

/// The decision produced for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalingDecision {
    /// Forecast within band: leave the quota unchanged.
    Hold,
    /// Raise the tenant quota; optionally split partitions.
    ScaleUp {
        /// New tenant quota (`U_max / 0.65`).
        new_tenant_quota: f64,
        /// New per-partition quota after any split.
        new_partition_quota: f64,
        /// New partition count (doubled when a split triggered).
        new_partitions: u32,
        /// True when the partition quota breached `UP` and a split fired.
        split: bool,
    },
    /// Lower the tenant quota (respecting the `LOWER` floor per partition).
    ScaleDown {
        /// New tenant quota.
        new_tenant_quota: f64,
        /// New per-partition quota (floored at `LOWER`).
        new_partition_quota: f64,
    },
}

/// Stateful autoscaler: remembers per-tenant scale times for the cool-off.
#[derive(Debug, Default)]
pub struct Autoscaler {
    config: AutoscaleConfig,
    last_scaled: HashMap<u32, SimTime>,
}

impl Autoscaler {
    /// An autoscaler with the given thresholds.
    pub fn new(config: AutoscaleConfig) -> Self {
        Self {
            config,
            last_scaled: HashMap::new(),
        }
    }

    /// Pure Algorithm 1: decide from an already-forecast `u_max`.
    fn decide(
        &mut self,
        tenant: u32,
        now: SimTime,
        tenant_quota: f64,
        partitions: u32,
        u_max: f64,
    ) -> ScalingDecision {
        assert!(partitions > 0, "tenant must have at least one partition");
        if u_max > UPPER_THRESHOLD * tenant_quota {
            let new_tenant_quota = u_max / LOWER_THRESHOLD;
            let mut new_partition_quota = new_tenant_quota / partitions as f64;
            let mut new_partitions = partitions;
            let mut split = false;
            if new_partition_quota > self.config.partition_quota_upper {
                new_partition_quota *= 0.5;
                new_partitions *= 2;
                split = true;
            }
            self.last_scaled.insert(tenant, now);
            ScalingDecision::ScaleUp {
                new_tenant_quota,
                new_partition_quota,
                new_partitions,
                split,
            }
        } else if u_max < LOWER_THRESHOLD * tenant_quota {
            let since = self
                .last_scaled
                .get(&tenant)
                .map(|&t| now.saturating_sub(t));
            if since.is_some_and(|dt| dt < DOWNSCALE_COOLDOWN) {
                return ScalingDecision::Hold;
            }
            let new_tenant_quota = u_max / LOWER_THRESHOLD;
            let new_partition_quota =
                (new_tenant_quota / partitions as f64).max(PARTITION_QUOTA_LOWER);
            self.last_scaled.insert(tenant, now);
            ScalingDecision::ScaleDown {
                new_tenant_quota,
                new_partition_quota,
            }
        } else {
            ScalingDecision::Hold
        }
    }

    /// Forecast the next-7-day peak from 30 days of hourly `usage`, then run
    /// Algorithm 1.
    pub fn forecast_and_decide(
        &mut self,
        tenant: u32,
        now: SimTime,
        usage: &TimeSeries,
        tenant_quota: f64,
        partitions: u32,
    ) -> (ScalingDecision, ForecastOutput) {
        let horizon = 7 * 24; // 7 days of hourly samples
        let output = forecast(usage, horizon);
        let decision = self.decide(tenant, now, tenant_quota, partitions, output.peak);
        (decision, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_util::clock::days;

    fn scaler() -> Autoscaler {
        Autoscaler::new(AutoscaleConfig::default())
    }

    #[test]
    fn holds_inside_band() {
        let mut s = scaler();
        // 70% of quota: between 0.65 and 0.85.
        assert_eq!(s.decide(1, 0, 1000.0, 4, 700.0), ScalingDecision::Hold);
    }

    #[test]
    fn scales_up_above_85_percent() {
        let mut s = scaler();
        let d = s.decide(1, 0, 1000.0, 4, 900.0);
        match d {
            ScalingDecision::ScaleUp {
                new_tenant_quota,
                new_partition_quota,
                new_partitions,
                split,
            } => {
                assert!((new_tenant_quota - 900.0 / 0.65).abs() < 1e-9);
                assert_eq!(new_partitions, 4);
                assert!(!split);
                assert!((new_partition_quota - new_tenant_quota / 4.0).abs() < 1e-9);
            }
            other => panic!("expected ScaleUp, got {other:?}"),
        }
    }

    #[test]
    fn split_triggers_when_partition_quota_breaches_up() {
        let mut s = Autoscaler::new(AutoscaleConfig {
            partition_quota_upper: 500.0,
        });
        // New quota = 3000/0.65 ≈ 4615; per-partition (N=4) ≈ 1154 > 500 → split.
        let d = s.decide(1, 0, 3000.0, 4, 3000.0);
        match d {
            ScalingDecision::ScaleUp {
                new_partition_quota,
                new_partitions,
                split,
                new_tenant_quota,
            } => {
                assert!(split);
                assert_eq!(new_partitions, 8);
                assert!((new_partition_quota - new_tenant_quota / 8.0).abs() < 1e-9);
            }
            other => panic!("expected split ScaleUp, got {other:?}"),
        }
    }

    #[test]
    fn scales_down_below_65_percent() {
        let mut s = scaler();
        let d = s.decide(1, days(30), 1000.0, 2, 100.0);
        match d {
            ScalingDecision::ScaleDown {
                new_tenant_quota,
                new_partition_quota,
            } => {
                assert!((new_tenant_quota - 100.0 / 0.65).abs() < 1e-9);
                // 153.8/2 = 76.9 < LOWER=100 → floored.
                assert!((new_partition_quota - 100.0).abs() < 1e-9);
            }
            other => panic!("expected ScaleDown, got {other:?}"),
        }
    }

    #[test]
    fn downscale_respects_cooldown() {
        let mut s = scaler();
        // An upscale at t=0 stamps the tenant.
        s.decide(1, 0, 1000.0, 2, 900.0);
        // 3 days later usage collapsed — but cooldown forbids downscaling.
        assert_eq!(
            s.decide(1, days(3), 1384.0, 2, 100.0),
            ScalingDecision::Hold
        );
        // 8 days later it is allowed.
        assert!(matches!(
            s.decide(1, days(8), 1384.0, 2, 100.0),
            ScalingDecision::ScaleDown { .. }
        ));
    }

    #[test]
    fn upscale_ignores_cooldown() {
        let mut s = scaler();
        s.decide(1, 0, 1000.0, 2, 100.0); // downscale at t=0
                                          // Usage explodes the next day: upscale must fire immediately.
        assert!(matches!(
            s.decide(1, days(1), 153.8, 2, 500.0),
            ScalingDecision::ScaleUp { .. }
        ));
    }

    #[test]
    fn forecast_and_decide_scales_growing_tenant() {
        const HOUR: u64 = 3_600_000_000;
        // 30 days of hourly usage rising linearly toward the quota.
        let usage: Vec<f64> = (0..720).map(|t| 300.0 + t as f64).collect();
        let series = TimeSeries::new(0, HOUR, usage);
        let mut s = scaler();
        let (decision, output) = s.forecast_and_decide(7, days(30), &series, 1100.0, 4);
        assert!(output.peak > 1000.0, "peak={}", output.peak);
        assert!(
            matches!(decision, ScalingDecision::ScaleUp { .. }),
            "{decision:?}"
        );
    }

    #[test]
    fn cooldown_applies_per_tenant() {
        let mut s = scaler();
        s.decide(1, 0, 1000.0, 2, 900.0);
        // Tenant 2 never scaled: may downscale immediately.
        assert!(matches!(
            s.decide(2, days(1), 1000.0, 2, 100.0),
            ScalingDecision::ScaleDown { .. }
        ));
    }
}
