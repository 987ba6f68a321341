//! Figure 8b — Oncall (urgent contact) amount decreases by 65 %.
//!
//! "We tracked the change in the number of upscaling oncalls over
//! approximately six months before and after the deployment … After
//! deployment, the number of oncalls decreased by approximately 65 %."
//!
//! "The occurrence of emergency oncalls likely indicates that users have
//! experienced throttling." We model a population of tenants whose usage
//! grows with noise; in **reactive** mode a quota is raised only *after* usage
//! crosses it (each crossing files oncall tickets that week); in **predictive**
//! mode the Algorithm-1 autoscaler raises quotas ahead of the forecast peak,
//! so only forecast misses (sudden unforecastable jumps) produce tickets.

use crate::{banner, fmt, sparkline};
use abase_scheduler::{AutoscaleConfig, Autoscaler, ScalingDecision};
use abase_util::clock::days;
use abase_util::TimeSeries;
use abase_workload::series::HOUR;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How tenant quotas are managed in the oncall study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScalingMode {
    /// Quota raised only after a throttling incident (pre-deployment).
    Reactive,
    /// Predictive autoscaling (post-deployment, §5.1).
    Predictive,
}

/// Weekly usage growth factor per tenant (mean).
const WEEKLY_GROWTH: f64 = 1.05;
/// Multiplicative usage noise.
const NOISE: f64 = 0.08;
/// Per-tenant per-week probability of an unforecastable flash burst (hot
/// events, product launches) that no forecaster can anticipate.
const FLASH_BURST_PROB: f64 = 0.02;
/// Peak multiplier of a flash burst.
const FLASH_BURST_FACTOR: f64 = 2.2;

/// Run the study over `tenants` for `weeks` in one mode and return oncall
/// tickets per week.
#[allow(clippy::needless_range_loop)]
fn run_oncall_study(tenants: usize, weeks: usize, mode: ScalingMode) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(17);
    let mut weekly = vec![0u32; weeks];
    let mut autoscaler = Autoscaler::new(AutoscaleConfig::default());
    for tenant in 0..tenants {
        // Initial state: usage at ~50 % of quota.
        let mut usage = 100.0 * rng.gen_range(0.5..2.0);
        let mut quota = usage * 2.0;
        // Rolling 30-day hourly history fed to the forecaster.
        let mut history: Vec<f64> = Vec::new();
        let growth = WEEKLY_GROWTH + rng.gen_range(-0.02..0.02);
        for week in 0..weeks {
            // One week of hourly samples with a daily cycle and noise.
            for h in 0..24 * 7 {
                let diurnal = 1.0 + 0.2 * (2.0 * std::f64::consts::PI * h as f64 / 24.0).sin();
                let n = 1.0 + NOISE * rng.gen_range(-1.0_f64..1.0);
                history.push(usage * diurnal * n);
            }
            if history.len() > 720 {
                let cut = history.len() - 720;
                history.drain(..cut);
            }
            let week_slice = &history[history.len().saturating_sub(24 * 7)..];
            let mut week_peak = week_slice.iter().copied().fold(0.0, f64::max);
            // Flash bursts are invisible to history: they spike the observed
            // peak without leaving a forecastable trace.
            if rng.gen::<f64>() < FLASH_BURST_PROB {
                week_peak *= FLASH_BURST_FACTOR;
            }
            if week_peak > quota {
                // Throttling: a ticket is filed this week; support bumps the
                // quota reactively (in either mode — this is the emergency
                // path).
                weekly[week] += 1;
                quota = week_peak / 0.65;
            } else if mode == ScalingMode::Predictive && history.len() >= 240 {
                // The autoscaler runs weekly on the trailing history.
                let series = TimeSeries::new(0, HOUR, history.clone());
                let now = days(week as u64 * 7);
                let (decision, _) =
                    autoscaler.forecast_and_decide(tenant as u32, now, &series, quota, 4);
                match decision {
                    ScalingDecision::ScaleUp {
                        new_tenant_quota, ..
                    } => quota = new_tenant_quota,
                    ScalingDecision::ScaleDown {
                        new_tenant_quota, ..
                    } => quota = new_tenant_quota.max(week_peak * 1.1),
                    ScalingDecision::Hold => {}
                }
            }
            usage *= growth;
        }
    }
    weekly
}

/// Mean of weekly ticket counts.
fn mean(weeks: &[u32]) -> f64 {
    weeks.iter().map(|&c| f64::from(c)).sum::<f64>() / weeks.len().max(1) as f64
}

/// Print the spliced reactive → predictive oncall timeline.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Figure 8b",
        "weekly up-scaling oncall tickets, reactive vs. predictive",
        "~65% reduction after deploying predictive autoscaling",
    );
    // Pre-deployment half: reactive; post-deployment half: predictive —
    // spliced into one timeline like the paper's before/after plot.
    let (tenants, weeks) = (200, 28);
    let reactive = run_oncall_study(tenants, weeks, ScalingMode::Reactive);
    let predictive = run_oncall_study(tenants, weeks, ScalingMode::Predictive);
    let half = weeks / 2;
    let timeline: Vec<u32> = reactive[..half]
        .iter()
        .chain(&predictive[half..])
        .copied()
        .collect();
    println!("({tenants} tenants, {weeks} weeks, autoscaling deployed at week {half})\n");
    println!(
        "weekly oncalls: [{}]",
        sparkline(&timeline.iter().map(|&c| f64::from(c)).collect::<Vec<_>>())
    );
    for (week, count) in timeline.iter().enumerate() {
        let marker = if week == half {
            "  <-- deploy autoscaling"
        } else {
            ""
        };
        println!("  week {week:>2}: {}{marker}", "#".repeat(*count as usize));
    }
    let before = mean(&timeline[..half]);
    let after = mean(&timeline[half..]);
    let reduction = 1.0 - after / before.max(1e-9);
    println!(
        "\nmean weekly oncalls: before {} after {} -> reduction {}%",
        fmt(before, 1),
        fmt(after, 1),
        fmt(reduction * 100.0, 0)
    );
    println!("paper: ~65% reduction");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictive_mode_reduces_oncalls() {
        let reactive = mean(&run_oncall_study(60, 16, ScalingMode::Reactive));
        let predictive = mean(&run_oncall_study(60, 16, ScalingMode::Predictive));
        assert!(
            predictive < reactive * 0.6,
            "reactive {reactive} vs predictive {predictive}"
        );
    }

    #[test]
    fn reactive_mode_files_recurring_tickets() {
        let reactive = mean(&run_oncall_study(40, 12, ScalingMode::Reactive));
        assert!(reactive > 1.0, "mean={reactive}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_oncall_study(20, 8, ScalingMode::Predictive);
        let b = run_oncall_study(20, 8, ScalingMode::Predictive);
        assert_eq!(a, b);
    }
}
