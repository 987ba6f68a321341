//! Figure 8a — A predictive scaling case.
//!
//! "Disk usage shows a 24-hour periodicity with an increasing trend. On day
//! 10, ABase predicted the usage would reach 85 % of the quota within a week,
//! prompting a proactive quota increase to keep predicted usage below 65 %.
//! This adjustment matched actual usage, effectively preventing user
//! throttling."

use crate::{banner, fmt, print_table};
use abase_scheduler::{AutoscaleConfig, Autoscaler, ScalingDecision};
use abase_util::clock::days;
use abase_workload::series::fig8a_disk_usage;

/// Print this experiment's report; it has no smoke size.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Figure 8a",
        "predictive disk-quota scaling on a growing 24h-periodic series",
        "day-10 forecast breaches 85% of quota ⇒ quota raised to peak/0.65; no throttling",
    );
    // The full 21-day ground truth; the autoscaler sees a growing prefix.
    let truth = fig8a_disk_usage();
    let mut autoscaler = Autoscaler::new(AutoscaleConfig {
        partition_quota_upper: f64::INFINITY, // storage quotas do not split here
    });
    let mut quota = 950.0; // initial tenant storage quota
    let mut rows = Vec::new();
    let mut scaled_on_day = None;
    let mut throttled_days = 0u32;
    for day in 3..21 {
        let (observed, _) = truth.split_at(day * 24);
        let day_max = observed.values()[(day - 1) * 24..]
            .iter()
            .copied()
            .fold(0.0, f64::max);
        if day_max > quota {
            throttled_days += 1;
        }
        let (decision, output) =
            autoscaler.forecast_and_decide(1, days(day as u64), &observed, quota, 8);
        let mut action = "-".to_string();
        if let ScalingDecision::ScaleUp {
            new_tenant_quota, ..
        } = decision
        {
            action = format!("scale up -> {}", fmt(new_tenant_quota, 0));
            if scaled_on_day.is_none() {
                scaled_on_day = Some(day);
            }
            quota = new_tenant_quota;
        }
        rows.push(vec![
            format!("{day}"),
            fmt(day_max, 0),
            fmt(quota, 0),
            fmt(output.peak, 0),
            fmt(output.peak / quota, 2),
            action,
        ]);
    }
    print_table(
        &[
            "day",
            "actual max",
            "quota",
            "7d forecast peak",
            "forecast/quota",
            "action",
        ],
        &rows,
    );
    println!();
    match scaled_on_day {
        Some(day) => println!(
            "Proactive upscale fired on day {day} (paper: day 10); throttled days: {throttled_days} (paper: 0)"
        ),
        None => println!("No upscale fired — forecast never breached 85% (unexpected)"),
    }
    // Post-scaling check: actual usage stayed under the final quota.
    let final_max = truth.values().iter().copied().fold(0.0, f64::max);
    println!(
        "Final actual peak {} vs final quota {} — headroom {}",
        fmt(final_max, 0),
        fmt(quota, 0),
        fmt(quota - final_max, 0)
    );
    Ok(())
}
