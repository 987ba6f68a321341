//! Figure 4 — Metric values across tenant percentiles.
//!
//! Paper reference points: latency-to-SLA max 66.0 % / p90 24.0 % / p50
//! 11.2 %; cache hit p99 100 % / p90 99.9 % / p50 93.5 %; read ratio p99
//! 99.9 % / p90 97.6 % / p50 39.3 %; KV size p99 308 KB / p90 50 KB / p50
//! 0.12 KB.
//!
//! The hit-ratio, read-ratio, and KV-size rows come from the calibrated
//! tenant population; the latency row derives each tenant's P99 latency from
//! the DataNode cost model (dispatch + miss I/O + transfer) and reports it
//! against a 10 ms SLA. The paper's latency/SLA ratios also depend on
//! per-tenant SLA tiers we have no data for, so the row reproduces the
//! *claim* (every tenant well under SLA, long tail spanning ~6×) rather than
//! the exact percentages.

use crate::{banner, fmt, pct, print_table};
use abase_workload::TenantPopulation;

/// P99 latency from the DataNode cost model: 0.3 ms dispatch, 2 ms disk read
/// on a miss (P99 sees a miss once misses exceed 1 %), plus value transfer at
/// ~128 KB/ms.
fn p99_latency_ms(hit_ratio: f64, kv_bytes: f64) -> f64 {
    let base = 0.3;
    let io = 2.0;
    let transfer = kv_bytes / (128.0 * 1024.0);
    if hit_ratio >= 0.99 {
        base + transfer
    } else {
        base + io + transfer
    }
}

const SLA_MS: f64 = 16.0;

/// Print this experiment's report; it has no smoke size.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Figure 4",
        "per-tenant distributions: latency-to-SLA, cache hit, read ratio, KV size",
        "lat/SLA max 66%, p90 24%, p50 11.2%; hit p50 93.5%; read p50 39.3%; KV p50 0.12KB p90 50KB p99 308KB",
    );
    let population = TenantPopulation::generate(2_000, 2);
    println!("(2000 tenants, seed 2, uniform SLA = {SLA_MS} ms)\n");

    let lat_ratio =
        |t: &abase_workload::Tenant| p99_latency_ms(t.cache_hit_ratio, t.kv_bytes) / SLA_MS;
    let rows = vec![
        vec![
            "latency / SLA".to_string(),
            pct(population.percentile(0.50, lat_ratio)),
            pct(population.percentile(0.90, lat_ratio)),
            pct(population.percentile(0.99, lat_ratio)),
            pct(population.percentile(1.0, lat_ratio)),
            "p50 11.2%, p90 24.0%, max 66.0%".to_string(),
        ],
        vec![
            "cache hit ratio".to_string(),
            pct(population.percentile(0.50, |t| t.cache_hit_ratio)),
            pct(population.percentile(0.90, |t| t.cache_hit_ratio)),
            pct(population.percentile(0.99, |t| t.cache_hit_ratio)),
            pct(population.percentile(1.0, |t| t.cache_hit_ratio)),
            "p50 93.5%, p90 99.9%, p99 100%".to_string(),
        ],
        vec![
            "read ratio".to_string(),
            pct(population.percentile(0.50, |t| t.read_ratio)),
            pct(population.percentile(0.90, |t| t.read_ratio)),
            pct(population.percentile(0.99, |t| t.read_ratio)),
            pct(population.percentile(1.0, |t| t.read_ratio)),
            "p50 39.3%, p90 97.6%, p99 99.9%".to_string(),
        ],
        vec![
            "KV size (KB)".to_string(),
            fmt(population.percentile(0.50, |t| t.kv_bytes) / 1024.0, 2),
            fmt(population.percentile(0.90, |t| t.kv_bytes) / 1024.0, 1),
            fmt(population.percentile(0.99, |t| t.kv_bytes) / 1024.0, 0),
            fmt(population.percentile(1.0, |t| t.kv_bytes) / 1024.0, 0),
            "p50 0.12KB, p90 50KB, p99 308KB".to_string(),
        ],
    ];
    print_table(
        &["metric", "p50", "p90", "p99", "max", "paper reference"],
        &rows,
    );

    // The headline claim: every tenant under SLA, with a long latency tail.
    let max_ratio = population.percentile(1.0, lat_ratio);
    let p50_ratio = population.percentile(0.50, lat_ratio);
    println!(
        "\nAll tenants below SLA: {} (worst at {} of SLA; p50/max spread {}x)",
        max_ratio < 1.0,
        pct(max_ratio),
        fmt(max_ratio / p50_ratio, 1)
    );
    Ok(())
}
