//! Figure 5 — Tenant latency is stable amid workload fluctuations during the
//! Double-11 Shopping Festival.
//!
//! Six panels (QPS / cache hit / latency per tenant), each reproducing one
//! dynamism pattern:
//!   (a) QPS increases, cache hit stays ~100 %
//!   (b) QPS increases, cache hit decreases (key dispersion)
//!   (c) QPS and cache hit both increase (hot keys)
//!   (d) QPS stable, cache hit decreases (cold scans)
//!   (e) short QPS peak with hit collapse (ad-hoc cold reads)
//!   (f) pool level: aggregate stays stable
//!
//! The pool-level claim — "the latency for all tenants remained stable, still
//! fully meeting the SLA" — is checked at the end.

use crate::{banner, fmt, pct, sparkline};
use abase_sim::isolation::{IsolationExperiment, MinutePoint, TenantSpec};
use abase_sim::node::{DataNodeConfig, DataNodeSim};
use abase_sim::proxy::ProxyPlaneConfig;
use abase_workload::{KeyspaceConfig, TrafficShape};

const DAY_SECS: u64 = 10; // one reported "day" = 10 virtual seconds
const WARMUP_DAYS: u64 = 6;
const FESTIVAL_DAYS: u64 = 6;
const COOLDOWN_DAYS: u64 = 3;

fn spec(id: u32, qps: f64, n_keys: usize, zipf: f64) -> TenantSpec {
    TenantSpec {
        id,
        tenant_quota_ru: 12_000.0,
        partition: u64::from(id) * 10,
        partition_quota_ru: 6_000.0,
        shape: TrafficShape::Steady(qps),
        keyspace: KeyspaceConfig {
            n_keys,
            zipf_s: zipf,
            read_ratio: 0.95,
            ..Default::default()
        },
        proxy: ProxyPlaneConfig {
            n_proxies: 4,
            n_groups: 2,
            cache: abase_cache::aulru::AuLruConfig {
                capacity_bytes: 4 << 20,
                ..Default::default()
            },
            ..Default::default()
        },
    }
}

/// Print this experiment's report; it has no smoke size.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Figure 5",
        "Double-11 dynamism: six tenant panels over a 15-day window",
        "QPS surges, hit-ratio swings, hot keys — all with stable latency",
    );
    let node = DataNodeSim::new(
        1,
        DataNodeConfig {
            cpu_ru_per_sec: 60_000.0,
            cache_bytes: 64 << 20,
            ..Default::default()
        },
    );
    let specs = vec![
        spec(1, 1_000.0, 2_000, 1.2),   // (a) small hot set: hit immune to QPS
        spec(2, 1_000.0, 300_000, 1.0), // (b) will disperse during festival
        spec(3, 1_000.0, 300_000, 0.9), // (c) will concentrate on hot keys
        spec(4, 1_000.0, 300_000, 1.1), // (d) stable QPS, daily cold scans
        spec(5, 1_000.0, 500_000, 1.0), // (e) short burst of near-uniform reads
    ];
    let mut exp = IsolationExperiment::new(node, specs, 2024);
    exp.set_minute_secs(DAY_SECS);

    let mut all: Vec<MinutePoint> = Vec::new();
    // Warm-up: steady traffic, caches converge.
    all.extend(exp.run_minutes(WARMUP_DAYS));
    // Festival begins.
    exp.set_shape(1, TrafficShape::Steady(3_000.0));
    exp.set_shape(2, TrafficShape::Steady(3_000.0));
    exp.gen_mut(2).set_skew(0.3); // (b) dispersed keys
    exp.set_shape(3, TrafficShape::Steady(3_000.0));
    exp.gen_mut(3).set_skew(1.7); // (c) hot-key concentration
    for day in 0..FESTIVAL_DAYS {
        // (d): a cold scan shifts its window every festival day.
        exp.gen_mut(4).shift_window(100_000);
        // (b): dispersion also wanders so the cache never converges.
        exp.gen_mut(2).shift_window(60_000);
        // (e): three-day burst of nearly uniform reads mid-festival.
        if day == 2 {
            exp.set_shape(5, TrafficShape::Steady(4_000.0));
            exp.gen_mut(5).set_skew(0.02);
        }
        if day == 5 {
            exp.set_shape(5, TrafficShape::Steady(1_000.0));
            exp.gen_mut(5).set_skew(1.0);
        }
        all.extend(exp.run_minutes(1));
    }
    // Festival ends.
    for t in 1..=3 {
        exp.set_shape(t, TrafficShape::Steady(1_000.0));
    }
    exp.gen_mut(2).set_skew(1.0);
    exp.gen_mut(3).set_skew(0.9);
    all.extend(exp.run_minutes(COOLDOWN_DAYS));

    let total_days = WARMUP_DAYS + FESTIVAL_DAYS + COOLDOWN_DAYS;
    let festival_mid = WARMUP_DAYS + 3;
    let panels = [
        (1u32, "(a) QPS up, hit stable"),
        (2, "(b) QPS up, hit drops"),
        (3, "(c) QPS up, hit rises (hot keys)"),
        (4, "(d) QPS stable, hit drops"),
        (5, "(e) short burst, hit collapses"),
    ];
    let series = |tenant: u32, f: &dyn Fn(&MinutePoint) -> f64| -> Vec<f64> {
        all.iter().filter(|p| p.tenant == tenant).map(f).collect()
    };
    for (tenant, title) in panels {
        let qps = series(tenant, &|p| p.success_qps);
        let hit = series(tenant, &|p| p.cache_hit_ratio);
        let lat = series(tenant, &|p| p.p99_latency_ms);
        println!("\n{title}");
        println!(
            "  qps  [{}] baseline {} peak {}",
            sparkline(&qps),
            fmt(qps[WARMUP_DAYS as usize - 1], 0),
            fmt(qps.iter().copied().fold(0.0, f64::max), 0)
        );
        println!(
            "  hit  [{}] pre {} | festival {} | post {}",
            sparkline(&hit),
            pct(hit[WARMUP_DAYS as usize - 1]),
            pct(hit[festival_mid as usize]),
            pct(hit[total_days as usize - 1])
        );
        println!(
            "  lat  [{}] max p99 {} ms",
            sparkline(&lat),
            fmt(lat.iter().copied().fold(0.0, f64::max), 2)
        );
    }

    // (f) pool level.
    let mut pool_qps = Vec::new();
    let mut pool_hit = Vec::new();
    let mut worst_lat: f64 = 0.0;
    for day in 0..total_days {
        let pts: Vec<_> = all.iter().filter(|p| p.minute == day).collect();
        let qps: f64 = pts.iter().map(|p| p.success_qps).sum();
        let hits: f64 = pts.iter().map(|p| p.cache_hit_ratio * p.success_qps).sum();
        pool_qps.push(qps);
        pool_hit.push(if qps > 0.0 { hits / qps } else { 0.0 });
        worst_lat = worst_lat.max(pts.iter().map(|p| p.p99_latency_ms).fold(0.0, f64::max));
    }
    println!("\n(f) resource-pool level");
    println!(
        "  qps  [{}] hit  [{}] (pool hit swing: {} .. {})",
        sparkline(&pool_qps),
        sparkline(&pool_hit),
        pct(pool_hit.iter().copied().fold(f64::INFINITY, f64::min)),
        pct(pool_hit.iter().copied().fold(0.0, f64::max))
    );
    println!(
        "\nSLA check (paper: latency stable, fully meeting SLA): worst tenant p99 {} ms {}",
        fmt(worst_lat, 2),
        if worst_lat < 50.0 {
            "< 50 ms SLA ✓"
        } else {
            "exceeds 50 ms ✗"
        }
    );
    Ok(())
}
